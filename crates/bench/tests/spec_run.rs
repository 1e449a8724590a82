//! `spec_run`'s command line: flags that a spec's route cannot honour are
//! refused before anything runs, not dropped.

use std::process::{Command, Output};

fn spec_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spec_run")).args(args).output().expect("spec_run runs")
}

fn spec(name: &str) -> String {
    format!("{}/../../examples/specs/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn retries_and_resume_are_refused_for_pipeline_specs() {
    // `[attacker]` and `[profile]` specs go to the red-team drivers,
    // neither of which takes a journal, and no spec takes retries: a cell
    // runs once. The refusal comes from argument parsing or the load
    // loop, so `--validate` (no simulation) shows it.
    let cache = std::env::temp_dir().join(format!("spec-run-refusal-{}", std::process::id()));
    let cache = cache.to_str().expect("utf-8 temp path");
    for (flags, file, reason) in [
        (&["--retries", "2"][..], "attacker_realism.toml", "unknown argument"),
        (&["--resume", "--cache-dir", cache][..], "attacker_realism.toml", "[attacker]"),
        (&["--resume", "--cache-dir", cache][..], "profile_quick.toml", "[profile]"),
    ] {
        let mut args = vec!["--validate"];
        args.extend_from_slice(flags);
        let path = spec(file);
        args.push(&path);
        let out = spec_run(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flags[0]) && stderr.contains(reason), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: refused before the first spec is announced");
    }
    assert!(!std::path::Path::new(cache).exists(), "nothing was opened");
}

#[test]
fn a_cache_dir_that_cannot_be_opened_exits_2_naming_it() {
    // An `[attacker]` spec used to warn "running uncached" and exit 0 where
    // a plain sweep exited 2: one rule now, checked before anything runs.
    let dir = std::env::temp_dir().join(format!("spec-run-bad-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let file = dir.join("not-a-dir");
    std::fs::write(&file, "").expect("regular file");
    let file = file.to_str().expect("utf-8 temp path");
    let out = spec_run(&["--cache-dir", file, &spec("attacker_realism.toml")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(&format!("cannot open cache dir {file}")), "{stderr}");
    assert!(out.stdout.is_empty(), "refused before the first spec is announced");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn plain_sweeps_refuse_retries_as_an_unknown_flag() {
    let out = spec_run(&["--validate", "--retries", "2", &spec("fig09_quick.toml")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown argument '--retries'"), "{stderr}");
    assert!(out.stdout.is_empty(), "refused before the first spec is announced");
}

#[test]
fn the_banner_counts_series_and_points() {
    let dir = std::env::temp_dir().join(format!("spec-run-banner-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let series = "[[series]]\ntracker = \"dapper-h\"\n\
                  [[series]]\ntracker = \"para\"\nattack = \"refresh\"\nisolate = true\n";
    let eight_channel = "[system]\ngeometry = \"enlarged-8ch\"\nllc_mib_per_core = [2, 4]\n";
    for (name, body, banner) in [
        (
            "plain",
            "trackers = [\"none\", \"para\"]\nattacks = [\"none\", \"refresh\"]\n".to_string(),
            "4 experiments (1 workloads x 4 series)",
        ),
        (
            "nrh",
            format!("nrh = [125, 500, 2000]\n{series}"),
            "6 experiments (1 workloads x 2 series x 3 N_RH values)",
        ),
        (
            "llc",
            format!("nrh = [125, 500]\n{series}{eight_channel}"),
            "8 experiments (1 workloads x 2 series x 2 N_RH values x 2 LLC sizes)",
        ),
    ] {
        let file = dir.join(format!("{name}.toml"));
        let text = format!("name = \"{name}\"\nworkloads = [\"gcc_like\"]\n{body}");
        std::fs::write(&file, text).expect("write spec");
        let out = spec_run(&["--validate", file.to_str().expect("utf-8 temp path")]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{name}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(stdout.contains(&format!("spec '{name}' expands to {banner}")), "{name}: {stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
