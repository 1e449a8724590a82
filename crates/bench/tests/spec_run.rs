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
    // `[attacker]` specs go to attackpipe and `[profile]` specs to the
    // profiler, neither of which takes a retry policy or a journal. The
    // refusal comes from the load loop, so `--validate` (no simulation)
    // shows it.
    let cache = std::env::temp_dir().join(format!("spec-run-refusal-{}", std::process::id()));
    let cache = cache.to_str().expect("utf-8 temp path");
    for (flags, file, section) in [
        (&["--retries", "2"][..], "attacker_realism.toml", "[attacker]"),
        (&["--resume", "--cache-dir", cache][..], "attacker_realism.toml", "[attacker]"),
        (&["--retries", "3", "--cache-dir", cache][..], "profile_quick.toml", "[profile]"),
    ] {
        let mut args = vec!["--validate"];
        args.extend_from_slice(flags);
        let path = spec(file);
        args.push(&path);
        let out = spec_run(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flags[0]) && stderr.contains(section), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: refused before the first spec is announced");
    }
    assert!(!std::path::Path::new(cache).exists(), "nothing was opened");
}

#[test]
fn plain_sweeps_still_take_retries() {
    let out = spec_run(&["--validate", "--retries", "2", &spec("fig09_quick.toml")]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}
