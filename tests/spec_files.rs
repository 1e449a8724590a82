//! Every spec file shipped under `examples/specs/` must parse, resolve
//! through the registry, and expand — with no simulation — so a broken
//! example (typo'd tracker key, renamed parameter, dropped workload) fails
//! CI instead of a user.

use dapper_repro::sim::cache::cell_key;
use dapper_repro::sim::spec::SweepSpec;
use std::path::PathBuf;

fn spec_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/specs")
}

fn spec_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(spec_dir())
        .expect("examples/specs must exist")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_example_spec_parses_and_expands() {
    let files = spec_files();
    assert!(!files.is_empty(), "examples/specs must ship at least one spec");
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        let spec =
            SweepSpec::from_toml_str(&text).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        let experiments = spec.expand().unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        assert!(!experiments.is_empty(), "{}: empty expansion", file.display());
        // Serialization round-trips: a spec the tooling re-emits is the
        // same spec.
        let reparsed = SweepSpec::from_toml_str(&spec.to_toml())
            .unwrap_or_else(|e| panic!("{} (re-render): {e}", file.display()));
        assert_eq!(reparsed, spec, "{}", file.display());
        let json_back = SweepSpec::from_json_str(&spec.to_json().render())
            .unwrap_or_else(|e| panic!("{} (json): {e}", file.display()));
        assert_eq!(json_back, spec, "{}", file.display());
    }
}

#[test]
fn keyed_expansion_equals_expand_then_cell_key() {
    // `expand_keyed` renders and hashes each cell's descriptor once; every
    // cache-aware front end takes keys from it instead of calling
    // `cell_key` per cell. It must name the same cells, in the same order,
    // under the same keys as the two-step form — on every shipped spec and
    // on the benchmark's pinned sweep.
    let pinned = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("benchmark/specs/campaign.toml");
    for file in spec_files().into_iter().chain([pinned]) {
        let text = std::fs::read_to_string(&file).unwrap();
        let spec = SweepSpec::from_toml_str(&text).unwrap();
        let experiments = spec.expand().unwrap();
        let keyed = spec.expand_keyed().unwrap();
        assert_eq!(keyed.len(), experiments.len(), "{}", file.display());
        for ((experiment, key), plain) in keyed.iter().zip(&experiments) {
            assert_eq!(format!("{experiment:?}"), format!("{plain:?}"), "{}", file.display());
            let two_step = cell_key(plain);
            assert!(two_step.is_some(), "{}: spec cells are cacheable", file.display());
            assert_eq!(key, &two_step, "{}: key and descriptor", file.display());
        }
    }
}

#[test]
fn fig09_spec_reproduces_the_figure_matrix() {
    // The acceptance spec: Fig. 9's tracker x workload x attack matrix —
    // DAPPER-S under the two mapping-agnostic attacks across the quick
    // subset, with the paper's isolating normalization.
    let text = std::fs::read_to_string(spec_dir().join("fig09_quick.toml")).unwrap();
    let spec = SweepSpec::from_toml_str(&text).unwrap();
    let experiments = spec.expand().unwrap();
    let quick = dapper_repro::workloads::quick_subset();
    assert_eq!(experiments.len(), quick.len() * 2, "9 workloads x 1 tracker x 2 attacks");
    assert!(experiments.iter().all(|e| e.tracker.key() == "dapper-s"));
    assert!(experiments.iter().all(|e| e.isolate_tracker_overhead));
    let attacks: std::collections::BTreeSet<String> =
        experiments.iter().map(|e| format!("{:?}", e.attack)).collect();
    assert_eq!(attacks.len(), 2, "streaming and refresh");
}

#[test]
fn transient_spec_attaches_telemetry_to_every_cell() {
    // The quick transient and the full one `fig_transient.toml` declares.
    for (file, window_us, stem, isolate) in [
        ("transient_telemetry.toml", 20.0, "transient_quick", true),
        ("fig_transient.toml", 50.0, "fig_transient", false),
    ] {
        let text = std::fs::read_to_string(spec_dir().join(file)).unwrap();
        let spec = SweepSpec::from_toml_str(&text).unwrap();
        let telemetry = spec.telemetry.as_ref().expect("[telemetry] section present");
        assert!(telemetry.spec.time_series && telemetry.spec.slowdown, "{file}");
        assert_eq!(telemetry.spec.window_us, Some(window_us), "{file}");
        assert_eq!(telemetry.out.as_deref(), Some(stem), "{file}");
        let experiments = spec.expand().unwrap();
        assert_eq!(experiments.len(), 6, "{file}: 1 workload x 3 trackers x 2 attacks");
        assert!(experiments.iter().all(|e| e.telemetry.slowdown && e.telemetry.time_series));
        assert!(experiments.iter().all(|e| e.telemetry.window_us == Some(window_us)), "{file}");
        assert!(experiments.iter().all(|e| e.isolate_tracker_overhead == isolate), "{file}");
    }
}

#[test]
fn cached_spec_round_trips_its_cache_section() {
    let text = std::fs::read_to_string(spec_dir().join("cached_smoke.toml")).unwrap();
    let spec = SweepSpec::from_toml_str(&text).unwrap();
    let cache = spec.cache.as_ref().expect("[cache] section present");
    assert_eq!(cache.dir.as_deref(), Some("out/run_cache"));

    // The section survives both serialized forms.
    let toml_back = SweepSpec::from_toml_str(&spec.to_toml()).unwrap();
    assert_eq!(toml_back.cache, spec.cache);
    let json_back = SweepSpec::from_json_str(&spec.to_json().render()).unwrap();
    assert_eq!(json_back.cache, spec.cache);

    // The section names a directory and nothing else: `spec_run
    // --no-cache` is the one opt-out.
    let err = SweepSpec::from_toml_str(&format!("{text}enabled = false\n")).unwrap_err();
    let err = err.to_string();
    assert!(err.contains("cache.enabled") && err.contains("allowed: dir"), "{err}");
}

#[test]
fn profile_spec_round_trips_its_profile_section() {
    let text = std::fs::read_to_string(spec_dir().join("profile_quick.toml")).unwrap();
    let spec = SweepSpec::from_toml_str(&text).unwrap();
    let profile = spec.profile.as_ref().expect("[profile] section present");
    assert_eq!(profile.bank_groups, Some(2));
    assert_eq!(profile.row_groups, Some(2));
    assert_eq!(profile.probe_window_us, Some(40.0));
    assert_eq!(profile.families, vec!["hammer".to_string(), "sweep".to_string()]);
    assert_eq!(profile.top_k, Some(3));
    assert_eq!(profile.budget, Some(12));

    // The section survives both serialized forms.
    let toml_back = SweepSpec::from_toml_str(&spec.to_toml()).unwrap();
    assert_eq!(toml_back.profile, spec.profile);
    let json_back = SweepSpec::from_json_str(&spec.to_json().render()).unwrap();
    assert_eq!(json_back.profile, spec.profile);

    // The profile stage's family enum accepts every family the spec names.
    for family in &profile.families {
        assert!(
            dapper_repro::redteam::Family::by_key(family).is_some(),
            "spec family '{family}' must resolve in the profile stage"
        );
    }
}

#[test]
fn enlarged_spec_selects_the_eight_channel_geometry() {
    let text = std::fs::read_to_string(spec_dir().join("enlarged_8ch.toml")).unwrap();
    let spec = SweepSpec::from_toml_str(&text).unwrap();
    let system = spec.system.as_ref().expect("[system] section present");
    assert_eq!(system.geometry.as_deref(), Some("enlarged-8ch"));

    let experiments = spec.expand().unwrap();
    assert_eq!(experiments.len(), 8, "2 workloads x 2 trackers x 2 attacks");
    for e in &experiments {
        assert_eq!(e.cfg.geometry.channels, 8, "enlarged-8ch applies to every cell");
    }
}

#[test]
fn sensitivity_spec_carries_param_overrides() {
    let text = std::fs::read_to_string(spec_dir().join("hydra_rcc_sensitivity.toml")).unwrap();
    let spec = SweepSpec::from_toml_str(&text).unwrap();
    let experiments = spec.expand().unwrap();
    let hydra = experiments.iter().find(|e| e.tracker.key() == "hydra").unwrap();
    assert_eq!(
        hydra.tracker.params()["rcc_entries"],
        dapper_repro::sim_core::ParamValue::Int(1024)
    );
    let dapper = experiments.iter().find(|e| e.tracker.key() == "dapper-h").unwrap();
    assert!(dapper.tracker.params().is_empty(), "overrides must not leak across trackers");
}
