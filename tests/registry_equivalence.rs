//! Registry contract: every tracker key resolves through one lookup path
//! under any spelling, carries the metadata experiments rely on, and
//! builds with complete, paper-baseline defaults — explicit defaults and
//! absent ones are the same experiment, bit for bit.

use dapper_repro::sim::experiment::{Experiment, TrackerSel};
use dapper_repro::sim::{self, tracker_keys};

#[test]
fn every_key_resolves_by_any_spelling_to_the_same_spec() {
    for key in tracker_keys() {
        let spec = sim::registry::resolve(key).unwrap_or_else(|e| panic!("{key}: {e}"));
        assert_eq!(spec.key, key);
        // Display names resolve back to the same spec (one lookup path).
        assert_eq!(
            sim::registry::resolve(spec.name).unwrap().key,
            key,
            "display-name lookup drifted for {key}"
        );
        // Lookup is case- and separator-insensitive.
        let shouting = key.to_uppercase().replace('-', "_");
        assert_eq!(sim::registry::resolve(&shouting).unwrap().key, key, "{shouting}");
        // The selection experiments carry agrees with the spec.
        let sel = TrackerSel::by_key(key).unwrap();
        assert_eq!(sel.name(), spec.name);
        assert_eq!(sel.reserves_llc(), spec.reserves_llc, "{key}");
    }
    for (alias, key) in [("qprac", "prac"), ("dapper", "dapper-h"), ("insecure", "none")] {
        assert_eq!(sim::registry::resolve(alias).unwrap().key, key, "alias {alias}");
    }
}

#[test]
fn every_registry_key_with_defaults_builds_every_schema_param() {
    // Defaults must be complete: building with an empty override map gives
    // each factory a fully-populated parameter set.
    for spec in &sim::registry::TRACKERS {
        let resolved = spec
            .resolve_params(&std::collections::BTreeMap::new())
            .unwrap_or_else(|e| panic!("{}: {e}", spec.key));
        assert_eq!(resolved.len(), spec.params.len(), "{}", spec.key);
    }
}

#[test]
fn default_params_are_explicit_baseline_overrides() {
    // Passing the schema defaults *explicitly* must match passing nothing:
    // the declarative layer round-trips spec files that spell defaults out.
    let spec = sim::registry::resolve("hydra").unwrap();
    let defaults: std::collections::BTreeMap<_, _> =
        spec.params.iter().map(|p| (p.key.to_string(), p.default_value())).collect();
    let quick = || Experiment::quick("povray_like").window_us(100.0);
    let implicit = quick().tracker("hydra").build_system(false).run();
    let explicit = quick()
        .tracker(TrackerSel::by_key("hydra").unwrap().with_params(defaults).unwrap())
        .build_system(false)
        .run();
    assert_eq!(implicit, explicit);
}
