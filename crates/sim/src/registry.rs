//! The tracker table: every tracker the simulator can build, in the order
//! the paper's tables list them.
//!
//! [`TRACKERS`] is fixed at compile time — the insecure baseline, the
//! eight schemes in `trackers`, and the DAPPER variants from their home
//! crate, each one `const` [`TrackerSpec`] kept next to its
//! implementation. Every tracker name anywhere (experiments, spec files,
//! the `redteam` CLI) resolves through [`resolve`]: key, display name, or
//! alias, case and separators ignored. A tracker outside the table still
//! runs: hand its `&'static TrackerSpec` to
//! [`TrackerSel::from_spec`](crate::TrackerSel::from_spec).
//!
//! ```
//! let keys: Vec<&str> = sim::registry::tracker_keys().collect();
//! assert_eq!(keys.first(), Some(&"none"));
//! assert!(keys.contains(&"dapper-h"));
//! ```

use sim_core::registry::{normalize_key, RegistryError, TrackerSpec};
use sim_core::tracker::NullTracker;
use trackers::{abacus, blockhammer, comet, hydra, para, prac, pride, start};

/// The insecure baseline ([`NullTracker`]): no parameters, zero storage.
const NONE: TrackerSpec = TrackerSpec {
    key: "none",
    name: "none",
    aliases: &["null", "insecure", "baseline"],
    reserves_llc: false,
    params: &[],
    check: |_p, _v| Ok(()),
    factory: |_p, _v| Ok(Box::new(NullTracker)),
};

/// Every tracker, in the paper's table order.
pub static TRACKERS: [TrackerSpec; 11] = [
    NONE,
    hydra::SPEC,
    start::SPEC,
    comet::SPEC,
    abacus::SPEC,
    blockhammer::SPEC,
    para::SPEC,
    pride::SPEC,
    prac::SPEC,
    dapper::DAPPER_S,
    dapper::DAPPER_H,
];

/// Resolves a tracker name (key, display name, or alias; case and
/// separator insensitive) to its entry.
pub fn resolve(name: &str) -> Result<&'static TrackerSpec, RegistryError> {
    let wanted = normalize_key(name);
    TRACKERS.iter().find(|spec| spec.names().any(|n| normalize_key(n) == wanted)).ok_or_else(|| {
        RegistryError::UnknownTracker {
            name: name.to_string(),
            known: tracker_keys().map(str::to_string).collect(),
        }
    })
}

/// Canonical keys of every tracker, in table order.
pub fn tracker_keys() -> impl Iterator<Item = &'static str> {
    TRACKERS.iter().map(|spec| spec.key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, TrackerSel};
    use sim_core::tracker::TrackerParams;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn builtins_register_in_paper_order() {
        let expected = [
            "none",
            "hydra",
            "start",
            "comet",
            "abacus",
            "blockhammer",
            "para",
            "pride",
            "prac",
            "dapper-s",
            "dapper-h",
        ];
        assert_eq!(tracker_keys().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn lookup_normalizes_case_and_separators() {
        for (name, key) in [
            ("dapper-h", "dapper-h"),
            ("DAPPER_H", "dapper-h"),
            ("DapperH", "dapper-h"),
            ("dapper", "dapper-h"),
            ("NONE", "none"),
            ("Null", "none"),
            ("insecure", "none"),
            ("BH", "blockhammer"),
        ] {
            assert_eq!(resolve(name).map(|s| s.key), Ok(key), "{name}");
        }
        let err = resolve("unknown").unwrap_err();
        assert!(err.to_string().contains("unknown tracker 'unknown'"), "{err}");
        assert!(err.to_string().contains("dapper-h"), "error must list known keys: {err}");
    }

    #[test]
    fn no_two_entries_share_a_spelling() {
        let mut seen = BTreeSet::new();
        for spec in &TRACKERS {
            let own: BTreeSet<String> = spec.names().map(normalize_key).collect();
            for n in own {
                assert!(seen.insert(n.clone()), "'{n}' names two trackers");
            }
        }
    }

    #[test]
    fn every_builtin_builds_with_defaults() {
        let p = TrackerParams::baseline(500, 0, 7);
        for spec in &TRACKERS {
            let t = spec
                .build(p, &BTreeMap::new())
                .unwrap_or_else(|e| panic!("{} must build with defaults: {e}", spec.key));
            assert!(!t.name().is_empty());
        }
    }

    #[test]
    fn tailored_attack_routes_by_table_entry() {
        use crate::experiment::AttackChoice;
        use workloads::Attack;
        for spec in &TRACKERS {
            let want = match spec.key {
                "hydra" => Attack::HydraRccThrash,
                "start" => Attack::StartStream,
                "comet" => Attack::CometRatOverflow,
                "abacus" => Attack::AbacusSpillover,
                "dapper-s" | "dapper-h" => Attack::RefreshAttack,
                "none" | "blockhammer" | "para" | "pride" | "prac" => Attack::CacheThrash,
                key => panic!("{key}: no tailored attack recorded for this tracker"),
            };
            let got = AttackChoice::Tailored.resolve(&TrackerSel::from_spec(spec));
            assert_eq!(got, Some(want), "{} ({})", spec.key, spec.name);
        }
    }

    #[test]
    fn null_spec_builds_the_insecure_baseline() {
        let p = TrackerParams::baseline(500, 0, 1);
        let t = resolve("none").unwrap().build(p, &BTreeMap::new()).unwrap();
        assert_eq!(t.name(), "none");
        assert_eq!(t.storage_overhead().sram_bytes, 0);
    }

    #[test]
    fn a_tracker_outside_the_table_runs_through_its_selection() {
        static OUTSIDE: TrackerSpec = TrackerSpec {
            key: "unit-test-tracker",
            name: "UnitTest",
            aliases: &[],
            reserves_llc: false,
            params: &[],
            check: |_p, _v| Ok(()),
            factory: |_p, _v| Ok(Box::new(NullTracker)),
        };
        assert!(resolve("unit-test-tracker").is_err(), "the table is fixed");
        let e = Experiment::quick("povray_like").window_us(20.0);
        let outside = e.clone().tracker(TrackerSel::from_spec(&OUTSIDE)).run();
        assert_eq!(outside.tracker_name, "UnitTest");
        assert_eq!(outside.run, e.tracker("none").run().run, "a null tracker by any name");
    }

    #[test]
    fn start_is_the_only_llc_reserver() {
        for spec in &TRACKERS {
            assert_eq!(spec.reserves_llc, spec.key == "start", "{}", spec.key);
        }
    }
}
