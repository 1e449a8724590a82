//! The process-wide tracker registry.
//!
//! `sim` assembles the default [`TrackerRegistry`] from every built-in
//! tracker — the insecure baseline, the eight schemes in `trackers`, and
//! the DAPPER variants from their home crate — in the order the paper's
//! tables list them. Third-party trackers join the same namespace through
//! [`register_tracker`]; everything downstream (experiments, spec files,
//! the `redteam` CLI) resolves names through this one registry, so a
//! registered tracker is immediately sweepable from config.
//!
//! ```
//! let keys: Vec<String> = sim::registry::tracker_keys();
//! assert_eq!(keys.first().map(String::as_str), Some("none"));
//! assert!(keys.iter().any(|k| k == "dapper-h"));
//! ```

use sim_core::registry::{RegistryError, TrackerParams, TrackerRegistry, TrackerSpec};
use sim_core::tracker::RowHammerTracker;
use std::sync::{Arc, OnceLock, RwLock};

/// The four scalable baselines of Figs. 1 and 3-5, by registry key.
pub const SCALABLE_BASELINES: [&str; 4] = ["hydra", "start", "abacus", "comet"];

fn global() -> &'static RwLock<TrackerRegistry> {
    static REGISTRY: OnceLock<RwLock<TrackerRegistry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut reg = TrackerRegistry::new();
        reg.register(sim_core::registry::null_spec()).expect("fresh registry");
        trackers::register_builtin(&mut reg).expect("built-in trackers");
        dapper::register_builtin(&mut reg).expect("DAPPER variants");
        RwLock::new(reg)
    })
}

/// Runs `f` with a read lock on the global registry. Keep the closure
/// cheap (resolve, clone an `Arc`, list keys) — building or simulating
/// inside it would serialize sweeps.
pub fn with_registry<R>(f: impl FnOnce(&TrackerRegistry) -> R) -> R {
    f(&global().read().unwrap_or_else(std::sync::PoisonError::into_inner))
}

/// Registers a third-party [`TrackerSpec`] into the global registry,
/// making it constructible by key everywhere (experiments, spec files,
/// the red-team CLI). Fails if the key or an alias is already taken.
pub fn register_tracker(spec: TrackerSpec) -> Result<(), RegistryError> {
    global().write().unwrap_or_else(std::sync::PoisonError::into_inner).register(spec)
}

/// Resolves a tracker name (key, display name, or alias; case and
/// separator insensitive) to its spec.
pub fn resolve(name: &str) -> Result<Arc<TrackerSpec>, RegistryError> {
    with_registry(|reg| reg.resolve(name).cloned())
}

/// Canonical keys of every registered tracker, in registration order
/// (the paper's table order for the built-ins).
pub fn tracker_keys() -> Vec<String> {
    with_registry(|reg| reg.keys().map(str::to_string).collect())
}

/// Builds a tracker instance by name through the global registry.
pub fn build_tracker(
    name: &str,
    params: &TrackerParams,
) -> Result<Box<dyn RowHammerTracker>, RegistryError> {
    resolve(name)?.build(params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::addr::Geometry;
    use sim_core::registry::ParamSpec;
    use sim_core::tracker::NullTracker;

    #[test]
    fn builtins_register_in_paper_order() {
        let keys = tracker_keys();
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
        assert_eq!(&keys[..expected.len()], &expected[..]);
    }

    #[test]
    fn every_builtin_builds_with_defaults() {
        let p = TrackerParams::new(500, Geometry::paper_baseline(), 0, 7);
        for key in tracker_keys() {
            let t = build_tracker(&key, &p)
                .unwrap_or_else(|e| panic!("{key} must build with defaults: {e}"));
            assert!(!t.name().is_empty());
        }
    }

    #[test]
    fn third_party_registration_is_visible_globally() {
        // Key chosen to avoid collision with other tests in this binary.
        let spec =
            TrackerSpec::new("unit-test-tracker", "UnitTest", |_p| Ok(Box::new(NullTracker)))
                .param(ParamSpec::int("knob", "a knob", 1));
        register_tracker(spec).expect("fresh key");
        let p = TrackerParams::new(500, Geometry::paper_baseline(), 0, 7);
        assert!(build_tracker("Unit_Test_Tracker", &p).is_ok());
        let err = register_tracker(TrackerSpec::new("unit-test-tracker", "X", |_p| {
            Ok(Box::new(NullTracker))
        }));
        assert!(err.is_err(), "duplicate keys must be rejected");
    }

    #[test]
    fn start_is_the_only_llc_reserver() {
        for key in tracker_keys() {
            let spec = resolve(&key).unwrap();
            assert_eq!(spec.llc_reserved(), key == "start", "{key}");
        }
    }
}
