//! Tracker-table entries for the DAPPER variants.
//!
//! DAPPER-S and DAPPER-H publish their entries from their home crate,
//! exposing the [`DapperConfig`] knobs — group size, key-reset period, the
//! DAPPER-H reset strategy, and the per-bank bit-vector — as tunable
//! parameters so the paper's Section V-D / VI ablations become config-level
//! sweeps.

use crate::{DapperConfig, DapperH, DapperS, ResetStrategy};
use sim_core::registry::{ParamSpec, ParamValues, RegistryError, TrackerSpec};
use sim_core::time::ms_to_cycles;
use sim_core::tracker::TrackerParams;

fn config_from(
    key: &'static str,
    p: TrackerParams,
    v: &ParamValues,
) -> Result<DapperConfig, RegistryError> {
    let mut cfg =
        DapperConfig { geometry: p.geometry, ..DapperConfig::baseline(p.nrh, p.channel, p.seed) };
    let group_size = v.int("group_size");
    let gs = u32::try_from(group_size)
        .ok()
        .filter(|g| g.is_power_of_two() && cfg.geometry.rows_per_rank().is_multiple_of(*g as u64))
        .ok_or_else(|| {
            RegistryError::invalid(
                key,
                "group_size",
                "must be a power of two dividing the rows per rank",
            )
        })?;
    cfg.group_size = gs;
    let t_reset_ms = v.float("t_reset_ms");
    if t_reset_ms <= 0.0 || t_reset_ms.is_nan() {
        return Err(RegistryError::invalid(key, "t_reset_ms", "must be positive"));
    }
    cfg.t_reset = ms_to_cycles(t_reset_ms);
    cfg.reset_strategy = match v.text("reset_strategy") {
        "zero" => ResetStrategy::Zero,
        "reset-counter" => ResetStrategy::ResetCounter,
        _ => ResetStrategy::Cascade,
    };
    cfg.bit_vector = v.flag("bit_vector");
    Ok(cfg)
}

const DAPPER_PARAMS: &[ParamSpec] = &[
    ParamSpec::int("group_size", "rows per row-group counter (power of two)", 256)
        .range(1.0, (1u64 << 20) as f64),
    ParamSpec::float("t_reset_ms", "key refresh + table reset period, ms", 32.0).range(1e-3, 1e4),
    ParamSpec::choice(
        "reset_strategy",
        "DAPPER-H post-mitigation counter restart rule",
        "cascade",
        &["zero", "reset-counter", "cascade"],
    ),
    ParamSpec::flag("bit_vector", "enable DAPPER-H's per-bank bit-vector (ablation)", true),
];

/// DAPPER-S's tracker-table entry (Section V: single keyed RGC table).
pub const DAPPER_S: TrackerSpec = TrackerSpec {
    key: "dapper-s",
    name: "DAPPER-S",
    aliases: &[],
    reserves_llc: false,
    params: DAPPER_PARAMS,
    check: |p, v| config_from("dapper-s", p, v).map(drop),
    factory: |p, v| Ok(Box::new(DapperS::new(config_from("dapper-s", p, v)?))),
};

/// DAPPER-H's tracker-table entry (Section VI: double hashing + bit-vector
/// + reset counters).
pub const DAPPER_H: TrackerSpec = TrackerSpec {
    key: "dapper-h",
    name: "DAPPER-H",
    aliases: &["dapper"],
    reserves_llc: false,
    params: DAPPER_PARAMS,
    check: |p, v| config_from("dapper-h", p, v).map(drop),
    factory: |p, v| Ok(Box::new(DapperH::new(config_from("dapper-h", p, v)?))),
};

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::registry::ParamValue;
    use std::collections::BTreeMap;

    fn base() -> TrackerParams {
        TrackerParams::baseline(500, 0, 42)
    }

    fn one(key: &str, value: ParamValue) -> BTreeMap<String, ParamValue> {
        BTreeMap::from([(key.to_string(), value)])
    }

    #[test]
    fn both_variants_build_with_defaults() {
        let name = |spec: &TrackerSpec| spec.build(base(), &BTreeMap::new()).map(|t| t.name());
        assert_eq!(name(&DAPPER_S), Ok("DAPPER-S"));
        assert_eq!(name(&DAPPER_H), Ok("DAPPER-H"));
    }

    #[test]
    fn bad_group_size_names_the_key() {
        let ov = one("group_size", ParamValue::Int(100));
        let err = DAPPER_H.build(base(), &ov).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("'dapper-h.group_size'"), "{err}");
    }

    #[test]
    fn reset_strategy_choices_are_enforced() {
        let ov = one("reset_strategy", ParamValue::Str("sideways".into()));
        let err = DAPPER_H.build(base(), &ov).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("reset_strategy"), "{err}");
    }

    #[test]
    fn storage_matches_table_three() {
        let kb = |spec: &TrackerSpec| {
            spec.build(base(), &BTreeMap::new()).unwrap().storage_overhead().sram_kb()
        };
        assert!((kb(&DAPPER_H) - 96.0).abs() < 1.0, "{}", kb(&DAPPER_H));
        assert!((kb(&DAPPER_S) - 16.0).abs() < 0.1, "{}", kb(&DAPPER_S));
    }
}
