//! Registry descriptors for the DAPPER variants.
//!
//! DAPPER-S and DAPPER-H register from their home crate, exposing the
//! [`DapperConfig`] knobs — group size, key-reset period, the DAPPER-H
//! reset strategy, and the per-bank bit-vector — as tunable registry
//! parameters so the paper's Section V-D / VI ablations become config-level
//! sweeps.

use crate::{DapperConfig, DapperH, DapperS, ResetStrategy};
use sim_core::registry::{ParamSpec, RegistryError, TrackerParams, TrackerRegistry, TrackerSpec};
use sim_core::time::ms_to_cycles;

fn config_from(key: &'static str, p: &TrackerParams) -> Result<DapperConfig, RegistryError> {
    let mut cfg =
        DapperConfig { geometry: p.geometry, ..DapperConfig::baseline(p.nrh, p.channel, p.seed) };
    let group_size = p.int("group_size");
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
    let t_reset_ms = p.float("t_reset_ms");
    if t_reset_ms <= 0.0 || t_reset_ms.is_nan() {
        return Err(RegistryError::invalid(key, "t_reset_ms", "must be positive"));
    }
    cfg.t_reset = ms_to_cycles(t_reset_ms);
    cfg.reset_strategy = match p.text("reset_strategy") {
        "zero" => ResetStrategy::Zero,
        "reset-counter" => ResetStrategy::ResetCounter,
        _ => ResetStrategy::Cascade,
    };
    cfg.bit_vector = p.flag("bit_vector");
    Ok(cfg)
}

fn dapper_params(spec: TrackerSpec) -> TrackerSpec {
    spec.param(
        ParamSpec::int("group_size", "rows per row-group counter (power of two)", 256)
            .range(1.0, (1u64 << 20) as f64),
    )
    .param(
        ParamSpec::float("t_reset_ms", "key refresh + table reset period, ms", 32.0)
            .range(1e-3, 1e4),
    )
    .param(ParamSpec::choice(
        "reset_strategy",
        "DAPPER-H post-mitigation counter restart rule",
        "cascade",
        &["zero", "reset-counter", "cascade"],
    ))
    .param(ParamSpec::flag(
        "bit_vector",
        "enable DAPPER-H's per-bank bit-vector (ablation)",
        true,
    ))
}

/// DAPPER-S's registry descriptor (Section V: single keyed RGC table).
pub fn dapper_s_spec() -> TrackerSpec {
    dapper_params(TrackerSpec::new("dapper-s", "DAPPER-S", |p| {
        Ok(Box::new(DapperS::new(config_from("dapper-s", p)?)))
    }))
}

/// DAPPER-H's registry descriptor (Section VI: double hashing + bit-vector
/// + reset counters).
pub fn dapper_h_spec() -> TrackerSpec {
    dapper_params(TrackerSpec::new("dapper-h", "DAPPER-H", |p| {
        Ok(Box::new(DapperH::new(config_from("dapper-h", p)?)))
    }))
    .alias("dapper")
}

/// Registers DAPPER-S and DAPPER-H into `reg`.
pub fn register_builtin(reg: &mut TrackerRegistry) -> Result<(), RegistryError> {
    reg.register(dapper_s_spec())?;
    reg.register(dapper_h_spec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::addr::Geometry;
    use sim_core::registry::ParamValue;
    use std::collections::BTreeMap;

    fn base() -> TrackerParams {
        TrackerParams::new(500, Geometry::paper_baseline(), 0, 42)
    }

    #[test]
    fn both_variants_build_with_defaults() {
        let mut reg = TrackerRegistry::new();
        register_builtin(&mut reg).unwrap();
        assert_eq!(reg.build("dapper-s", &base()).map(|t| t.name()), Ok("DAPPER-S"));
        assert_eq!(reg.build("DAPPER_H", &base()).map(|t| t.name()), Ok("DAPPER-H"));
        assert_eq!(reg.build("dapper", &base()).map(|t| t.name()), Ok("DAPPER-H"));
    }

    #[test]
    fn bad_group_size_names_the_key() {
        let mut reg = TrackerRegistry::new();
        register_builtin(&mut reg).unwrap();
        let mut ov = BTreeMap::new();
        ov.insert("group_size".to_string(), ParamValue::Int(100));
        let err = reg.build("dapper-h", &base().with_values(ov)).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("'dapper-h.group_size'"), "{err}");
    }

    #[test]
    fn reset_strategy_choices_are_enforced() {
        let mut reg = TrackerRegistry::new();
        register_builtin(&mut reg).unwrap();
        let mut ov = BTreeMap::new();
        ov.insert("reset_strategy".to_string(), ParamValue::Str("sideways".into()));
        let err = reg.build("dapper-h", &base().with_values(ov)).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("reset_strategy"), "{err}");
    }

    #[test]
    fn storage_matches_table_three() {
        let mut reg = TrackerRegistry::new();
        register_builtin(&mut reg).unwrap();
        let h = reg.resolve("dapper-h").unwrap().storage_overhead(&base());
        assert!((h.sram_kb() - 96.0).abs() < 1.0, "{}", h.sram_kb());
        let s = reg.resolve("dapper-s").unwrap().storage_overhead(&base());
        assert!((s.sram_kb() - 16.0).abs() < 0.1, "{}", s.sram_kb());
    }
}
