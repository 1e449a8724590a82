//! Table III: storage and die-area overhead per 32 GB DDR5 channel.

use sim_core::registry::TrackerSpec;
use sim_core::tracker::{StorageOverhead, TrackerParams};
use std::collections::BTreeMap;
use trackers::{abacus, blockhammer, comet, hydra, para, prac, pride, start};

/// Table III's rows in the paper's order, each with whether the paper's
/// table includes it.
const ROWS: [(&TrackerSpec, bool); 10] = [
    (&hydra::SPEC, true),
    (&comet::SPEC, true),
    (&start::SPEC, true),
    (&abacus::SPEC, true),
    (&dapper::DAPPER_S, false),
    (&dapper::DAPPER_H, true),
    (&blockhammer::SPEC, false),
    (&para::SPEC, false),
    (&pride::SPEC, false),
    (&prac::SPEC, false),
];

/// One row of Table III.
#[derive(Debug, Clone)]
pub struct StorageRow {
    /// Tracker name.
    pub name: &'static str,
    /// SRAM/CAM cost.
    pub overhead: StorageOverhead,
    /// Whether the paper's Table III includes this tracker.
    pub in_paper_table: bool,
}

/// Builds the storage comparison at a given threshold (Table III uses
/// N_RH = 500), each tracker from its table entry with default parameters.
pub fn storage_table(nrh: u32) -> Vec<StorageRow> {
    let p = TrackerParams::baseline(nrh, 0, 0);
    ROWS.iter()
        .map(|&(spec, in_paper_table)| StorageRow {
            name: spec.name,
            overhead: spec
                .build(p, &BTreeMap::new())
                .expect("every tracker builds with its defaults")
                .storage_overhead(),
            in_paper_table,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str) -> StorageRow {
        storage_table(500).into_iter().find(|r| r.name == name).unwrap()
    }

    #[test]
    fn matches_paper_table_three() {
        assert!((row("Hydra").overhead.sram_kb() - 56.5).abs() < 1.0);
        assert!((row("CoMeT").overhead.sram_kb() - 112.0).abs() < 1.0);
        assert!((row("CoMeT").overhead.cam_kb() - 23.0).abs() < 1.0);
        assert!((row("START").overhead.sram_kb() - 4.0).abs() < 0.5);
        assert!((row("ABACUS").overhead.sram_kb() - 19.3).abs() < 1.0);
        assert!((row("ABACUS").overhead.cam_kb() - 7.5).abs() < 0.5);
        assert!((row("DAPPER-H").overhead.sram_kb() - 96.0).abs() < 0.5);
    }

    #[test]
    fn dapper_h_area_is_mid_pack() {
        // Paper: 0.075 mm^2, below CoMeT's 0.139, above START's 0.003.
        let d = row("DAPPER-H").overhead.die_area_mm2();
        assert!(d < row("CoMeT").overhead.die_area_mm2());
        assert!(d > row("START").overhead.die_area_mm2());
    }

    #[test]
    fn dapper_s_is_sixth_the_cost_of_h() {
        let s = row("DAPPER-S").overhead.sram_kb();
        let h = row("DAPPER-H").overhead.sram_kb();
        assert!((h / s - 6.0).abs() < 0.3, "S={s} H={h}");
    }
}
