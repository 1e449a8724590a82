//! Shape-level reproduction assertions: the orderings the paper's figures
//! rest on, checked at miniature scale. `figure <id>` regenerates the
//! full-scale numbers (README, "Reproducing a paper figure").

use dapper_repro::sim::experiment::{AttackChoice, Experiment};
use dapper_repro::workloads::Attack;

const W: f64 = 400.0; // microseconds per run

#[test]
fn fig1_shape_tailored_attacks_beat_cache_thrashing() {
    // Tailored RH-tracker attacks must hurt (strictly) more than plain
    // cache thrashing does on the undefended machine.
    let thrash = Experiment::new("libquantum_like")
        .tracker("none")
        .attack(AttackChoice::CacheThrash)
        .window_us(W)
        .run();
    let hydra = Experiment::new("libquantum_like")
        .tracker("hydra")
        .attack(AttackChoice::Tailored)
        .window_us(W)
        .run();
    assert!(
        hydra.normalized_performance < thrash.normalized_performance,
        "hydra {} vs thrash {}",
        hydra.normalized_performance,
        thrash.normalized_performance
    );
}

#[test]
fn fig10_shape_dapper_h_isolated_overhead_is_small() {
    for attack in [Attack::Streaming, Attack::RefreshAttack] {
        let r = Experiment::new("gcc_like")
            .tracker("dapper-h")
            .attack(AttackChoice::Specific(attack))
            .isolating()
            .window_us(W)
            .run();
        assert!(r.normalized_performance > 0.9, "{:?}: {}", attack, r.normalized_performance);
    }
}

#[test]
fn fig9_vs_fig10_shape_dapper_h_beats_dapper_s_under_refresh() {
    let s = Experiment::new("milc_like")
        .tracker("dapper-s")
        .attack(AttackChoice::Specific(Attack::RefreshAttack))
        .isolating()
        .window_us(W)
        .run();
    let h = Experiment::new("milc_like")
        .tracker("dapper-h")
        .attack(AttackChoice::Specific(Attack::RefreshAttack))
        .isolating()
        .window_us(W)
        .run();
    assert!(
        h.normalized_performance > s.normalized_performance,
        "H {} must beat S {}",
        h.normalized_performance,
        s.normalized_performance
    );
    // And DAPPER-S pays in whole-group refreshes.
    assert!(s.run.mem.victim_rows_refreshed > h.run.mem.victim_rows_refreshed * 4);
}

#[test]
fn fig11_shape_dapper_h_benign_overhead_is_negligible() {
    let r = Experiment::new("mcf_like").tracker("dapper-h").window_us(W).run();
    assert!(r.normalized_performance > 0.95, "{}", r.normalized_performance);
}

#[test]
fn fig14_shape_blockhammer_collapses_at_low_thresholds() {
    // BlockHammer's false positives need a few ms for the Bloom filters to
    // saturate, so this test runs a longer window than the others.
    let bh_low =
        Experiment::new("milc_like").tracker("blockhammer").nrh(125).window_us(3000.0).run();
    let dh_low = Experiment::new("milc_like").tracker("dapper-h").nrh(125).window_us(3000.0).run();
    assert!(
        bh_low.normalized_performance < dh_low.normalized_performance,
        "BlockHammer {} must trail DAPPER-H {} at N_RH=125",
        bh_low.normalized_performance,
        dh_low.normalized_performance
    );
}

#[test]
fn fig17_shape_prac_taxes_benign_runs_more_than_dapper_h() {
    let prac = Experiment::new("lbm_like").tracker("prac").window_us(W).run();
    let dh = Experiment::new("lbm_like").tracker("dapper-h").window_us(W).run();
    assert!(
        prac.normalized_performance < dh.normalized_performance,
        "PRAC {} vs DAPPER-H {}",
        prac.normalized_performance,
        dh.normalized_performance
    );
}

#[test]
fn table3_shape_dapper_h_storage_is_96kb() {
    use dapper_repro::analysis::storage::storage_table;
    let rows = storage_table(500);
    let dh = rows.iter().find(|r| r.name == "DAPPER-H").expect("row exists");
    assert!((dh.overhead.sram_kb() - 96.0).abs() < 0.5);
    let comet = rows.iter().find(|r| r.name == "CoMeT").expect("row exists");
    assert!(dh.overhead.die_area_mm2() < comet.overhead.die_area_mm2());
}
