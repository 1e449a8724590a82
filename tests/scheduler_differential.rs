//! Whole-system scheduler differential: the indexed FR-FCFS scheduler and
//! the retained naive-scan oracle must produce **bit-identical**
//! [`RunStats`] across the quick-subset × tracker matrix.
//!
//! The oracle re-derives every eligibility from scratch each bus cycle
//! (no cached decision bound, no per-bank shortcuts, no quiet-tick fast
//! path), so any divergence convicts the index maintenance: a stale bound
//! that skipped a due command, a selection shortcut that broke the
//! (class, age) order, or a missed wake-up after a mutation.
//!
//! Together with `tests/engine_equivalence.rs` (dense vs event-driven on
//! the indexed scheduler) this closes the triangle: oracle == indexed
//! dense == indexed event-driven.

use dapper_repro::sim::experiment::{AttackChoice, Experiment};
use dapper_repro::sim::{parallel_map, RunStats};
use dapper_repro::workloads;

/// Runs `e` once with the naive-scan oracle (dense loop: the oracle never
/// skips) and once with the indexed scheduler under the default
/// event-driven engine, returning both.
fn oracle_vs_indexed(e: &Experiment) -> (RunStats, RunStats) {
    let mut oracle_sys = e.build_system(false);
    oracle_sys.set_naive_scan(true);
    let oracle = oracle_sys.run_dense();
    let indexed = e.build_system(false).run();
    (oracle, indexed)
}

fn assert_matrix_equal(jobs: Vec<(String, Experiment)>) {
    let outcomes = parallel_map(jobs, |(label, e)| {
        let (oracle, indexed) = oracle_vs_indexed(&e);
        (label, oracle == indexed, format!("{oracle:?}\n  vs\n{indexed:?}"))
    });
    for o in outcomes {
        let (label, equal, detail) = o.expect("differential job must not panic");
        assert!(equal, "indexed scheduler diverged from the oracle on {label}:\n{detail}");
    }
}

#[test]
fn quick_subset_matches_the_oracle() {
    let mut jobs = Vec::new();
    for spec in workloads::quick_subset() {
        for tracker in ["none", "hydra", "comet", "dapper-h"] {
            let e = Experiment::quick(spec.name).tracker(tracker).window_us(100.0);
            jobs.push((format!("{}/{}", spec.name, tracker), e));
        }
    }
    assert_matrix_equal(jobs);
}

#[test]
fn every_tracker_matches_the_oracle_under_attack() {
    let mut jobs = Vec::new();
    for tracker in dapper_repro::sim::tracker_keys() {
        let e = Experiment::quick("gcc_like")
            .tracker(tracker)
            .attack(AttackChoice::Tailored)
            .window_us(100.0);
        jobs.push((format!("gcc_like/{tracker}/tailored"), e));
    }
    assert_matrix_equal(jobs);
}

#[test]
#[ignore = "full quick-subset x tracker matrix; run with --ignored (acceptance)"]
fn full_quick_subset_tracker_matrix_matches_the_oracle() {
    let mut jobs = Vec::new();
    for spec in workloads::quick_subset() {
        for tracker in dapper_repro::sim::tracker_keys() {
            for attack in [AttackChoice::None, AttackChoice::Tailored] {
                let e =
                    Experiment::quick(spec.name).tracker(tracker).attack(attack).window_us(100.0);
                jobs.push((format!("{}/{}/{:?}", spec.name, tracker, attack), e));
            }
        }
    }
    assert_matrix_equal(jobs);
}
