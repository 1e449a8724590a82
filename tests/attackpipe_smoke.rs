//! Attackpipe smoke: the recon stage must actually work, and knowledge
//! must order outcomes.
//!
//! Two claims keep the pipeline honest. First, the timing-side-channel
//! recon is no mock: on the seeded baseline machine it must recover the
//! row stride and recognize at least 90% of the truly same-bank
//! verification pairs, within its probe budget, bit-identically across
//! repeated runs. Second, the knowledge axis must order end-to-end
//! outcomes — omniscient ≥ timing-recon ≥ blind in (flips, peak
//! pressure) — for several trackers, because an attacker who infers the
//! mapping can never beat one who is handed it, and one who knows
//! nothing concentrates no pressure at all.

use dapper_repro::redteam::{infer_map, run_cell, PipelineVerdict};
use dapper_repro::sim::experiment::{AttackerConfig, AttackerKnowledge, Experiment};
use dapper_repro::sim::parallel_map;

const SEED: u64 = 0xDA99E5;
const RECON_BUDGET: u64 = 2500;

fn attacker(knowledge: AttackerKnowledge) -> AttackerConfig {
    AttackerConfig { knowledge, recon_budget: RECON_BUDGET, seed: AttackerConfig::DEFAULT_SEED }
}

#[test]
fn timing_recon_recovers_the_map_deterministically() {
    let e = Experiment::quick("libquantum_like").tracker("dapper-s").seed(SEED);
    let cfg = attacker(AttackerKnowledge::TimingRecon);
    let map = infer_map(&e, &cfg);
    let geom = &e.cfg.geometry;

    assert!(map.probes_spent <= RECON_BUDGET, "spent {} of {RECON_BUDGET}", map.probes_spent);
    let true_stride = dapper_repro::sim_core::addr::DramAddr::new(0, 0, 0, 0, 1, 0);
    assert_eq!(
        map.row_stride(),
        Some(geom.encode(&true_stride).0),
        "stride discovery must find the true same-bank adjacent-row stride"
    );
    let recall = map.same_bank_recall(geom).expect("same-bank pairs were probed");
    assert!(recall >= 0.90, "same-bank recall {recall} below 90%");
    let accuracy = map.accuracy(geom).expect("pairs were probed");
    assert!(accuracy >= 0.80, "overall pair accuracy {accuracy} below 80%");

    // Re-running the identical campaign must reproduce the identical
    // evidence — recon is seeded simulation, not a flaky measurement.
    let again = infer_map(&e, &cfg);
    assert_eq!(format!("{map:?}"), format!("{again:?}"), "recon must be deterministic");
}

#[test]
fn knowledge_orders_outcomes_for_three_trackers() {
    const LEVELS: [AttackerKnowledge; 3] =
        [AttackerKnowledge::Omniscient, AttackerKnowledge::TimingRecon, AttackerKnowledge::Blind];
    let cell = |tracker: &str, k: AttackerKnowledge| {
        Experiment::quick("libquantum_like")
            .tracker(tracker)
            .window_us(120.0)
            .seed(SEED)
            .attacker(attacker(k))
    };
    // One reference serves every cell: it depends only on the workload
    // and machine, never on the tracker under test or knowledge level.
    let reference = cell("dapper-s", AttackerKnowledge::Omniscient).reference();

    let mut jobs = Vec::new();
    for tracker in ["dapper-s", "hydra", "para"] {
        for k in LEVELS {
            jobs.push((tracker, cell(tracker, k)));
        }
    }
    let verdicts: Vec<(&str, PipelineVerdict)> =
        parallel_map(jobs, |(tracker, e)| (tracker, run_cell(&e, &reference)))
            .into_iter()
            .map(|o| o.expect("pipeline cell must not panic"))
            .collect();

    for chunk in verdicts.chunks(3) {
        let [(tracker, omni), (_, timing), (_, blind)] = chunk else {
            panic!("three levels per tracker");
        };
        let pressure = |v: &PipelineVerdict| (v.flips, v.max_victim_peak);
        assert!(
            pressure(omni) >= pressure(timing) && pressure(timing) >= pressure(blind),
            "{tracker}: knowledge must order outcomes, got omniscient {:?} / timing {:?} / blind {:?}",
            pressure(omni),
            pressure(timing),
            pressure(blind)
        );
        assert!(
            omni.max_victim_peak > 0,
            "{tracker}: the omniscient hammer must land real pressure"
        );
        assert!(timing.recon_accuracy.is_some(), "{tracker}: timing-recon reports accuracy");
        assert!(omni.recon_accuracy.is_none() && blind.recon_accuracy.is_none());
    }

    // Determinism end to end: re-running one timing-recon cell must
    // reproduce the verdict field for field.
    let again = run_cell(&cell("hydra", AttackerKnowledge::TimingRecon), &reference);
    assert_eq!(again, verdicts[4].1, "pipeline verdicts must be reproducible");
}
