//! Cross-crate integration: every tracker runs inside the full system and
//! produces sane statistics.

use dapper_repro::sim::experiment::{AttackChoice, Experiment, TelemetrySpec};

const ALL_TRACKERS: [&str; 11] = [
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

#[test]
fn every_tracker_completes_a_benign_run() {
    for t in ALL_TRACKERS {
        let r = Experiment::quick("h263enc_like").tracker(t).window_us(200.0).run();
        assert!(
            r.normalized_performance > 0.3 && r.normalized_performance < 1.15,
            "{}: normalized {}",
            t,
            r.normalized_performance
        );
        assert!(r.run.retired.iter().all(|&i| i > 0), "{}: no progress", t);
        assert!(r.run.mem.activations > 0, "{}: no DRAM traffic", t);
    }
}

#[test]
fn every_tracker_survives_its_tailored_attack() {
    for t in ALL_TRACKERS {
        let r = Experiment::quick("povray_like")
            .tracker(t)
            .attack(AttackChoice::Tailored)
            .window_us(200.0)
            .run();
        assert!(
            r.normalized_performance > 0.0 && r.normalized_performance <= 1.1,
            "{}: normalized {}",
            t,
            r.normalized_performance
        );
    }
}

#[test]
fn trackers_do_not_break_correct_completion_counts() {
    // The same workload and seed must retire the same instruction mix on
    // the reference machine regardless of tracker choice.
    let a = Experiment::quick("gcc_like").tracker("dapper-h").window_us(150.0).run();
    let b = Experiment::quick("gcc_like").tracker("para").window_us(150.0).run();
    assert_eq!(a.reference.retired, b.reference.retired, "references must be identical");
}

#[test]
fn memory_intensive_workloads_stress_dram_more() {
    let heavy = Experiment::quick("mcf_like").tracker("none").window_us(200.0).run();
    let light = Experiment::quick("povray_like").tracker("none").window_us(200.0).run();
    let heavy_apki =
        heavy.run.mem.activations as f64 / (heavy.run.retired.iter().sum::<u64>() as f64 / 1000.0);
    let light_apki =
        light.run.mem.activations as f64 / (light.run.retired.iter().sum::<u64>() as f64 / 1000.0);
    assert!(
        heavy_apki > light_apki * 5.0,
        "mcf {heavy_apki} vs povray {light_apki} activations/kilo-instruction"
    );
}

#[test]
fn start_reserves_half_the_llc() {
    // START's way reservation must show up as a lower LLC hit rate. Use a
    // Zipf-reuse workload (hot set straddles the halved capacity) so the
    // signal dominates scheduling noise.
    let with = Experiment::quick("ycsb_a_like").tracker("start").window_us(500.0).run();
    let without = Experiment::quick("ycsb_a_like").tracker("none").window_us(500.0).run();
    assert!(
        with.run.llc_hit_rate < without.run.llc_hit_rate,
        "START {} vs none {}",
        with.run.llc_hit_rate,
        without.run.llc_hit_rate
    );
}

#[test]
fn determinism_same_seed_same_result() {
    let bytes = |e: &Experiment| {
        let r = e.clone().run();
        let telemetry = r.telemetry.map(|t| t.to_json().render()).unwrap_or_default();
        (format!("{:?}", r.run), telemetry)
    };
    // The second input is the widest cell the repo runs: eight channels,
    // a tailored attacker beside three benign cores, every recorder
    // attached so the telemetry bytes are compared too. A divergence here
    // is nondeterminism in a channel or in the completion delivery order.
    let eight_channel = Experiment::quick("mcf_like")
        .tracker("dapper-h")
        .attack(AttackChoice::Tailored)
        .eight_channel(2)
        .seed(0xDA99E5)
        .window_us(150.0)
        .with_telemetry(TelemetrySpec::all_recorders(50.0));
    for e in [Experiment::quick("milc_like").tracker("dapper-h").window_us(150.0), eight_channel] {
        let (stats, telemetry) = bytes(&e);
        assert_eq!(e.telemetry.recorders_wanted(), !telemetry.is_empty(), "recorders must record");
        assert_eq!(bytes(&e), (stats, telemetry), "{} repeat diverged", e.workload);
    }
}
