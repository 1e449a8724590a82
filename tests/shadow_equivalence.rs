//! Shadow equivalence: a cell whose tracker never acts costs one
//! simulation, and the result is the one two simulations would give.
//!
//! `Experiment::run` lets the reference machine carry the cell's tracker
//! as a shadow when the two machines differ only in their trackers (a
//! benign or isolating cell, no LLC reservation, no probe). If no shadow
//! acted, the cell's `run` is the reference's `RunStats` under the
//! tracker's name. Here every `TRACKERS` entry × three quick workloads ×
//! N_RH 500 and 125 × {benign, isolating refresh attack, non-isolating
//! tailored attack} must give an `ExperimentResult` equal, field for
//! field and bit for bit, to `reference()` followed by `run_against`,
//! which always simulates the system under test. The matrix must take
//! both branches, and START, non-isolating and probed cells must never
//! take the shadow. `--ignored` runs the same matrix at 1 ms.

use dapper_repro::sim::experiment::{AttackChoice, Experiment, TelemetrySpec};
use dapper_repro::sim::parallel_map;
use dapper_repro::sim::registry::TRACKERS;
use dapper_repro::workloads::Attack;

const WORKLOADS: [&str; 3] = ["mcf_like", "povray_like", "gcc_like"];

/// The three normalizations: benign, an isolating attack (its reference
/// keeps the attacker) and a non-isolating one (its reference idles it).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Benign,
    IsolatingRefresh,
    NonIsolatingTailored,
}

fn cell(workload: &str, tracker: &str, nrh: u32, mode: Mode, window_us: f64) -> Experiment {
    let e = Experiment::quick(workload).tracker(tracker).nrh(nrh).window_us(window_us);
    match mode {
        Mode::Benign => e,
        Mode::IsolatingRefresh => {
            e.attack(AttackChoice::Specific(Attack::RefreshAttack)).isolating()
        }
        Mode::NonIsolatingTailored => e.attack(AttackChoice::Tailored),
    }
}

/// Runs `e` both ways and returns the number of systems `run` simulated,
/// panicking with `label` if the two results differ.
fn run_both_ways(label: &str, e: Experiment) -> usize {
    let reference = e.reference();
    let simulated = e.clone().run_against(&reference);
    let (result, systems) = e.run_counted();
    assert_eq!(result, simulated, "{label}: run differs from reference + run_against");
    assert_eq!(
        result.normalized_performance.to_bits(),
        simulated.normalized_performance.to_bits(),
        "{label}"
    );
    systems
}

fn assert_matrix(window_us: f64) {
    let mut jobs = Vec::new();
    for spec in &TRACKERS {
        for workload in WORKLOADS {
            for nrh in [500, 125] {
                for mode in [Mode::Benign, Mode::IsolatingRefresh, Mode::NonIsolatingTailored] {
                    let label = format!("{}/{workload}/{nrh}/{mode:?}", spec.key);
                    jobs.push((label, spec, mode, cell(workload, spec.key, nrh, mode, window_us)));
                }
            }
        }
    }
    let outcomes = parallel_map(jobs, |(label, spec, mode, e)| {
        let systems = run_both_ways(&label, e);
        (label, spec, mode, systems)
    });
    let (mut shadowed, mut simulated) = (0, 0);
    for outcome in outcomes {
        let (label, spec, mode, systems) = outcome.expect("shadow job must not panic");
        if spec.reserves_llc || mode == Mode::NonIsolatingTailored {
            assert_eq!(systems, 2, "{label} is not shadowable");
        }
        match systems {
            1 => shadowed += 1,
            2 => simulated += 1,
            n => panic!("{label}: {n} systems simulated"),
        }
    }
    eprintln!("{window_us} us: {shadowed} cells shadowed, {simulated} simulated");
    assert!(shadowed > 0, "no cell took the shadow branch");
    assert!(simulated > 0, "no cell took the simulate branch");
}

#[test]
fn shadowed_cells_match_a_simulated_system_under_test() {
    assert_matrix(15.0);
}

#[test]
#[ignore = "the same matrix at a 1 ms window (~2.5 min on 2 cores, release)"]
fn shadowed_cells_match_a_simulated_system_under_test_at_1ms() {
    assert_matrix(1_000.0);
}

#[test]
fn probed_cells_never_take_the_shadow() {
    // The null tracker never acts, so without a probe each of these cells
    // is answered by its reference run alone.
    let probes = [
        TelemetrySpec { oracle: true, ..Default::default() },
        TelemetrySpec { time_series: true, window_us: Some(5.0), ..Default::default() },
        TelemetrySpec { slowdown: true, window_us: Some(5.0), ..Default::default() },
        TelemetrySpec { mitigation_log: true, ..Default::default() },
    ];
    let mut jobs = Vec::new();
    for workload in WORKLOADS {
        for mode in [Mode::Benign, Mode::IsolatingRefresh] {
            let e = cell(workload, "none", 500, mode, 15.0);
            jobs.push((format!("{workload}/{mode:?}/unprobed"), e.clone(), 1));
            for (i, t) in probes.iter().enumerate() {
                jobs.push((
                    format!("{workload}/{mode:?}/probe{i}"),
                    e.clone().with_telemetry(*t),
                    2,
                ));
            }
        }
    }
    let outcomes = parallel_map(jobs, |(label, e, want)| {
        let plain = e.clone().run_against(&e.reference()).run;
        let (result, systems) = e.run_counted();
        assert_eq!(result.run, plain, "{label}: run stats");
        (label, systems, want)
    });
    for outcome in outcomes {
        let (label, systems, want) = outcome.expect("probe job must not panic");
        assert_eq!(systems, want, "{label}");
    }
}
