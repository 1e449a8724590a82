//! Probe-perturbation freedom: attaching telemetry probes must not change
//! simulation results.
//!
//! The probe API's hard invariant is that observers only *read*: with
//! every built-in recorder attached (time series, slowdown trace,
//! mitigation log) the engines must produce **bit-identical** [`RunStats`]
//! to a probe-free run — on both the dense and the event-driven loop,
//! whose skip horizon the window recorders cap (splitting skips is still
//! an exact no-op). The matrix covers the quick workload subset across a
//! tracker spread; the oracle rides the same sink API and is checked to
//! change nothing but the `oracle` verdict field.

use dapper_repro::sim::experiment::{AttackChoice, Experiment, TelemetrySpec};
use dapper_repro::sim::{parallel_map, Engine, RunStats};
use dapper_repro::sim_core::req::SourceId;
use dapper_repro::sim_core::telemetry::{LatencyProbe, Probe, SlowdownTrace};
use dapper_repro::sim_core::MemEvent;
use dapper_repro::workloads;

const TRACKERS: [&str; 4] = ["none", "hydra", "para", "dapper-h"];

/// Runs the system under test probe-free.
fn plain_run(e: &Experiment, engine: Engine) -> RunStats {
    e.build_system(false).run_engine(engine)
}

/// Runs the system under test with every built-in recorder attached:
/// time series + mitigation log via the telemetry spec, plus a slowdown
/// trace attached by hand (its reference normally comes from
/// `run_against`).
fn probed_run(e: &Experiment, engine: Engine) -> RunStats {
    let cores = e.cfg.cpu.cores as usize;
    let probed = e.clone().with_telemetry(TelemetrySpec {
        time_series: true,
        mitigation_log: true,
        window_us: Some(17.0), // deliberately not a divisor of the run window
        ..Default::default()
    });
    let mut sys = probed.build_system(false);
    sys.attach_probe(Box::new(SlowdownTrace::flat(vec![1.0; cores], (0..cores).collect())));
    sys.run_engine(engine)
}

#[test]
fn recorders_do_not_perturb_the_quick_subset_matrix() {
    let mut jobs = Vec::new();
    for spec in workloads::quick_subset() {
        for tracker in TRACKERS {
            for engine in [Engine::Dense, Engine::EventDriven] {
                let e = Experiment::quick(spec.name).tracker(tracker).window_us(80.0);
                jobs.push((format!("{}/{}/{:?}", spec.name, tracker, engine), e, engine));
            }
        }
    }
    let outcomes = parallel_map(jobs, |(label, e, engine)| {
        let plain = plain_run(&e, engine);
        let probed = probed_run(&e, engine);
        (label, plain == probed, format!("{plain:?}\n  vs\n{probed:?}"))
    });
    for o in outcomes {
        let (label, equal, detail) = o.expect("equivalence job must not panic");
        assert!(equal, "probes perturbed {label}:\n{detail}");
    }
}

#[test]
fn recorders_do_not_perturb_attacked_runs() {
    // Attacked runs exercise the mitigation-event stream (the mitigation
    // log's food) and tracker throttling; the invariant must hold there
    // too, on both engines.
    let mut jobs = Vec::new();
    for tracker in ["hydra", "comet", "dapper-h"] {
        for engine in [Engine::Dense, Engine::EventDriven] {
            let e = Experiment::quick("gcc_like")
                .tracker(tracker)
                .attack(AttackChoice::Tailored)
                .window_us(100.0);
            jobs.push((format!("{tracker}/{engine:?}"), e, engine));
        }
    }
    let outcomes = parallel_map(jobs, |(label, e, engine)| {
        (label, plain_run(&e, engine) == probed_run(&e, engine))
    });
    for o in outcomes {
        let (label, equal) = o.expect("job must not panic");
        assert!(equal, "probes perturbed attacked run {label}");
    }
}

#[test]
fn oracle_rides_the_sink_api_without_perturbing() {
    // The oracle is now just one client of the registered-sink event API.
    // Its attachment may change exactly one thing: the `oracle` verdict
    // field goes from None to Some.
    let base = || {
        Experiment::quick("povray_like")
            .tracker("para")
            .attack(AttackChoice::Tailored)
            .window_us(100.0)
    };
    for engine in [Engine::Dense, Engine::EventDriven] {
        let plain = plain_run(&base(), engine);
        let mut with_oracle = base().with_oracle().build_system(false).run_engine(engine);
        assert!(with_oracle.oracle.is_some(), "oracle verdict must be present");
        assert!(plain.oracle.is_none());
        with_oracle.oracle = None;
        assert_eq!(plain, with_oracle, "oracle changed more than its verdict ({engine:?})");
    }
}

#[test]
fn latency_tap_does_not_perturb_either_engine() {
    // The attacker pipeline's recon stage reads its timing side channel through a
    // LatencyProbe on the attacker core's read completions. Like every
    // probe it must be a pure observer: RunStats stay bit-identical with
    // the tap attached, on both engines.
    let mut jobs = Vec::new();
    for engine in [Engine::Dense, Engine::EventDriven] {
        let e = Experiment::quick("mcf_like")
            .tracker("dapper-h")
            .attack(AttackChoice::Tailored)
            .seed(0xDA99E5)
            .window_us(100.0);
        jobs.push((format!("{engine:?}"), e, engine));
    }
    let outcomes = parallel_map(jobs, |(label, e, engine)| {
        let plain = plain_run(&e, engine);
        let mut sys = e.build_system(false);
        let attacker = e.cfg.cpu.cores - 1;
        sys.attach_probe(Box::new(LatencyProbe::new(SourceId(attacker))));
        let tapped = sys.run_engine(engine);
        let samples = sys
            .take_probes()
            .into_iter()
            .find_map(|p| p.as_any().downcast_ref::<LatencyProbe>().map(|l| l.samples().len()))
            .expect("latency probe must come back out");
        (label, plain == tapped, samples)
    });
    for o in outcomes {
        let (label, equal, samples) = o.expect("latency-tap job must not panic");
        assert!(equal, "latency tap perturbed {label}");
        assert!(samples > 0, "{label}: the tap must actually observe read completions");
    }
}

/// Records the raw event stream exactly as the system hands it over.
#[derive(Default)]
struct EventTape(Vec<(u8, MemEvent)>);

impl Probe for EventTape {
    fn name(&self) -> &'static str {
        "event-tape"
    }
    fn wants_events(&self) -> bool {
        true
    }
    fn on_event(&mut self, channel: u8, ev: &MemEvent) {
        self.0.push((channel, *ev));
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

#[test]
fn event_stream_is_engine_identical_and_channel_ordered() {
    // `RunStats` equality does not see the order events reach the probes
    // in. On an eight-channel attacked cell both engines must hand over
    // the same `(channel, event)` sequence, and the events of one bus
    // cycle must arrive in channel-index order: the memory step visits
    // the channels in that order and drains each before the next.
    let e = Experiment::quick("mcf_like")
        .tracker("dapper-h")
        .attack(AttackChoice::Tailored)
        .eight_channel(2)
        .window_us(100.0);
    let tape = |engine: Engine| {
        let mut sys = e.build_system(false);
        sys.attach_probe(Box::<EventTape>::default());
        sys.run_engine(engine);
        let probe = sys.take_probes().pop().expect("the tape comes back out");
        probe.into_any().downcast::<EventTape>().expect("it is the tape").0
    };
    let dense = tape(Engine::Dense);
    let event = tape(Engine::EventDriven);
    assert!(dense == event, "the engines hand the probes different event sequences");

    // ACTs and refresh-window ends are stamped with the bus cycle they are
    // issued (and drained) on; the other events carry completion cycles.
    let issued: Vec<(u64, u8)> = event
        .iter()
        .filter_map(|&(ch, ev)| match ev {
            MemEvent::Activate { cycle, .. } | MemEvent::RefreshWindowEnd { cycle } => {
                Some((cycle, ch))
            }
            _ => None,
        })
        .collect();
    assert!(issued.is_sorted(), "an event overtook an earlier cycle or a lower channel");
    let shared_cycles = issued.windows(2).filter(|w| w[0].0 == w[1].0 && w[0].1 < w[1].1).count();
    assert!(shared_cycles > 100, "only {shared_cycles} bus cycles had two channels issuing");
    let channels: std::collections::BTreeSet<u8> = issued.iter().map(|&(_, ch)| ch).collect();
    assert_eq!(channels.len(), 8, "every channel must contribute: {channels:?}");
}

#[test]
fn telemetry_equipped_experiment_matches_probe_free_metrics() {
    // End-to-end through the Experiment layer: same normalized
    // performance, same run and reference stats, with recorders on.
    let base = || {
        Experiment::quick("mcf_like")
            .tracker("dapper-h")
            .attack(AttackChoice::CacheThrash)
            .window_us(120.0)
    };
    let plain = base().run();
    let probed = base().with_telemetry(TelemetrySpec::all_recorders(24.0)).run();
    assert_eq!(plain.run, probed.run);
    assert_eq!(plain.reference, probed.reference);
    assert!((plain.normalized_performance - probed.normalized_performance).abs() < 1e-15);
    let t = probed.telemetry.expect("recorders attached");
    assert_eq!(t.windows.len(), 5, "120 us run / 24 us windows");
    assert_eq!(t.slowdown.expect("trace").points().len(), 5);
}
