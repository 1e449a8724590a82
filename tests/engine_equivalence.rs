//! Cross-engine determinism: the event-driven time-skipping loop must
//! produce **bit-identical** [`RunStats`] to the dense-tick reference loop.
//!
//! The skip engine only jumps stretches it can prove are no-ops for the
//! memory system and exactly summarizable for the cores; any gap in those
//! proofs (a dropped refresh boundary, a missed tracker hook, a core
//! advanced past a completion) shows up here as a field-level mismatch.
//!
//! The default suite covers every tracker (benign and tailored attack) and
//! a suite-spanning workload subset; `--ignored` unlocks the full
//! 57-workload × 11-tracker matrix the acceptance criteria describe.
//!
//! The dense loop is not a setting of an [`Experiment`]: every check here
//! builds the experiment's systems and runs them with
//! `System::run_engine(Engine::Dense)`, against what the event-driven
//! default (`System::run`, `Experiment::run`) produced.

use dapper_repro::sim::experiment::{take_recorder, AttackChoice, Experiment, TrackerSel};
use dapper_repro::sim::{parallel_map, Engine, RunStats};
use dapper_repro::sim_core::telemetry::{MitigationLog, MitigationRecord, TimeSeriesRecorder};
use dapper_repro::sim_core::WindowSample;
use dapper_repro::{cpu, redteam, sim, workloads};

/// Runs one experiment's system under both engines and returns the pair.
fn both_engines(e: &Experiment) -> (RunStats, RunStats) {
    let dense = e.build_system(false).run_dense();
    let event = e.build_system(false).run();
    (dense, event)
}

/// What one system of `e` — the run, or with `reference` its reference —
/// produced on `engine`: its stats, its window series and its mitigation
/// log (empty where the telemetry attaches no such recorder).
type Leg = (RunStats, Vec<WindowSample>, Vec<MitigationRecord>);

fn leg(e: &Experiment, reference: bool, engine: Engine) -> Leg {
    let mut sys = e.build_system(reference);
    let stats = sys.run_engine(engine);
    let mut probes = sys.take_probes();
    let windows = take_recorder::<TimeSeriesRecorder>(&mut probes)
        .map(TimeSeriesRecorder::into_samples)
        .unwrap_or_default();
    let mitigations = take_recorder::<MitigationLog>(&mut probes)
        .map(|log| log.records().to_vec())
        .unwrap_or_default();
    (stats, windows, mitigations)
}

/// `Experiment::run` against its two systems run by hand on the dense
/// loop: the run's and the reference's `RunStats` and window series, and
/// the mitigation log. The slowdown trace is a function of the two window
/// series, so it is covered too.
fn assert_run_matches_dense_legs(label: &str, e: &Experiment) {
    let r = e.clone().run();
    let t = r.telemetry.expect("the experiment records windows");
    let (run, windows, mitigations) = leg(e, false, Engine::Dense);
    let (reference, reference_windows, _) = leg(e, true, Engine::Dense);
    assert!(!windows.is_empty() && !reference_windows.is_empty(), "{label}: no windows");
    assert_eq!(run, r.run, "{label}: run stats");
    assert_eq!(reference, r.reference, "{label}: reference stats");
    assert_eq!(windows, t.windows, "{label}: run windows");
    assert_eq!(reference_windows, t.reference_windows, "{label}: reference windows");
    assert_eq!(mitigations, t.mitigations, "{label}: mitigation log");
}

fn assert_matrix_equal(jobs: Vec<(String, Experiment)>) {
    let outcomes = parallel_map(jobs, |(label, e)| {
        let (dense, event) = both_engines(&e);
        (label, dense == event, format!("{dense:?}\n  vs\n{event:?}"))
    });
    for o in outcomes {
        let (label, equal, detail) = o.expect("equivalence job must not panic");
        assert!(equal, "engines diverged on {label}:\n{detail}");
    }
}

#[test]
fn every_tracker_is_engine_equivalent_benign_and_attacked() {
    let mut jobs = Vec::new();
    for tracker in dapper_repro::sim::tracker_keys() {
        let benign = Experiment::quick("gcc_like").tracker(tracker).window_us(100.0);
        jobs.push((format!("{tracker}/benign"), benign));
        let attacked = Experiment::quick("gcc_like")
            .tracker(tracker)
            .attack(AttackChoice::Tailored)
            .window_us(100.0);
        jobs.push((format!("{tracker}/tailored"), attacked));
    }
    assert_matrix_equal(jobs);
}

#[test]
fn workload_subset_is_engine_equivalent() {
    let mut jobs = Vec::new();
    for spec in workloads::quick_subset() {
        for tracker in ["none", "dapper-h"] {
            let e = Experiment::quick(spec.name).tracker(tracker).window_us(100.0);
            jobs.push((format!("{}/{}", spec.name, tracker), e));
        }
    }
    assert_matrix_equal(jobs);
}

#[test]
fn engines_agree_across_channel_counts() {
    // Per-channel due cycles must be invisible: on both geometries (paper
    // baseline and the enlarged eight-channel system) the dense loop
    // yields the `RunStats`, telemetry windows and mitigation log
    // `Experiment::run` reports, because channels deliver in index order
    // on every stepped cycle.
    use dapper_repro::sim::experiment::TelemetrySpec;
    let base = Experiment::quick("gcc_like")
        .tracker("dapper-h")
        .attack(AttackChoice::Tailored)
        .window_us(200.0)
        .with_telemetry(TelemetrySpec::all_recorders(50.0));
    let jobs = vec![("2ch", base.clone()), ("8ch", base.eight_channel(2))];
    for outcome in parallel_map(jobs, |(label, e)| assert_run_matches_dense_legs(label, &e)) {
        outcome.expect("geometry job must not panic");
    }
}

#[test]
fn scenario_genome_cell_and_its_reference_are_engine_equivalent() {
    // The red-team cells: `Arena::experiment` puts a scenario genome on the
    // attacker core as a `CustomAttack`, with the profile stage's probe
    // telemetry (slowdown windows plus the mitigation log). The run and
    // the reference the arena normalizes against each agree dense against
    // event, windows and mitigations included.
    use redteam::{Arena, ScenarioSpec, Shape};
    let mut arena = Arena::new("povray_like").probing();
    arena.window_us = 60.0;
    let mut genome = ScenarioSpec::baseline(workloads::Attack::CacheThrash);
    genome.shape = Shape::Hammer { banks: 2, per_bank: 4 };
    genome.lanes = 2;
    genome.decoy_pct = 10;
    let mut e = arena.experiment(&TrackerSel::by_key("hydra").unwrap(), &genome);
    assert!(e.custom_attack.is_some(), "the genome rides a custom attack");
    e.telemetry.time_series = true;
    let jobs = vec![("run", false), ("reference", true)];
    let outcomes = parallel_map(jobs, |(label, reference)| {
        (label, leg(&e, reference, Engine::Dense), leg(&e, reference, Engine::EventDriven))
    });
    for o in outcomes {
        let (label, dense, event) = o.expect("scenario leg must not panic");
        assert!(!dense.1.is_empty(), "{label}: windows recorded");
        assert_eq!(dense, event, "{label}: engines diverged on the scenario cell");
    }
}

#[test]
fn oracle_runs_are_engine_equivalent() {
    // Event collection and the ground-truth oracle must see the identical
    // activation stream under both engines.
    let e = Experiment::quick("povray_like")
        .tracker("para")
        .attack(AttackChoice::Tailored)
        .window_us(150.0)
        .with_oracle();
    let (dense, event) = both_engines(&e);
    assert_eq!(dense, event);
    assert!(dense.oracle.is_some(), "oracle must be attached");
}

#[test]
fn sweep_heavy_trackers_skip_across_blocks_equivalently() {
    // CoMeT/ABACUS reset sweeps block ranks for milliseconds — exactly the
    // stretch the skip engine jumps via the sweep-unblock bound. Use a
    // window long enough to contain a sweep.
    for tracker in ["comet", "abacus"] {
        let e = Experiment::quick("povray_like")
            .tracker(tracker)
            .attack(AttackChoice::Tailored)
            .nrh(120)
            .window_us(400.0);
        let (dense, event) = both_engines(&e);
        assert_eq!(dense, event, "{tracker} diverged across a sweep block");
    }
}

#[test]
fn campaign_smoke_runs_on_the_event_engine() {
    // The red-team campaign runner goes through Experiment, which runs on
    // the event-driven engine: a small end-to-end campaign must complete
    // and produce sane normalized-performance numbers.
    let mut cfg = redteam::CampaignConfig::new(
        vec![TrackerSel::by_key("none").unwrap(), TrackerSel::by_key("dapper-h").unwrap()],
        "gcc_like",
    );
    cfg.arena.window_us = 100.0;
    cfg.search_budget = 0;
    cfg.scenarios.truncate(2);
    let report = redteam::run_campaign(&cfg, None);
    assert_eq!(report.rows.len(), 2 * 2, "2 trackers x 2 fixed scenarios");
    for row in &report.rows {
        let np = row.record.normalized_performance;
        assert!(np.is_finite() && np > 0.0 && np < 1.5, "{}: {np}", row.tracker);
    }
}

#[test]
fn event_engine_dense_step_fraction_stays_under_its_floors() {
    // The structural guard on time-skipping: the event engine may simulate
    // at most this fraction of bus cycles densely. The fraction is
    // bit-deterministic, so it holds on any machine in debug and release
    // (0.024 / 0.051 / 0.463 / 0.518 when the floors moved here).
    let floors = [
        ("povray_like/dapper-h", Experiment::new("povray_like").tracker("dapper-h"), 500.0, 0.10),
        ("namd_like/none", Experiment::new("namd_like").tracker("none"), 500.0, 0.15),
        ("mcf_like/dapper-h", Experiment::new("mcf_like").tracker("dapper-h"), 125.0, 0.60),
        (
            "gcc_like/hydra/tailored",
            Experiment::new("gcc_like").tracker("hydra").attack(AttackChoice::Tailored),
            125.0,
            0.60,
        ),
    ];
    let outcomes = parallel_map(floors.into(), |(label, e, window_us, max)| {
        let mut sys = e.window_us(window_us).build_system(false);
        let cycles = sys.run_engine(Engine::EventDriven).cycles;
        (label, sys.engine_stats().dense_steps as f64 / cycles.max(1) as f64, max)
    });
    for o in outcomes {
        let (label, fraction, max) = o.expect("floor job must not panic");
        assert!(fraction <= max, "{label}: dense-step fraction {fraction:.3} above {max:.2}");
    }
}

#[test]
fn engine_stats_of_three_loaded_cells_are_pinned() {
    // `RunStats` equality cannot see a scheduler bound that is merely
    // "safe but earlier": the run's numbers stay right while the
    // controllers tick more than they have to. `shard_ticks` can: a
    // controller ticks exactly when its decision bound says so, whatever
    // the engine does around it. Recorded at PR 17's commit, before the
    // scheduler's scan moved onto its per-bank digests, and unchanged since.
    // The `(dense_steps, skips, skipped_cycles)` triples describe the
    // engine, not the model; re-recorded when it went component-wise
    // (PR 22). All of them are bit-deterministic.
    use workloads::Attack;
    let pins: [(&str, Experiment, [u64; 3], [u64; 2]); 3] = [
        (
            "mcf_like/dapper-h",
            Experiment::new("mcf_like").tracker("dapper-h"),
            [75_117, 27_461, 84_883],
            [38_307, 38_845],
        ),
        (
            "gcc_like/hydra/tailored",
            Experiment::new("gcc_like").tracker("hydra").attack(AttackChoice::Tailored),
            [89_813, 33_881, 70_187],
            [81_699, 6_131],
        ),
        (
            "milc_like/dapper-s/streaming",
            Experiment::new("milc_like")
                .tracker("dapper-s")
                .attack(AttackChoice::Specific(Attack::Streaming)),
            [89_822, 34_134, 70_178],
            [83_532, 7_732],
        ),
    ];
    let outcomes = parallel_map(pins.into(), |(label, e, engine, shard_ticks)| {
        let mut sys = e.window_us(50.0).build_system(false);
        let cycles = sys.run_engine(Engine::EventDriven).cycles;
        let s = sys.engine_stats();
        let got = ([s.dense_steps, s.skips, s.skipped_cycles], s.shard_ticks.clone());
        (label, got, (engine, shard_ticks.to_vec()), cycles)
    });
    for o in outcomes {
        let (label, got, want, cycles) = o.expect("pinned cell must not panic");
        assert_eq!(got, want, "{label}: (dense_steps, skips, skipped_cycles), shard_ticks moved");
        assert_eq!(got.0[0] + got.0[2], cycles, "{label}: every cycle is stepped or jumped over");
    }
}

#[test]
fn instruction_budgets_that_land_mid_streak_stop_on_the_dense_cycle() {
    // Cores park under an instruction budget too, their wake cut to the
    // first cycle they could cross it. The budgets are odd and sit inside
    // bubble streaks (povray), full-window stalls (mcf) and an attacked
    // cell; the early stop must land on the cycle the dense loop stops at,
    // with every counter equal.
    let cells = [
        ("povray_like/dapper-h", Experiment::quick("povray_like").tracker("dapper-h")),
        ("mcf_like/dapper-h", Experiment::quick("mcf_like").tracker("dapper-h")),
        (
            "gcc_like/hydra/tailored",
            Experiment::quick("gcc_like").tracker("hydra").attack(AttackChoice::Tailored),
        ),
    ];
    let mut jobs = Vec::new();
    for (label, e) in cells {
        for budget in [1u64, 4_999, 61_337] {
            let mut e = e.clone().window_us(400.0);
            e.cfg.max_instructions = budget;
            jobs.push((format!("{label}/budget {budget}"), e));
        }
    }
    let outcomes = parallel_map(jobs, |(label, e)| {
        let (dense, event) = both_engines(&e);
        let stopped_early = dense.cycles < e.cfg.window_cycles;
        (label, dense == event, stopped_early, format!("{dense:?}\n  vs\n{event:?}"))
    });
    let mut early_stops = 0;
    for o in outcomes {
        let (label, equal, stopped_early, detail) = o.expect("budget job must not panic");
        assert!(equal, "engines diverged on {label}:\n{detail}");
        early_stops += u32::from(stopped_early);
    }
    assert!(early_stops >= 6, "the budgets must end most runs early: {early_stops} of 9");
}

#[test]
fn odd_windows_shorter_than_a_bubble_streak_cut_parked_spans_exactly() {
    // 997 bus cycles is odd (the 5:4 clock ratio never lines up with it)
    // and shorter than povray's bubble streaks, so nearly every boundary
    // lands inside a parked span and replays it part-way.
    use dapper_repro::sim::experiment::TelemetrySpec;
    let spec =
        TelemetrySpec { time_series: true, window_us: Some(997.0 / 3200.0), ..Default::default() };
    let cells = [
        Experiment::quick("povray_like").tracker("dapper-h"),
        Experiment::quick("mcf_like").tracker("none"),
    ];
    for e in cells {
        let e = e.window_us(120.0).with_telemetry(spec);
        let run = |engine| {
            let mut sys = e.build_system(false);
            let stats = sys.run_engine(engine);
            let rec: TimeSeriesRecorder =
                take_recorder(&mut sys.take_probes()).expect("recorder attached");
            (stats, rec.into_samples())
        };
        let (dense_stats, dense_windows) = run(Engine::Dense);
        let (event_stats, event_windows) = run(Engine::EventDriven);
        assert_eq!(dense_stats, event_stats, "{}", e.workload);
        assert_eq!(dense_windows, event_windows, "{}", e.workload);
        assert_eq!(dense_windows[0].end - dense_windows[0].start, 997);
        assert_eq!(dense_windows.len() as u64, e.cfg.window_cycles.div_ceil(997));
    }
}

/// Rewrites a trace's addresses onto channel 0 (the channel index is the
/// low bits of the line address).
struct OnChannelZero<T>(T, u64);

impl<T: cpu::TraceSource> cpu::TraceSource for OnChannelZero<T> {
    fn next_entry(&mut self) -> cpu::TraceEntry {
        let mut e = self.0.next_entry();
        e.addr.0 &= !((self.1 - 1) << 6);
        e
    }
}

#[test]
fn one_hot_channel_leaves_seven_channels_idle_and_stays_exact() {
    // Eight channels, all traffic on one: seven `due` entries only ever
    // move for refresh, and the engine must neither visit those channels in
    // between nor lose one of their refreshes.
    use dapper_repro::sim_core::telemetry::Telemetry;
    use dapper_repro::workloads::{spec_by_name, SyntheticTrace};
    let e = Experiment::quick("mcf_like").tracker("dapper-h").eight_channel(2).window_us(100.0);
    let build = || {
        let g = e.cfg.geometry;
        let spec = spec_by_name("mcf_like").expect("catalog workload");
        let cores = e.cfg.cpu.cores as usize;
        let traces = (0..cores)
            .map(|core| {
                let trace = SyntheticTrace::new(spec, core, e.cfg.seed);
                Box::new(OnChannelZero(trace, g.channels as u64)) as Box<dyn cpu::TraceSource>
            })
            .collect();
        let trackers = (0..g.channels).map(|ch| e.tracker.build(e.cfg.nrh, g, ch, 7)).collect();
        sim::System::new(e.cfg.clone(), traces, vec![false; cores], trackers, Telemetry::none())
    };
    let dense = build().run_dense();
    let mut sys = build();
    let event = sys.run();
    assert_eq!(dense, event);
    let per_channel = sys.channel_stats();
    assert!(per_channel[0].reads > 1_000, "channel 0 carries the cell: {:?}", per_channel[0]);
    let ticks = sys.engine_stats().shard_ticks;
    for ch in 1..8 {
        assert_eq!(per_channel[ch].reads + per_channel[ch].writes, 0, "channel {ch} saw traffic");
        assert!(per_channel[ch].refreshes > 0, "channel {ch} must keep refreshing");
        assert!(ticks[ch] * 20 < ticks[0], "channel {ch} ticked {} of {}", ticks[ch], ticks[0]);
    }
}

#[test]
#[ignore = "full 57x11 matrix; run with --ignored (CI nightly / acceptance)"]
fn full_catalog_tracker_matrix_is_engine_equivalent() {
    let mut jobs = Vec::new();
    for spec in workloads::catalog() {
        for tracker in dapper_repro::sim::tracker_keys() {
            let e = Experiment::quick(spec.name).tracker(tracker).window_us(100.0);
            jobs.push((format!("{}/{}", spec.name, tracker), e));
        }
    }
    assert_matrix_equal(jobs);
}

#[test]
fn event_engine_is_the_default_everywhere() {
    // Experiment::run and System::run both use the event engine; the dense
    // loop on the same experiment's systems must agree, so default-path
    // consumers (figures, campaigns, sweeps) inherit identical numbers.
    use dapper_repro::sim::experiment::TelemetrySpec;
    let e = Experiment::quick("namd_like")
        .tracker("dapper-s")
        .window_us(100.0)
        .with_telemetry(TelemetrySpec::all_recorders(25.0));
    assert_run_matches_dense_legs("namd_like/dapper-s", &e);
}
