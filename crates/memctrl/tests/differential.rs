//! Property-style differential suite: the indexed FR-FCFS scheduler must
//! pick the **same command sequence** as the retained naive-scan oracle.
//!
//! Two controllers — one indexed (production), one in naive-scan mode —
//! are driven with identical seeded-random request streams and trackers
//! engineered to exercise every scheduling phase: column commands (row
//! hits), activations (closed banks, including the throttle-tax path),
//! precharges (row conflicts), plus metadata traffic, victim-row
//! mitigations, and reset sweeps. After every bus cycle the aggregate
//! statistics, completion streams, and captured command events must be
//! bit-identical; any divergence pinpoints the first cycle at which the
//! indexed selection (or its cached decision bound) strayed from the
//! oracle semantics.

use dram::{DramChannel, TimingParams};
use memctrl::{ChannelController, CtrlConfig};
use sim_core::addr::{DramAddr, Geometry, PhysAddr};
use sim_core::config::MitigationKind;
use sim_core::events::MemEvent;
use sim_core::req::{AccessKind, MemRequest, SourceId};
use sim_core::rng::Xoshiro256;
use sim_core::time::Cycle;
use sim_core::tracker::{Activation, ResetScope, RowHammerTracker, StorageOverhead, TrackerAction};

/// A seeded adversarial tracker: on activations it randomly mitigates,
/// requests counter reads/writes, demands reset sweeps, or throttles —
/// the full action surface the scheduler must order identically.
struct ChaosTracker {
    rng: Xoshiro256,
    geom: Geometry,
    /// Per-mille probabilities: (mitigate, counter, sweep, throttle).
    p: (u64, u64, u64, u64),
}

impl ChaosTracker {
    fn new(seed: u64, p: (u64, u64, u64, u64)) -> Self {
        Self { rng: Xoshiro256::seed_from(seed), geom: Geometry::paper_baseline(), p }
    }
}

impl RowHammerTracker for ChaosTracker {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn on_activation(&mut self, act: Activation, actions: &mut Vec<TrackerAction>) {
        let roll = self.rng.gen_range(1000);
        if roll < self.p.0 {
            actions.push(TrackerAction::MitigateRow(act.addr));
        } else if roll < self.p.0 + self.p.1 {
            let idx = self.rng.gen_range(4096);
            let meta = crate_meta_addr(&self.geom, act.addr.channel, act.addr.rank, idx);
            actions.push(TrackerAction::CounterRead(meta));
            if roll.is_multiple_of(2) {
                actions.push(TrackerAction::CounterWrite(meta));
            }
        } else if roll < self.p.0 + self.p.1 + self.p.2 {
            actions.push(TrackerAction::ResetSweep(ResetScope::Rank {
                channel: act.addr.channel,
                rank: act.addr.rank,
            }));
        }
    }

    fn activation_delay(&mut self, _a: &DramAddr, _s: SourceId, _c: Cycle) -> Cycle {
        if self.rng.gen_range(1000) < self.p.3 {
            self.rng.gen_range(400) + 1
        } else {
            0
        }
    }

    fn storage_overhead(&self) -> StorageOverhead {
        StorageOverhead::default()
    }
}

/// Metadata address in the reserved top rows (mirrors trackers::util).
fn crate_meta_addr(geom: &Geometry, channel: u8, rank: u8, idx: u64) -> DramAddr {
    let banks = geom.banks_per_rank() as u64;
    let bank_flat = (idx % banks) as u32;
    let depth = (idx / banks) % 64;
    DramAddr {
        channel,
        rank,
        bank_group: (bank_flat / geom.banks_per_group as u32) as u8,
        bank: (bank_flat % geom.banks_per_group as u32) as u8,
        row: geom.rows_per_bank - 1 - depth as u32,
        col: (idx % geom.cols_per_row() as u64) as u16,
    }
}

fn controller(tracker: Box<dyn RowHammerTracker>, cfg: CtrlConfig) -> ChannelController {
    let dram = DramChannel::new(Geometry::paper_baseline(), TimingParams::ddr5_6400());
    let mut c = ChannelController::new(0, dram, tracker, cfg);
    c.set_event_capture(true);
    c
}

/// Drives both controllers for `cycles` with an identical seeded request
/// stream and asserts bit-identical observable behaviour every cycle.
fn run_differential(seed: u64, cycles: Cycle, p: (u64, u64, u64, u64), hot_rows: u64) {
    run_differential_with(seed, cycles, p, hot_rows, CtrlConfig::new(500, 1, MitigationKind::Vrr));
}

/// [`run_differential`] under a chosen controller configuration. Returns
/// how often the metadata queue was seen to cross `counter_queue_cap`,
/// `(upwards, downwards)`, sampled once per cycle.
fn run_differential_with(
    seed: u64,
    cycles: Cycle,
    p: (u64, u64, u64, u64),
    hot_rows: u64,
    cfg: CtrlConfig,
) -> (u32, u32) {
    let mut indexed = controller(Box::new(ChaosTracker::new(seed ^ 0x7ac, p)), cfg);
    let mut oracle = controller(Box::new(ChaosTracker::new(seed ^ 0x7ac, p)), cfg);
    oracle.set_naive_scan(true);
    let mut saturated = false;
    let mut crossings = (0, 0);

    let mut rng = Xoshiro256::seed_from(seed);
    let geom = Geometry::paper_baseline();
    let mut id = 1u64;
    let mut done_i = Vec::new();
    let mut done_o = Vec::new();
    let mut ev_i: Vec<MemEvent> = Vec::new();
    let mut ev_o: Vec<MemEvent> = Vec::new();

    for now in 0..cycles {
        // Random enqueue pressure: bursts keep the queues saturated, rows
        // drawn from a small hot set to force hits AND conflicts, plus a
        // write mix deep enough to flip the drain hysteresis.
        let burst = rng.gen_range(3) as usize;
        for _ in 0..burst {
            let kind = if rng.gen_range(100) < 35 { AccessKind::Write } else { AccessKind::Read };
            let addr = DramAddr::new(
                0,
                rng.gen_range(2) as u8,
                rng.gen_range(geom.bank_groups as u64) as u8,
                rng.gen_range(geom.banks_per_group as u64) as u8,
                rng.gen_range(hot_rows) as u32,
                rng.gen_range(64) as u16,
            );
            let req = MemRequest::new(id, SourceId(0), kind, PhysAddr(0), addr, now);
            let a = indexed.enqueue(req);
            let b = oracle.enqueue(req);
            assert_eq!(a, b, "enqueue acceptance diverged at cycle {now}");
            if a {
                id += 1;
            }
        }
        indexed.tick(now);
        oracle.tick(now);
        indexed.pop_completions(now, &mut done_i);
        oracle.pop_completions(now, &mut done_o);
        assert_eq!(done_i, done_o, "completions diverged at cycle {now} (seed {seed})");
        assert_eq!(indexed.stats, oracle.stats, "stats diverged at cycle {now} (seed {seed})");
        assert_eq!(indexed.occupancy(), oracle.occupancy(), "occupancy diverged at {now}");
        let now_saturated = indexed.occupancy().2 >= cfg.counter_queue_cap;
        match (saturated, now_saturated) {
            (false, true) => crossings.0 += 1,
            (true, false) => crossings.1 += 1,
            _ => {}
        }
        saturated = now_saturated;
        indexed.drain_events(&mut |e| ev_i.push(*e));
        oracle.drain_events(&mut |e| ev_o.push(*e));
        assert_eq!(ev_i, ev_o, "event streams diverged at cycle {now} (seed {seed})");
        ev_i.clear();
        ev_o.clear();
    }
    // The run must have exercised the column and ACT phases always, and
    // the PRE phase whenever the row mix can conflict at all.
    assert!(indexed.stats.reads + indexed.stats.writes > 0, "no column commands issued");
    assert!(indexed.stats.activations > 0, "no ACTs issued");
    assert!(hot_rows < 2 || indexed.stats.precharges > 0, "no PREs issued");
    crossings
}

#[test]
fn random_queue_states_match_the_oracle() {
    // Conflict-heavy: few rows per bank, mitigations and counter traffic.
    for seed in [1u64, 2, 3, 11] {
        run_differential(seed, 40_000, (30, 60, 0, 0), 6);
    }
}

#[test]
fn throttled_acts_match_the_oracle() {
    // Tracker throttling taxes ACT winners: the not-before bookkeeping
    // and the PRE-after-tax path must agree.
    for seed in [5u64, 17] {
        run_differential(seed, 40_000, (20, 20, 0, 120), 5);
    }
}

#[test]
fn sweeps_and_refresh_windows_match_the_oracle() {
    // Rank sweeps block for milliseconds; a long run crosses several
    // tREFI hooks and at least one sweep while the queues stay loaded.
    run_differential(23, 120_000, (10, 20, 4, 30), 8);
}

#[test]
fn row_hit_streams_match_the_oracle() {
    // Hit-friendly: a single hot row per bank maximises column traffic
    // and the served-bank PRE suppression logic.
    for seed in [7u64, 29] {
        run_differential(seed, 30_000, (15, 0, 0, 0), 1);
    }
}

#[test]
fn same_bank_mitigations_match_the_oracle() {
    // DRFMsb / RFMsb close and block the aggressor's bank number in
    // *every* bank group: one command invalidates what the indexed path
    // caches about eight banks, seven of which it did not name.
    for kind in [MitigationKind::DrfmSb, MitigationKind::RfmSb] {
        for seed in [13u64, 31] {
            run_differential_with(seed, 40_000, (60, 40, 0, 20), 4, CtrlConfig::new(500, 2, kind));
        }
    }
}

#[test]
fn metadata_backpressure_flips_match_the_oracle() {
    // A counter-heavy tracker against a small metadata queue: the demand
    // ACT veto must come on and off many times, each flip changing which
    // requests of *every* closed bank are candidates at all.
    let mut cfg = CtrlConfig::new(500, 1, MitigationKind::Vrr);
    cfg.counter_queue_cap = 5;
    for seed in [3u64, 19] {
        let (up, down) = run_differential_with(seed, 40_000, (10, 420, 0, 0), 6, cfg);
        assert!(up >= 20 && down >= 20, "veto flipped only {up} up / {down} down (seed {seed})");
    }
}

#[test]
fn taxed_requests_turned_hits_match_the_oracle() {
    // One hot row per bank and a tracker that taxes every second ACT
    // winner: a taxed request's row is usually opened by a younger request
    // to the same row before the tax runs out, leaving the bank holding
    // ready hits *and* a hit that must still wait — the one case where a
    // column command is gated by `not_before`.
    for seed in [9u64, 41] {
        run_differential(seed, 40_000, (40, 0, 0, 500), 1);
    }
}
