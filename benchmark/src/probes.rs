//! Isolated replays of single layers below `sim::System`, timed from
//! outside through their public functions. Traced passes only.
//!
//! `System::run` cannot be opened from outside, so these are *estimates*
//! of what a call costs inside a run: the same code on similar state,
//! without the rest of the machine competing for the host's caches.

use cpu::{Core, MemoryPort, PortResponse, TraceSource};
use dram::{DramChannel, TimingParams};
use memctrl::{ChannelController, CtrlConfig};
use sim_core::addr::{DramAddr, Geometry, PhysAddr};
use sim_core::config::{CpuConfig, LlcConfig, MitigationKind};
use sim_core::req::{AccessKind, MemRequest, SourceId};
use sim_core::rng::Xoshiro256;
use sim_core::time::Cycle;
use sim_core::tracker::NullTracker;
use std::hint::black_box;
use std::time::Instant;
use workloads::{spec_by_name, SyntheticTrace};

/// Nanoseconds per iteration of `body`, best of three batches of `iters`
/// (the first batch also warms the host's caches).
pub fn ns_per_iter(iters: u64, mut body: impl FnMut(u64)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for i in 0..iters {
            body(i);
        }
        best = best.min(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

fn refill(c: &mut ChannelController, rng: &mut Xoshiro256, id: &mut u64, now: Cycle) {
    let geom = Geometry::paper_baseline();
    loop {
        let kind = if rng.gen_range(100) < 30 { AccessKind::Write } else { AccessKind::Read };
        // Few rows over every bank: row conflicts with a sprinkle of hits,
        // the mix a bandwidth-bound workload keeps the queues in.
        let addr = DramAddr::new(
            0,
            rng.gen_range(2) as u8,
            rng.gen_range(geom.bank_groups as u64) as u8,
            rng.gen_range(geom.banks_per_group as u64) as u8,
            rng.gen_range(8) as u32,
            rng.gen_range(64) as u16,
        );
        if !c.enqueue(MemRequest::new(*id, SourceId(0), kind, PhysAddr(0), addr, now)) {
            break;
        }
        *id += 1;
    }
}

/// `(tick_ns, next_event_ns)` of a channel controller whose read and write
/// queues are kept full (the scenario of `crates/bench/benches/hot_path.rs`).
pub fn memctrl_saturated(seed: u64) -> (f64, f64) {
    let dram = DramChannel::new(Geometry::paper_baseline(), TimingParams::ddr5_6400());
    let cfg = CtrlConfig::new(500, 1, MitigationKind::Vrr);
    let mut ctrl = ChannelController::new(0, dram, Box::new(NullTracker), cfg);
    let mut rng = Xoshiro256::seed_from(seed);
    let mut id = 1;
    let mut now: Cycle = 0;
    let mut done = Vec::new();
    refill(&mut ctrl, &mut rng, &mut id, now);
    let tick_ns = ns_per_iter(200_000, |_| {
        ctrl.tick(now);
        ctrl.pop_completions(now, &mut done);
        done.clear();
        if now.is_multiple_of(16) {
            refill(&mut ctrl, &mut rng, &mut id, now);
        }
        now += 1;
    });
    let next_event_ns = ns_per_iter(200_000, |i| {
        black_box(ctrl.next_event(black_box(now + (i & 3))));
    });
    (tick_ns, next_event_ns)
}

/// Nanoseconds per `earliest_act` + `earliest_col` pair on a channel with
/// a row open in every bank.
pub fn dram_gate_query() -> f64 {
    let geom = Geometry::paper_baseline();
    let mut dram = DramChannel::new(geom, TimingParams::ddr5_6400());
    let mut addrs = Vec::new();
    let mut at: Cycle = 0;
    for rank in 0..geom.ranks {
        for bg in 0..geom.bank_groups {
            for bank in 0..geom.banks_per_group {
                let a = DramAddr::new(0, rank, bg, bank, 7, 0);
                at = dram.earliest_act(&a, at);
                dram.issue_act(&a, at);
                addrs.push(a);
            }
        }
    }
    let n = addrs.len() as u64;
    ns_per_iter(400_000, |i| {
        let a = &addrs[(i % n) as usize];
        black_box(dram.earliest_act(black_box(a), at));
        black_box(dram.earliest_col(black_box(a), at));
    })
}

/// Nanoseconds per `Llbc::encrypt` over the rank-row domain DAPPER hashes.
pub fn llbc_encrypt(seed: u64) -> f64 {
    let cipher = llbc::Llbc::new(Geometry::paper_baseline().rank_row_bits(), seed);
    let mut x = 1u64;
    ns_per_iter(400_000, |_| {
        x = cipher.encrypt(black_box(x));
    })
}

/// A memory hierarchy that completes every access at once.
struct AlwaysReady;

impl MemoryPort for AlwaysReady {
    fn access(&mut self, _: SourceId, _: PhysAddr, _: AccessKind) -> PortResponse {
        PortResponse::Done { latency: 1 }
    }
}

fn trace_of(workload: &str, seed: u64) -> SyntheticTrace {
    let spec = spec_by_name(workload).unwrap_or_else(|| panic!("unknown workload '{workload}'"));
    SyntheticTrace::new(spec, 0, seed)
}

/// Nanoseconds per `Core::cycle` of a core fed by `workload`'s trace
/// against a port that never stalls it.
pub fn cpu_core_cycle(workload: &str, seed: u64) -> f64 {
    let cfg = CpuConfig::paper_baseline();
    let trace = Box::new(trace_of(workload, seed));
    let mut core = Core::new(SourceId(0), cfg.width as u32, cfg.rob_entries as usize, trace);
    let mut port = AlwaysReady;
    ns_per_iter(400_000, |_| core.cycle(&mut port))
}

/// Nanoseconds per `Llc::access` over `workload`'s address stream.
pub fn llcache_access(workload: &str, seed: u64) -> f64 {
    let mut llc = llcache::Llc::new(LlcConfig::paper_baseline(), seed);
    let mut trace = trace_of(workload, seed);
    let accesses: Vec<(u64, bool)> = (0..65_536)
        .map(|_| {
            let e = trace.next_entry();
            (e.addr.0, e.is_write)
        })
        .collect();
    ns_per_iter(400_000, |i| {
        let (addr, is_write) = accesses[(i & 65_535) as usize];
        black_box(llc.access(addr, is_write));
    })
}

/// Nanoseconds per `SyntheticTrace::next_entry` of `workload`.
pub fn trace_next(workload: &str, seed: u64) -> f64 {
    let mut trace = trace_of(workload, seed);
    ns_per_iter(400_000, |_| {
        black_box(trace.next_entry());
    })
}
