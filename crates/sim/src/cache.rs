//! Content-addressed run cache: canonical experiment cells in, complete
//! [`ExperimentResult`]s out.
//!
//! `tests/determinism.rs` proves the contract that makes this sound: an
//! identical (spec, tracker params, workload, seed) tuple yields a
//! bit-identical [`RunStats`]. This module turns that property into
//! reuse — every experiment canonicalizes to a **cell descriptor** (all
//! defaults resolved, every identity-bearing knob listed), the
//! descriptor hashes to a stable key via [`sim_core::cache::content_key`],
//! and the full result (stats, reference, telemetry blob) persists under
//! that key in a [`DiskStore`]. A warm re-run of an unchanged spec
//! performs zero simulations; an edited spec re-runs only the changed
//! frontier.
//!
//! # Canonicalization
//!
//! The descriptor is a canonical JSON document covering:
//!
//! * [`CACHE_EPOCH`] — bumped whenever canonicalization or the payload
//!   codec changes meaning, invalidating all prior entries at once,
//! * the workload id and the canonical tracker key (aliases resolve to
//!   the same key, so `DAPPER_H` and `dapper-h` are the same cell),
//! * the **fully resolved** tracker parameter map — defaults merged and
//!   values coerced, so an override spelled `5` and one spelled `5.0`,
//!   or an explicit default, canonicalize identically,
//! * the **resolved** attack (`tailored` resolves to the concrete
//!   pattern chosen for the tracker, so it shares a cell with an
//!   explicit naming of that pattern); custom attacks are uncacheable
//!   unless the caller supplies an identity string covering the whole
//!   trace-generation genome (see [`cell_key_with_attack_id`]),
//! * every [`sim_core::SystemConfig`] field that shapes results
//!   (geometry, CPU, LLC, N_RH, blast radius, mitigation kind, window,
//!   instruction budget, seed) — but **not**
//!   [`Threads`](sim_core::config::Threads): the executor produces
//!   bit-identical results at any lane count, so a sequential and a
//!   sharded run of the same cell share one cache entry by design
//!   (`tests/cache_keys.rs` pins this),
//! * the engine, the normalization mode, and the full telemetry spec
//!   (recorders change what a result *carries*, so they are part of
//!   identity, not just presentation).
//!
//! Each entry embeds its descriptor and the reader compares it
//! byte-for-byte, so even a hash collision cannot alias results; a
//! mismatched or undecodable entry is evicted and recomputed, never
//! returned.

use crate::exec::{Checkpoint, Executor, PayloadCache};
use crate::experiment::{Experiment, ExperimentResult};
use crate::journal::SweepJournal;
use crate::metrics::{RunStats, RunTelemetry};
use crate::runner::{cell_label, RunnerConfig};
use crate::spec::{SpecError, SweepReport, SweepSpec};
use crate::system::Engine;
use sim_core::cache::{content_key, CacheStats, DiskStore};
use sim_core::json::Json;
use sim_core::stats::MemStats;
use sim_core::telemetry::{
    MitigationKindTag, MitigationRecord, SlowdownPoint, SlowdownReference, SlowdownTrace,
    WindowSample,
};
use sim_core::ParamValue;

/// Cache-format epoch. Part of every cell descriptor: bump it whenever
/// canonicalization or the entry codec changes meaning, and every prior
/// entry becomes unreachable (superseded, not misread). The golden-key
/// test in `tests/cache_keys.rs` fails loudly on *accidental* drift;
/// bumping this constant is the intentional-change escape hatch.
pub const CACHE_EPOCH: u32 = 1;

/// A canonicalized experiment cell: the content-addressed `key` (32 hex
/// chars) and the full `descriptor` it hashes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellKey {
    /// Stable content hash of the descriptor — the on-disk address.
    pub key: String,
    /// Canonical JSON descriptor of the cell (embedded in the entry and
    /// verified on read).
    pub descriptor: String,
}

fn param_tag(v: &ParamValue) -> String {
    match v {
        ParamValue::Int(i) => format!("i:{i}"),
        ParamValue::Float(f) => format!("f:{f}"),
        ParamValue::Bool(b) => format!("b:{b}"),
        ParamValue::Str(s) => format!("s:{s}"),
    }
}

fn engine_tag(e: Engine) -> &'static str {
    match e {
        Engine::Dense => "dense",
        Engine::EventDriven => "event-driven",
    }
}

/// The canonical descriptor of an experiment, or `None` when the cell is
/// uncacheable (a custom attack without a supplied identity, or tracker
/// parameters that no longer resolve).
fn descriptor(e: &Experiment, attack_id: Option<&str>) -> Option<Json> {
    let params = e.tracker.spec().resolve_params(e.tracker.params()).ok()?;
    let attack = if e.custom_attack.is_some() {
        // The factory closure is opaque; only an explicit identity that
        // covers the whole trace-generation genome makes caching sound.
        format!("custom:{}", attack_id?)
    } else {
        match e.attack.resolve(&e.tracker) {
            Some(a) => format!("attack:{}", a.name()),
            None => "benign".to_string(),
        }
    };
    let g = e.cfg.geometry;
    let mut fields = vec![
        ("epoch", Json::count(u64::from(CACHE_EPOCH))),
        ("workload", Json::str(&e.workload)),
        ("tracker", Json::str(e.tracker.key())),
        (
            "params",
            Json::Obj(params.iter().map(|(k, v)| (k.clone(), Json::str(param_tag(v)))).collect()),
        ),
        ("attack", Json::str(attack)),
        (
            "geometry",
            Json::obj([
                ("channels", Json::count(u64::from(g.channels))),
                ("ranks", Json::count(u64::from(g.ranks))),
                ("bank_groups", Json::count(u64::from(g.bank_groups))),
                ("banks_per_group", Json::count(u64::from(g.banks_per_group))),
                ("rows_per_bank", Json::count(u64::from(g.rows_per_bank))),
                ("row_bytes", Json::count(u64::from(g.row_bytes))),
            ]),
        ),
        (
            "cpu",
            Json::obj([
                ("cores", Json::count(u64::from(e.cfg.cpu.cores))),
                ("width", Json::count(u64::from(e.cfg.cpu.width))),
                ("rob_entries", Json::count(u64::from(e.cfg.cpu.rob_entries))),
            ]),
        ),
        (
            "llc",
            Json::obj([
                ("capacity_bytes", Json::count(e.cfg.llc.capacity_bytes)),
                ("ways", Json::count(u64::from(e.cfg.llc.ways))),
                ("line_bytes", Json::count(u64::from(e.cfg.llc.line_bytes))),
                ("reserved_ways", Json::count(u64::from(e.cfg.llc.reserved_ways))),
            ]),
        ),
        ("nrh", Json::count(u64::from(e.cfg.nrh))),
        ("blast_radius", Json::count(u64::from(e.cfg.blast_radius))),
        ("mitigation", Json::str(e.cfg.mitigation.to_string())),
        ("window_cycles", Json::hex(e.cfg.window_cycles)),
        ("max_instructions", Json::hex(e.cfg.max_instructions)),
        ("seed", Json::hex(e.cfg.seed)),
        ("engine", Json::str(engine_tag(e.engine))),
        ("isolate", Json::Bool(e.isolate_tracker_overhead)),
        (
            "telemetry",
            Json::obj([
                ("oracle", Json::Bool(e.telemetry.oracle)),
                ("time_series", Json::Bool(e.telemetry.time_series)),
                ("slowdown", Json::Bool(e.telemetry.slowdown)),
                ("mitigation_log", Json::Bool(e.telemetry.mitigation_log)),
                ("window_us", e.telemetry.window_us.map_or(Json::Null, Json::num)),
            ]),
        ),
    ];
    // The attacker descriptor is appended only when the experiment carries
    // one: attacker-free cells keep their pre-attackpipe keys (pinned by
    // the goldens in tests/cache_keys.rs), while two attacker cells
    // differing in knowledge, budget, or seed can never collide.
    if let Some(a) = &e.attacker {
        fields.push((
            "attacker",
            Json::obj([
                ("knowledge", Json::str(a.knowledge.key())),
                ("recon_budget", Json::count(a.recon_budget)),
                ("seed", Json::hex(a.seed)),
            ]),
        ));
    }
    Some(Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect()))
}

/// Canonical cell identity string for an experiment — what
/// [`SweepSpec::expand`] dedupes on. `None` for uncacheable cells (which
/// are never deduped: two opaque custom attacks cannot be proven equal).
pub(crate) fn cell_identity(e: &Experiment) -> Option<String> {
    descriptor(e, None).map(|d| d.render())
}

/// The content-addressed key of an experiment cell, or `None` when the
/// cell is uncacheable (anonymous custom attacks need
/// [`cell_key_with_attack_id`]).
pub fn cell_key(e: &Experiment) -> Option<CellKey> {
    cell_key_with_attack_id(e, None)
}

/// Like [`cell_key`], with an explicit identity for a custom attack. The
/// caller asserts `attack_id` covers everything the attack's trace
/// factory depends on besides the experiment's geometry and seed
/// (attacklab passes the full scenario genome JSON).
pub fn cell_key_with_attack_id(e: &Experiment, attack_id: Option<&str>) -> Option<CellKey> {
    let descriptor = descriptor(e, attack_id)?.render();
    Some(CellKey { key: content_key(descriptor.as_bytes()), descriptor })
}

// ---------------------------------------------------------------------------
// Result codec
// ---------------------------------------------------------------------------
//
// The export-oriented `to_json` methods on results are intentionally
// lossy (derived columns, dropped reference series). Caching needs the
// complete state back, so the cache speaks its own codec: every field of
// `ExperimentResult` — including telemetry traces — encodes exactly and
// decodes into an equal value. `Json::render` writes floats in shortest
// round-trip form, so a decoded result re-renders byte-identically.

type Decoded<T> = Result<T, String>;

fn want<'a>(j: &'a Json, key: &str) -> Decoded<&'a Json> {
    j.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

fn as_u64(j: &Json) -> Decoded<u64> {
    match j {
        Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
            Ok(*n as u64)
        }
        other => Err(format!("expected a count, got {}", other.render())),
    }
}

fn as_f64(j: &Json) -> Decoded<f64> {
    match j {
        Json::Num(n) => Ok(*n),
        // `Json::num` writes non-finite floats as null; read them back as
        // NaN so re-rendering stays byte-identical.
        Json::Null => Ok(f64::NAN),
        other => Err(format!("expected a number, got {}", other.render())),
    }
}

fn as_str(j: &Json) -> Decoded<&str> {
    match j {
        Json::Str(s) => Ok(s),
        other => Err(format!("expected a string, got {}", other.render())),
    }
}

fn as_arr(j: &Json) -> Decoded<&[Json]> {
    match j {
        Json::Arr(items) => Ok(items),
        other => Err(format!("expected an array, got {}", other.render())),
    }
}

fn u64_vec(j: &Json) -> Decoded<Vec<u64>> {
    as_arr(j)?.iter().map(as_u64).collect()
}

fn counts(values: &[u64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::count(v)).collect())
}

fn mem_from_json(j: &Json) -> Decoded<MemStats> {
    let f = |key| want(j, key).and_then(as_u64);
    Ok(MemStats {
        activations: f("activations")?,
        precharges: f("precharges")?,
        reads: f("reads")?,
        writes: f("writes")?,
        refreshes: f("refreshes")?,
        vrr_commands: f("vrr_commands")?,
        victim_rows_refreshed: f("victim_rows_refreshed")?,
        rfm_commands: f("rfm_commands")?,
        counter_reads: f("counter_reads")?,
        counter_writes: f("counter_writes")?,
        reset_sweeps: f("reset_sweeps")?,
        mitigation_block_cycles: f("mitigation_block_cycles")?,
        row_hits: f("row_hits")?,
        row_misses: f("row_misses")?,
    })
}

fn stats_to_json(s: &RunStats) -> Json {
    Json::obj([
        ("tracker", Json::str(&s.tracker)),
        ("cycles", Json::count(s.cycles)),
        ("retired", counts(&s.retired)),
        ("core_cycles", counts(&s.core_cycles)),
        ("mem", s.mem.to_json()),
        ("llc_hit_rate", Json::num(s.llc_hit_rate)),
        ("energy_mj", Json::num(s.energy_mj)),
        (
            "oracle",
            match s.oracle {
                Some((disturbance, violations)) => {
                    Json::Arr(vec![Json::count(u64::from(disturbance)), Json::count(violations)])
                }
                None => Json::Null,
            },
        ),
    ])
}

fn stats_from_json(j: &Json) -> Decoded<RunStats> {
    let oracle = match want(j, "oracle")? {
        Json::Null => None,
        pair => {
            let pair = as_arr(pair)?;
            if pair.len() != 2 {
                return Err("oracle pair must have two entries".into());
            }
            let disturbance = u32::try_from(as_u64(&pair[0])?)
                .map_err(|_| "oracle disturbance out of range".to_string())?;
            Some((disturbance, as_u64(&pair[1])?))
        }
    };
    Ok(RunStats {
        tracker: as_str(want(j, "tracker")?)?.to_string(),
        cycles: as_u64(want(j, "cycles")?)?,
        retired: u64_vec(want(j, "retired")?)?,
        core_cycles: u64_vec(want(j, "core_cycles")?)?,
        mem: mem_from_json(want(j, "mem")?)?,
        llc_hit_rate: as_f64(want(j, "llc_hit_rate")?)?,
        energy_mj: as_f64(want(j, "energy_mj")?)?,
        oracle,
    })
}

fn window_to_json(w: &WindowSample) -> Json {
    Json::obj([
        ("index", Json::count(w.index)),
        ("start", Json::count(w.start)),
        ("end", Json::count(w.end)),
        ("retired", counts(&w.retired)),
        ("core_cycles", counts(&w.core_cycles)),
        ("mem", w.mem.to_json()),
    ])
}

fn window_from_json(j: &Json) -> Decoded<WindowSample> {
    Ok(WindowSample {
        index: as_u64(want(j, "index")?)?,
        start: as_u64(want(j, "start")?)?,
        end: as_u64(want(j, "end")?)?,
        retired: u64_vec(want(j, "retired")?)?,
        core_cycles: u64_vec(want(j, "core_cycles")?)?,
        mem: mem_from_json(want(j, "mem")?)?,
    })
}

fn windows_to_json(windows: &[WindowSample]) -> Json {
    Json::Arr(windows.iter().map(window_to_json).collect())
}

fn windows_from_json(j: &Json) -> Decoded<Vec<WindowSample>> {
    as_arr(j)?.iter().map(window_from_json).collect()
}

fn trace_to_json(t: &SlowdownTrace) -> Json {
    let reference = match t.reference() {
        SlowdownReference::Flat(ipc) => {
            Json::obj([("flat", Json::Arr(ipc.iter().map(|&v| Json::num(v)).collect()))])
        }
        SlowdownReference::PerWindow(windows) => {
            Json::obj([("per_window", windows_to_json(windows))])
        }
    };
    Json::obj([
        ("reference", reference),
        ("benign", counts(&t.benign_cores().iter().map(|&c| c as u64).collect::<Vec<_>>())),
        (
            "points",
            Json::Arr(
                t.points()
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("index", Json::count(p.index)),
                            ("end", Json::count(p.end)),
                            ("normalized_ipc", Json::num(p.normalized_ipc)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn trace_from_json(j: &Json) -> Decoded<SlowdownTrace> {
    let r = want(j, "reference")?;
    let reference = if let Some(flat) = r.get("flat") {
        SlowdownReference::Flat(as_arr(flat)?.iter().map(as_f64).collect::<Decoded<_>>()?)
    } else if let Some(per_window) = r.get("per_window") {
        SlowdownReference::PerWindow(windows_from_json(per_window)?)
    } else {
        return Err("slowdown reference must be 'flat' or 'per_window'".into());
    };
    let benign = u64_vec(want(j, "benign")?)?.into_iter().map(|c| c as usize).collect();
    let points = as_arr(want(j, "points")?)?
        .iter()
        .map(|p| {
            Ok(SlowdownPoint {
                index: as_u64(want(p, "index")?)?,
                end: as_u64(want(p, "end")?)?,
                normalized_ipc: as_f64(want(p, "normalized_ipc")?)?,
            })
        })
        .collect::<Decoded<_>>()?;
    Ok(SlowdownTrace::from_parts(reference, benign, points))
}

fn mitigation_to_json(m: &MitigationRecord) -> Json {
    let (kind, row, blast) = match m.kind {
        MitigationKindTag::VictimRefresh { row, blast_radius } => {
            ("victim-refresh", Json::count(u64::from(row)), Json::count(u64::from(blast_radius)))
        }
        MitigationKindTag::Sweep => ("sweep", Json::Null, Json::Null),
    };
    Json::obj([
        ("cycle", Json::count(m.cycle)),
        ("channel", Json::count(u64::from(m.channel))),
        ("kind", Json::str(kind)),
        ("row", row),
        ("blast_radius", blast),
    ])
}

fn mitigation_from_json(j: &Json) -> Decoded<MitigationRecord> {
    let kind = match as_str(want(j, "kind")?)? {
        "victim-refresh" => MitigationKindTag::VictimRefresh {
            row: u32::try_from(as_u64(want(j, "row")?)?)
                .map_err(|_| "row out of range".to_string())?,
            blast_radius: u8::try_from(as_u64(want(j, "blast_radius")?)?)
                .map_err(|_| "blast radius out of range".to_string())?,
        },
        "sweep" => MitigationKindTag::Sweep,
        other => return Err(format!("unknown mitigation kind '{other}'")),
    };
    Ok(MitigationRecord {
        cycle: as_u64(want(j, "cycle")?)?,
        channel: u8::try_from(as_u64(want(j, "channel")?)?)
            .map_err(|_| "channel out of range".to_string())?,
        kind,
    })
}

fn telemetry_to_json(t: &RunTelemetry) -> Json {
    Json::obj([
        ("window_len", Json::count(t.window_len)),
        ("windows", windows_to_json(&t.windows)),
        ("reference_windows", windows_to_json(&t.reference_windows)),
        ("slowdown", t.slowdown.as_ref().map_or(Json::Null, trace_to_json)),
        ("mitigations", Json::Arr(t.mitigations.iter().map(mitigation_to_json).collect())),
    ])
}

fn telemetry_from_json(j: &Json) -> Decoded<RunTelemetry> {
    let slowdown = match want(j, "slowdown")? {
        Json::Null => None,
        trace => Some(trace_from_json(trace)?),
    };
    Ok(RunTelemetry {
        window_len: as_u64(want(j, "window_len")?)?,
        windows: windows_from_json(want(j, "windows")?)?,
        reference_windows: windows_from_json(want(j, "reference_windows")?)?,
        slowdown,
        mitigations: as_arr(want(j, "mitigations")?)?
            .iter()
            .map(mitigation_from_json)
            .collect::<Decoded<_>>()?,
    })
}

fn result_to_json(r: &ExperimentResult) -> Json {
    Json::obj([
        ("workload", Json::str(&r.workload)),
        ("tracker_name", Json::str(&r.tracker_name)),
        ("attack_name", Json::str(&r.attack_name)),
        ("normalized_performance", Json::num(r.normalized_performance)),
        ("run", stats_to_json(&r.run)),
        ("reference", stats_to_json(&r.reference)),
        ("telemetry", r.telemetry.as_ref().map_or(Json::Null, telemetry_to_json)),
    ])
}

fn result_from_json(j: &Json) -> Decoded<ExperimentResult> {
    let telemetry = match want(j, "telemetry")? {
        Json::Null => None,
        t => Some(telemetry_from_json(t)?),
    };
    Ok(ExperimentResult {
        workload: as_str(want(j, "workload")?)?.to_string(),
        tracker_name: as_str(want(j, "tracker_name")?)?.to_string(),
        attack_name: as_str(want(j, "attack_name")?)?.to_string(),
        normalized_performance: as_f64(want(j, "normalized_performance")?)?,
        run: stats_from_json(want(j, "run")?)?,
        reference: stats_from_json(want(j, "reference")?)?,
        telemetry,
    })
}

// ---------------------------------------------------------------------------
// RunCache
// ---------------------------------------------------------------------------

/// The run cache: a [`DiskStore`] of complete experiment results keyed by
/// canonical cell descriptors. Thread-safe (`&self` everywhere) — one
/// cache serves every sweep worker and every `campaignd` connection.
#[derive(Debug)]
pub struct RunCache {
    store: DiskStore,
}

impl RunCache {
    /// Opens (creating if needed) a run cache rooted at `dir`.
    pub fn open(dir: impl Into<std::path::PathBuf>) -> std::io::Result<RunCache> {
        Ok(RunCache { store: DiskStore::open(dir)? })
    }

    /// The canonical cell key for an experiment, or `None` when the cell
    /// is uncacheable (an anonymous custom attack).
    pub fn key_for(e: &Experiment) -> Option<CellKey> {
        cell_key(e)
    }

    /// The underlying blob store (root path, raw entry access).
    pub fn store(&self) -> &DiskStore {
        &self.store
    }

    /// Counter snapshot of the underlying store.
    pub fn stats(&self) -> CacheStats {
        self.store.stats()
    }

    /// Looks a cell up. Returns the complete cached result only when the
    /// entry decodes, its epoch matches, and its embedded descriptor is
    /// byte-identical to the key's; anything less is evicted and read as
    /// a miss.
    pub fn lookup(&self, key: &CellKey) -> Option<ExperimentResult> {
        let payload = self.store.get(&key.key)?;
        let valid = Json::parse(&payload).ok().and_then(|entry| {
            let epoch = entry.get("epoch").and_then(|e| as_u64(e).ok())?;
            let embedded = entry.get("descriptor")?.render();
            if epoch != u64::from(CACHE_EPOCH) || embedded != key.descriptor {
                return None;
            }
            result_from_json(entry.get("result")?).ok()
        });
        if valid.is_none() {
            self.store.evict(&key.key);
        }
        valid
    }

    /// Persists a result under its cell key. Write failures are
    /// swallowed: the cache is an accelerator, and a read-only or full
    /// disk must not fail the sweep that computed the result.
    pub fn save(&self, key: &CellKey, result: &ExperimentResult) {
        let _ = PayloadCache::save(self, key, result);
    }
}

impl PayloadCache<ExperimentResult> for RunCache {
    fn lookup(&self, key: &CellKey) -> Option<ExperimentResult> {
        RunCache::lookup(self, key)
    }

    fn save(&self, key: &CellKey, result: &ExperimentResult) -> std::io::Result<()> {
        let descriptor =
            Json::parse(&key.descriptor).expect("descriptors are rendered canonical JSON");
        let entry = Json::obj([
            ("epoch", Json::count(u64::from(CACHE_EPOCH))),
            ("descriptor", descriptor),
            ("result", result_to_json(result)),
        ]);
        self.store.put(&key.key, &entry.render())
    }
}

/// What a cache-aware sweep did, cell by cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheRunSummary {
    /// Cells in the expanded sweep.
    pub cells: usize,
    /// Cells answered from the cache with zero simulation.
    pub hits: usize,
    /// Cacheable cells that had to be simulated.
    pub misses: usize,
    /// Cells that cannot be cached (anonymous custom attacks).
    pub uncacheable: usize,
    /// Freshly simulated cells persisted for next time.
    pub stored: usize,
    /// Cells skipped because a [`SweepJournal`] already recorded them as
    /// complete (each also counts under `hits` — the journal marks them,
    /// the cache answers them).
    pub resumed: usize,
}

impl std::fmt::Display for CacheRunSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} hits, {} misses ({} cells", self.hits, self.misses, self.cells)?;
        if self.uncacheable > 0 {
            write!(f, ", {} uncacheable", self.uncacheable)?;
        }
        if self.resumed > 0 {
            write!(f, ", {} resumed", self.resumed)?;
        }
        write!(f, ")")
    }
}

impl SweepSpec {
    /// Expands and runs the sweep through a [`RunCache`]: cached cells
    /// are answered without simulation, the rest run on the parallel
    /// worker pool and are persisted. The report is assembled in
    /// expansion order, so a warm re-run reproduces the cold run's report
    /// byte-for-byte (cell failures are not cached and re-run every
    /// time).
    pub fn run_cached(
        &self,
        cache: &RunCache,
    ) -> Result<(SweepReport, CacheRunSummary), SpecError> {
        self.run_cached_with(cache, None, &RunnerConfig::default())
    }

    /// [`SweepSpec::run_cached`] with the full recovery toolkit: an
    /// optional [`SweepJournal`] for checkpoint-resume (completed cells
    /// are journaled after they land in the cache; an interrupted sweep
    /// resumed against the same journal+cache re-executes only the
    /// remainder, and the resumed report is byte-identical to an
    /// uninterrupted run) and an explicit [`RunnerConfig`] (retry policy,
    /// fault injection) for the cells that do simulate. The
    /// [executor](crate::exec) does the per-cell work.
    pub fn run_cached_with(
        &self,
        cache: &RunCache,
        journal: Option<&SweepJournal>,
        runner: &RunnerConfig,
    ) -> Result<(SweepReport, CacheRunSummary), SpecError> {
        let experiments = self.expand()?;
        let checkpoint = journal.map(|j| Checkpoint::begin(j, self, experiments.len()));
        let cells = experiments
            .into_iter()
            .map(|e| {
                let key = RunCache::key_for(&e);
                (e, key)
            })
            .collect();
        let exec = Executor { cache: Some(cache), checkpoint: checkpoint.as_ref(), runner };
        let (outcomes, summary) =
            exec.probe(cells, |_, _, _| {}).run(cell_label, Experiment::run, |_, _, _| {});
        let report = SweepReport::assemble(self, outcomes);
        if let (Some(checkpoint), true) = (&checkpoint, report.failures.is_empty()) {
            checkpoint.end();
        }
        Ok((report, summary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::AttackChoice;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dapper-runcache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny() -> Experiment {
        let mut e = Experiment::quick("mcf_like").tracker("para");
        e.cfg.window_cycles = 20_000;
        e
    }

    #[test]
    fn tailored_canonicalizes_to_its_concrete_attack() {
        let mut a = tiny();
        a.attack = AttackChoice::Tailored;
        let resolved = a.attack.resolve(&a.tracker).unwrap();
        let mut b = tiny();
        b.attack = AttackChoice::Specific(resolved);
        assert_eq!(cell_key(&a), cell_key(&b), "tailored == its resolved pattern");
        let mut c = tiny();
        c.attack = AttackChoice::CacheThrash;
        if AttackChoice::CacheThrash.resolve(&c.tracker) != Some(resolved) {
            assert_ne!(cell_key(&a), cell_key(&c));
        }
    }

    #[test]
    fn identity_bearing_knobs_change_the_key() {
        let base = cell_key(&tiny()).unwrap();
        let mut seeded = tiny();
        seeded.cfg.seed ^= 1;
        assert_ne!(cell_key(&seeded).unwrap().key, base.key, "seed is identity");
        let mut threshold = tiny();
        threshold.cfg.nrh = 1000;
        assert_ne!(cell_key(&threshold).unwrap().key, base.key, "nrh is identity");
        let mut engine = tiny();
        engine.engine = Engine::Dense;
        assert_ne!(cell_key(&engine).unwrap().key, base.key, "engine is identity");
        let mut telem = tiny();
        telem.telemetry.mitigation_log = true;
        assert_ne!(cell_key(&telem).unwrap().key, base.key, "telemetry is identity");
    }

    #[test]
    fn explicit_defaults_canonicalize_like_absent_ones() {
        let implicit = tiny().tracker("hydra");
        let spec_default =
            implicit.tracker.spec().resolve_params(&std::collections::BTreeMap::new()).unwrap();
        let (name, value) = spec_default.iter().next().expect("hydra has parameters");
        let explicit = tiny().tracker("hydra").tracker_param(name.as_str(), value.clone());
        assert_eq!(
            cell_key(&implicit),
            cell_key(&explicit),
            "an override equal to the default is the same cell"
        );
    }

    #[test]
    fn anonymous_custom_attacks_are_uncacheable_but_identified_ones_cache() {
        let mut e = tiny();
        e.custom_attack = Some(crate::experiment::CustomAttack::new("x", true, |_, _| {
            panic!("never built in this test")
        }));
        assert_eq!(cell_key(&e), None, "opaque factories must not cache");
        let keyed = cell_key_with_attack_id(&e, Some("genome-v1")).unwrap();
        assert_ne!(
            keyed.key,
            cell_key_with_attack_id(&e, Some("genome-v2")).unwrap().key,
            "the supplied identity must reach the key"
        );
    }

    #[test]
    fn results_round_trip_through_the_cache_exactly() {
        let cache = RunCache::open(scratch("roundtrip")).unwrap();
        let mut e = tiny();
        e.telemetry = crate::experiment::TelemetrySpec::all_recorders(2.0);
        e.telemetry.oracle = true;
        let key = cell_key(&e).unwrap();
        assert!(cache.lookup(&key).is_none());
        let fresh = e.run();
        cache.save(&key, &fresh);
        let cached = cache.lookup(&key).expect("just stored");
        assert_eq!(cached.run, fresh.run, "RunStats must round-trip bit-identically");
        assert_eq!(cached.reference, fresh.reference);
        assert_eq!(cached.normalized_performance, fresh.normalized_performance);
        let (a, b) = (cached.telemetry.as_ref().unwrap(), fresh.telemetry.as_ref().unwrap());
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.reference_windows, b.reference_windows);
        assert_eq!(a.slowdown, b.slowdown);
        assert_eq!(a.mitigations, b.mitigations);
        assert_eq!(
            crate::spec::result_to_json(&cached).render(),
            crate::spec::result_to_json(&fresh).render(),
            "export rows must be byte-identical"
        );
    }

    #[test]
    fn epoch_mismatch_reads_as_a_miss_and_evicts() {
        let cache = RunCache::open(scratch("epoch")).unwrap();
        let e = tiny();
        let key = cell_key(&e).unwrap();
        cache.save(&key, &e.run());
        // Rewrite the entry under an old epoch (valid envelope, stale
        // meaning).
        let payload = cache.store().get(&key.key).unwrap();
        let stale = payload.replacen(
            &format!("\"epoch\":{CACHE_EPOCH}"),
            &format!("\"epoch\":{}", CACHE_EPOCH + 1),
            1,
        );
        cache.store().put(&key.key, &stale).unwrap();
        assert!(cache.lookup(&key).is_none(), "foreign epochs must not be served");
        assert!(!cache.store().entry_path(&key.key).exists(), "stale entry must be evicted");
    }
}
