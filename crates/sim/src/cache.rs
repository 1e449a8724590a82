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
//!   instruction budget, seed),
//! * the normalization mode and the full telemetry spec (recorders
//!   change what a result *carries*, so they are part of identity, not
//!   just presentation).
//!
//! The descriptor also holds `"engine": "event-driven"`, a constant: it
//! named the simulation loop while that was a setting, and it stays so
//! that every key written since keeps its bytes.
//!
//! Each entry embeds its descriptor and the reader compares it
//! byte-for-byte, so even a hash collision cannot alias results; a
//! mismatched or undecodable entry is evicted and recomputed, never
//! returned.
//!
//! [`RunStats`]: crate::RunStats

use crate::exec::{Checkpoint, Executor, PayloadCache};
use crate::experiment::{Experiment, ExperimentResult};
use crate::journal::SweepJournal;
use crate::runner::{cell_label, RunnerConfig};
use crate::spec::{SpecError, SweepReport, SweepSpec};
use sim_core::cache::{content_key, CacheStats, DiskStore};
use sim_core::json::{Json, JsonCodec};
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

/// One cell of an expanded sweep with its canonical key attached (`None`
/// for an uncacheable cell): what [`SweepSpec::expand_keyed`] yields and
/// every cache-aware front end consumes.
pub type KeyedCell = (Experiment, Option<CellKey>);

fn param_tag(v: &ParamValue) -> String {
    match v {
        ParamValue::Int(i) => format!("i:{i}"),
        ParamValue::Float(f) => format!("f:{f}"),
        ParamValue::Bool(b) => format!("b:{b}"),
        ParamValue::Str(s) => format!("s:{s}"),
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
    let mut fields = vec![
        ("epoch", CACHE_EPOCH.encode()),
        ("workload", Json::str(&e.workload)),
        ("tracker", Json::str(e.tracker.key())),
        (
            "params",
            Json::Obj(params.iter().map(|(k, v)| (k.clone(), Json::str(param_tag(v)))).collect()),
        ),
        ("attack", Json::str(attack)),
        // (`Geometry::encode` proper maps addresses.)
        ("geometry", JsonCodec::encode(&e.cfg.geometry)),
        ("cpu", e.cfg.cpu.encode()),
        ("llc", e.cfg.llc.encode()),
        ("nrh", e.cfg.nrh.encode()),
        ("blast_radius", e.cfg.blast_radius.encode()),
        ("mitigation", Json::str(e.cfg.mitigation.to_string())),
        ("window_cycles", Json::hex(e.cfg.window_cycles)),
        ("max_instructions", Json::hex(e.cfg.max_instructions)),
        ("seed", Json::hex(e.cfg.seed)),
        // Constant since the loop stopped being a setting; kept for the keys.
        ("engine", Json::str("event-driven")),
        ("isolate", Json::Bool(e.isolate_tracker_overhead)),
        ("telemetry", e.telemetry.encode()),
    ];
    // The attacker descriptor is appended only when the experiment carries
    // one: attacker-free cells keep their pre-pipeline keys (pinned by
    // the goldens in tests/cache_keys.rs), while two attacker cells
    // differing in knowledge, budget, or seed can never collide.
    if let Some(attacker) = &e.attacker {
        fields.push(("attacker", attacker.encode()));
    }
    Some(Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect()))
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
/// (`redteam` passes the full scenario genome JSON).
pub fn cell_key_with_attack_id(e: &Experiment, attack_id: Option<&str>) -> Option<CellKey> {
    let descriptor = descriptor(e, attack_id)?.render();
    Some(CellKey { key: content_key(descriptor.as_bytes()), descriptor })
}

// ---------------------------------------------------------------------------
// Entry envelope
// ---------------------------------------------------------------------------
//
// The export-oriented `to_json` methods on results are intentionally
// lossy (derived columns, dropped reference series). Entries hold the
// payload's exact [`JsonCodec`] form instead — every field of
// `ExperimentResult`, telemetry traces included, decodes into an equal
// value that re-renders byte-identically — inside the envelope that makes
// serving it sound.

/// Reads the payload stored for `key`: served only when the entry parses,
/// carries `epoch`, embeds a descriptor byte-identical to the key's, and
/// holds a `field` member that decodes as `R`. Anything less is evicted
/// and read as a miss.
pub fn lookup_entry<R: JsonCodec>(
    store: &DiskStore,
    key: &CellKey,
    epoch: &Json,
    field: &str,
) -> Option<R> {
    let text = store.get(&key.key)?;
    let payload = Json::parse(&text).ok().and_then(|entry| {
        if entry.get("epoch")? != epoch || entry.get("descriptor")?.render() != key.descriptor {
            return None;
        }
        entry.field(field).ok()
    });
    if payload.is_none() {
        store.evict(&key.key);
    }
    payload
}

/// Writes the entry [`lookup_entry`] reads: `{epoch, descriptor, <field>}`.
pub fn save_entry<R: JsonCodec>(
    store: &DiskStore,
    key: &CellKey,
    epoch: Json,
    field: &'static str,
    payload: &R,
) -> std::io::Result<()> {
    let descriptor = Json::parse(&key.descriptor).expect("descriptors are rendered canonical JSON");
    let entry =
        Json::obj([("epoch", epoch), ("descriptor", descriptor), (field, payload.encode())]);
    store.put(&key.key, &entry.render())
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
        lookup_entry(&self.store, key, &CACHE_EPOCH.encode(), "result")
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
        save_entry(&self.store, key, CACHE_EPOCH.encode(), "result", result)
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
    /// uninterrupted run) and an explicit [`RunnerConfig`] (the fault plan
    /// chaos tests arm) for the cells that do simulate. The
    /// [executor](crate::exec) does the per-cell work.
    pub fn run_cached_with(
        &self,
        cache: &RunCache,
        journal: Option<&SweepJournal>,
        runner: &RunnerConfig,
    ) -> Result<(SweepReport, CacheRunSummary), SpecError> {
        Ok(self.run_expanded(self.expand_keyed()?, Some(cache), journal, runner))
    }

    /// [`SweepSpec::run_cached_with`] over cells the caller already
    /// expanded: `cells` must be this spec's [`SweepSpec::expand_keyed`],
    /// so a front end that expands to validate or announce a sweep runs it
    /// without expanding again. Without a `cache` every cell simulates
    /// (under the same `runner`) and nothing is persisted.
    pub fn run_expanded(
        &self,
        cells: Vec<KeyedCell>,
        cache: Option<&RunCache>,
        journal: Option<&SweepJournal>,
        runner: &RunnerConfig,
    ) -> (SweepReport, CacheRunSummary) {
        let checkpoint = journal.map(|j| Checkpoint::begin(j, self, cells.len()));
        let cache = cache.map(|c| c as &dyn PayloadCache<ExperimentResult>);
        let exec = Executor { cache, checkpoint: checkpoint.as_ref(), runner };
        let (outcomes, summary) =
            exec.probe(cells, |_, _, _| {}).run(cell_label, Experiment::run, |_, _, _| {});
        let report = SweepReport::assemble(self, outcomes);
        if let (Some(checkpoint), true) = (&checkpoint, report.failures.is_empty()) {
            checkpoint.end();
        }
        (report, summary)
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
    fn uncached_run_expanded_quarantines_under_the_runner_it_is_given() {
        use sim_core::fault::FaultPlan;
        let mut spec = SweepSpec::new("uncached-fault");
        spec.workloads = vec!["mcf_like".to_string()];
        spec.trackers = vec!["none".to_string(), "para".to_string()];
        spec.options.window_us = Some(20.0);

        let faults = FaultPlan::new(47).panic_job_always(1).arm();
        let runner = RunnerConfig { faults: Some(faults.clone()) };
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (report, summary) =
            spec.run_expanded(spec.expand_keyed().expect("expands"), None, None, &runner);
        std::panic::set_hook(prev);
        assert_eq!(faults.fired_total(), 1, "the second cell ran once and panicked");
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert_eq!(report.failures[0].index, 1);
        assert_eq!(report.results.len(), 1, "the healthy cell completes");
        assert_eq!((summary.misses, summary.stored), (2, 0), "no cache: all run, none saved");
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
        assert!(cached.telemetry.as_ref().is_some_and(|t| t.slowdown.is_some()));
        assert_eq!(cached, fresh, "every field, telemetry traces included, bit-identical");
        assert_eq!(
            crate::spec::result_to_json(&cached).render(),
            crate::spec::result_to_json(&fresh).render(),
            "export rows must be byte-identical"
        );
    }

    #[test]
    fn every_result_record_obeys_the_codec_laws() {
        use crate::metrics::{RunStats, RunTelemetry};
        use sim_core::json::assert_codec_laws;
        use sim_core::rng::Xoshiro256;
        use sim_core::telemetry::{MitigationKindTag, MitigationRecord, Probe, SlowdownTrace};
        use sim_core::WindowSample;

        let mut rng = Xoshiro256::seed_from(0xCAC4E);
        // Counts the f64 wire form carries exactly (below 2^53).
        let count = |rng: &mut Xoshiro256| rng.next_u64() >> 11;
        let counts = |rng: &mut Xoshiro256| (0..rng.gen_range(5)).map(|_| count(rng)).collect();
        for _ in 0..25 {
            let mem =
                sim_core::stats::MemStats { activations: count(&mut rng), ..Default::default() };
            let mut stats = || RunStats {
                tracker: format!("t{}", rng.gen_range(100)),
                cycles: count(&mut rng),
                retired: counts(&mut rng),
                core_cycles: counts(&mut rng),
                mem,
                llc_hit_rate: rng.gen_f64(),
                energy_mj: rng.gen_f64() * 1e3,
                oracle: rng.gen_bool(0.5).then(|| (rng.next_u64() as u32, count(&mut rng))),
            };
            let (run, reference) = (stats(), stats());
            assert_codec_laws(&run);
            let windows: Vec<WindowSample> = (0..rng.gen_range(4))
                .map(|index| WindowSample {
                    index,
                    start: index * 100,
                    end: index * 100 + rng.gen_range(100),
                    retired: counts(&mut rng),
                    core_cycles: counts(&mut rng),
                    mem,
                })
                .collect();
            let mut trace = SlowdownTrace::per_window(windows.clone(), vec![0, 1]);
            windows.iter().for_each(|w| trace.on_window(w));
            let sweep = MitigationRecord { cycle: 9, channel: 1, kind: MitigationKindTag::Sweep };
            let telemetry = RunTelemetry {
                window_len: 100,
                reference_windows: windows.clone(),
                windows,
                slowdown: rng.gen_bool(0.7).then_some(trace),
                mitigations: vec![sweep; rng.gen_range(3) as usize],
            };
            assert_codec_laws(&telemetry);
            assert_codec_laws(&ExperimentResult {
                workload: "w".into(),
                tracker_name: run.tracker.clone(),
                attack_name: "benign".into(),
                normalized_performance: rng.gen_f64(),
                run,
                reference,
                telemetry: rng.gen_bool(0.5).then_some(telemetry),
            });
        }
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
