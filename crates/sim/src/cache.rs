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
//! # Rendering
//!
//! The descriptor is written straight to its bytes, never built as a
//! `Json` tree, in three fragments around the per-cell attack text: the
//! prefix (`{"epoch":…,"workload":…`), a tracker fragment (`tracker`,
//! the resolved `params`, up to `"attack":`) and a machine fragment
//! (`geometry` through `telemetry`, then `attacker` when the cell has
//! one). [`SweepSpec::expand_keyed`] renders each tracker fragment once
//! per selection (one table entry, one override map) and each machine
//! fragment once per distinct (`SystemConfig`, isolation, telemetry,
//! attacker), deciding reuse by value equality with floats compared bit
//! for bit (`0.0 == -0.0`, but they spell differently); what it keeps
//! lives for that one expansion. [`cell_key`] is the same renderer run on one cell. The test
//! module keeps the tree-building descriptor as an oracle and holds both
//! paths to it byte for byte over a seeded, shuffled matrix.
//!
//! Each entry embeds its descriptor, so even a hash collision cannot alias
//! results. An entry is the layout `{"epoch":E,"descriptor":D,"<field>":P}`
//! written by concatenation, and the reader checks it as bytes: everything
//! before the payload `P` must equal the envelope the key renders to,
//! descriptor included, and only `P` is parsed and decoded. A mismatched,
//! non-canonical or undecodable entry is evicted and recomputed, never
//! returned.
//!
//! [`RunStats`]: crate::RunStats

use crate::exec::{Checkpoint, Executor, PayloadCache};
use crate::experiment::{AttackerConfig, Experiment, ExperimentResult, TelemetrySpec, TrackerSel};
use crate::journal::SweepJournal;
use crate::runner::{cell_label, RunnerConfig};
use crate::spec::{SpecError, SweepReport, SweepSpec};
use sim_core::cache::{content_key, CacheStats, DiskStore};
use sim_core::json::{read_document, write_str, JsonCodec};
use sim_core::{ParamValue, SystemConfig};
use std::fmt::Write;

/// Cache-format epoch. Part of every cell descriptor: bump it whenever
/// canonicalization or the entry codec changes meaning, and every prior
/// entry becomes unreachable (superseded, not misread). The golden-key
/// test in `tests/cache_keys.rs` fails loudly on *accidental* drift;
/// bumping this constant is the intentional-change escape hatch.
pub const CACHE_EPOCH: u32 = 1;

/// [`CACHE_EPOCH`] as the entry envelope spells it.
const EPOCH_JSON: &str = "1";

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
    CellKeys::default().key(e, attack_id)
}

/// The renderer behind every cell key: writes a cell's descriptor
/// straight to its bytes as a prefix, a tracker fragment, the attack and a
/// machine fragment, keeping each tracker and machine fragment it renders
/// for the cells after it. One value serves one expansion; it holds no
/// more than that expansion's distinct trackers and machines.
#[derive(Default)]
pub(crate) struct CellKeys {
    /// `,"tracker":…,"attack":` per selection (`None`: the parameters no
    /// longer resolve).
    trackers: Vec<(TrackerSel, Option<String>)>,
    /// `,"geometry":…}` per machine.
    machines: Vec<(Machine, String)>,
}

/// Everything the machine fragment renders.
struct Machine {
    cfg: SystemConfig,
    isolate: bool,
    telemetry: TelemetrySpec,
    attacker: Option<AttackerConfig>,
}

impl Machine {
    /// Whether `e` renders this machine's fragment: equal fields, the one
    /// float compared bit for bit (`0.0 == -0.0`, but they spell
    /// differently).
    fn renders_as(&self, e: &Experiment) -> bool {
        let bits = |t: &TelemetrySpec| t.window_us.map(f64::to_bits);
        self.cfg == e.cfg
            && self.isolate == e.isolate_tracker_overhead
            && self.telemetry == e.telemetry
            && bits(&self.telemetry) == bits(&e.telemetry)
            && self.attacker == e.attacker
    }

    fn fragment(&self) -> String {
        let cfg = &self.cfg;
        let mut out = String::with_capacity(512);
        // (`Geometry::encode` proper maps addresses.)
        let members = [
            ("geometry", JsonCodec::encode(&cfg.geometry)),
            ("cpu", cfg.cpu.encode()),
            ("llc", cfg.llc.encode()),
            ("nrh", cfg.nrh.encode()),
            ("blast_radius", cfg.blast_radius.encode()),
        ];
        for (name, value) in members {
            let _ = write!(out, ",\"{name}\":");
            value.render_into(&mut out);
        }
        out.push_str(",\"mitigation\":");
        write_str(&cfg.mitigation.to_string(), &mut out);
        let _ = write!(
            out,
            ",\"window_cycles\":\"{:#x}\",\"max_instructions\":\"{:#x}\",\"seed\":\"{:#x}\"",
            cfg.window_cycles, cfg.max_instructions, cfg.seed
        );
        // Constant since the loop stopped being a setting; kept for the keys.
        let _ = write!(out, ",\"engine\":\"event-driven\",\"isolate\":{}", self.isolate);
        out.push_str(",\"telemetry\":");
        self.telemetry.encode().render_into(&mut out);
        // Only a cell with an attacker names one: attacker-free cells keep
        // their pre-pipeline keys (pinned by the goldens in
        // tests/cache_keys.rs), while two attacker cells differing in
        // knowledge, budget, or seed can never collide.
        if let Some(attacker) = &self.attacker {
            out.push_str(",\"attacker\":");
            attacker.encode().render_into(&mut out);
        }
        out.push('}');
        out
    }
}

/// The tracker fragment: canonical key and fully resolved parameters, up
/// to the attack's member name; `None` when the parameters no longer
/// resolve.
fn tracker_fragment(tracker: &TrackerSel) -> Option<String> {
    let params = tracker.spec().resolve_params(tracker.params()).ok()?;
    let mut out = String::with_capacity(64 + 32 * params.len());
    out.push_str(",\"tracker\":");
    write_str(tracker.key(), &mut out);
    out.push_str(",\"params\":{");
    for (i, (name, value)) in params.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(name, &mut out);
        out.push(':');
        write_str(&param_tag(value), &mut out);
    }
    out.push_str("},\"attack\":");
    Some(out)
}

/// Whether two selections render one tracker fragment: the same table
/// entry and equal overrides, floats compared bit for bit.
fn same_tracker(a: &TrackerSel, b: &TrackerSel) -> bool {
    let same_bits = |(x, y): (&ParamValue, &ParamValue)| match (x, y) {
        (ParamValue::Float(x), ParamValue::Float(y)) => x.to_bits() == y.to_bits(),
        _ => true,
    };
    std::ptr::eq(a.spec(), b.spec())
        && a.params() == b.params()
        && a.params().values().zip(b.params().values()).all(same_bits)
}

/// The value kept for the first entry `hit` accepts, or for a new one
/// `make` builds.
fn reuse<K, V>(
    kept: &mut Vec<(K, V)>,
    hit: impl Fn(&K) -> bool,
    make: impl FnOnce() -> (K, V),
) -> &V {
    let i = match kept.iter().position(|(k, _)| hit(k)) {
        Some(i) => i,
        None => {
            kept.push(make());
            kept.len() - 1
        }
    };
    &kept[i].1
}

impl CellKeys {
    /// [`cell_key_with_attack_id`], reusing the fragments of earlier
    /// cells.
    pub(crate) fn key(&mut self, e: &Experiment, attack_id: Option<&str>) -> Option<CellKey> {
        let tracker = reuse(
            &mut self.trackers,
            |t| same_tracker(t, &e.tracker),
            || (e.tracker.clone(), tracker_fragment(&e.tracker)),
        )
        .as_deref()?;
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
        let machine = reuse(
            &mut self.machines,
            |m| m.renders_as(e),
            || {
                let machine = Machine {
                    cfg: e.cfg.clone(),
                    isolate: e.isolate_tracker_overhead,
                    telemetry: e.telemetry,
                    attacker: e.attacker,
                };
                let fragment = machine.fragment();
                (machine, fragment)
            },
        );
        let mut descriptor = String::with_capacity(
            48 + e.workload.len() + tracker.len() + attack.len() + machine.len(),
        );
        let _ = write!(descriptor, "{{\"epoch\":{CACHE_EPOCH},\"workload\":");
        write_str(&e.workload, &mut descriptor);
        descriptor.push_str(tracker);
        write_str(&attack, &mut descriptor);
        descriptor.push_str(machine);
        Some(CellKey { key: content_key(descriptor.as_bytes()), descriptor })
    }
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
// serving it sound. The envelope is compared as bytes where it lies in
// the entry, never parsed or rebuilt: the writer renders it the one way
// the reader expects, and a checksummed entry holding anything else
// (another descriptor or epoch, reordered members, added whitespace) is
// not one this writer made. The payload is read straight from the entry
// text by its codec's `read`, which builds no `Json` tree.

/// The envelope pieces an entry holds before its payload, in order:
/// `{"epoch":E,"descriptor":D,"<field>":`. `epoch` is the epoch's JSON
/// text and `field` a member name that needs no escaping.
fn envelope<'k>(key: &'k CellKey, epoch: &'k str, field: &'k str) -> [&'k str; 7] {
    debug_assert!(field.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\'), "{field:?}");
    ["{\"epoch\":", epoch, ",\"descriptor\":", &key.descriptor, ",\"", field, "\":"]
}

/// Reads the payload stored for `key`: served only when the entry starts
/// with the envelope `key`, `epoch` (the epoch's JSON text) and `field`
/// make (so it embeds a descriptor byte-identical to the key's), ends in
/// `}`, and the text between reads as one `R` document. Anything less is
/// evicted and read as a miss.
pub fn lookup_entry<R: JsonCodec>(
    store: &DiskStore,
    key: &CellKey,
    epoch: &str,
    field: &str,
) -> Option<R> {
    let text = store.get(&key.key)?;
    let payload = envelope(key, epoch, field)
        .into_iter()
        .try_fold(text.as_str(), |rest, piece| rest.strip_prefix(piece))
        .and_then(|rest| rest.strip_suffix('}'))
        .and_then(|payload| read_document::<R>(payload).ok());
    if payload.is_none() {
        store.evict(&key.key);
    }
    payload
}

/// Writes the entry [`lookup_entry`] reads:
/// `{"epoch":E,"descriptor":D,"<field>":P}`.
pub fn save_entry<R: JsonCodec>(
    store: &DiskStore,
    key: &CellKey,
    epoch: &str,
    field: &'static str,
    payload: &R,
) -> std::io::Result<()> {
    let mut entry = envelope(key, epoch, field).concat();
    payload.encode().render_into(&mut entry);
    entry.push('}');
    store.put(&key.key, &entry)
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
        lookup_entry(&self.store, key, EPOCH_JSON, "result")
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
        save_entry(&self.store, key, EPOCH_JSON, "result", result)
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
}

impl std::fmt::Display for CacheRunSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} hits, {} misses ({} cells", self.hits, self.misses, self.cells)?;
        if self.uncacheable > 0 {
            write!(f, ", {} uncacheable", self.uncacheable)?;
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
    /// optional [`SweepJournal`] for checkpoint-resume (the sweep's
    /// `start` and `end` are journaled; an interrupted sweep resumed
    /// against the same journal+cache finds its finished cells in the
    /// cache and re-executes only the remainder, and the resumed report is
    /// byte-identical to an uninterrupted run) and an explicit [`RunnerConfig`] (the fault plan
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
        let checkpoint =
            journal.map(|j| Checkpoint::begin(j, &self.to_json().render(), cells.len()));
        let cache = cache.map(|c| c as &dyn PayloadCache<ExperimentResult>);
        let exec = Executor { cache, runner };
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
    use sim_core::json::Json;

    /// The descriptor as it was built before [`CellKeys`] wrote it straight
    /// to bytes, kept verbatim: a `Json` tree, rendered whole. The renderer
    /// must match it byte for byte.
    mod oracle {
        use super::super::{param_tag, CACHE_EPOCH};
        use crate::experiment::Experiment;
        use sim_core::json::{Json, JsonCodec};

        /// The canonical descriptor of an experiment, or `None` when the cell is
        /// uncacheable (a custom attack without a supplied identity, or tracker
        /// parameters that no longer resolve).
        pub(super) fn descriptor(e: &Experiment, attack_id: Option<&str>) -> Option<Json> {
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
                    Json::Obj(
                        params.iter().map(|(k, v)| (k.clone(), Json::str(param_tag(v)))).collect(),
                    ),
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
    }

    /// Every tracker table entry with its defaults, then with one seeded
    /// override per schema parameter (an integer spelling of a float
    /// parameter among them), plus `0.0` and `-0.0` for each float
    /// parameter that takes them: equal as values, different as text.
    fn tracker_matrix(rng: &mut sim_core::rng::Xoshiro256) -> Vec<TrackerSel> {
        let mut out = Vec::new();
        for spec in &crate::registry::TRACKERS {
            let defaults = TrackerSel::from_spec(spec);
            out.push(defaults.clone());
            for param in spec.params {
                let with = |v: ParamValue| defaults.clone().with_param(param.key, v).ok();
                let candidates = match param.default_value() {
                    ParamValue::Int(d) => vec![
                        ParamValue::Int(d + 1 + rng.gen_range(8) as i64),
                        ParamValue::Int(d * 2),
                        ParamValue::Int(d / 2),
                        ParamValue::Int(d - 1),
                    ],
                    ParamValue::Float(d) => {
                        out.extend([0.0, -0.0].map(ParamValue::Float).into_iter().filter_map(with));
                        vec![
                            ParamValue::Float(d * (0.5 + rng.gen_f64())),
                            ParamValue::Int(d.round() as i64 + 1),
                            ParamValue::Float(d / 2.0),
                        ]
                    }
                    ParamValue::Bool(b) => vec![ParamValue::Bool(!b)],
                    default => vec![default],
                };
                let value = candidates.into_iter().chain([param.default_value()]);
                out.push(value.filter_map(with).next().expect("the default is in range"));
            }
        }
        out
    }

    /// Machines covering every telemetry flag combination with the window
    /// set and unset, no attacker and each knowledge level, both
    /// geometries, and varied N_RH, blast radius, mitigation, seed, window,
    /// instruction budget and isolation; each machine with a `0.0` window
    /// has a twin with `-0.0`, equal as values, different as text.
    fn machine_matrix(rng: &mut sim_core::rng::Xoshiro256) -> Vec<Experiment> {
        use crate::experiment::{AttackerKnowledge, TelemetrySpec};
        use sim_core::config::MitigationKind;
        let mut machines: Vec<Experiment> = (0..96u64)
            .map(|j| {
                let mut e = Experiment::new("template");
                if j % 3 == 0 {
                    e = e.eight_channel(1 + rng.gen_range(2));
                }
                let windows = [25.0, 2.5, 0.0, -0.0, 1e-3, 31.25, 4000.0];
                e.telemetry = TelemetrySpec {
                    oracle: j & 1 != 0,
                    time_series: j & 2 != 0,
                    slowdown: j & 4 != 0,
                    mitigation_log: j & 8 != 0,
                    window_us: (j & 16 != 0).then_some(windows[(j % 7) as usize]),
                };
                let knowledge = [None]
                    .into_iter()
                    .chain(AttackerKnowledge::ALL.map(Some))
                    .nth((j / 24 % 4) as usize)
                    .expect("four attacker choices");
                e.attacker = knowledge.map(|knowledge| AttackerConfig {
                    knowledge,
                    recon_budget: rng.gen_range(10_000),
                    seed: rng.next_u64(),
                });
                e.cfg.nrh = [125, 250, 500, 1000, 4000][rng.gen_range(5) as usize];
                e.cfg.blast_radius = 1 + rng.gen_range(2) as u8;
                e.cfg.mitigation =
                    [MitigationKind::Vrr, MitigationKind::DrfmSb, MitigationKind::RfmSb]
                        [rng.gen_range(3) as usize];
                e.cfg.seed = rng.next_u64();
                e.cfg.window_cycles = rng.next_u64() >> rng.gen_range(64);
                e.cfg.max_instructions =
                    if rng.gen_bool(0.5) { u64::MAX } else { rng.gen_range(1 << 30) };
                e.isolate_tracker_overhead = rng.gen_bool(0.5);
                e
            })
            .collect();
        let zero_windows: Vec<Experiment> =
            machines.iter().filter(|e| e.telemetry.window_us == Some(0.0)).cloned().collect();
        for mut twin in zero_windows {
            twin.telemetry.window_us = twin.telemetry.window_us.map(|w| -w);
            machines.push(twin);
        }
        machines
    }

    #[test]
    fn rendered_descriptors_match_the_tree_built_oracle() {
        use crate::experiment::CustomAttack;
        use workloads::attacks::Attack;
        let mut rng = sim_core::rng::Xoshiro256::seed_from(0xDE5C_0A7E);
        let trackers = tracker_matrix(&mut rng);
        let machines = machine_matrix(&mut rng);
        let attacks: Vec<AttackChoice> =
            [AttackChoice::None, AttackChoice::CacheThrash, AttackChoice::Tailored]
                .into_iter()
                .chain(Attack::all().map(AttackChoice::Specific))
                .collect();
        let workloads = ["mcf_like", "gcc_like", "quoted \"name\"\n\u{1}é"];
        let custom = CustomAttack::new("genome", true, |_, _| panic!("never built here"));
        // (cell, identity) for every tracker against every attack, then a
        // custom attack with and without an identity; each on a drawn
        // machine and workload.
        let mut cells = Vec::new();
        for tracker in &trackers {
            let named = attacks.iter().map(|&attack| (Some(attack), None));
            let ids = [Some("genome-1".to_string()), Some("{\"g\":[1,\"\\\"]}".into()), None];
            for (attack, id) in named.chain(ids.into_iter().map(|id| (None, id))) {
                let mut e = machines[rng.gen_range(machines.len() as u64) as usize].clone();
                e.workload = workloads[rng.gen_range(3) as usize].to_string();
                e.tracker = tracker.clone();
                match attack {
                    Some(attack) => e.attack = attack,
                    None => e.custom_attack = Some(custom.clone()),
                }
                cells.push((e, id));
            }
        }
        rng.shuffle(&mut cells);

        let mut shared = CellKeys::default();
        let mut cacheable = 0;
        for (e, id) in &cells {
            let expected = oracle::descriptor(e, id.as_deref()).map(|d| {
                let descriptor = d.render();
                CellKey { key: content_key(descriptor.as_bytes()), descriptor }
            });
            let what = || format!("{:?} / {:?} / {id:?}", e.tracker, e.attack);
            assert_eq!(cell_key_with_attack_id(e, id.as_deref()), expected, "{}", what());
            assert_eq!(shared.key(e, id.as_deref()), expected, "shared: {}", what());
            assert_eq!(expected.is_none(), e.custom_attack.is_some() && id.is_none(), "{}", what());
            if let Some(k) = expected {
                let reparsed = Json::parse(&k.descriptor).expect("descriptors parse");
                assert_eq!(reparsed.render(), k.descriptor, "the tree-built entry re-renders it");
                cacheable += 1;
            }
        }
        // Fragments were reused and re-rendered: one per distinct selection
        // and machine, far fewer than cells.
        assert_eq!(cacheable, trackers.len() * (attacks.len() + 2), "all but anonymous customs");
        assert_eq!(shared.trackers.len(), trackers.len(), "one fragment per selection");
        assert!(shared.machines.len() <= machines.len(), "one fragment per machine");
        assert!(shared.machines.len() > machines.len() / 2, "the draws spread over the machines");
    }

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

    /// The entry writer as it was before [`save_entry`] concatenated the
    /// envelope, kept verbatim (minus the store write): the descriptor
    /// parsed back into a tree and the whole entry rendered.
    fn tree_built_entry<R: JsonCodec>(
        key: &CellKey,
        epoch: &str,
        field: &'static str,
        payload: &R,
    ) -> String {
        let epoch = Json::parse(epoch).expect("epochs are JSON text");
        let descriptor =
            Json::parse(&key.descriptor).expect("descriptors are rendered canonical JSON");
        let entry =
            Json::obj([("epoch", epoch), ("descriptor", descriptor), (field, payload.encode())]);
        entry.render()
    }

    /// One simulated cell with every recorder on, shared by the entry tests.
    fn real_cell() -> &'static (Experiment, ExperimentResult) {
        static CELL: std::sync::OnceLock<(Experiment, ExperimentResult)> =
            std::sync::OnceLock::new();
        CELL.get_or_init(|| {
            let mut e = tiny();
            e.telemetry = crate::experiment::TelemetrySpec::all_recorders(2.0);
            e.telemetry.oracle = true;
            (e.clone(), e.run())
        })
    }

    /// The envelope the verdict store writes: a string epoch, field
    /// `"verdict"`.
    const VERDICT_EPOCH: &str = "\"attackpipe-epoch2\"";

    #[test]
    fn entries_spell_the_cache_epoch() {
        assert_eq!(CACHE_EPOCH.encode().render(), EPOCH_JSON);
    }

    /// Holds [`save_entry`] to [`tree_built_entry`] byte for byte, and
    /// [`lookup_entry`] to serving what the tree-built writer wrote.
    fn same_entry<R: JsonCodec + PartialEq + std::fmt::Debug>(
        store: &DiskStore,
        key: &CellKey,
        epoch: &str,
        field: &'static str,
        payload: &R,
        what: &str,
    ) {
        let oracle = tree_built_entry(key, epoch, field, payload);
        save_entry(store, key, epoch, field, payload).unwrap();
        assert_eq!(store.get(&key.key).as_ref(), Some(&oracle), "{what}: {field}");
        store.put(&key.key, &oracle).unwrap();
        assert_eq!(lookup_entry(store, key, epoch, field).as_ref(), Some(payload), "{what}");
    }

    #[test]
    fn concatenated_entries_match_the_tree_built_writer() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files: Vec<_> = std::fs::read_dir(root.join("examples/specs"))
            .expect("examples/specs")
            .map(|entry| entry.expect("spec dir entry").path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
            .collect();
        files.sort();
        files.push(root.join("benchmark/specs/campaign.toml"));
        let store = DiskStore::open(scratch("tree-oracle")).unwrap();
        let (_, real) = real_cell();
        let mut cells = 0;
        for file in &files {
            let text = std::fs::read_to_string(file).expect("read spec");
            let spec = SweepSpec::from_toml_str(&text).expect("spec parses");
            for (e, key) in spec.expand_keyed().expect("spec expands") {
                let key = key.expect("shipped cells are cacheable");
                let result = ExperimentResult {
                    workload: e.workload.clone(),
                    attack_name: format!("{:?}", e.attack),
                    ..real.clone()
                };
                let verdict = (e.cfg.nrh, e.cfg.seed.to_string());
                let what = format!("{}: {}", file.display(), key.key);
                same_entry(&store, &key, EPOCH_JSON, "result", &result, &what);
                same_entry(&store, &key, VERDICT_EPOCH, "verdict", &verdict, &what);
                cells += 1;
            }
        }
        assert_eq!(cells, 74, "every shipped cell");
        assert_eq!(store.stats().corrupt, 0);
    }

    /// Stores `entry` under `key` with a valid checksum and reports whether
    /// [`RunCache::lookup`] served it; a miss must also have evicted it.
    fn served(cache: &RunCache, key: &CellKey, entry: &str) -> bool {
        cache.store().put(&key.key, entry).unwrap();
        let hit = cache.lookup(key).is_some();
        assert_eq!(cache.store().entry_path(&key.key).exists(), hit, "a miss evicts");
        hit
    }

    #[test]
    fn forged_and_non_canonical_entries_are_misses_and_evicted() {
        let (e, result) = real_cell();
        let cache = RunCache::open(scratch("forged")).unwrap();
        let key = cell_key(e).unwrap();
        let mut other = e.clone();
        other.cfg.nrh += 1;
        let other = cell_key(&other).unwrap();
        cache.save(&other, result);
        let foreign = cache.store().get(&other.key).unwrap();
        cache.save(&key, result);
        let entry = cache.store().get(&key.key).unwrap();
        assert!(served(&cache, &key, &entry), "the canonical entry is served");

        // A forged collision: a valid envelope and epoch under this key,
        // holding another cell's descriptor.
        assert!(!served(&cache, &key, &foreign), "another cell's descriptor");
        // Checksummed entries this writer never makes: the tree-built
        // reader served all but the wrong field, the byte-level one none.
        let payload = result.encode().render();
        let epoch = format!("{CACHE_EPOCH}");
        let d = &key.descriptor;
        for (what, forged) in [
            (
                "whitespace",
                format!("{{ \"epoch\": {epoch}, \"descriptor\": {d}, \"result\": {payload} }}"),
            ),
            ("trailing space", format!("{entry} ")),
            ("leading space", format!(" {entry}")),
            ("reordered", format!("{{\"descriptor\":{d},\"epoch\":{epoch},\"result\":{payload}}}")),
            (
                "payload first",
                format!("{{\"result\":{payload},\"epoch\":{epoch},\"descriptor\":{d}}}"),
            ),
            (
                "epoch spelled 1.0",
                entry.replacen(&format!(":{epoch},"), &format!(":{epoch}.0,"), 1),
            ),
            ("extra member", format!("{},\"extra\":1}}", &entry[..entry.len() - 1])),
            ("wrong field", entry.replacen("\"result\":", "\"verdict\":", 1)),
        ] {
            assert_ne!(forged, entry, "{what}");
            assert!(Json::parse(&forged).is_ok(), "{what}: still JSON");
            assert!(!served(&cache, &key, &forged), "{what}");
        }
        assert!(served(&cache, &key, &entry), "the canonical entry is served again");
    }

    /// One seeded byte edit at a drawn offset — flip one bit (the high
    /// bits included), truncate there, or insert a byte there — returning
    /// the offset: every byte before it is unchanged.
    fn mutate_bytes(bytes: &mut Vec<u8>, rng: &mut sim_core::rng::Xoshiro256) -> usize {
        let at = rng.gen_range(bytes.len() as u64) as usize;
        match rng.gen_range(3) {
            0 => bytes[at] ^= 1 << rng.gen_range(8),
            1 => bytes.truncate(at),
            _ => bytes.insert(at, rng.next_u64() as u8),
        }
        at
    }

    /// `rounds` single-edit mutants of one real entry, each either as it is
    /// on disk (header and checksum included) or re-checksummed after an
    /// edit of the entry text. A raw mutant is a miss or the exact result;
    /// a re-checksummed mutant is a miss whenever the edit lands before the
    /// payload, and otherwise a miss or whatever the payload decodes to;
    /// every miss evicts. Returns (edits before the payload, payload
    /// mutants served).
    fn fuzz_entries(seed: u64, rounds: usize) -> (usize, usize) {
        let mut rng = sim_core::rng::Xoshiro256::seed_from(seed);
        let (e, result) = real_cell();
        let cache = RunCache::open(scratch(&format!("fuzz-{seed}"))).unwrap();
        let key = cell_key(e).unwrap();
        let path = cache.store().entry_path(&key.key);
        cache.save(&key, result);
        let file = std::fs::read(&path).unwrap();
        let entry = cache.store().get(&key.key).unwrap();
        let payload_at = envelope(&key, EPOCH_JSON, "result").concat().len();
        let (mut before, mut decoded) = (0, 0);
        for _ in 0..rounds {
            if rng.gen_bool(0.3) {
                let mut bytes = file.clone();
                mutate_bytes(&mut bytes, &mut rng);
                std::fs::write(&path, &bytes).unwrap();
                match cache.lookup(&key) {
                    Some(served) => assert_eq!(&served, result, "a raw mutant serves the truth"),
                    None => assert!(!path.exists(), "a miss evicts"),
                }
            } else {
                let mut bytes = entry.as_bytes().to_vec();
                let at = mutate_bytes(&mut bytes, &mut rng);
                let checksum = sim_core::cache::checksum64(&bytes);
                // `DiskStore`'s header, written by hand: the entry may not
                // be UTF-8 any more.
                let mut sealed =
                    format!("dapper-cache1 {checksum:016x} {}\n", bytes.len()).into_bytes();
                sealed.extend_from_slice(&bytes);
                std::fs::write(&path, &sealed).unwrap();
                let served = cache.lookup(&key);
                assert_eq!(path.exists(), served.is_some(), "a miss evicts");
                if at < payload_at {
                    assert!(served.is_none(), "an edit at {at} < {payload_at} is a miss");
                    before += 1;
                } else if served.is_some() {
                    decoded += 1;
                }
            }
        }
        (before, decoded)
    }

    #[test]
    fn mutated_entries_are_misses_or_decode() {
        let (before, decoded) = [1, 2, 0xE47]
            .map(|seed| fuzz_entries(seed, 150))
            .into_iter()
            .fold((0, 0), |(b, d), (before, decoded)| (b + before, d + decoded));
        assert!(before > 0 && decoded > 0, "{before} envelope edits, {decoded} decoded");
    }

    #[test]
    #[ignore = "long entry fuzz; run with --ignored (CI campaignd-smoke)"]
    fn mutated_entries_are_misses_or_decode_long_sweep() {
        for seed in 0..100 {
            fuzz_entries(seed, 500);
        }
    }

    /// The `n`-th object of `j` in document order.
    fn nth_object<'j>(j: &'j mut Json, n: &mut usize) -> Option<&'j mut Vec<(String, Json)>> {
        match j {
            Json::Obj(pairs) => {
                if *n == 0 {
                    return Some(pairs);
                }
                *n -= 1;
                pairs.iter_mut().find_map(|(_, v)| nth_object(v, n))
            }
            Json::Arr(items) => items.iter_mut().find_map(|v| nth_object(v, n)),
            _ => None,
        }
    }

    /// The `n`-th number of `j` in document order.
    fn nth_number<'j>(j: &'j mut Json, n: &mut usize) -> Option<&'j mut Json> {
        match j {
            Json::Num(_) if *n == 0 => Some(j),
            Json::Num(_) => {
                *n -= 1;
                None
            }
            Json::Obj(pairs) => pairs.iter_mut().find_map(|(_, v)| nth_number(v, n)),
            Json::Arr(items) => items.iter_mut().find_map(|v| nth_number(v, n)),
            _ => None,
        }
    }

    /// `(objects, numbers)` in `j`.
    fn census(j: &Json) -> (usize, usize) {
        let sum = |items: &mut dyn Iterator<Item = &Json>| {
            items.map(census).fold((0, 0), |(o, n), (a, b)| (o + a, n + b))
        };
        match j {
            Json::Num(_) => (0, 1),
            Json::Obj(pairs) => {
                let (o, n) = sum(&mut pairs.iter().map(|(_, v)| v));
                (o + 1, n)
            }
            Json::Arr(items) => sum(&mut items.iter()),
            _ => (0, 0),
        }
    }

    /// A value no payload field holds, for duplicated and unknown keys.
    fn junk(rng: &mut sim_core::rng::Xoshiro256) -> Json {
        let junk = [Json::obj([]), Json::str("x\"\u{e9}"), Json::Null, Json::Num(-1.5)];
        junk[rng.gen_range(junk.len() as u64) as usize].clone()
    }

    /// One to four seeded edits of a real `ExperimentResult` payload (with
    /// telemetry, or without): a dropped, duplicated, reordered or unknown
    /// key, `null` for a number, then in the text `5.0` for a count, a
    /// truncation or a flipped bit. Reading the text must give what
    /// parsing and decoding it gives: the same value, or the same error
    /// when the text is JSON; and it must never panic. Returns (accepted,
    /// rejected).
    fn fuzz_payload_reads(seed: u64, rounds: usize) -> (usize, usize) {
        use sim_core::json::DecodeError;
        let mut rng = sim_core::rng::Xoshiro256::seed_from(seed);
        let (_, result) = real_cell();
        let plain = ExperimentResult { telemetry: None, ..result.clone() };
        let seeds = [result.encode(), plain.encode()];
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..rounds {
            let mut doc = seeds[rng.gen_range(2) as usize].clone();
            let mut text_edits = Vec::new();
            for _ in 0..=rng.gen_range(4) {
                let kind = rng.gen_range(8);
                let (objects, numbers) = census(&doc);
                let mut n = rng.gen_range(objects as u64) as usize;
                let pairs = nth_object(&mut doc, &mut n).expect("an object");
                let at = |rng: &mut sim_core::rng::Xoshiro256, len: usize| {
                    rng.gen_range(len as u64 + 1) as usize
                };
                match kind {
                    0 if !pairs.is_empty() => {
                        let i = at(&mut rng, pairs.len() - 1);
                        pairs.remove(i);
                    }
                    1 if !pairs.is_empty() => {
                        let mut copy = pairs[at(&mut rng, pairs.len() - 1)].clone();
                        if rng.gen_bool(0.5) {
                            copy.1 = junk(&mut rng);
                        }
                        let i = at(&mut rng, pairs.len());
                        pairs.insert(i, copy);
                    }
                    2 => rng.shuffle(pairs),
                    3 => {
                        let i = at(&mut rng, pairs.len());
                        pairs.insert(i, ("unknown".to_string(), junk(&mut rng)));
                    }
                    4 if numbers > 0 => {
                        let mut n = rng.gen_range(numbers as u64) as usize;
                        *nth_number(&mut doc, &mut n).expect("a number") = Json::Null;
                    }
                    _ => text_edits.push(kind),
                }
            }
            let mut text = doc.render();
            for kind in text_edits {
                let mut bytes = std::mem::take(&mut text).into_bytes();
                if bytes.is_empty() {
                    break;
                }
                let at = rng.gen_range(bytes.len() as u64) as usize;
                match kind {
                    // `5.0` for the count whose last digit is the first one
                    // at or after `at` that ends a bare integer.
                    5 => {
                        let ends = (at..bytes.len().saturating_sub(1)).find(|&i| {
                            bytes[i].is_ascii_digit() && matches!(bytes[i + 1], b',' | b'}' | b']')
                        });
                        let integer = |end: usize| {
                            let start = (0..=end).rev().find(|&i| !bytes[i].is_ascii_digit());
                            start.is_some_and(|s| matches!(bytes[s], b':' | b',' | b'['))
                        };
                        if let Some(end) = ends.filter(|&end| integer(end)) {
                            bytes.splice(end + 1..end + 1, *b".0");
                        }
                    }
                    6 => bytes.truncate(at),
                    _ => bytes[at] ^= 1 << rng.gen_range(8),
                }
                text = String::from_utf8_lossy(&bytes).into_owned();
            }
            let read = read_document::<ExperimentResult>(&text);
            let tree = Json::parse(&text);
            let decoded = match &tree {
                Ok(j) => ExperimentResult::decode(j),
                Err(e) => Err(DecodeError::from(e.clone())),
            };
            match (&read, &decoded) {
                // NaN (a float written `null`) is not equal to itself; the
                // wire forms are.
                (Ok(a), Ok(b)) => assert_eq!(a.encode().render(), b.encode().render(), "{text}"),
                (Err(a), Err(b)) if tree.is_ok() => assert_eq!(a, b, "{text}"),
                (Err(_), Err(_)) => {}
                _ => panic!("read {read:?}, parse and decode {decoded:?}: {text}"),
            }
            if read.is_ok() {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        (accepted, rejected)
    }

    #[test]
    fn mutated_payloads_read_as_they_decode() {
        let (accepted, rejected) = [1, 2, 0xF22]
            .map(|seed| fuzz_payload_reads(seed, 200))
            .into_iter()
            .fold((0, 0), |(a, r), (accepted, rejected)| (a + accepted, r + rejected));
        assert!(accepted > 0 && rejected > 0, "{accepted} accepted, {rejected} rejected");
    }

    #[test]
    #[ignore = "long payload fuzz; run with --ignored (CI campaignd-smoke)"]
    fn mutated_payloads_read_as_they_decode_long_sweep() {
        for seed in 0..50 {
            fuzz_payload_reads(seed, 400);
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
