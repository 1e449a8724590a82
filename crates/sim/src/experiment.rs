//! Experiment definition: workload x tracker x attack -> normalized perf.
//!
//! Trackers are selected through the tracker table (see
//! [`crate::registry`]): a [`TrackerSel`] names an entry by string key and
//! carries validated parameter overrides, so any scheme drops into an
//! [`Experiment`] with `.tracker("hydra")` or a full parameter map.
//!
//! An experiment's run and its reference both simulate on
//! [`System::run`], the event-driven loop; which loop runs is not part of
//! an experiment. The dense reference loop is reached one level down,
//! through [`System::run_engine`] on [`Experiment::build_system`], which
//! is how the equivalence suites hold the two to bit-identity.
//!
//! A tracker changes the machine only through a [`TrackerAction`], a
//! nonzero [`RowHammerTracker::activation_delay`] or START's LLC
//! reservation; until then the system under test *is* the reference
//! machine, cycle for cycle. So when a cell's reference and system under
//! test differ only in their trackers (see [`Experiment::run_counted`]),
//! the reference machine carries each channel's real tracker as a private
//! `Shadow` that observes but never acts, and a cell whose tracker stayed
//! quiet to the end takes the reference's [`RunStats`] instead of
//! simulating a second machine.

use cpu::{TraceEntry, TraceSource};
use sim_core::addr::{DramAddr, Geometry, PhysAddr};
use sim_core::config::{MitigationKind, SystemConfig};
use sim_core::json::{DecodeError, Hex, Json, JsonCodec, Reader};
use sim_core::registry::{ParamValue, RegistryError, TrackerSpec};
use sim_core::req::SourceId;
use sim_core::telemetry::{
    MitigationLog, Probe, SlowdownTrace, Telemetry, TimeSeriesRecorder, WindowSample,
};
use sim_core::time::{us_to_cycles, Cycle};
use sim_core::tracker::{
    Activation, NullTracker, RowHammerTracker, StorageOverhead, TrackerAction, TrackerParams,
};
use workloads::{spec_by_name, Attack, SyntheticTrace};

use crate::metrics::{normalized_performance, RunStats, RunTelemetry};
use crate::system::System;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A tracker selection: a tracker-table entry plus validated parameter
/// overrides. This is how experiments, sweeps, and campaigns name the
/// defense under test.
#[derive(Clone)]
pub struct TrackerSel {
    spec: &'static TrackerSpec,
    overrides: BTreeMap<String, ParamValue>,
}

impl TrackerSel {
    /// Resolves a tracker by key, display name, or alias through the
    /// tracker table.
    pub fn by_key(name: &str) -> Result<TrackerSel, RegistryError> {
        Ok(TrackerSel::from_spec(crate::registry::resolve(name)?))
    }

    /// Selects an entry directly, including one outside the table.
    pub fn from_spec(spec: &'static TrackerSpec) -> TrackerSel {
        TrackerSel { spec, overrides: BTreeMap::new() }
    }

    /// Adds one parameter override, validated against the spec's schema
    /// immediately (unknown keys and out-of-range values fail here, before
    /// any simulation starts).
    pub fn with_param(
        mut self,
        key: &str,
        value: impl Into<ParamValue>,
    ) -> Result<TrackerSel, RegistryError> {
        let mut probe = self.overrides.clone();
        probe.insert(key.to_string(), value.into());
        self.spec.resolve_params(&probe)?;
        self.overrides = probe;
        Ok(self)
    }

    /// Replaces the whole override map (validated against the schema).
    pub fn with_params(
        mut self,
        overrides: BTreeMap<String, ParamValue>,
    ) -> Result<TrackerSel, RegistryError> {
        self.spec.resolve_params(&overrides)?;
        self.overrides = overrides;
        Ok(self)
    }

    /// The selected entry.
    pub fn spec(&self) -> &'static TrackerSpec {
        self.spec
    }

    /// Canonical registry key.
    pub fn key(&self) -> &'static str {
        self.spec.key
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        self.spec.name
    }

    /// The parameter overrides riding on this selection.
    pub fn params(&self) -> &BTreeMap<String, ParamValue> {
        &self.overrides
    }

    /// A label distinguishing parameterized selections of the same
    /// tracker: the display name alone for defaults, the overrides
    /// appended otherwise (`Hydra{rcc_entries=512}`) — campaign rows and
    /// leaderboards use this so two variants of one scheme never conflate.
    pub fn label(&self) -> String {
        if self.overrides.is_empty() {
            return self.name().to_string();
        }
        let params: Vec<String> = self.overrides.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{}{{{}}}", self.name(), params.join(","))
    }

    /// True if this tracker reserves half the LLC (START).
    pub fn reserves_llc(&self) -> bool {
        self.spec.reserves_llc
    }

    /// Instantiates the tracker for one channel.
    ///
    /// # Panics
    ///
    /// Panics if the build function rejects the parameter combination;
    /// individual values were already validated when the selection was
    /// built, so this indicates an invalid combination (the error message
    /// names the key).
    pub fn build(
        &self,
        nrh: u32,
        geometry: Geometry,
        channel: u8,
        seed: u64,
    ) -> Box<dyn RowHammerTracker> {
        self.spec
            .build(TrackerParams::new(nrh, geometry, channel, seed), &self.overrides)
            .unwrap_or_else(|e| panic!("cannot build tracker '{}': {e}", self.key()))
    }
}

impl PartialEq for TrackerSel {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key() && self.overrides == other.overrides
    }
}

impl std::fmt::Debug for TrackerSel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackerSel")
            .field("key", &self.key())
            .field("params", &self.overrides)
            .finish()
    }
}

/// Panicking conversion used by builder-style call sites
/// (`.tracker("hydra")`); use [`TrackerSel::by_key`] to handle unknown
/// names gracefully.
impl From<&str> for TrackerSel {
    fn from(name: &str) -> Self {
        TrackerSel::by_key(name).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl From<&String> for TrackerSel {
    fn from(name: &String) -> Self {
        TrackerSel::from(name.as_str())
    }
}

/// The adversary sharing the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackChoice {
    /// No attacker: four homogeneous benign copies (Fig. 11 setting).
    None,
    /// Cache-thrashing attacker on one core.
    CacheThrash,
    /// The RH-Tracker-based attack tailored to the tracker under test.
    Tailored,
    /// A specific attack pattern.
    Specific(Attack),
}

impl AttackChoice {
    /// The concrete [`Attack`] this choice denotes against `tracker`
    /// (`None` for the benign setting). `Tailored` resolves to the
    /// specific pattern selected for the tracker under test, which is why
    /// the run cache canonicalizes through this method: `tailored` and an
    /// explicit naming of the same pattern are the same cell.
    pub fn resolve(self, tracker: &TrackerSel) -> Option<Attack> {
        match self {
            AttackChoice::None => None,
            AttackChoice::CacheThrash => Some(Attack::CacheThrash),
            AttackChoice::Tailored => Some(Attack::tailored_for(tracker.name())),
            AttackChoice::Specific(a) => Some(a),
        }
    }
}

/// An attacker trace injected from outside the fixed [`Attack`] menu —
/// `redteam` scenario genomes drive the attacker core through this hook.
///
/// The factory is called once per system build with the experiment's
/// geometry and seed, so a cloned experiment (reference run, parallel
/// sweeps) reconstructs an identical trace stream deterministically.
#[derive(Clone)]
pub struct CustomAttack {
    name: Arc<str>,
    bypasses_llc: bool,
    factory: Arc<dyn Fn(Geometry, u64) -> Box<dyn TraceSource> + Send + Sync>,
}

impl CustomAttack {
    /// Wraps a trace factory under a display name. `bypasses_llc` mirrors
    /// [`Attack::bypasses_llc`]: RowHammer patterns evict with
    /// clflush/conflict sets, cache-pressure patterns go through the LLC.
    pub fn new<F>(name: &str, bypasses_llc: bool, factory: F) -> Self
    where
        F: Fn(Geometry, u64) -> Box<dyn TraceSource> + Send + Sync + 'static,
    {
        Self { name: Arc::from(name), bypasses_llc, factory: Arc::new(factory) }
    }

    /// Display name for results and leaderboards.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the attacker's accesses skip the LLC.
    pub fn bypasses_llc(&self) -> bool {
        self.bypasses_llc
    }

    /// Builds the attacker's trace for one system instance.
    pub fn build(&self, geom: Geometry, seed: u64) -> Box<dyn TraceSource> {
        (self.factory)(geom, seed)
    }
}

impl std::fmt::Debug for CustomAttack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CustomAttack")
            .field("name", &self.name)
            .field("bypasses_llc", &self.bypasses_llc)
            .finish_non_exhaustive()
    }
}

/// Pure-compute filler trace for the reference run's idle core.
#[derive(Debug)]
struct IdleTrace {
    next: u64,
}

impl TraceSource for IdleTrace {
    fn next_entry(&mut self) -> TraceEntry {
        // One access per 50K instructions inside a tiny private region:
        // negligible memory traffic.
        self.next = (self.next + 64) % 4096;
        TraceEntry { bubbles: 50_000, addr: PhysAddr((60 << 30) + self.next), is_write: false }
    }
}

/// A cell's tracker riding the reference machine as an observer: it sees
/// every ACT, tREFI and tREFW the reference's controller delivers, but
/// its actions and delays never reach the machine, and to that machine it
/// is [`NullTracker`] (name and storage included), so the reference's
/// [`RunStats`] are exactly those of a plain reference run.
///
/// The first action or nonzero delay the inner tracker emits raises the
/// shared `acted` flag: from that point the system under test would leave
/// the reference's trajectory, so the cell must simulate it, and every
/// shadow sharing the flag stops forwarding.
struct Shadow {
    inner: Box<dyn RowHammerTracker>,
    acted: Arc<AtomicBool>,
    /// The inner tracker's action buffer; never handed to the controller.
    actions: Vec<TrackerAction>,
}

impl Shadow {
    fn new(inner: Box<dyn RowHammerTracker>, acted: Arc<AtomicBool>) -> Self {
        Self { inner, acted, actions: Vec::new() }
    }

    fn quiet(&self) -> bool {
        !self.acted.load(Ordering::Relaxed)
    }

    /// Raises the flag if the inner tracker just asked for anything.
    fn swallow(&mut self) {
        if !self.actions.is_empty() {
            self.actions.clear();
            self.acted.store(true, Ordering::Relaxed);
        }
    }
}

impl RowHammerTracker for Shadow {
    fn name(&self) -> &'static str {
        NullTracker.name()
    }

    fn on_activation(&mut self, act: Activation, _: &mut Vec<TrackerAction>) {
        if self.quiet() {
            self.inner.on_activation(act, &mut self.actions);
            self.swallow();
        }
    }

    fn on_trefi(&mut self, cycle: Cycle, _: &mut Vec<TrackerAction>) {
        if self.quiet() {
            self.inner.on_trefi(cycle, &mut self.actions);
            self.swallow();
        }
    }

    fn on_refresh_window(&mut self, cycle: Cycle, _: &mut Vec<TrackerAction>) {
        if self.quiet() {
            self.inner.on_refresh_window(cycle, &mut self.actions);
            self.swallow();
        }
    }

    fn activation_delay(&mut self, addr: &DramAddr, source: SourceId, cycle: Cycle) -> Cycle {
        if self.quiet() && self.inner.activation_delay(addr, source, cycle) > 0 {
            self.acted.store(true, Ordering::Relaxed);
        }
        0
    }

    fn storage_overhead(&self) -> StorageOverhead {
        NullTracker.storage_overhead()
    }
}

/// How much the attacker knows about the machine before hammering — the
/// realism axis of the `redteam` end-to-end attacker pipeline.
///
/// This is pure configuration data: the `sim` crate carries it so the
/// spec layer can parse a `[attacker]` section and the run cache can
/// canonicalize it, while the pipeline itself (recon, hammer compilation,
/// victim adjudication) lives in the `redteam` crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackerKnowledge {
    /// Full knowledge of the address mapping: the attacker hammers true
    /// adjacent same-bank rows directly (the classic simulator idealism).
    Omniscient,
    /// Knowledge inferred purely from access latencies: a Spoiler/DRAMA
    /// style row-buffer-conflict recon run reverse-engineers bank/row
    /// co-location before the hammer run; inference errors blunt the
    /// attack.
    TimingRecon,
    /// No knowledge: random physical addresses.
    Blind,
}

impl AttackerKnowledge {
    /// Every level, in descending-knowledge order.
    pub const ALL: [AttackerKnowledge; 3] = [Self::Omniscient, Self::TimingRecon, Self::Blind];

    /// Canonical spec-file spelling.
    pub fn key(self) -> &'static str {
        match self {
            Self::Omniscient => "omniscient",
            Self::TimingRecon => "timing-recon",
            Self::Blind => "blind",
        }
    }

    /// Resolves a spec-file spelling (case- and separator-insensitive,
    /// like registry keys).
    pub fn by_key(name: &str) -> Result<Self, String> {
        let norm: String =
            name.chars().filter(|c| c.is_ascii_alphanumeric()).collect::<String>().to_lowercase();
        match norm.as_str() {
            "omniscient" => Ok(Self::Omniscient),
            "timingrecon" => Ok(Self::TimingRecon),
            "blind" => Ok(Self::Blind),
            _ => Err(format!(
                "unknown attacker knowledge '{name}' (expected omniscient, timing-recon, or blind)"
            )),
        }
    }
}

/// Travels as its [`AttackerKnowledge::key`].
impl JsonCodec for AttackerKnowledge {
    fn encode(&self) -> Json {
        Json::str(self.key())
    }

    fn decode(j: &Json) -> Result<Self, DecodeError> {
        Self::by_key(&String::decode(j)?).map_err(DecodeError::new)
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Self::by_key(&String::read(r)?).map_err(DecodeError::new)
    }
}

impl std::fmt::Display for AttackerKnowledge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// Attacker-pipeline configuration (the `[attacker]` spec section): how
/// much the adversary knows, how many probe accesses the recon stage may
/// spend, and the seed driving every attacker-side random choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackerConfig {
    /// Knowledge level.
    pub knowledge: AttackerKnowledge,
    /// Recon budget in probe accesses (only spent by
    /// [`AttackerKnowledge::TimingRecon`]).
    pub recon_budget: u64,
    /// Seed for attacker-side choices (pool placement, victim spread),
    /// independent of the simulation seed.
    pub seed: u64,
}

impl AttackerConfig {
    /// Default recon budget: enough for stride discovery plus a few
    /// hundred verification pairs on the baseline geometry.
    pub const DEFAULT_RECON_BUDGET: u64 = 4096;
    /// Default attacker seed.
    pub const DEFAULT_SEED: u64 = 0xA77AC4;

    /// A configuration at the given knowledge level with default budget
    /// and seed.
    pub fn new(knowledge: AttackerKnowledge) -> Self {
        Self { knowledge, recon_budget: Self::DEFAULT_RECON_BUDGET, seed: Self::DEFAULT_SEED }
    }
}

/// What to observe during an experiment, declaratively — the
/// [`Experiment`]-level face of the [`sim_core::telemetry`] probe API.
/// Everything defaults to off (the zero-overhead fast path).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TelemetrySpec {
    /// Attach the ground-truth RowHammer oracle (an event-sink probe).
    pub oracle: bool,
    /// Record per-window counter deltas ([`TimeSeriesRecorder`]).
    pub time_series: bool,
    /// Record the per-window benign slowdown vs. the reference run
    /// ([`SlowdownTrace`] — the paper's attack-transient axis).
    pub slowdown: bool,
    /// Record the mitigation timeline ([`MitigationLog`]).
    pub mitigation_log: bool,
    /// Window length in microseconds (default: one tREFW, 32 ms — set
    /// this explicitly for runs shorter than that, or the only sample
    /// will be the final partial window).
    pub window_us: Option<f64>,
}

// As run-cache cell descriptors spell them.
sim_core::json_record!(TelemetrySpec { oracle, time_series, slowdown, mitigation_log, window_us });
sim_core::json_record!(AttackerConfig { knowledge, recon_budget, seed as Hex });

impl TelemetrySpec {
    /// Every recorder on (oracle excluded) with the given window length.
    pub fn all_recorders(window_us: f64) -> Self {
        Self {
            oracle: false,
            time_series: true,
            slowdown: true,
            mitigation_log: true,
            window_us: Some(window_us),
        }
    }

    /// True if any recorder is requested (the oracle alone reports
    /// through `RunStats::oracle` and produces no [`RunTelemetry`]).
    pub fn recorders_wanted(&self) -> bool {
        self.windows_wanted() || self.mitigation_log
    }

    /// True if any window-consuming recorder is requested.
    pub fn windows_wanted(&self) -> bool {
        self.time_series || self.slowdown
    }

    /// The window length in cycles, when overridden.
    pub fn window_cycles(&self) -> Option<Cycle> {
        self.window_us.map(us_to_cycles)
    }
}

/// One experiment: a workload mix, a tracker, and an optional attacker.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Benign workload name (from `workloads::catalog`).
    pub workload: String,
    /// Defense under test (a registry key plus parameter overrides).
    pub tracker: TrackerSel,
    /// Adversary.
    pub attack: AttackChoice,
    /// Attacker injected from outside the fixed [`Attack`] menu; takes
    /// precedence over `attack` for the attacker core.
    pub custom_attack: Option<CustomAttack>,
    /// System configuration (threshold, window, mitigation command, ...).
    pub cfg: SystemConfig,
    /// What to observe (replaces the retired all-or-nothing
    /// `collect_events` flag).
    pub telemetry: TelemetrySpec,
    /// When true, the reference run keeps the attacker (on the insecure
    /// baseline), so normalized performance isolates the *tracker-induced*
    /// overhead rather than the attacker's raw bandwidth contention. The
    /// paper uses this normalization for the DAPPER figures (9, 10, 12, 13,
    /// 16, 17); the motivation figures (1, 3-5) compare against the
    /// attack-free baseline.
    pub isolate_tracker_overhead: bool,
    /// Attacker-pipeline configuration (the `[attacker]` spec section).
    /// Pure data at this layer: the `redteam` crate interprets it;
    /// plain `Experiment::run` ignores it, and the cell descriptor
    /// canonicalizes it only when present so attacker-free keys are
    /// unchanged.
    pub attacker: Option<AttackerConfig>,
}

/// The argument of [`Experiment::threads`]; selects nothing. Kept so
/// `benchmark/` builds; ROADMAP item 1 deletes it with
/// `pool.sharded_over_seq` and `pool.worker_respawns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    /// Ignored.
    Seq,
    /// Ignored.
    N(usize),
}

/// Outcome of [`Experiment::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Benign workload.
    pub workload: String,
    /// Tracker display name.
    pub tracker_name: String,
    /// Attack display name ("benign" when none).
    pub attack_name: String,
    /// Mean benign IPC relative to the insecure, attack-free baseline.
    pub normalized_performance: f64,
    /// The measured run.
    pub run: RunStats,
    /// The reference run.
    pub reference: RunStats,
    /// Time-series observations, when the experiment's [`TelemetrySpec`]
    /// enabled any recorder.
    pub telemetry: Option<RunTelemetry>,
}

sim_core::json_record!(ExperimentResult {
    workload,
    tracker_name,
    attack_name,
    normalized_performance,
    run,
    reference,
    telemetry,
});

impl Experiment {
    /// A paper-baseline experiment with a 2 ms window.
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_string(),
            tracker: TrackerSel::from_spec(&dapper::DAPPER_H),
            attack: AttackChoice::None,
            custom_attack: None,
            cfg: SystemConfig {
                window_cycles: us_to_cycles(2_000.0),
                ..SystemConfig::paper_baseline()
            },
            telemetry: TelemetrySpec::default(),
            isolate_tracker_overhead: false,
            attacker: None,
        }
    }

    /// A fast variant (500 us window) for tests and doc examples.
    pub fn quick(workload: &str) -> Self {
        let mut e = Self::new(workload);
        e.cfg.window_cycles = us_to_cycles(500.0);
        e
    }

    /// Sets the tracker: a registry key / display name / alias
    /// (`"hydra"`, `"DAPPER_H"`) or a prepared [`TrackerSel`].
    ///
    /// # Panics
    ///
    /// Panics (via the `From<&str>` conversion) on an unknown name; use
    /// [`TrackerSel::by_key`] for fallible resolution.
    pub fn tracker(mut self, t: impl Into<TrackerSel>) -> Self {
        self.tracker = t.into();
        self
    }

    /// Overrides one tracker parameter (e.g. `("rcc_entries", 512)` on
    /// Hydra), validated against the tracker's schema.
    ///
    /// # Panics
    ///
    /// Panics on an unknown key or out-of-range value; the spec layer uses
    /// the fallible [`TrackerSel::with_param`] instead.
    pub fn tracker_param(mut self, key: &str, value: impl Into<ParamValue>) -> Self {
        self.tracker = self.tracker.with_param(key, value).unwrap_or_else(|e| panic!("{e}"));
        self
    }

    /// Sets the attack.
    pub fn attack(mut self, a: AttackChoice) -> Self {
        self.attack = a;
        self
    }

    /// Puts a custom attacker on the last core (overrides `attack`).
    pub fn custom(mut self, attack: CustomAttack) -> Self {
        self.custom_attack = Some(attack);
        self
    }

    /// Sets the RowHammer threshold.
    pub fn nrh(mut self, nrh: u32) -> Self {
        self.cfg.nrh = nrh;
        self
    }

    /// Sets the simulation window in microseconds.
    pub fn window_us(mut self, us: f64) -> Self {
        self.cfg.window_cycles = us_to_cycles(us);
        self
    }

    /// Sets the mitigation command flavour.
    pub fn mitigation(mut self, m: MitigationKind) -> Self {
        self.cfg.mitigation = m;
        self
    }

    /// Sets the blast radius.
    pub fn blast_radius(mut self, br: u8) -> Self {
        self.cfg.blast_radius = br;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Uses the eight-channel geometry of Fig. 5 with the given per-core
    /// LLC capacity.
    pub fn eight_channel(mut self, llc_per_core_mib: u64) -> Self {
        self.cfg.geometry = Geometry::eight_channel();
        self.cfg.llc.capacity_bytes = llc_per_core_mib << 20 << 2; // x4 cores
        self
    }

    /// Does nothing: the channels of a cell are stepped by one loop. Kept
    /// so `benchmark/` builds; ROADMAP item 1 deletes it with
    /// `pool.sharded_over_seq` and `pool.worker_respawns`.
    pub fn threads(self, _: Threads) -> Self {
        self
    }

    /// Enables the ground-truth oracle.
    pub fn with_oracle(mut self) -> Self {
        self.telemetry.oracle = true;
        self
    }

    /// Sets the whole telemetry specification at once (the `[telemetry]`
    /// spec-file section lands here).
    pub fn with_telemetry(mut self, t: TelemetrySpec) -> Self {
        self.telemetry = t;
        self
    }

    /// Enables the per-window slowdown trace with the given window length
    /// (also records the reference run's window series so the trace
    /// normalizes window-by-window).
    pub fn record_slowdown(mut self, window_us: f64) -> Self {
        self.telemetry.slowdown = true;
        self.telemetry.window_us = Some(window_us);
        self
    }

    /// Normalizes against an attacker-inclusive insecure baseline (isolates
    /// the tracker's own overhead; the DAPPER-figure normalization).
    pub fn isolating(mut self) -> Self {
        self.isolate_tracker_overhead = true;
        self
    }

    /// Sets the attacker-pipeline configuration (knowledge level, recon
    /// budget, attacker seed). Interpreted by the `redteam` crate;
    /// inert for plain [`Experiment::run`].
    pub fn attacker(mut self, a: AttackerConfig) -> Self {
        self.attacker = Some(a);
        self
    }

    fn build_traces(
        &self,
        attack: Option<Attack>,
        reference: bool,
    ) -> (Vec<Box<dyn TraceSource>>, Vec<bool>) {
        let spec = spec_by_name(&self.workload)
            .unwrap_or_else(|| panic!("unknown workload '{}'", self.workload));
        let cores = self.cfg.cpu.cores as usize;
        let mut traces: Vec<Box<dyn TraceSource>> = Vec::with_capacity(cores);
        let mut bypass = vec![false; cores];
        let has_attacker = attack.is_some() || self.custom_attack.is_some();
        for (core, bypass_slot) in bypass.iter_mut().enumerate() {
            let is_attacker_slot = has_attacker && core == cores - 1;
            if is_attacker_slot {
                if reference && !self.isolate_tracker_overhead {
                    traces.push(Box::new(IdleTrace { next: 0 }));
                } else if let Some(custom) = &self.custom_attack {
                    traces.push(custom.build(self.cfg.geometry, self.cfg.seed));
                    *bypass_slot = custom.bypasses_llc();
                } else {
                    let a = attack.expect("attacker slot implies attack");
                    traces.push(a.trace(self.cfg.geometry, self.cfg.seed));
                    *bypass_slot = a.bypasses_llc();
                }
            } else {
                traces.push(Box::new(SyntheticTrace::new(spec, core, self.cfg.seed)));
            }
        }
        (traces, bypass)
    }

    /// Builds the system under test (`reference = false`) or the insecure,
    /// attack-free reference machine (`reference = true`).
    ///
    /// The system under test carries the probes the [`TelemetrySpec`]
    /// asks for (except the [`SlowdownTrace`], which needs the reference
    /// and is attached by [`Experiment::run_against`]); the reference
    /// machine gets a [`TimeSeriesRecorder`] when a slowdown trace will
    /// need per-window reference IPC.
    pub fn build_system(&self, reference: bool) -> System {
        let trackers = if reference { self.null_trackers() } else { self.trackers() };
        self.assemble(reference, trackers)
    }

    /// The insecure baseline's tracker on every channel.
    fn null_trackers(&self) -> Vec<Box<dyn RowHammerTracker>> {
        (0..self.cfg.geometry.channels).map(|_| Box::new(NullTracker) as _).collect()
    }

    /// One instance of the tracker under test per channel.
    fn trackers(&self) -> Vec<Box<dyn RowHammerTracker>> {
        let cfg = &self.cfg;
        (0..cfg.geometry.channels)
            .map(|ch| self.tracker.build(cfg.nrh, cfg.geometry, ch, cfg.seed ^ (ch as u64) << 8))
            .collect()
    }

    /// [`build_system`](Self::build_system) with the given per-channel
    /// trackers.
    fn assemble(&self, reference: bool, trackers: Vec<Box<dyn RowHammerTracker>>) -> System {
        let attack = self.attack.resolve(&self.tracker);
        let (traces, bypass) = self.build_traces(attack, reference);
        let mut cfg = self.cfg.clone();
        if !reference && self.tracker.reserves_llc() {
            cfg.llc.reserved_ways = cfg.llc.ways / 2;
        }
        let t = &self.telemetry;
        let mut telemetry = Telemetry::none();
        if let Some(w) = t.window_cycles() {
            telemetry = telemetry.window_len(w);
        }
        if reference {
            if t.slowdown {
                telemetry = telemetry.probe(TimeSeriesRecorder::new());
            }
        } else {
            telemetry = telemetry.oracle(t.oracle);
            if t.time_series {
                telemetry = telemetry.probe(TimeSeriesRecorder::new());
            }
            if t.mitigation_log {
                telemetry = telemetry.probe(MitigationLog::new());
            }
        }
        System::new(cfg, traces, bypass, trackers, telemetry)
    }

    /// True when this cell's reference machine and system under test are
    /// built from the same traces, LLC configuration and probes, so they
    /// differ only in their trackers: the cell is benign or isolating, its
    /// tracker reserves no LLC ways, and its [`TelemetrySpec`] attaches
    /// no probe (no oracle, no recorder).
    fn shadowable(&self) -> bool {
        let benign = self.custom_attack.is_none() && self.attack.resolve(&self.tracker).is_none();
        let probed = self.telemetry.oracle || self.telemetry.recorders_wanted();
        (benign || self.isolate_tracker_overhead) && !self.tracker.reserves_llc() && !probed
    }

    /// The benign core indices for this experiment.
    pub fn benign_cores(&self) -> Vec<usize> {
        let cores = self.cfg.cpu.cores as usize;
        if self.custom_attack.is_none() && self.attack == AttackChoice::None {
            (0..cores).collect()
        } else {
            (0..cores - 1).collect()
        }
    }

    /// Runs the experiment and its reference, returning normalized
    /// performance (the paper's metric).
    pub fn run(self) -> ExperimentResult {
        self.run_counted().0
    }

    /// [`run`](Self::run), also returning how many systems it simulated.
    ///
    /// When the cell is *shadowable* (benign or isolating, no LLC
    /// reservation, no probe), the reference machine carries the cell's
    /// trackers as shadows. If none of them acted by the end of the run
    /// (no [`TrackerAction`], no nonzero activation delay), the system
    /// under test would have run the reference's trajectory cycle for
    /// cycle, so the cell's `run` is the reference's [`RunStats`] under
    /// the tracker's name and one system was simulated. Otherwise the
    /// system under test is simulated as usual: two systems.
    pub fn run_counted(self) -> (ExperimentResult, usize) {
        let acted = Arc::new(AtomicBool::new(false));
        let mut shadowed = None;
        let trackers = if self.shadowable() {
            let inner = self.trackers();
            shadowed = Some(inner[0].name());
            inner.into_iter().map(|t| Box::new(Shadow::new(t, acted.clone())) as _).collect()
        } else {
            self.null_trackers()
        };
        // The reference machine is dropped at the end of this block,
        // before the system under test is built: one simulated machine per
        // worker at a time.
        let (reference, reference_windows) = {
            let mut ref_sys = self.assemble(true, trackers);
            let reference = ref_sys.run();
            let windows = take_recorder::<TimeSeriesRecorder>(&mut ref_sys.take_probes())
                .map(TimeSeriesRecorder::into_samples)
                .unwrap_or_default();
            (reference, windows)
        };
        match shadowed {
            Some(name) if !acted.load(Ordering::Relaxed) => {
                let run = RunStats { tracker: name.to_string(), ..reference.clone() };
                (self.result(run, &reference, None), 1)
            }
            _ => (self.run_with_reference(&reference, reference_windows), 2),
        }
    }

    /// Simulates only the reference machine — insecure, and attack-free
    /// unless [`isolating`](Self::isolating) — with no telemetry (probes
    /// never change [`RunStats`]): what
    /// [`run_against`](Self::run_against) normalizes against. It depends
    /// on the workload, the system configuration and the attacker slot,
    /// never on the tracker, so callers that hold many cells of one
    /// machine may compute it once and share it (the `redteam` stages
    /// do). The sweep front ends do not: each cell goes through
    /// [`run`](Self::run), whose reference run may shadow the cell's
    /// tracker instead (see [`run_counted`](Self::run_counted)).
    ///
    /// An experiment carrying an [`AttackerConfig`] has no attack yet (the
    /// pipeline compiles its hammer onto the last core after recon), so
    /// the reference reserves that core here, idle, keeping benign-core
    /// indices aligned with the hammer run; and because flips-vs-slowdown
    /// needs an absolute cost, it is always the attack-free machine.
    pub fn reference(&self) -> RunStats {
        let mut r = self.clone();
        r.telemetry = TelemetrySpec::default();
        if r.attacker.is_some() {
            r.isolate_tracker_overhead = false;
            // Any attack will do: a non-isolating reference idles it.
            r.attack = AttackChoice::CacheThrash;
        }
        r.build_system(true).run()
    }

    /// Runs only the system under test, normalizing against a pre-computed
    /// reference ([`Experiment::reference`], which the `redteam` stages
    /// share across the cells of one machine). It always simulates: the
    /// shadow rule of [`run_counted`](Self::run_counted) needs the
    /// reference run to carry the cell's tracker. A slowdown trace
    /// requested through the [`TelemetrySpec`] normalizes against the
    /// reference's **end-of-run** per-core IPC here — per-window reference
    /// samples are only available through [`Experiment::run`], which owns
    /// the reference simulation.
    pub fn run_against(self, reference: &RunStats) -> ExperimentResult {
        self.run_with_reference(reference, Vec::new())
    }

    fn run_with_reference(
        self,
        reference: &RunStats,
        reference_windows: Vec<WindowSample>,
    ) -> ExperimentResult {
        let mut sys = self.build_system(false);
        if self.telemetry.slowdown {
            let benign = self.benign_cores();
            let trace = if reference_windows.is_empty() {
                let flat = (0..self.cfg.cpu.cores as usize).map(|i| reference.ipc(i)).collect();
                SlowdownTrace::flat(flat, benign)
            } else {
                SlowdownTrace::per_window(reference_windows.clone(), benign)
            };
            sys.attach_probe(Box::new(trace));
        }
        let run = sys.run();
        let telemetry = self.telemetry.recorders_wanted().then(|| {
            let mut probes = sys.take_probes();
            RunTelemetry {
                window_len: self
                    .telemetry
                    .window_cycles()
                    .unwrap_or(dram::TimingParams::ddr5_6400().t_refw),
                windows: take_recorder::<TimeSeriesRecorder>(&mut probes)
                    .map(TimeSeriesRecorder::into_samples)
                    .unwrap_or_default(),
                reference_windows,
                slowdown: take_recorder::<SlowdownTrace>(&mut probes),
                mitigations: take_recorder::<MitigationLog>(&mut probes)
                    .map(|log| log.records().to_vec())
                    .unwrap_or_default(),
            }
        });
        self.result(run, reference, telemetry)
    }

    fn result(
        self,
        run: RunStats,
        reference: &RunStats,
        telemetry: Option<RunTelemetry>,
    ) -> ExperimentResult {
        let attack_name = match (&self.custom_attack, self.attack.resolve(&self.tracker)) {
            (Some(c), _) => c.name().to_string(),
            (None, Some(a)) => a.name().to_string(),
            (None, None) => "benign".to_string(),
        };
        ExperimentResult {
            normalized_performance: normalized_performance(&run, reference, &self.benign_cores()),
            workload: self.workload,
            tracker_name: self.tracker.name().to_string(),
            attack_name,
            run,
            reference: reference.clone(),
            telemetry,
        }
    }
}

/// Pulls the first probe of concrete type `T` out of a finished run's
/// probe list ([`System::take_probes`]).
pub fn take_recorder<T: Probe>(probes: &mut Vec<Box<dyn Probe>>) -> Option<T> {
    let idx = probes.iter().position(|p| p.as_any().is::<T>())?;
    let boxed = probes.remove(idx);
    // Probe: Any, so the box downcasts through Box<dyn Any>.
    let any: Box<dyn std::any::Any> = boxed.into_any();
    any.downcast::<T>().ok().map(|b| *b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_dapper_h_is_near_baseline() {
        let r = Experiment::quick("gcc_like").tracker("dapper-h").run();
        assert!(r.normalized_performance > 0.9, "DAPPER-H benign: {}", r.normalized_performance);
        assert_eq!(r.tracker_name, "DAPPER-H");
        assert_eq!(r.attack_name, "benign");
    }

    #[test]
    fn tailored_attack_names_resolve() {
        let e = Experiment::quick("gcc_like").tracker("hydra").attack(AttackChoice::Tailored);
        assert_eq!(e.attack.resolve(&e.tracker), Some(Attack::HydraRccThrash));
    }

    #[test]
    fn tracker_params_ride_the_selection() {
        let e = Experiment::quick("gcc_like").tracker("hydra").tracker_param("rcc_entries", 512);
        assert_eq!(e.tracker.key(), "hydra");
        assert_eq!(e.tracker.params()["rcc_entries"], ParamValue::Int(512));
    }

    #[test]
    #[should_panic(expected = "unknown tracker")]
    fn unknown_tracker_key_panics_with_known_list() {
        let _ = Experiment::quick("gcc_like").tracker("tracktor");
    }

    #[test]
    #[should_panic(expected = "rcc_entriez")]
    fn unknown_tracker_param_panics_with_the_key() {
        let _ = Experiment::quick("gcc_like").tracker("hydra").tracker_param("rcc_entriez", 1);
    }

    #[test]
    fn attacker_occupies_last_core() {
        let e = Experiment::quick("gcc_like").attack(AttackChoice::CacheThrash);
        assert_eq!(e.benign_cores(), vec![0, 1, 2]);
        let e2 = Experiment::quick("gcc_like");
        assert_eq!(e2.benign_cores(), vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_workload_panics() {
        let _ = Experiment::quick("not_a_workload").run();
    }

    #[test]
    fn tracker_names_parse_with_any_spelling() {
        let key = |name: &str| TrackerSel::by_key(name).map(|t| t.key().to_string()).ok();
        assert_eq!(key("dapper-h").as_deref(), Some("dapper-h"));
        assert_eq!(key("DAPPER_S").as_deref(), Some("dapper-s"));
        assert_eq!(key("CoMeT").as_deref(), Some("comet"));
        assert_eq!(key("what"), None);
        // Registry aliases resolve through the same single lookup path.
        assert_eq!(key("qprac").as_deref(), Some("prac"));
        assert_eq!(key("dapper").as_deref(), Some("dapper-h"));
        assert_eq!(key("insecure").as_deref(), Some("none"));
        for k in crate::tracker_keys() {
            let sel = TrackerSel::by_key(k).unwrap();
            assert_eq!(key(sel.name()).as_deref(), Some(k), "{} must round-trip", sel.name());
        }
    }

    #[test]
    fn custom_attack_replays_the_legacy_pattern_identically() {
        // A custom factory wrapping the legacy streaming trace must produce
        // the exact run the built-in enum produces: same traces, same seed,
        // same system.
        let legacy = Experiment::quick("gcc_like")
            .tracker("dapper-s")
            .attack(AttackChoice::Specific(Attack::Streaming))
            .window_us(100.0)
            .run();
        let custom = Experiment::quick("gcc_like")
            .tracker("dapper-s")
            .custom(CustomAttack::new("streaming-custom", true, |geom, seed| {
                Attack::Streaming.trace(geom, seed)
            }))
            .window_us(100.0)
            .run();
        assert_eq!(custom.attack_name, "streaming-custom");
        assert!(
            (legacy.normalized_performance - custom.normalized_performance).abs() < 1e-12,
            "{} vs {}",
            legacy.normalized_performance,
            custom.normalized_performance
        );
        assert_eq!(legacy.run.mem.activations, custom.run.mem.activations);
    }

    #[test]
    fn custom_attack_occupies_the_last_core() {
        let e = Experiment::quick("gcc_like")
            .custom(CustomAttack::new("x", true, |geom, seed| Attack::Streaming.trace(geom, seed)));
        assert_eq!(e.benign_cores(), vec![0, 1, 2]);
    }

    #[test]
    fn telemetry_rides_the_experiment() {
        let r = Experiment::quick("gcc_like")
            .tracker("hydra")
            .attack(AttackChoice::CacheThrash)
            .window_us(150.0)
            .with_telemetry(TelemetrySpec::all_recorders(25.0))
            .run();
        let t = r.telemetry.as_ref().expect("telemetry enabled");
        assert_eq!(t.windows.len(), 6, "150 us run / 25 us windows");
        assert_eq!(t.reference_windows.len(), 6, "reference recorded per-window");
        let trace = t.slowdown.as_ref().expect("slowdown recorder on");
        assert_eq!(trace.points().len(), 6);
        assert!(trace.points().iter().all(|p| p.normalized_ipc.is_finite()));
        assert!(t.time_to_max_slowdown_us().is_some());
        let total: u64 = t.windows.iter().map(|w| w.mem.activations).sum();
        assert_eq!(total, r.run.mem.activations, "window deltas must sum to the run total");
    }

    #[test]
    fn telemetry_does_not_change_the_metrics() {
        let base = || {
            Experiment::quick("gcc_like")
                .tracker("para")
                .attack(AttackChoice::Tailored)
                .window_us(120.0)
        };
        let plain = base().run();
        let probed = base().with_telemetry(TelemetrySpec::all_recorders(20.0)).run();
        assert_eq!(plain.run, probed.run, "recorders must not perturb the run");
        assert_eq!(plain.reference, probed.reference);
        assert!((plain.normalized_performance - probed.normalized_performance).abs() < 1e-15);
        assert!(plain.telemetry.is_none());
        assert!(probed.telemetry.is_some());
    }

    #[test]
    fn run_against_falls_back_to_a_flat_reference() {
        let base = || {
            Experiment::quick("povray_like").tracker("para").window_us(150.0).record_slowdown(30.0)
        };
        let reference = base().reference();
        let r = base().run_against(&reference);
        let t = r.telemetry.expect("slowdown recorder on");
        assert!(t.reference_windows.is_empty(), "shared references have no window series");
        let trace = t.slowdown.expect("trace recorded");
        assert_eq!(trace.points().len(), 5);
        assert!(trace.points().iter().all(|p| p.normalized_ipc > 0.0));
    }

    /// Which hook a [`Stub`] acts through.
    enum Via {
        /// An action at the Nth `on_activation`.
        Activation(usize),
        Trefi,
        RefreshWindow,
        Delay,
    }

    /// A tracker that acts through one hook, counting every call it gets.
    struct Stub {
        via: Via,
        activations: usize,
        calls: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Stub {
        fn called(&self) {
            self.calls.fetch_add(1, Ordering::Relaxed);
        }
    }

    impl RowHammerTracker for Stub {
        fn name(&self) -> &'static str {
            "stub"
        }

        fn on_activation(&mut self, act: Activation, actions: &mut Vec<TrackerAction>) {
            self.called();
            self.activations += 1;
            if matches!(self.via, Via::Activation(n) if n == self.activations) {
                actions.push(TrackerAction::MitigateRow(act.addr));
            }
        }

        fn on_trefi(&mut self, _: Cycle, actions: &mut Vec<TrackerAction>) {
            self.called();
            if matches!(self.via, Via::Trefi) {
                actions.push(TrackerAction::CounterRead(DramAddr::default()));
            }
        }

        fn on_refresh_window(&mut self, _: Cycle, actions: &mut Vec<TrackerAction>) {
            self.called();
            if matches!(self.via, Via::RefreshWindow) {
                let scope = sim_core::tracker::ResetScope::Channel { channel: 0 };
                actions.push(TrackerAction::ResetSweep(scope));
            }
        }

        fn activation_delay(&mut self, _: &DramAddr, _: SourceId, _: Cycle) -> Cycle {
            self.called();
            if matches!(self.via, Via::Delay) {
                7
            } else {
                0
            }
        }

        fn storage_overhead(&self) -> StorageOverhead {
            StorageOverhead::new(1024, 64)
        }
    }

    #[test]
    fn shadow_raises_the_flag_and_never_acts() {
        // Hooks in controller order, one ACT per round: delay, ACT, tREFI,
        // tREFW. The stub acts in `round`; afterwards the shadow forwards
        // nothing more.
        for (via, round) in
            [(Via::Activation(3), 3), (Via::Trefi, 1), (Via::RefreshWindow, 1), (Via::Delay, 1)]
        {
            let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let acted = Arc::new(AtomicBool::new(false));
            let stub = Stub { via, activations: 0, calls: calls.clone() };
            let mut shadow = Shadow::new(Box::new(stub), acted.clone());
            assert_eq!(shadow.name(), "none");
            assert_eq!(shadow.storage_overhead(), StorageOverhead::default());
            let mut ctrl = Vec::new();
            let act = Activation { addr: DramAddr::default(), source: SourceId(0), cycle: 0 };
            for r in 1..=round + 2 {
                let forwarded = calls.load(Ordering::Relaxed);
                assert_eq!(shadow.activation_delay(&act.addr, act.source, r), 0);
                shadow.on_activation(act, &mut ctrl);
                shadow.on_trefi(r, &mut ctrl);
                shadow.on_refresh_window(r, &mut ctrl);
                assert!(ctrl.is_empty(), "the shadow pushed an action");
                assert_eq!(acted.load(Ordering::Relaxed), r >= round, "round {r}");
                if r > round {
                    assert_eq!(calls.load(Ordering::Relaxed), forwarded, "forwarded after acting");
                }
            }
        }
    }

    #[test]
    fn reference_reuse_matches_fresh_run() {
        let e1 = Experiment::quick("povray_like").tracker("para");
        let reference = e1.reference();
        let a = e1.clone().run_against(&reference);
        let b = Experiment::quick("povray_like").tracker("para").run();
        assert!((a.normalized_performance - b.normalized_performance).abs() < 1e-9);
    }
}
