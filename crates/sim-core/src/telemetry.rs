//! Composable observation layer: probes, window samples, and recorders.
//!
//! The simulator's observable surface used to be a single frozen
//! `RunStats` snapshot at the end of a run plus an all-or-nothing
//! `collect_events` flag. This module replaces that with a **probe API**:
//! any number of [`Probe`]s attach to a system run and tap three typed
//! streams —
//!
//! * **memory events** ([`crate::events::MemEvent`]): the raw command
//!   stream the ground-truth oracle audits; any probe with
//!   [`Probe::wants_events`] becomes a peer client of the same sink,
//! * **window samples** ([`WindowSample`]): per-window deltas of the
//!   run-stats-shaped counters (per-core retired instructions and core
//!   cycles, merged [`MemStats`]) emitted at fixed cycle boundaries —
//!   per-tREFW by default, configurable down to microsecond windows,
//! * **run lifecycle** ([`Probe::on_run_start`] / [`Probe::on_run_end`]).
//!
//! The hard invariant: **attaching probes must not perturb simulation.**
//! Probes only read; the engines produce bit-identical `RunStats` with
//! and without any combination of probes attached (the
//! `telemetry_equivalence` suite holds that line). A probe-free run pays
//! nothing: no events are buffered and no window bookkeeping happens
//! ([`Telemetry::none`] compiles down to the pre-probe fast path).
//!
//! Built-in recorders:
//!
//! * [`TimeSeriesRecorder`] — keeps every [`WindowSample`] (a windowed
//!   time series of `RunStats` deltas) with JSON export,
//! * [`SlowdownTrace`] — per-window benign IPC normalized to a reference
//!   run (the paper's x-axis for performance-attack transients), with
//!   time-to-max-slowdown and recovery scoring,
//! * [`MitigationLog`] — a timeline of mitigation work (victim refreshes
//!   and structure-reset sweeps),
//! * [`NullProbe`] — subscribes to nothing; useful as a placeholder and
//!   as the degenerate case of the perturbation-freedom contract.

use crate::events::MemEvent;
use crate::json::{DecodeError, Json, JsonCodec};
use crate::stats::MemStats;
use crate::time::{cycles_to_us, Cycle};
use std::any::Any;

/// Immutable facts about the run a probe is attached to, delivered once
/// via [`Probe::on_run_start`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Tracker under test (display name).
    pub tracker: String,
    /// Number of cores.
    pub cores: usize,
    /// Number of DRAM channels.
    pub channels: usize,
    /// Window length in bus cycles for [`Probe::on_window`] samples.
    pub window_len: Cycle,
}

/// One telemetry window: deltas of every run-stats-shaped counter over
/// `[start, end)` bus cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSample {
    /// Zero-based window index.
    pub index: u64,
    /// First bus cycle covered (inclusive).
    pub start: Cycle,
    /// One past the last bus cycle covered. The final window of a run may
    /// be shorter than the configured length.
    pub end: Cycle,
    /// Instructions retired per core within the window.
    pub retired: Vec<u64>,
    /// Core-clock cycles elapsed per core within the window.
    pub core_cycles: Vec<u64>,
    /// Memory-system counters accumulated within the window, merged
    /// across channels.
    pub mem: MemStats,
}

impl WindowSample {
    /// Window length in bus cycles.
    pub fn len(&self) -> Cycle {
        self.end - self.start
    }

    /// True for a degenerate zero-length window (never emitted by the
    /// engines; guards downstream arithmetic).
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }

    /// IPC of core `i` within this window; 0.0 for an out-of-range index
    /// or an idle core.
    pub fn ipc(&self, i: usize) -> f64 {
        match (self.retired.get(i), self.core_cycles.get(i)) {
            (Some(&r), Some(&c)) if c > 0 => r as f64 / c as f64,
            _ => 0.0,
        }
    }

    /// Arithmetic-mean IPC over the given cores; 0.0 for an empty set.
    pub fn mean_ipc(&self, cores: &[usize]) -> f64 {
        if cores.is_empty() {
            return 0.0;
        }
        cores.iter().map(|&i| self.ipc(i)).sum::<f64>() / cores.len() as f64
    }

    /// Serializes the sample as a JSON object.
    pub fn to_json(&self) -> Json {
        let m = &self.mem;
        Json::obj([
            ("index", Json::count(self.index)),
            ("start_cycle", Json::count(self.start)),
            ("end_cycle", Json::count(self.end)),
            ("end_us", Json::num(cycles_to_us(self.end))),
            ("retired", Json::Arr(self.retired.iter().map(|&r| Json::count(r)).collect())),
            ("ipc", Json::Arr((0..self.retired.len()).map(|i| Json::num(self.ipc(i))).collect())),
            ("activations", Json::count(m.activations)),
            ("vrr_commands", Json::count(m.vrr_commands)),
            ("rfm_commands", Json::count(m.rfm_commands)),
            ("counter_ops", Json::count(m.counter_reads + m.counter_writes)),
            ("reset_sweeps", Json::count(m.reset_sweeps)),
            ("mitigation_block_cycles", Json::count(m.mitigation_block_cycles)),
            ("row_hit_rate", Json::num(m.row_hit_rate())),
        ])
    }
}

crate::json_record!(WindowSample { index, start, end, retired, core_cycles, mem });

/// An observer attached to a system run.
///
/// Every hook has a no-op default, so a probe subscribes only to the
/// streams it declares via [`Probe::wants_events`] /
/// [`Probe::wants_windows`]; the engines skip all bookkeeping for
/// streams nobody wants. `Any` supertrait + [`Probe::as_any`] let
/// harness code recover a concrete recorder from a finished run.
pub trait Probe: Any {
    /// Short identifier for diagnostics and exports.
    fn name(&self) -> &'static str;

    /// True if this probe consumes raw [`MemEvent`]s (enables event
    /// capture in every channel controller).
    fn wants_events(&self) -> bool {
        false
    }

    /// True if this probe consumes [`WindowSample`]s (enables window
    /// bookkeeping in the engines).
    fn wants_windows(&self) -> bool {
        false
    }

    /// Called once before the first simulated cycle.
    fn on_run_start(&mut self, _meta: &RunMeta) {}

    /// Called for every memory event on `channel`, in issue order per
    /// channel (only when [`Probe::wants_events`] returns true).
    fn on_event(&mut self, _channel: u8, _ev: &MemEvent) {}

    /// Called at every window boundary, and once more for the final
    /// partial window (only when [`Probe::wants_windows`] returns true).
    fn on_window(&mut self, _sample: &WindowSample) {}

    /// Called once when the run loop exits, with the final cycle.
    fn on_run_end(&mut self, _final_cycle: Cycle) {}

    /// Upcast for recorder recovery (`probe.as_any().downcast_ref()`).
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for recorder recovery.
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Consuming upcast, for moving a recorder out of a finished run
    /// without cloning (`Box<dyn Probe>` → `Box<dyn Any>` → `Box<T>`).
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// A probe subscribed to nothing. Attaching it is exactly the probe-free
/// fast path: no event capture, no window bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProbe;

impl Probe for NullProbe {
    fn name(&self) -> &'static str {
        "null"
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// The telemetry configuration a system run is built with: the attached
/// probes plus the window length.
#[derive(Default)]
pub struct Telemetry {
    probes: Vec<Box<dyn Probe>>,
    oracle: bool,
    window_len: Option<Cycle>,
}

impl Telemetry {
    /// No probes, no oracle: the zero-overhead fast path.
    pub fn none() -> Self {
        Self::default()
    }

    /// Attaches a probe.
    pub fn probe(mut self, p: impl Probe) -> Self {
        self.probes.push(Box::new(p));
        self
    }

    /// Requests the ground-truth RowHammer oracle (the harness attaches
    /// it as an event-sink probe like any other client).
    pub fn oracle(mut self, on: bool) -> Self {
        self.oracle = on;
        self
    }

    /// Overrides the window length (default: one tREFW).
    ///
    /// # Panics
    ///
    /// Panics on a zero length.
    pub fn window_len(mut self, cycles: Cycle) -> Self {
        assert!(cycles > 0, "telemetry window length must be nonzero");
        self.window_len = Some(cycles);
        self
    }

    /// Whether the oracle was requested.
    pub fn oracle_requested(&self) -> bool {
        self.oracle
    }

    /// The configured window length, if overridden.
    pub fn window_len_override(&self) -> Option<Cycle> {
        self.window_len
    }

    /// Consumes the configuration into its probe list.
    pub fn into_probes(self) -> Vec<Box<dyn Probe>> {
        self.probes
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("probes", &self.probes.iter().map(|p| p.name()).collect::<Vec<_>>())
            .field("oracle", &self.oracle)
            .field("window_len", &self.window_len)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// TimeSeriesRecorder
// ---------------------------------------------------------------------------

/// Records every [`WindowSample`]: a windowed time series of the
/// run-stats-shaped counters.
#[derive(Debug, Clone, Default)]
pub struct TimeSeriesRecorder {
    meta: Option<RunMeta>,
    samples: Vec<WindowSample>,
}

impl TimeSeriesRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded samples, in window order.
    pub fn samples(&self) -> &[WindowSample] {
        &self.samples
    }

    /// Consumes the recorder into its samples.
    pub fn into_samples(self) -> Vec<WindowSample> {
        self.samples
    }

    /// The run metadata, once the run has started.
    pub fn meta(&self) -> Option<&RunMeta> {
        self.meta.as_ref()
    }

    /// Serializes the series as a JSON array of window objects.
    pub fn to_json(&self) -> Json {
        Json::Arr(self.samples.iter().map(WindowSample::to_json).collect())
    }
}

impl Probe for TimeSeriesRecorder {
    fn name(&self) -> &'static str {
        "time-series"
    }
    fn wants_windows(&self) -> bool {
        true
    }
    fn on_run_start(&mut self, meta: &RunMeta) {
        self.meta = Some(meta.clone());
    }
    fn on_window(&mut self, sample: &WindowSample) {
        self.samples.push(sample.clone());
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

// ---------------------------------------------------------------------------
// SlowdownTrace
// ---------------------------------------------------------------------------

/// What a [`SlowdownTrace`] normalizes against.
#[derive(Debug, Clone, PartialEq)]
pub enum SlowdownReference {
    /// One IPC per core, applied to every window (an end-of-run reference
    /// mean — the shape shared-reference sweeps have available).
    Flat(Vec<f64>),
    /// Per-window reference samples from a reference run recorded with a
    /// [`TimeSeriesRecorder`] under the same window length. Windows past
    /// the end of the reference fall back to its last sample.
    PerWindow(Vec<WindowSample>),
}

/// One point of a slowdown trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowdownPoint {
    /// Window index.
    pub index: u64,
    /// Window end cycle (the sample's timestamp).
    pub end: Cycle,
    /// Mean benign IPC normalized to the reference for this window
    /// (1.0 = no slowdown; lower = the attack is biting).
    pub normalized_ipc: f64,
}

impl SlowdownPoint {
    /// Benign slowdown factor (`1 / normalized_ipc`, saturating).
    pub fn slowdown(&self) -> f64 {
        1.0 / self.normalized_ipc.max(1e-6)
    }
}

/// Per-window benign IPC normalized to a reference run — the transient
/// the paper plots for performance attacks: how fast a tracker degrades
/// under attack and whether it recovers.
///
/// Cores with a zero reference IPC in a window carry no signal and are
/// excluded from both numerator and denominator (mirroring
/// `normalized_performance`); a window where no benign core has a usable
/// reference records `normalized_ipc = 1.0`.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowdownTrace {
    reference: SlowdownReference,
    benign: Vec<usize>,
    points: Vec<SlowdownPoint>,
}

impl SlowdownTrace {
    /// A trace normalizing against a flat per-core reference IPC.
    pub fn flat(reference_ipc: Vec<f64>, benign: Vec<usize>) -> Self {
        Self { reference: SlowdownReference::Flat(reference_ipc), benign, points: Vec::new() }
    }

    /// A trace normalizing window-by-window against a recorded reference
    /// series.
    pub fn per_window(reference: Vec<WindowSample>, benign: Vec<usize>) -> Self {
        Self { reference: SlowdownReference::PerWindow(reference), benign, points: Vec::new() }
    }

    fn reference_ipc(&self, window: usize, core: usize) -> f64 {
        match &self.reference {
            SlowdownReference::Flat(ipc) => ipc.get(core).copied().unwrap_or(0.0),
            SlowdownReference::PerWindow(samples) => match samples.get(window) {
                Some(s) => s.ipc(core),
                None => samples.last().map_or(0.0, |s| s.ipc(core)),
            },
        }
    }

    /// The recorded points, in window order.
    pub fn points(&self) -> &[SlowdownPoint] {
        &self.points
    }

    /// The worst (lowest normalized IPC) point, if any window was
    /// recorded.
    pub fn max_slowdown_point(&self) -> Option<SlowdownPoint> {
        self.points.iter().copied().min_by(|a, b| a.normalized_ipc.total_cmp(&b.normalized_ipc))
    }

    /// Cycles from run start until the end of the worst window — how fast
    /// the attack reaches its full effect.
    pub fn time_to_max_slowdown(&self) -> Option<Cycle> {
        self.max_slowdown_point().map(|p| p.end)
    }

    /// Cycles from the worst window's end until benign IPC first climbs
    /// back above `threshold` of the reference; `None` if it never
    /// recovers within the trace.
    pub fn recovery_window(&self, threshold: f64) -> Option<Cycle> {
        let worst = self.max_slowdown_point()?;
        self.points
            .iter()
            .find(|p| p.index > worst.index && p.normalized_ipc >= threshold)
            .map(|p| p.end - worst.end)
    }

    /// Serializes the trace as a JSON array of `{window, end_us,
    /// normalized_ipc, slowdown}` objects.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.points
                .iter()
                .map(|p| {
                    Json::obj([
                        ("window", Json::count(p.index)),
                        ("end_us", Json::num(cycles_to_us(p.end))),
                        ("normalized_ipc", Json::num(p.normalized_ipc)),
                        ("slowdown", Json::num(p.slowdown())),
                    ])
                })
                .collect(),
        )
    }
}

impl JsonCodec for SlowdownReference {
    fn encode(&self) -> Json {
        match self {
            SlowdownReference::Flat(ipc) => Json::obj([("flat", ipc.encode())]),
            SlowdownReference::PerWindow(windows) => Json::obj([("per_window", windows.encode())]),
        }
    }

    fn decode(j: &Json) -> Result<Self, DecodeError> {
        match j.opt_field("flat")? {
            Some(ipc) => Ok(SlowdownReference::Flat(ipc)),
            None => j.field("per_window").map(SlowdownReference::PerWindow),
        }
    }
}

crate::json_record!(SlowdownPoint { index, end, normalized_ipc });
crate::json_record!(SlowdownTrace { reference, benign, points });

impl Probe for SlowdownTrace {
    fn name(&self) -> &'static str {
        "slowdown-trace"
    }
    fn wants_windows(&self) -> bool {
        true
    }
    fn on_window(&mut self, sample: &WindowSample) {
        let w = sample.index as usize;
        let mut sum = 0.0;
        let mut counted = 0u32;
        for &core in &self.benign {
            let r = self.reference_ipc(w, core);
            if r > 0.0 {
                sum += sample.ipc(core) / r;
                counted += 1;
            }
        }
        let normalized_ipc = if counted == 0 { 1.0 } else { sum / f64::from(counted) };
        self.points.push(SlowdownPoint { index: sample.index, end: sample.end, normalized_ipc });
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

// ---------------------------------------------------------------------------
// MitigationLog
// ---------------------------------------------------------------------------

/// What kind of mitigation work a [`MitigationRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MitigationKindTag {
    /// Victim-row refresh around one aggressor (VRR / RFM flavours).
    VictimRefresh {
        /// The aggressor row.
        row: u32,
        /// Rows refreshed on each side.
        blast_radius: u8,
    },
    /// A full structure-reset sweep.
    Sweep,
}

/// One mitigation action on the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MitigationRecord {
    /// Completion cycle.
    pub cycle: Cycle,
    /// Channel the work ran on.
    pub channel: u8,
    /// What happened.
    pub kind: MitigationKindTag,
}

impl MitigationRecord {
    /// Serializes the record as a JSON object — the single schema every
    /// mitigation-timeline export uses (`row` is `null` for sweeps).
    pub fn to_json(&self) -> Json {
        let (kind, row) = match self.kind {
            MitigationKindTag::VictimRefresh { row, .. } => {
                ("victim-refresh", Json::count(row as u64))
            }
            MitigationKindTag::Sweep => ("sweep", Json::Null),
        };
        Json::obj([
            ("cycle", Json::count(self.cycle)),
            ("us", Json::num(cycles_to_us(self.cycle))),
            ("channel", Json::count(self.channel as u64)),
            ("kind", Json::str(kind)),
            ("row", row),
        ])
    }
}

/// The exact wire form (unlike [`MitigationRecord::to_json`], it keeps the
/// blast radius): `row` and `blast_radius` are `null` for sweeps.
impl JsonCodec for MitigationRecord {
    fn encode(&self) -> Json {
        let (kind, row, blast_radius) = match self.kind {
            MitigationKindTag::VictimRefresh { row, blast_radius } => {
                ("victim-refresh", Some(row), Some(blast_radius))
            }
            MitigationKindTag::Sweep => ("sweep", None, None),
        };
        Json::obj([
            ("cycle", self.cycle.encode()),
            ("channel", self.channel.encode()),
            ("kind", Json::str(kind)),
            ("row", row.encode()),
            ("blast_radius", blast_radius.encode()),
        ])
    }

    fn decode(j: &Json) -> Result<Self, DecodeError> {
        let kind = j.field::<String>("kind")?;
        let kind = match (kind.as_str(), j.field("row")?, j.field("blast_radius")?) {
            ("victim-refresh", Some(row), Some(blast_radius)) => {
                MitigationKindTag::VictimRefresh { row, blast_radius }
            }
            ("sweep", None, None) => MitigationKindTag::Sweep,
            _ => {
                let message = format!("'{kind}' does not describe this record's row fields");
                return Err(DecodeError::new(message).at("kind"));
            }
        };
        Ok(Self { cycle: j.field("cycle")?, channel: j.field("channel")?, kind })
    }
}

/// Records the mitigation timeline: every victim refresh and reset sweep,
/// with completion cycles — the raw material for time-between-mitigations
/// and blocking-burst analyses.
#[derive(Debug, Clone, Default)]
pub struct MitigationLog {
    records: Vec<MitigationRecord>,
}

impl MitigationLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded mitigations, in completion order per channel.
    pub fn records(&self) -> &[MitigationRecord] {
        &self.records
    }

    /// Victim-refresh count.
    pub fn victim_refreshes(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.kind, MitigationKindTag::VictimRefresh { .. }))
            .count()
    }

    /// Reset-sweep count.
    pub fn sweeps(&self) -> usize {
        self.records.iter().filter(|r| matches!(r.kind, MitigationKindTag::Sweep)).count()
    }

    /// Serializes the log as a JSON array.
    pub fn to_json(&self) -> Json {
        Json::Arr(self.records.iter().map(MitigationRecord::to_json).collect())
    }
}

impl Probe for MitigationLog {
    fn name(&self) -> &'static str {
        "mitigation-log"
    }
    fn wants_events(&self) -> bool {
        true
    }
    fn on_event(&mut self, channel: u8, ev: &MemEvent) {
        match *ev {
            MemEvent::VictimsRefreshed { aggressor, blast_radius, cycle } => {
                self.records.push(MitigationRecord {
                    cycle,
                    channel,
                    kind: MitigationKindTag::VictimRefresh { row: aggressor.row, blast_radius },
                });
            }
            MemEvent::SweepRefreshed { cycle, .. } => {
                self.records.push(MitigationRecord {
                    cycle,
                    channel,
                    kind: MitigationKindTag::Sweep,
                });
            }
            MemEvent::Activate { .. }
            | MemEvent::RefreshWindowEnd { .. }
            | MemEvent::ReadCompleted { .. } => {}
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

// ---------------------------------------------------------------------------
// LatencyProbe
// ---------------------------------------------------------------------------

/// One observed demand-read round trip: the request's controller arrival
/// and data-return cycles, as seen through [`MemEvent::ReadCompleted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySample {
    /// Channel the read was served on.
    pub channel: u8,
    /// Physical address read.
    pub phys: crate::addr::PhysAddr,
    /// Controller arrival cycle.
    pub arrival: Cycle,
    /// Data-return cycle.
    pub done: Cycle,
}

impl LatencySample {
    /// Inject-to-complete latency in bus cycles — the quantity a
    /// timing-side-channel attacker measures from software.
    pub fn latency(&self) -> Cycle {
        self.done - self.arrival
    }
}

/// Records per-request issue→completion latency for one requesting agent
/// — the software-observable timing side channel (Spoiler/DRAMA-style
/// row-buffer-conflict probing taps exactly this view).
///
/// The probe deliberately exposes nothing a real attacker could not see:
/// only the latencies of the *configured source's own* reads, never DRAM
/// coordinates, tracker state, or other agents' traffic. Like every
/// probe, it is perturbation-free — attaching it cannot change
/// `RunStats` (the `telemetry_equivalence` suite covers it).
#[derive(Debug, Clone)]
pub struct LatencyProbe {
    source: crate::req::SourceId,
    samples: Vec<LatencySample>,
}

impl LatencyProbe {
    /// A probe observing the given requester's demand reads.
    pub fn new(source: crate::req::SourceId) -> Self {
        Self { source, samples: Vec::new() }
    }

    /// The observed requester.
    pub fn source(&self) -> crate::req::SourceId {
        self.source
    }

    /// The recorded samples, in completion-issue order per channel.
    pub fn samples(&self) -> &[LatencySample] {
        &self.samples
    }

    /// Consumes the probe into its samples.
    pub fn into_samples(self) -> Vec<LatencySample> {
        self.samples
    }
}

impl Probe for LatencyProbe {
    fn name(&self) -> &'static str {
        "latency"
    }
    fn wants_events(&self) -> bool {
        true
    }
    fn on_event(&mut self, channel: u8, ev: &MemEvent) {
        if let MemEvent::ReadCompleted { source, phys, arrival, cycle } = *ev {
            if source == self.source {
                self.samples.push(LatencySample { channel, phys, arrival, done: cycle });
            }
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::DramAddr;

    fn sample(
        index: u64,
        start: Cycle,
        end: Cycle,
        retired: Vec<u64>,
        cycles: Vec<u64>,
    ) -> WindowSample {
        WindowSample { index, start, end, retired, core_cycles: cycles, mem: MemStats::default() }
    }

    #[test]
    fn window_sample_ipc_is_bounds_safe() {
        let s = sample(0, 0, 100, vec![50, 0], vec![100, 0]);
        assert_eq!(s.ipc(0), 0.5);
        assert_eq!(s.ipc(1), 0.0, "idle core");
        assert_eq!(s.ipc(7), 0.0, "out of range");
        assert_eq!(s.mean_ipc(&[]), 0.0);
        assert_eq!(s.len(), 100);
        assert!(!s.is_empty());
    }

    #[test]
    fn time_series_recorder_keeps_samples_and_exports() {
        let mut rec = TimeSeriesRecorder::new();
        rec.on_run_start(&RunMeta { tracker: "t".into(), cores: 2, channels: 1, window_len: 100 });
        rec.on_window(&sample(0, 0, 100, vec![10, 20], vec![100, 100]));
        rec.on_window(&sample(1, 100, 150, vec![5, 5], vec![50, 50]));
        assert_eq!(rec.samples().len(), 2);
        assert_eq!(rec.meta().unwrap().window_len, 100);
        let json = rec.to_json().render();
        assert!(json.contains("\"index\":0"));
        assert!(Json::parse(&json).is_ok());
    }

    #[test]
    fn slowdown_trace_normalizes_per_window() {
        let reference = vec![sample(0, 0, 100, vec![100, 100], vec![100, 100])]; // ref IPC 1.0
        let mut tr = SlowdownTrace::per_window(reference, vec![0, 1]);
        tr.on_window(&sample(0, 0, 100, vec![50, 100], vec![100, 100]));
        // Window 1 falls past the reference series: falls back to its last
        // sample.
        tr.on_window(&sample(1, 100, 200, vec![100, 100], vec![100, 100]));
        assert_eq!(tr.points().len(), 2);
        assert!((tr.points()[0].normalized_ipc - 0.75).abs() < 1e-12);
        assert!((tr.points()[1].normalized_ipc - 1.0).abs() < 1e-12);
        let worst = tr.max_slowdown_point().unwrap();
        assert_eq!(worst.index, 0);
        assert_eq!(tr.time_to_max_slowdown(), Some(100));
        assert_eq!(tr.recovery_window(0.9), Some(100), "recovers one window later");
        assert!((worst.slowdown() - 1.0 / 0.75).abs() < 1e-9);
    }

    #[test]
    fn slowdown_trace_flat_reference_and_no_recovery() {
        let mut tr = SlowdownTrace::flat(vec![1.0, 0.0], vec![0, 1]);
        tr.on_window(&sample(0, 0, 100, vec![40, 0], vec![100, 0]));
        tr.on_window(&sample(1, 100, 200, vec![30, 0], vec![100, 0]));
        // Core 1 has a zero reference: excluded from both sides.
        assert!((tr.points()[0].normalized_ipc - 0.4).abs() < 1e-12);
        assert_eq!(tr.max_slowdown_point().unwrap().index, 1);
        assert_eq!(tr.recovery_window(0.9), None, "never climbs back");
        assert!(Json::parse(&tr.to_json().render()).is_ok());
    }

    #[test]
    fn mitigation_log_filters_mitigation_events() {
        let mut log = MitigationLog::new();
        let addr = DramAddr::new(0, 0, 0, 0, 500, 0);
        log.on_event(0, &MemEvent::Activate { addr, cycle: 1 });
        log.on_event(0, &MemEvent::VictimsRefreshed { aggressor: addr, blast_radius: 1, cycle: 2 });
        log.on_event(
            1,
            &MemEvent::SweepRefreshed {
                scope: crate::tracker::ResetScope::Rank { channel: 1, rank: 0 },
                cycle: 3,
            },
        );
        log.on_event(0, &MemEvent::RefreshWindowEnd { cycle: 4 });
        assert_eq!(log.records().len(), 2, "ACTs and window ends are not mitigations");
        assert_eq!(log.victim_refreshes(), 1);
        assert_eq!(log.sweeps(), 1);
        assert!(Json::parse(&log.to_json().render()).is_ok());
    }

    #[test]
    fn latency_probe_filters_to_its_source() {
        use crate::addr::PhysAddr;
        use crate::req::SourceId;
        let mut probe = LatencyProbe::new(SourceId(3));
        let addr = DramAddr::new(0, 0, 0, 0, 7, 0);
        probe.on_event(0, &MemEvent::Activate { addr, cycle: 1 });
        probe.on_event(
            0,
            &MemEvent::ReadCompleted {
                source: SourceId(3),
                phys: PhysAddr(0x1000),
                arrival: 10,
                cycle: 52,
            },
        );
        probe.on_event(
            1,
            &MemEvent::ReadCompleted {
                source: SourceId(0),
                phys: PhysAddr(0x2000),
                arrival: 11,
                cycle: 40,
            },
        );
        assert_eq!(probe.source(), SourceId(3));
        assert_eq!(probe.samples().len(), 1, "other sources' reads are invisible");
        let s = probe.samples()[0];
        assert_eq!((s.channel, s.phys, s.latency()), (0, PhysAddr(0x1000), 42));
        assert_eq!(probe.into_samples().len(), 1);
    }

    #[test]
    fn telemetry_config_carries_probes_and_flags() {
        let t = Telemetry::none();
        assert!(!t.oracle_requested());
        assert!(t.into_probes().is_empty());
        let t = Telemetry::none()
            .probe(TimeSeriesRecorder::new())
            .probe(NullProbe)
            .oracle(true)
            .window_len(64);
        assert!(t.oracle_requested());
        assert_eq!(t.window_len_override(), Some(64));
        let probes = t.into_probes();
        assert_eq!(probes.len(), 2);
        assert!(probes[0].wants_windows());
        assert!(!probes[1].wants_windows() && !probes[1].wants_events());
    }

    #[test]
    fn recorders_are_recoverable_through_as_any() {
        let mut rec: Box<dyn Probe> = Box::new(TimeSeriesRecorder::new());
        rec.on_window(&sample(0, 0, 10, vec![1], vec![10]));
        let back = rec.as_any().downcast_ref::<TimeSeriesRecorder>().unwrap();
        assert_eq!(back.samples().len(), 1);
        assert!(rec.as_any().downcast_ref::<MitigationLog>().is_none());
    }
}
