//! Counters and summary statistics used across the simulator.

use crate::json::Json;

/// Running mean/min/max over a stream of samples.
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self { count: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Minimum sample, or NaN if empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Maximum sample, or NaN if empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Serializes the accumulator as a JSON object. An empty accumulator
    /// has no min/max (±∞ internally); those serialize as `null` rather
    /// than leaking non-finite floats into the document (which the writer
    /// would otherwise have to mangle — see [`Json::num`]).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::count(self.count)),
            ("mean", Json::num(self.mean())),
            ("min", Json::num(self.min())),
            ("max", Json::num(self.max())),
        ])
    }
}

/// Geometric mean of a slice (the paper reports normalized performance as
/// means across workloads; we expose both).
///
/// Returns 0.0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean of a slice; 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Event counters kept by the memory system. All counts are per-run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// ACT commands issued for demand traffic.
    pub activations: u64,
    /// PRE commands issued.
    pub precharges: u64,
    /// Column reads.
    pub reads: u64,
    /// Column writes.
    pub writes: u64,
    /// Auto-refresh (REF) commands.
    pub refreshes: u64,
    /// Victim-row-refresh mitigation commands.
    pub vrr_commands: u64,
    /// Individual victim rows refreshed by mitigations.
    pub victim_rows_refreshed: u64,
    /// RFM / DRFM mitigation commands.
    pub rfm_commands: u64,
    /// Tracker metadata reads injected into DRAM (Hydra/START).
    pub counter_reads: u64,
    /// Tracker metadata writes injected into DRAM (Hydra/START).
    pub counter_writes: u64,
    /// Full structure-reset sweeps (CoMeT/ABACUS early resets).
    pub reset_sweeps: u64,
    /// Cycles any bank spent blocked by mitigation work.
    pub mitigation_block_cycles: u64,
    /// Row-buffer hits among demand accesses.
    pub row_hits: u64,
    /// Row-buffer misses among demand accesses.
    pub row_misses: u64,
}

impl MemStats {
    /// Row-buffer hit rate over demand accesses; 0.0 when idle.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Sums another stats block into this one (for cross-channel totals).
    pub fn merge(&mut self, other: &MemStats) {
        self.activations += other.activations;
        self.precharges += other.precharges;
        self.reads += other.reads;
        self.writes += other.writes;
        self.refreshes += other.refreshes;
        self.vrr_commands += other.vrr_commands;
        self.victim_rows_refreshed += other.victim_rows_refreshed;
        self.rfm_commands += other.rfm_commands;
        self.counter_reads += other.counter_reads;
        self.counter_writes += other.counter_writes;
        self.reset_sweeps += other.reset_sweeps;
        self.mitigation_block_cycles += other.mitigation_block_cycles;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
    }

    /// Field-wise difference against an earlier snapshot of the same
    /// counters (all counters are monotonic, so this is the amount
    /// accumulated since the snapshot — the per-window deltas telemetry
    /// samples are made of).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not actually an earlier
    /// snapshot (any field exceeding `self`).
    pub fn delta_since(&self, earlier: &MemStats) -> MemStats {
        MemStats {
            activations: self.activations - earlier.activations,
            precharges: self.precharges - earlier.precharges,
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            refreshes: self.refreshes - earlier.refreshes,
            vrr_commands: self.vrr_commands - earlier.vrr_commands,
            victim_rows_refreshed: self.victim_rows_refreshed - earlier.victim_rows_refreshed,
            rfm_commands: self.rfm_commands - earlier.rfm_commands,
            counter_reads: self.counter_reads - earlier.counter_reads,
            counter_writes: self.counter_writes - earlier.counter_writes,
            reset_sweeps: self.reset_sweeps - earlier.reset_sweeps,
            mitigation_block_cycles: self.mitigation_block_cycles - earlier.mitigation_block_cycles,
            row_hits: self.row_hits - earlier.row_hits,
            row_misses: self.row_misses - earlier.row_misses,
        }
    }

    /// Serializes every counter under its field name. The field-drift
    /// guard in this module's tests checks this listing (and `merge` /
    /// `delta_since`) against the struct's actual fields, so a new
    /// telemetry counter cannot be silently dropped from cross-channel
    /// totals or window deltas.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("activations", Json::count(self.activations)),
            ("precharges", Json::count(self.precharges)),
            ("reads", Json::count(self.reads)),
            ("writes", Json::count(self.writes)),
            ("refreshes", Json::count(self.refreshes)),
            ("vrr_commands", Json::count(self.vrr_commands)),
            ("victim_rows_refreshed", Json::count(self.victim_rows_refreshed)),
            ("rfm_commands", Json::count(self.rfm_commands)),
            ("counter_reads", Json::count(self.counter_reads)),
            ("counter_writes", Json::count(self.counter_writes)),
            ("reset_sweeps", Json::count(self.reset_sweeps)),
            ("mitigation_block_cycles", Json::count(self.mitigation_block_cycles)),
            ("row_hits", Json::count(self.row_hits)),
            ("row_misses", Json::count(self.row_misses)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basics() {
        let mut s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        s.push(1.0);
        s.push(3.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
    }

    #[test]
    fn geomean_of_equal_values_is_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn geomean_below_arithmetic_mean() {
        let v = [0.5, 1.0, 2.0, 4.0];
        assert!(geomean(&v) < mean(&v));
    }

    /// A `MemStats` with every field set to a distinct nonzero value.
    /// Written as a full struct literal on purpose: adding a field to
    /// `MemStats` breaks this constructor until the test (and, via the
    /// assertions below, `to_json`, `merge`, and `delta_since`) is
    /// updated to cover it.
    fn fully_populated() -> MemStats {
        MemStats {
            activations: 1,
            precharges: 2,
            reads: 3,
            writes: 4,
            refreshes: 5,
            vrr_commands: 6,
            victim_rows_refreshed: 7,
            rfm_commands: 8,
            counter_reads: 9,
            counter_writes: 10,
            reset_sweeps: 11,
            mitigation_block_cycles: 12,
            row_hits: 13,
            row_misses: 14,
        }
    }

    /// Field names as the derived `Debug` impl reports them — i.e. the
    /// struct's actual fields, immune to hand-maintained lists drifting.
    fn debug_field_names(m: &MemStats) -> Vec<String> {
        let dbg = format!("{m:?}");
        let inner = dbg.trim_start_matches("MemStats {").trim_end_matches('}').trim();
        inner.split(", ").map(|pair| pair.split(':').next().unwrap().trim().to_string()).collect()
    }

    #[test]
    fn memstats_merge_covers_every_field() {
        // Drift guard: serialize a fully-populated struct, then check that
        // (a) `to_json` names exactly the struct's fields and (b) `merge`
        // and `delta_since` transform every one of them. A counter added
        // to the struct but forgotten in `merge` shows up here as an
        // un-doubled field instead of silently vanishing from
        // cross-channel totals.
        let populated = fully_populated();
        let fields = debug_field_names(&populated);
        let json = populated.to_json();
        let Json::Obj(pairs) = &json else { panic!("to_json must be an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys, fields,
            "MemStats::to_json keys must match the struct's fields (same order)"
        );
        for (key, value) in pairs {
            assert_ne!(value, &Json::Num(0.0), "field '{key}' must be populated in this test");
        }

        let mut merged = populated;
        merged.merge(&populated);
        let Json::Obj(merged_pairs) = merged.to_json() else { unreachable!() };
        for ((key, before), (_, after)) in pairs.iter().zip(&merged_pairs) {
            let (Json::Num(b), Json::Num(a)) = (before, after) else { unreachable!() };
            assert_eq!(*a, 2.0 * b, "merge drops or mis-sums field '{key}'");
        }

        assert_eq!(merged.delta_since(&populated), populated, "delta must invert merge");
        assert_eq!(populated.delta_since(&populated), MemStats::default());
    }

    #[test]
    fn empty_running_stats_serialize_as_valid_json() {
        // Regression: zero-sample min/max are ±INFINITY internally; the
        // serialized form must be valid JSON (`null`), and parse back.
        let empty = RunningStats::new();
        let text = empty.to_json().render();
        assert_eq!(text, r#"{"count":0,"mean":0,"min":null,"max":null}"#);
        let back = Json::parse(&text).expect("must round-trip through the parser");
        assert_eq!(back.get("min"), Some(&Json::Null));
        // A populated accumulator keeps real numbers.
        let mut s = RunningStats::new();
        s.push(2.0);
        s.push(4.0);
        let back = Json::parse(&s.to_json().render()).unwrap();
        assert_eq!(back.get("min"), Some(&Json::Num(2.0)));
        assert_eq!(back.get("max"), Some(&Json::Num(4.0)));
        assert_eq!(back.get("mean"), Some(&Json::Num(3.0)));
    }

    #[test]
    fn memstats_merge_adds_fields() {
        let mut a = MemStats { activations: 1, row_hits: 2, ..Default::default() };
        let b = MemStats { activations: 3, row_misses: 4, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.activations, 4);
        assert_eq!(a.row_hits, 2);
        assert_eq!(a.row_misses, 4);
        assert!((a.row_hit_rate() - 2.0 / 6.0).abs() < 1e-12);
    }
}
