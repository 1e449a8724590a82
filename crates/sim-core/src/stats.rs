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

/// Declares a block of `u64` counters once: the struct, the field-wise
/// combination `merge` and `delta_since` are built on, and the wire form
/// all come from the one list, so a new counter cannot be dropped from
/// cross-channel totals, window deltas or cache entries.
macro_rules! counters {
    ($(#[$meta:meta])* pub struct $name:ident { $($(#[$doc:meta])* pub $field:ident: u64,)* }) => {
        $(#[$meta])*
        pub struct $name { $($(#[$doc])* pub $field: u64,)* }

        impl $name {
            fn zip_with(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
                Self { $($field: f(self.$field, other.$field),)* }
            }
        }

        crate::json_record!($name { $($field),* });
    };
}

counters! {
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
        *self = self.zip_with(other, |a, b| a + b);
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
        self.zip_with(earlier, |now, then| now - then)
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
        assert_eq!(a.delta_since(&b).activations, 1, "delta inverts merge");
        assert_eq!(a.delta_since(&a), MemStats::default());
    }
}
