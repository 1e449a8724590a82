//! Run-level metrics and per-run telemetry bundles.

use sim_core::json::Json;
use sim_core::stats::MemStats;
use sim_core::telemetry::{MitigationRecord, SlowdownTrace, WindowSample};
use sim_core::time::{cycles_to_us, Cycle};

/// Everything measured in one simulation run.
///
/// `PartialEq` compares every field exactly (including the float-valued
/// ones): the dense and event-driven engines are required to agree
/// bit-for-bit, and the equivalence suite leans on this.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Tracker under test.
    pub tracker: String,
    /// Bus cycles simulated.
    pub cycles: Cycle,
    /// Per-core instructions retired.
    pub retired: Vec<u64>,
    /// Per-core core-clock cycles.
    pub core_cycles: Vec<u64>,
    /// Merged memory-system statistics across channels.
    pub mem: MemStats,
    /// LLC demand hit rate.
    pub llc_hit_rate: f64,
    /// Total DRAM energy in millijoules.
    pub energy_mj: f64,
    /// Ground-truth oracle outcome, if events were collected:
    /// (max victim disturbance, violations).
    pub oracle: Option<(u32, u64)>,
}

impl RunStats {
    /// IPC of core `i`; 0.0 for an idle core **or an out-of-range index**
    /// (hand-written specs can easily name a core the config does not
    /// have; that must not panic deep inside a sweep worker).
    pub fn ipc(&self, i: usize) -> f64 {
        match (self.retired.get(i), self.core_cycles.get(i)) {
            (Some(&r), Some(&c)) if c > 0 => r as f64 / c as f64,
            _ => 0.0,
        }
    }

    /// Mean IPC over the given cores.
    pub fn mean_ipc(&self, cores: &[usize]) -> f64 {
        if cores.is_empty() {
            return 0.0;
        }
        cores.iter().map(|&i| self.ipc(i)).sum::<f64>() / cores.len() as f64
    }
}

sim_core::json_record!(RunStats {
    tracker,
    cycles,
    retired,
    core_cycles,
    mem,
    llc_hit_rate,
    energy_mj,
    oracle,
});

/// Normalized performance: mean over `benign` of IPC ratio vs. a reference
/// run (the paper's metric — performance of benign applications normalized
/// to the insecure baseline).
///
/// Cores whose reference IPC is zero carry no signal (the ratio is
/// undefined), so they are excluded from **both** the numerator and the
/// denominator; counting them only in the denominator would silently
/// deflate the metric. Returns 0.0 when no core has a usable reference.
pub fn normalized_performance(run: &RunStats, reference: &RunStats, benign: &[usize]) -> f64 {
    let mut sum = 0.0;
    let mut counted = 0u32;
    for &i in benign {
        let r = reference.ipc(i);
        if r > 0.0 {
            sum += run.ipc(i) / r;
            counted += 1;
        }
    }
    if counted == 0 {
        0.0
    } else {
        sum / f64::from(counted)
    }
}

/// Time-series observations collected alongside one run's [`RunStats`]
/// (present on an [`crate::experiment::ExperimentResult`] when the
/// experiment's [`crate::experiment::TelemetrySpec`] enabled recorders).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTelemetry {
    /// Window length in bus cycles.
    pub window_len: Cycle,
    /// Per-window counter deltas (when the time-series recorder was on).
    pub windows: Vec<WindowSample>,
    /// Reference-run windows (when a per-window reference was available).
    pub reference_windows: Vec<WindowSample>,
    /// Per-window benign slowdown trace (when the slowdown recorder was
    /// on).
    pub slowdown: Option<SlowdownTrace>,
    /// Mitigation timeline (when the mitigation log was on).
    pub mitigations: Vec<MitigationRecord>,
}

impl RunTelemetry {
    /// Microseconds from run start until the attack's full effect (the
    /// worst slowdown window), if a slowdown trace was recorded.
    pub fn time_to_max_slowdown_us(&self) -> Option<f64> {
        self.slowdown.as_ref()?.time_to_max_slowdown().map(cycles_to_us)
    }

    /// Microseconds from the worst window until benign IPC recovers above
    /// `threshold` of the reference; `None` without a trace or without
    /// recovery.
    pub fn recovery_us(&self, threshold: f64) -> Option<f64> {
        self.slowdown.as_ref()?.recovery_window(threshold).map(cycles_to_us)
    }

    /// Serializes the bundle as a JSON object (window series, slowdown
    /// points, mitigation timeline — whatever was recorded).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("window_len_cycles", Json::count(self.window_len))];
        if !self.windows.is_empty() {
            pairs.push(("windows", Json::Arr(self.windows.iter().map(|w| w.to_json()).collect())));
        }
        if let Some(trace) = &self.slowdown {
            pairs.push(("slowdown", trace.to_json()));
            if let Some(t) = self.time_to_max_slowdown_us() {
                pairs.push(("time_to_max_slowdown_us", Json::num(t)));
            }
            match self.recovery_us(RECOVERY_THRESHOLD) {
                Some(r) => pairs.push(("recovery_us", Json::num(r))),
                None => pairs.push(("recovery_us", Json::Null)),
            }
        }
        if !self.mitigations.is_empty() {
            pairs.push((
                "mitigations",
                Json::Arr(self.mitigations.iter().map(MitigationRecord::to_json).collect()),
            ));
        }
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

// The exact wire form the run cache stores; `to_json` above is the lossy
// export view.
sim_core::json_record!(RunTelemetry {
    window_len,
    windows,
    reference_windows,
    slowdown,
    mitigations
});

/// The benign-IPC fraction of the reference above which a window counts
/// as "recovered" for [`RunTelemetry::recovery_us`] and the campaign
/// scoring columns.
pub const RECOVERY_THRESHOLD: f64 = 0.9;

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(retired: Vec<u64>, cycles: Vec<u64>) -> RunStats {
        RunStats {
            tracker: "t".into(),
            cycles: 1000,
            retired,
            core_cycles: cycles,
            mem: MemStats::default(),
            llc_hit_rate: 0.0,
            energy_mj: 0.0,
            oracle: None,
        }
    }

    #[test]
    fn ipc_and_normalization() {
        let run = stats(vec![500, 1000], vec![1000, 1000]);
        let reference = stats(vec![1000, 1000], vec![1000, 1000]);
        assert_eq!(run.ipc(0), 0.5);
        let norm = normalized_performance(&run, &reference, &[0, 1]);
        assert!((norm - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_benign_set_is_zero() {
        let run = stats(vec![1], vec![1]);
        assert_eq!(normalized_performance(&run, &run, &[]), 0.0);
    }

    #[test]
    fn zero_reference_ipc_cores_are_excluded_from_both_sides() {
        // Core 1 never retired in the reference: its ratio is undefined and
        // must not deflate the mean (regression: it used to stay in the
        // denominator while being skipped in the numerator).
        let run = stats(vec![500, 999], vec![1000, 1000]);
        let reference = stats(vec![1000, 0], vec![1000, 1000]);
        let norm = normalized_performance(&run, &reference, &[0, 1]);
        assert!((norm - 0.5).abs() < 1e-12, "got {norm}, want core 0's ratio alone");
        // All-zero reference: no usable core at all.
        let dead = stats(vec![0, 0], vec![1000, 1000]);
        assert_eq!(normalized_performance(&run, &dead, &[0, 1]), 0.0);
    }

    #[test]
    fn mean_ipc_subsets() {
        let run = stats(vec![100, 300, 500, 0], vec![1000, 1000, 1000, 1000]);
        assert!((run.mean_ipc(&[0, 1, 2]) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_core_indices_read_as_zero() {
        // Regression: `ipc`/`mean_ipc` used to index `core_cycles[i]`
        // unchecked and panic on a core index past the config's count —
        // trivially reachable from a hand-written spec. They must read as
        // 0.0 instead.
        let run = stats(vec![500, 1000], vec![1000, 1000]);
        assert_eq!(run.ipc(2), 0.0);
        assert_eq!(run.ipc(usize::MAX), 0.0);
        assert!((run.mean_ipc(&[0, 7]) - 0.25).abs() < 1e-12, "absent core contributes 0");
        // Mismatched vector lengths (torn snapshots) are also safe.
        let torn = stats(vec![500, 1000, 9], vec![1000]);
        assert_eq!(torn.ipc(1), 0.0);
        // normalized_performance rides ipc(), so it inherits the guard.
        let reference = stats(vec![1000, 1000], vec![1000, 1000]);
        assert_eq!(normalized_performance(&run, &reference, &[5]), 0.0);
    }

    #[test]
    fn run_telemetry_scoring_and_export() {
        use sim_core::telemetry::Probe;
        let window = |index: u64, start, end, retired: u64| WindowSample {
            index,
            start,
            end,
            retired: vec![retired],
            core_cycles: vec![1000],
            mem: MemStats::default(),
        };
        let mut trace = SlowdownTrace::flat(vec![1.0], vec![0]);
        trace.on_window(&window(0, 0, 3200, 900)); // 0.9
        trace.on_window(&window(1, 3200, 6400, 400)); // 0.4 — the worst
        trace.on_window(&window(2, 6400, 9600, 950)); // recovered
        let t = RunTelemetry {
            window_len: 3200,
            windows: vec![window(0, 0, 3200, 900)],
            reference_windows: Vec::new(),
            slowdown: Some(trace),
            mitigations: Vec::new(),
        };
        // 6400 cycles at 3.2 GHz = 2 us to max slowdown, 1 us to recover.
        assert!((t.time_to_max_slowdown_us().unwrap() - 2.0).abs() < 1e-9);
        assert!((t.recovery_us(RECOVERY_THRESHOLD).unwrap() - 1.0).abs() < 1e-9);
        let json = t.to_json().render();
        assert!(json.contains("\"slowdown\""));
        assert!(json.contains("\"windows\""));
        assert!(sim_core::json::Json::parse(&json).is_ok());
    }
}
