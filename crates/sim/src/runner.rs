//! Parallel experiment sweeps: the worker pool and the quarantine record.
//!
//! The work queue is a shared stack drained by one worker per host core.
//! Every job runs under [`std::panic::catch_unwind`], so a single bad
//! experiment (unknown workload, assertion in a model, ...) surfaces as a
//! [`SweepError`] for that slot instead of poisoning the queue and killing
//! the entire sweep. [`parallel_map`] is that pool, generic over the job;
//! [`RunnerConfig`] carries the [`sim_core::fault`] hook the
//! [executor](crate::exec) applies to every cell it simulates.
//!
//! A cell is a seeded, replayable simulation, so it runs once: a cell that
//! panicked would panic again. Failed cells are *quarantined*, never
//! silently dropped: the [`SweepError`] carries the cell's human-readable
//! descriptor and cache key prefix, so a sweep report names exactly which
//! cells died and why.

use crate::experiment::Experiment;
use sim_core::fault::Injector;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Failure of a single job inside a parallel sweep — the quarantine
/// record: which slot, which cell, what the panic said.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// Index of the failed job in the input order.
    pub index: usize,
    /// Human-readable cell attribution (`workload x tracker x attack
    /// [key-prefix]`); empty when the generic engine had no experiment to
    /// describe.
    pub cell: String,
    /// The panic payload, stringified.
    pub message: String,
}

// The row a sweep report's `failures` list carries.
sim_core::json_record!(SweepError { index, cell, message });

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.cell.is_empty() {
            write!(f, "job {} panicked: {}", self.index, self.message)
        } else {
            write!(f, "job {} ({}) failed: {}", self.index, self.cell, self.message)
        }
    }
}

impl std::error::Error for SweepError {}

/// What every simulated cell runs under: an optional armed fault injector
/// (chaos tests only — `None` costs one branch).
#[derive(Debug, Clone, Default)]
pub struct RunnerConfig {
    /// Armed fault plan the [executor](crate::exec) probes at
    /// [`sim_core::fault::FaultSite::JobRun`] before each cell runs, with
    /// the cell's position among the simulated cells.
    pub faults: Option<Arc<Injector>>,
}

/// Locks a mutex, recovering the guard even if a previous holder panicked
/// (our critical sections only move plain data, so the state stays valid).
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Stringifies a panic payload for [`SweepError`].
///
/// `panic!`/`expect` payloads are `&str`/`String` and pass through as-is.
/// `panic_any` payloads of common scalar types are rendered by value;
/// anything else reports its `TypeId` (the concrete type *name* is erased
/// by `Box<dyn Any>`, but a stable id still distinguishes payload kinds
/// across a sweep), so failures never collapse into one opaque label.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    macro_rules! try_display {
        ($($ty:ty),+ $(,)?) => {
            $(
                if let Some(v) = payload.downcast_ref::<$ty>() {
                    return format!("{v:?} ({})", stringify!($ty));
                }
            )+
        };
    }
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    try_display!(
        std::borrow::Cow<'static, str>,
        i8,
        i16,
        i32,
        i64,
        i128,
        isize,
        u8,
        u16,
        u32,
        u64,
        u128,
        usize,
        f32,
        f64,
        bool,
        char,
    );
    format!("non-string panic payload ({:?})", (*payload).type_id())
}

/// Applies `f` to every item across all available cores, preserving input
/// order. A panicking call yields `Err(SweepError)` in its slot; the other
/// items still complete.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<Result<R, SweepError>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4).min(n);
    let work: Mutex<Vec<(usize, T)>> = Mutex::new(items.into_iter().enumerate().rev().collect());
    let results: Mutex<Vec<Option<Result<R, SweepError>>>> =
        Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let job = relock(&work).pop();
                match job {
                    Some((i, item)) => {
                        let outcome = catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|p| {
                            SweepError { index: i, cell: String::new(), message: panic_message(p) }
                        });
                        relock(&results)[i] = Some(outcome);
                    }
                    None => break,
                }
            });
        }
    });
    results
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|r| r.expect("every job completed"))
        .collect()
}

/// Human-readable cell attribution for quarantine records:
/// `workload x tracker x attack [cache-key-prefix]`.
pub fn cell_label(e: &Experiment) -> String {
    let attack = match &e.custom_attack {
        Some(custom) => custom.name().to_string(),
        None => e
            .attack
            .resolve(&e.tracker)
            .map_or_else(|| "benign".to_string(), |a| a.name().to_string()),
    };
    let key = crate::cache::cell_key(e)
        .map_or_else(|| "uncacheable".to_string(), |k| k.key[..12].to_string());
    format!("{} x {} x {} [{}]", e.workload, e.tracker.label(), attack, key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Executor, Source};
    use crate::experiment::ExperimentResult;

    /// Runs `jobs` through the uncached executor under `cfg`, with an
    /// observer.
    fn run_observed(
        jobs: Vec<Experiment>,
        cfg: &RunnerConfig,
        on_settled: impl Fn(usize, &Result<ExperimentResult, SweepError>, Source) + Sync,
    ) -> Vec<Result<ExperimentResult, SweepError>> {
        let cells = jobs.into_iter().map(|e| (e, None)).collect();
        let exec = Executor { cache: None, runner: cfg };
        exec.probe(cells, |_, _, _| {}).run(cell_label, Experiment::run, on_settled).0
    }

    fn run_cfg(
        jobs: Vec<Experiment>,
        cfg: &RunnerConfig,
    ) -> Vec<Result<ExperimentResult, SweepError>> {
        run_observed(jobs, cfg, |_, _, _| {})
    }

    #[test]
    fn parallel_results_keep_order() {
        let jobs = vec![
            Experiment::quick("povray_like").tracker("none").window_us(100.0),
            Experiment::quick("namd_like").tracker("none").window_us(100.0),
        ];
        let results = run_cfg(jobs, &RunnerConfig::default());
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].as_ref().expect("clean run").workload, "povray_like");
        assert_eq!(results[1].as_ref().expect("clean run").workload, "namd_like");
    }

    #[test]
    fn empty_job_list_is_fine() {
        assert!(run_cfg(vec![], &RunnerConfig::default()).is_empty());
    }

    #[test]
    fn one_bad_job_does_not_kill_the_sweep() {
        // Silence the expected panic backtrace from the worker thread.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let jobs = vec![
            Experiment::quick("povray_like").tracker("none").window_us(100.0),
            Experiment::quick("not_a_workload").window_us(100.0),
            Experiment::quick("namd_like").tracker("none").window_us(100.0),
        ];
        let results = run_cfg(jobs, &RunnerConfig::default());
        std::panic::set_hook(prev);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        let err = results[1].as_ref().expect_err("bad workload must fail alone");
        assert_eq!(err.index, 1);
        assert!(err.message.contains("unknown workload"), "{}", err.message);
        assert!(results[2].is_ok());
    }

    #[test]
    fn parallel_map_is_generic_and_ordered() {
        let out = parallel_map((0..64).collect::<Vec<u64>>(), |x| x * x);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), (i * i) as u64);
        }
    }

    #[test]
    fn observer_fires_once_per_job_with_the_final_outcome() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let jobs = vec![
            Experiment::quick("povray_like").tracker("none").window_us(100.0),
            Experiment::quick("not_a_workload").window_us(100.0),
            Experiment::quick("namd_like").tracker("none").window_us(100.0),
        ];
        let fired = [AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0)];
        let oks = AtomicUsize::new(0);
        let results = run_observed(jobs, &RunnerConfig::default(), |i, outcome, source| {
            assert_eq!(source, Source::Ran);
            fired[i].fetch_add(1, Ordering::SeqCst);
            if outcome.is_ok() {
                oks.fetch_add(1, Ordering::SeqCst);
            }
        });
        std::panic::set_hook(prev);
        // Exactly one notification per job, settled outcomes matching the
        // returned vector (index 1 is the quarantined bad workload).
        for f in &fired {
            assert_eq!(f.load(Ordering::SeqCst), 1);
        }
        assert_eq!(oks.load(Ordering::SeqCst), 2);
        assert!(results[0].is_ok() && results[1].is_err() && results[2].is_ok());
    }

    #[test]
    fn quarantine_carries_cell_attribution() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let jobs = vec![
            Experiment::quick("povray_like").tracker("none").window_us(100.0),
            Experiment::quick("not_a_workload").window_us(100.0),
        ];
        let results = run_cfg(jobs, &RunnerConfig::default());
        std::panic::set_hook(prev);
        let err = results[1].as_ref().expect_err("bad workload fails");
        assert!(err.cell.contains("not_a_workload"), "{}", err.cell);
        let rendered = err.to_string();
        assert!(rendered.contains("not_a_workload") && rendered.contains("failed"), "{rendered}");
    }

    #[test]
    fn permanent_panic_is_quarantined_with_attempt_count() {
        use sim_core::fault::{FaultPlan, FaultSite};
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let jobs = vec![
            Experiment::quick("povray_like").tracker("none").window_us(100.0),
            Experiment::quick("namd_like").tracker("none").window_us(100.0),
        ];
        let faults = FaultPlan::new(11).panic_job_always(0).arm();
        let out = run_cfg(jobs, &RunnerConfig { faults: Some(faults.clone()) });
        std::panic::set_hook(prev);
        let err = out[0].as_ref().expect_err("permanently faulted job is quarantined");
        assert_eq!(faults.fired(FaultSite::JobRun), 1, "one attempt, then quarantine");
        assert!(err.cell.contains("povray_like"), "{}", err.cell);
        assert!(err.message.contains("injected fault"), "{}", err.message);
        assert!(out[1].is_ok(), "the healthy neighbour completes");
    }

    #[test]
    fn non_string_panic_payloads_stay_diagnosable() {
        struct Opaque;
        // Scalar payloads render by value; opaque ones report a type id
        // rather than collapsing into one indistinct label.
        assert_eq!(panic_message(Box::new("boom")), "boom");
        assert_eq!(panic_message(Box::new(String::from("kaboom"))), "kaboom");
        assert_eq!(panic_message(Box::new(42i32)), "42 (i32)");
        assert_eq!(panic_message(Box::new(7u64)), "7 (u64)");
        assert_eq!(panic_message(Box::new(2.5f64)), "2.5 (f64)");
        let opaque = panic_message(Box::new(Opaque));
        assert!(opaque.contains("TypeId"), "{opaque}");
        let other = panic_message(Box::new(vec![1u8]));
        assert_ne!(opaque, other, "distinct payload types must stay distinguishable");
    }

    #[test]
    fn sweep_error_carries_payload_value() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = parallel_map(vec![1u32, 2, 3], |x| {
            if x == 2 {
                std::panic::panic_any(x * 10);
            }
            x
        });
        std::panic::set_hook(prev);
        assert!(out[0].is_ok() && out[2].is_ok());
        let err = out[1].as_ref().expect_err("job 1 panicked");
        assert_eq!(err.index, 1);
        assert_eq!(err.message, "20 (u32)");
    }
}
