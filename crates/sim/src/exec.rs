//! The one cell-execution path: probe → run → save → notify.
//!
//! Every front end that turns *cells* into payloads — `spec_run`,
//! `campaignd`, the `figure` harness, the red-team campaign matrix, the
//! profile and evaluate stages, the attacker sweep (all in `redteam`) —
//! hands its cells to an [`Executor`] instead of writing the policy out
//! again. The executor is
//! generic over the cell type `C` and the payload type `R`, and works in
//! two visible steps:
//!
//! 1. [`Executor::probe`] looks every keyed cell up in the
//!    [`PayloadCache`] on the calling thread. Hits settle at once;
//!    [`Probed::missed`] names the cells that will have to simulate, so
//!    a caller can prepare what only a cold pass needs (a shared
//!    reference run) before anything is scheduled.
//! 2. [`Probed::run`] simulates the misses on the
//!    [worker pool](crate::runner::parallel_map), one attempt each,
//!    under the [`RunnerConfig`]'s fault plan. Each cell is saved to
//!    the cache from its worker thread the moment it settles, then the
//!    `on_settled` notification fires. A process killed mid-sweep loses
//!    at most the cells still in flight: a resume finds the rest in the
//!    cache.
//!
//! Results come back in input order whatever the completion order, with
//! the [`CacheRunSummary`] of what was answered and what ran. Cache
//! write failures are swallowed: the cache accelerates, it may not fail
//! the sweep that computed the payload. What to do with a failed cell
//! (quarantine it, skip it, panic) stays with the caller.
//!
//! A sweep that should survive a restart brackets its pass with a
//! [`Checkpoint`]: [`Checkpoint::begin`] journals its `start`, and
//! [`Checkpoint::end`] its `end` once every cell settled cleanly.

use crate::cache::{CacheRunSummary, CellKey};
use crate::journal::SweepJournal;
use crate::runner::{panic_message, parallel_map, RunnerConfig, SweepError};
use sim_core::fault::{FaultAction, FaultSite};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A keyed payload store the executor reads through: [`crate::RunCache`]
/// for experiment results, the `redteam` verdict store for verdicts.
pub trait PayloadCache<R>: Sync {
    /// The payload stored under `key`, if a valid entry exists.
    fn lookup(&self, key: &CellKey) -> Option<R>;
    /// Persists `payload` under `key`. The executor swallows the error;
    /// `stored` counts the saves that landed.
    fn save(&self, key: &CellKey, payload: &R) -> std::io::Result<()>;
}

/// How a cell settled, as reported to `on_settled`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Answered by the cache.
    Hit,
    /// Simulated in this pass (or quarantined trying).
    Ran,
}

/// One sweep's journal entry: its identity, and whether the journal
/// already showed it ended when this pass began.
#[derive(Debug)]
pub struct Checkpoint<'a> {
    journal: &'a SweepJournal,
    hash: String,
    ended: bool,
}

impl<'a> Checkpoint<'a> {
    /// Opens the checkpoint for the sweep whose canonical spec text is
    /// `spec_json` (`spec.to_json().render()`, the text
    /// [`SweepJournal::sweep_hash`] hashes): replays the journal and, if it
    /// has never seen this sweep, records its `start`.
    pub fn begin(journal: &'a SweepJournal, spec_json: &str, cells: usize) -> Checkpoint<'a> {
        let hash = SweepJournal::spec_json_hash(spec_json);
        let seen = journal.load().unwrap_or_default().progress(&hash).map(|p| p.ended);
        if seen.is_none() {
            let _ = journal.record_start(&hash, spec_json, cells as u64);
        }
        Checkpoint { journal, hash, ended: seen == Some(true) }
    }

    /// Closes the sweep's journal entry. Call once every cell of the
    /// sweep settled without failure; a pass with quarantined cells
    /// leaves the entry open so a resume re-runs them. A re-run of a
    /// sweep the journal already shows ended appends nothing.
    pub fn end(&self) {
        if !self.ended {
            let _ = self.journal.record_end(&self.hash);
        }
    }
}

/// The cell executor (see the module docs): an optional cache to read
/// through, and the runner config.
pub struct Executor<'a, R> {
    /// Payload cache; `None` simulates every cell and persists nothing.
    pub cache: Option<&'a dyn PayloadCache<R>>,
    /// Fault plan for the cells that simulate.
    pub runner: &'a RunnerConfig,
}

impl<'a, R> Executor<'a, R> {
    /// Step one: answers every keyed cell the cache holds, on the calling
    /// thread, firing `on_settled(index, outcome, Hit)` for each. Keyless
    /// cells are uncacheable: they always run and are never saved.
    pub fn probe<C>(
        &self,
        cells: Vec<(C, Option<CellKey>)>,
        mut on_settled: impl FnMut(usize, &Result<R, SweepError>, Source),
    ) -> Probed<'_, 'a, C, R> {
        let mut summary = CacheRunSummary { cells: cells.len(), ..Default::default() };
        let mut slots = Vec::with_capacity(cells.len());
        let mut pending = Vec::new();
        for (index, (cell, key)) in cells.into_iter().enumerate() {
            let hit = match (&key, self.cache) {
                (Some(key), Some(cache)) => cache.lookup(key),
                _ => None,
            };
            let Some(payload) = hit else {
                match key {
                    Some(_) => summary.misses += 1,
                    None => summary.uncacheable += 1,
                }
                slots.push(None);
                pending.push((index, cell, key));
                continue;
            };
            summary.hits += 1;
            let outcome = Ok(payload);
            on_settled(index, &outcome, Source::Hit);
            slots.push(Some(outcome));
        }
        Probed { exec: self, slots, pending, summary }
    }
}

/// A probed sweep: hits already settled, misses waiting for
/// [`Probed::run`].
pub struct Probed<'e, 'a, C, R> {
    exec: &'e Executor<'a, R>,
    slots: Vec<Option<Result<R, SweepError>>>,
    pending: Vec<(usize, C, Option<CellKey>)>,
    summary: CacheRunSummary,
}

impl<C, R> Probed<'_, '_, C, R> {
    /// The cells the cache could not answer — what [`Probed::run`] will
    /// simulate, in input order.
    pub fn missed(&self) -> impl ExactSizeIterator<Item = &C> {
        self.pending.iter().map(|(_, cell, _)| cell)
    }

    /// Step two: simulates the missed cells in parallel and returns every
    /// cell's outcome in input order plus the pass's summary. `run`
    /// produces a cell's payload and runs once per cell (a panic
    /// quarantines the cell); `label` names a failed cell in its
    /// [`SweepError`].
    /// `on_settled(index, outcome, Ran)` fires from the worker thread
    /// after the cell is saved. An all-hit sweep spawns no thread.
    pub fn run(
        self,
        label: impl Fn(&C) -> String + Sync,
        run: impl Fn(C) -> R + Sync,
        on_settled: impl Fn(usize, &Result<R, SweepError>, Source) + Sync,
    ) -> (Vec<Result<R, SweepError>>, CacheRunSummary)
    where
        C: Clone + Send,
        R: Send,
    {
        let Probed { exec, mut slots, pending, mut summary } = self;
        let stored = AtomicUsize::new(0);
        let indices: Vec<usize> = pending.iter().map(|(index, ..)| *index).collect();
        let jobs: Vec<_> = pending.into_iter().enumerate().collect();
        let outcomes = parallel_map(jobs, |(position, (index, cell, key))| {
            // The fault plan counts simulated cells; reports count
            // expansion slots.
            let faults = exec.runner.faults.as_ref();
            let injected = faults.and_then(|f| f.check_indexed(FaultSite::JobRun, position as u64))
                == Some(FaultAction::Panic);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if injected {
                    panic!("injected fault: job panic");
                }
                run(cell.clone())
            }))
            .map_err(|p| SweepError {
                index,
                cell: label(&cell),
                message: panic_message(p),
            });
            if let (Ok(payload), Some(cache), Some(key)) = (&outcome, exec.cache, &key) {
                if cache.save(key, payload).is_ok() {
                    stored.fetch_add(1, Ordering::Relaxed);
                }
            }
            on_settled(index, &outcome, Source::Ran);
            outcome
        });
        for (index, outcome) in indices.into_iter().zip(outcomes) {
            // The outer error is a panic outside the cell's run (a cache
            // impl or the observer): charge it to the cell.
            slots[index] = Some(outcome.unwrap_or_else(|e| Err(SweepError { index, ..e })));
        }
        summary.stored = stored.into_inner();
        (slots.into_iter().map(|s| s.expect("every cell settled")).collect(), summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;
    use sim_core::cache::{content_key, DiskStore};
    use sim_core::fault::FaultPlan;
    use std::sync::Mutex;

    /// A toy payload cache: `u64`s in a [`DiskStore`], so no test here
    /// simulates anything.
    struct Toy(DiskStore);

    impl PayloadCache<u64> for Toy {
        fn lookup(&self, key: &CellKey) -> Option<u64> {
            self.0.get(&key.key)?.parse().ok()
        }
        fn save(&self, key: &CellKey, payload: &u64) -> std::io::Result<()> {
            self.0.put(&key.key, &payload.to_string())
        }
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dapper-exec-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn toy(name: &str) -> Toy {
        Toy(DiskStore::open(scratch(name)).expect("open store"))
    }

    fn key(cell: u64) -> CellKey {
        let descriptor = format!("toy-{cell}");
        CellKey { key: content_key(descriptor.as_bytes()), descriptor }
    }

    fn keyed(cells: impl IntoIterator<Item = u64>) -> Vec<(u64, Option<CellKey>)> {
        cells.into_iter().map(|c| (c, Some(key(c)))).collect()
    }

    fn label(cell: &u64) -> String {
        format!("cell-{cell}")
    }

    fn square(cell: u64) -> u64 {
        cell * cell
    }

    fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    fn sweep() -> SweepSpec {
        let mut spec = SweepSpec::new("exec-test");
        spec.workloads = vec!["mcf_like".to_string()];
        spec.trackers = vec!["none".to_string()];
        spec
    }

    #[test]
    fn results_keep_input_order_under_shuffled_completion() {
        let runner = RunnerConfig::default();
        let exec = Executor { cache: None, runner: &runner };
        let order = Mutex::new(Vec::new());
        // Early cells take longest, so completion order is not input order
        // on any host with two workers.
        let slow_first = |cell: u64| {
            std::thread::sleep(std::time::Duration::from_millis((16 - cell) % 4));
            cell * cell
        };
        let (outcomes, summary) =
            exec.probe(keyed(0..16), |_, _, _| {})
                .run(label, slow_first, |i, _, _| order.lock().unwrap().push(i));
        let values: Vec<u64> = outcomes.into_iter().map(|o| o.expect("no cell fails")).collect();
        assert_eq!(values, (0..16).map(square).collect::<Vec<_>>());
        assert_eq!((summary.cells, summary.misses, summary.stored), (16, 16, 0));
        let mut seen = order.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..16).collect::<Vec<_>>(), "every cell settles exactly once");
    }

    /// The kind of each record in `journal`'s file, in file order.
    fn journal_records(journal: &SweepJournal) -> Vec<String> {
        let text = std::fs::read_to_string(journal.path()).expect("read journal");
        text.lines().map(|line| line.split(' ').nth(2).expect("record kind").to_string()).collect()
    }

    #[test]
    fn cells_are_counted_and_settle_once_with_their_source() {
        let cache = toy("counts");
        let journal = SweepJournal::in_cache_dir(cache.0.root()).expect("open journal");
        let spec = sweep();
        let spec_json = spec.to_json().render();
        // An interrupted sweep: its start is journaled and cells 0 and 1
        // were saved before the kill; 2 and 3 were not, and 4 has no key.
        journal.record_start(&SweepJournal::sweep_hash(&spec), &spec_json, 5).unwrap();
        cache.save(&key(0), &0).unwrap();
        cache.save(&key(1), &1).unwrap();
        let checkpoint = Checkpoint::begin(&journal, &spec_json, 5);
        let runner = RunnerConfig::default();
        let exec = Executor { cache: Some(&cache), runner: &runner };
        let mut cells = keyed(0..4);
        cells.push((4, None));
        let settled = Mutex::new(Vec::new());
        let on_settled = |i: usize, outcome: &Result<u64, SweepError>, source: Source| {
            settled.lock().unwrap().push((i, *outcome.as_ref().expect("no cell fails"), source));
        };
        let probed = exec.probe(cells, on_settled);
        assert_eq!(settled.lock().unwrap().len(), 2, "hits settle before anything runs");
        // Only the remainder executes: every cell the cache lacks.
        assert_eq!(probed.missed().copied().collect::<Vec<_>>(), [2, 3, 4]);
        let (outcomes, summary) = probed.run(label, square, on_settled);
        assert_eq!(
            summary,
            CacheRunSummary { cells: 5, hits: 2, misses: 2, uncacheable: 1, stored: 2 }
        );
        let values: Vec<u64> = outcomes.into_iter().map(Result::unwrap).collect();
        assert_eq!(values, [0, 1, 4, 9, 16], "the same outcomes an uninterrupted pass returns");
        let mut settled = settled.into_inner().unwrap();
        settled.sort_unstable_by_key(|(i, ..)| *i);
        assert_eq!(
            settled,
            [
                (0, 0, Source::Hit),
                (1, 1, Source::Hit),
                (2, 4, Source::Ran),
                (3, 9, Source::Ran),
                (4, 16, Source::Ran)
            ]
        );
        assert_eq!(cache.lookup(&key(3)), Some(9), "misses are saved");
        assert_eq!(journal_records(&journal), ["start"], "no cell is journaled");
        checkpoint.end();
        assert_eq!(journal_records(&journal), ["start", "end"]);
    }

    #[test]
    fn a_failed_save_is_never_journaled() {
        let cache = toy("write-fault");
        let journal = SweepJournal::in_cache_dir(cache.0.root()).expect("open journal");
        let spec_json = sweep().to_json().render();
        // The pass journals its start, and is killed before its end.
        Checkpoint::begin(&journal, &spec_json, 6);
        cache.0.arm_faults(FaultPlan::new(71).fail_cache_write_nth(3).arm());
        let runner = RunnerConfig::default();
        let exec = Executor { cache: Some(&cache), runner: &runner };
        let (outcomes, summary) =
            exec.probe(keyed(0..6), |_, _, _| {}).run(label, square, |_, _, _| {});
        assert!(outcomes.iter().all(Result::is_ok), "a lost write never fails the cell");
        assert_eq!(summary.stored, 5);
        let stored: Vec<u64> = (0..6).filter(|&c| cache.lookup(&key(c)).is_some()).collect();
        assert_eq!(stored.len(), 5, "exactly the faulted write is missing");
        assert_eq!(journal_records(&journal), ["start"], "no cell is journaled");
        // A resume executes exactly the cell whose save was lost, and
        // returns the same outcomes.
        let checkpoint = Checkpoint::begin(&journal, &spec_json, 6);
        let probed = exec.probe(keyed(0..6), |_, _, _| {});
        let missed: Vec<u64> = probed.missed().copied().collect();
        assert_eq!(missed, (0..6).filter(|c| !stored.contains(c)).collect::<Vec<_>>());
        let (resumed, summary) = probed.run(label, square, |_, _, _| {});
        assert_eq!((summary.hits, summary.misses), (5, 1));
        let values: Vec<u64> = resumed.into_iter().map(Result::unwrap).collect();
        assert_eq!(values, (0..6).map(square).collect::<Vec<_>>());
        checkpoint.end();
        assert_eq!(journal_records(&journal), ["start", "end"]);
    }

    #[test]
    fn a_failing_cell_leaves_every_other_settled_cell_in_the_store() {
        let cache = toy("panic");
        cache.save(&key(0), &0).unwrap();
        // The fault plan counts simulated cells: with cell 0 a hit,
        // position 1 is cell 2. The error reports the input index.
        let faults = FaultPlan::new(73).panic_job_always(1).arm();
        let runner = RunnerConfig { faults: Some(faults.clone()) };
        let exec = Executor { cache: Some(&cache), runner: &runner };
        let explode = |cell: u64| if cell == 4 { panic!("cell 4 exploded") } else { cell * cell };
        let (outcomes, summary) = quiet_panics(|| {
            exec.probe(keyed(0..6), |_, _, _| {}).run(label, explode, |_, _, _| {})
        });
        let failed: Vec<&SweepError> = outcomes.iter().filter_map(|o| o.as_ref().err()).collect();
        assert_eq!(failed.len(), 2);
        assert_eq!((failed[0].index, failed[0].cell.as_str()), (2, "cell-2"));
        assert_eq!(faults.fired_total(), 1, "a failed cell runs once");
        assert!(failed[0].message.contains("injected fault"), "{}", failed[0].message);
        assert_eq!((failed[1].index, failed[1].message.as_str()), (4, "cell 4 exploded"));
        assert_eq!((summary.hits, summary.misses, summary.stored), (1, 5, 3));
        for cell in [1, 3, 5] {
            assert_eq!(cache.lookup(&key(cell)), Some(cell * cell), "cell {cell} was checkpointed");
        }
        for cell in [2, 4] {
            assert_eq!(cache.lookup(&key(cell)), None, "failures are never cached");
        }
    }
}
