//! campaignd — campaign-as-a-service over the content-addressed run
//! cache.
//!
//! A long-running job-queue server accepts declarative sweep submissions
//! ([`sim::spec::SweepSpec`] cells) from many concurrent clients over a
//! unix socket, schedules cold cells on the panic-safe parallel worker
//! pool, answers warm cells from the [`sim::cache::RunCache`] without
//! simulation, and streams progress/completion events back. The
//! `campaignctl` bin is the bundled client.
//!
//! # Protocol
//!
//! Line-delimited JSON (via [`sim_core::json`]), one request object per
//! line, answered by one response object per line — except a
//! `submit`-and-wait, which streams `{"event":"progress",...}` lines
//! before the final response. Every final response carries `"ok"`
//! (`true`/`false`); errors carry `"error"`.
//!
//! | request | response |
//! |---|---|
//! | `{"cmd":"ping"}` | `{"ok":true,"pong":true}` |
//! | `{"cmd":"submit","spec":{...},"wait":true}` | progress events, then `{"ok":true,"job":N,"cells":C,"hits":H,"executed":X,"shared":S,"report":{...}}` |
//! | `{"cmd":"submit","spec":{...}}` | `{"ok":true,"job":N,"cells":C}` (job runs in the background) |
//! | `{"cmd":"status","job":N}` | `{"ok":true,"job":N,"state":"running"\|"done","done":D,"cells":C}` |
//! | `{"cmd":"wait","job":N}` | blocks, then the completion line `submit`-and-wait ends with, byte for byte |
//! | `{"cmd":"lookup","spec":{...}}` (a sweep spec that expands to exactly one cell) | `{"ok":true,"cached":bool,"result":row\|null}` — never simulates |
//! | `{"cmd":"stats"}` | `{"ok":true,"executed":X,"jobs":J,...,"cache":{"hits":H,"misses":M,"corrupt":C,"io_errors":E}\|null}` |
//! | `{"cmd":"shutdown"}` | `{"ok":true,"stopping":true}`, then the server drains |
//!
//! `submit` and `lookup` serve plain sweep cells only: a spec with an
//! `[attacker]` or `[profile]` section is an error naming the section
//! (those run through `spec_run`), and nothing is scheduled for it.
//!
//! # Progress stream
//!
//! A `submit`-and-wait runs its job on the connection thread that
//! received it, and the job writes its own progress: every update that
//! moves `done` (the claim pass, then each settled cell, sent from
//! whichever executor worker settled it) writes one line carrying the new
//! `done`, unless a larger `done` was written first. The writes share one
//! lock, the submit's own, so lines never interleave and strictly
//! increase, never past `cells`, and none follows the final response; no
//! write happens under the server's table lock, so a slow client never
//! holds it. Cells the table already held are one update however many
//! they are, so a warm submit streams exactly one line, with
//! `done == cells`.
//!
//! A client that vanishes mid-stream wedges nothing: the first write
//! that fails severs it, no further line is written, and the job runs to
//! completion (its cells still reach the table, cache and journal);
//! `wait` from another connection returns the report. Every worker of
//! the job waits behind a progress write, so a client that stays
//! connected but stops reading must not hold it up either: once its
//! socket's send buffer is full, a write that cannot finish within one
//! second severs it the same way. The job, every submission waiting on
//! its cells, and a draining shutdown then go on without it.
//!
//! Background submits (`"wait": false`) and journal resumes run on a
//! detached thread and stream nothing; `status` and `wait` observe any
//! job through the server's table (below).
//!
//! # Completion
//!
//! The completion response counts the job's cells three ways, which add
//! up to `cells`: `hits`, the cells it answered from the disk cache;
//! `executed`, the cells it simulated (or quarantined trying); and
//! `shared`, the cells another submission held or was running. A job a
//! restarted server resumed from the journal is no different: the cells
//! its interrupted run finished are `hits`, and `executed` is the
//! remainder.
//!
//! A job renders its completion response once, as it finishes: one line,
//! written straight from its settled cells in expansion order by
//! [`sim::spec::write_report`] (no report tree, no copy of a result or of
//! the spec), with the spec's canonical text rendered once for both the
//! journal's hash and the report. A finished job keeps that line as bytes,
//! shared (`Arc<str>`): the waiting submit and every later `wait`, from
//! any connection, write the same bytes, with no copy and no merge.
//!
//! Everything the server knows about cells and jobs lives in one table
//! under one lock: the single-flight cell states, one entry per job (its
//! cell count, `done`, and the completion line once set), the next job
//! id, and the count of active jobs. One condition variable is notified
//! whenever a cell completes or a job finishes; a submission sharing a
//! cell, `wait`, and a draining shutdown each wait on it for their own
//! condition. A finishing job sets its line and leaves `active` in the
//! same critical section, so a job leaves `active` the moment its line is
//! published: `stats` sent after a `wait` returned never counts it. The
//! table keeps every finished job, so each costs the server its line
//! (about 4.5 KB for an 18-cell sweep) for the server's lifetime.
//!
//! # Single-flight
//!
//! Every cell canonicalizes to its [`sim::cache::CellKey`]. A job is
//! registered and claims its cells in one critical section of the table:
//! the first submission to claim a key owns it and simulates, every other
//! submission — concurrent or later — waits on the same entry and shares
//! the owner's result, and a job counted active already holds its claims.
//! The `executed` counter counts actual simulations, so two clients
//! submitting the same sweep concurrently drive it up by the number of
//! *unique* cells, not twice that. Completed cells also persist to the
//! disk cache (when one is configured), so a restarted server stays warm;
//! failed cells are memoized in memory for the server's lifetime but never
//! written to disk, and anonymous custom attacks (no canonical key) always
//! run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sim::cache::{CellKey, KeyedCell, RunCache};
use sim::exec::{Checkpoint, Executor, PayloadCache, Source};
use sim::experiment::ExperimentResult;
use sim::journal::SweepJournal;
use sim::runner::{cell_label, RunnerConfig, SweepError};
use sim::spec::{result_to_json, write_report, SweepSpec};
use sim::Experiment;
use sim_core::fault::{FaultAction, FaultSite, Injector};
use sim_core::json::{Json, JsonCodec};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// One simulated (or failed) cell, shared between every submission that
/// canonicalizes to the same key. A failure keeps the slot index of the
/// submission that ran it; every report re-indexes it.
type CellOutcome = Result<ExperimentResult, SweepError>;

enum CellState {
    /// Claimed by a submission that is simulating it right now.
    InFlight,
    /// Finished; every waiter shares this outcome.
    Done(Arc<CellOutcome>),
}

/// A submitted sweep's lifecycle, observable via `status`/`wait`.
struct JobEntry {
    cells: usize,
    /// Cells settled so far.
    done: usize,
    /// The completion response line, newline included, set exactly once:
    /// rendered when the job finished, and written as these bytes to the
    /// waiting submit and to every `wait`.
    line: Option<Arc<str>>,
}

/// Everything the server knows, under one lock. `Inner::changed` is
/// notified whenever a cell completes or a job finishes; every waiter
/// (a submission sharing a cell, `wait`, a draining [`Server::serve`])
/// waits on it with its own predicate.
struct Table {
    /// Single-flight cell states by [`CellKey`].
    cells: HashMap<String, CellState>,
    jobs: HashMap<u64, JobEntry>,
    next_job: u64,
    /// Jobs registered but not yet finished: what a graceful drain waits
    /// on. A job leaves it in the critical section that publishes its
    /// completion line.
    active: usize,
}

impl Table {
    fn outcome(&self, key: &str) -> Option<&Arc<CellOutcome>> {
        match self.cells.get(key)? {
            CellState::Done(outcome) => Some(outcome),
            CellState::InFlight => None,
        }
    }

    fn job(&mut self, id: u64) -> &mut JobEntry {
        self.jobs.get_mut(&id).expect("jobs are never removed")
    }
}

/// Where a job's progress goes: each new `done` total, as the job
/// publishes it. A waiting submit writes it to its client as a
/// [`ProgressEvent`] line; background and resumed jobs drop it.
type ProgressSink<'a> = dyn Fn(usize) + Sync + 'a;

struct Inner {
    socket: PathBuf,
    cache: Option<RunCache>,
    /// Checkpoint journal, opened alongside the cache dir: each sweep's
    /// `start` and `end` are logged, so a restarted server brings back an
    /// interrupted sweep and re-executes only what the cache lacks.
    journal: Option<SweepJournal>,
    /// Armed fault plan (chaos tests only).
    faults: Option<Arc<Injector>>,
    table: Mutex<Table>,
    changed: Condvar,
    executed: AtomicU64,
    /// Sweeps resurrected from the journal at startup.
    resumed_sweeps: AtomicU64,
    shutdown: AtomicBool,
    /// Set with `shutdown`: new submissions are rejected while in-flight
    /// jobs drain.
    draining: AtomicBool,
}

impl Inner {
    fn table(&self) -> MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until `blocked` no longer holds of the table.
    fn wait_while(&self, blocked: impl FnMut(&mut Table) -> bool) -> MutexGuard<'_, Table> {
        self.changed.wait_while(self.table(), blocked).unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a job and claims its cells in one critical section. The
    /// job is visible to `status`/`wait` and counted active until whoever
    /// drives it finishes it. Every cell no submission holds becomes its
    /// own, so two concurrent submissions of the same sweep partition it
    /// instead of both running it, and a job counted active already holds
    /// its claims. Returns the job's id and how each cell will be satisfied.
    fn register_job(&self, cells: &[KeyedCell]) -> (u64, Vec<Slot>) {
        let mut table = self.table();
        let slots = cells
            .iter()
            .map(|(_, key)| match key {
                None => Slot::Owned, // uncacheable: always simulate
                Some(k) => match table.cells.get(&k.key) {
                    Some(CellState::Done(outcome)) => Slot::Ready(outcome.clone()),
                    Some(CellState::InFlight) => Slot::Waiting,
                    None => {
                        table.cells.insert(k.key.clone(), CellState::InFlight);
                        Slot::Owned
                    }
                },
            })
            .collect();
        let id = table.next_job;
        table.next_job += 1;
        table.jobs.insert(id, JobEntry { cells: cells.len(), done: 0, line: None });
        table.active += 1;
        (id, slots)
    }

    /// Runs `update` on the table and publishes the cells it reports
    /// settled as one update of job `id`, in the same critical section;
    /// the new total goes to `sink` once the table is unlocked, so a slow
    /// client never holds it. No update when `update` settles nothing.
    fn settle(&self, id: u64, sink: &ProgressSink, update: impl FnOnce(&mut Table) -> usize) {
        let (n, done) = {
            let mut table = self.table();
            let n = update(&mut table);
            let job = table.job(id);
            job.done += n;
            (n, job.done)
        };
        if n > 0 {
            sink(done);
        }
    }

    /// Publishes job `id`'s completion line and retires it in one critical
    /// section, so whoever sees the line also sees the job inactive.
    fn finish(&self, id: u64, line: Arc<str>) {
        let mut table = self.table();
        table.job(id).line = Some(line);
        table.active -= 1;
        self.changed.notify_all();
    }

    /// Blocks until job `id` finishes and returns its completion line.
    fn wait_job(&self, id: u64) -> Arc<str> {
        let mut table = self.wait_while(|table| table.job(id).line.is_none());
        table.job(id).line.clone().expect("waited until the job finished")
    }

    /// Blocks until another submission finishes the cell. Sound because
    /// an owner always completes every cell it claims: per-cell panics
    /// are caught by the worker pool and recorded as `Done(Err(..))`.
    fn wait_for_cell(&self, key: &str) -> Arc<CellOutcome> {
        let table = self.wait_while(|table| table.outcome(key).is_none());
        table.outcome(key).expect("waited until the cell finished").clone()
    }
}

/// How each cell of a submission will be satisfied.
enum Slot {
    /// Another submission already finished it.
    Ready(Arc<CellOutcome>),
    /// This submission claimed it; the executor probes the cache, then
    /// simulates.
    Owned,
    /// Another submission is simulating it; wait and share.
    Waiting,
}

/// Runs registered job `id`, whose cells were claimed as `slots`, to
/// completion and publishes its completion response line, returning it;
/// each progress update goes to `sink`. Together with
/// [`Inner::register_job`]'s claims this is the single-flight core: each
/// unique cell key is simulated by exactly one submission. Owned cells go
/// through the shared [executor](sim::exec).
fn run_job(
    inner: &Inner,
    id: u64,
    mut slots: Vec<Slot>,
    spec: &SweepSpec,
    cells: Vec<KeyedCell>,
    sink: &ProgressSink,
) -> Arc<str> {
    let (experiments, keys): (Vec<Experiment>, Vec<Option<CellKey>>) = cells.into_iter().unzip();
    // The spec's canonical text, rendered once: the journal hashes it and
    // the report embeds it.
    let spec_json = spec.to_json().render();
    let checkpoint = inner
        .journal
        .as_ref()
        .map(|journal| Checkpoint::begin(journal, &spec_json, experiments.len()));
    // Every cell the table already held is one progress update, not one
    // per cell.
    let ready = slots.iter().filter(|slot| matches!(slot, Slot::Ready(_))).count();
    inner.settle(id, sink, |_| ready);
    let shared = slots.iter().filter(|slot| !matches!(slot, Slot::Owned)).count();
    let mut owned = Vec::new();
    let mut owned_cells = Vec::new();
    for (i, experiment) in experiments.into_iter().enumerate() {
        if matches!(slots[i], Slot::Owned) {
            owned.push(i);
            owned_cells.push((experiment, keys[i].clone()));
        }
    }
    let runner = RunnerConfig { faults: inner.faults.clone() };
    let exec = Executor {
        cache: inner.cache.as_ref().map(|cache| cache as &dyn PayloadCache<_>),
        runner: &runner,
    };
    // A settled cell — answered by the disk cache, or simulated and
    // saved — enters the single-flight table at once, so waiters and
    // progress probes see it immediately.
    let on_settled = |j: usize, outcome: &CellOutcome, _: Source| {
        inner.settle(id, sink, |table| {
            if let Some(key) = &keys[owned[j]] {
                let done = CellState::Done(Arc::new(outcome.clone()));
                table.cells.insert(key.key.clone(), done);
                inner.changed.notify_all();
            }
            1
        });
    };
    let probed = exec.probe(owned_cells, on_settled);
    let executed = probed.missed().len();
    inner.executed.fetch_add(executed as u64, Ordering::Relaxed);
    let (outcomes, summary) = probed.run(cell_label, Experiment::run, on_settled);
    for (&i, outcome) in owned.iter().zip(outcomes) {
        slots[i] = Slot::Ready(Arc::new(outcome));
    }
    // Collect the cells other submissions are simulating.
    for (i, slot) in slots.iter_mut().enumerate() {
        if matches!(slot, Slot::Waiting) {
            let key = keys[i].as_ref().expect("only keyed cells wait");
            *slot = Slot::Ready(inner.wait_for_cell(&key.key));
            inner.settle(id, sink, |_| 1);
        }
    }
    // The report lists the cells in expansion order: identical
    // submissions yield byte-identical reports regardless of who simulated
    // what.
    let outcomes = slots.iter().map(|slot| match slot {
        Slot::Ready(outcome) => outcome.as_ref(),
        _ => unreachable!("every slot resolves"),
    });
    let failures: Vec<SweepError> = outcomes
        .clone()
        .enumerate()
        .filter_map(|(index, outcome)| {
            Some(SweepError { index, ..outcome.as_ref().err()?.clone() })
        })
        .collect();
    // A clean pass closes the sweep's journal entry; a pass with
    // quarantined cells leaves it open so a resubmit (or a restart with
    // --resume) re-runs only the failures.
    if let (Some(checkpoint), true) = (&checkpoint, failures.is_empty()) {
        checkpoint.end();
    }
    // A result row renders to about 250 bytes: the line is written into
    // one buffer, grown at most rarely.
    let mut line = String::with_capacity(256 + spec_json.len() + 320 * slots.len());
    line.push_str("{\"ok\":true");
    let counts = [
        ("job", id),
        ("cells", slots.len() as u64),
        ("hits", summary.hits as u64),
        ("executed", executed as u64),
        ("shared", shared as u64),
    ];
    for (key, n) in counts {
        line.push_str(",\"");
        line.push_str(key);
        line.push_str("\":");
        Json::count(n).render_into(&mut line);
    }
    line.push_str(",\"report\":");
    let results = outcomes.filter_map(|outcome| outcome.as_ref().ok());
    write_report(&mut line, &spec.name, &spec_json, results, &failures);
    line.push_str("}\n");
    let line: Arc<str> = Arc::from(line);
    inner.finish(id, line.clone());
    line
}

fn err_json(message: impl std::fmt::Display) -> Json {
    Json::obj([("ok", Json::Bool(false)), ("error", Json::str(message.to_string()))])
}

fn ok_json(extra: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut pairs = vec![("ok".to_string(), Json::Bool(true))];
    pairs.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(pairs)
}

/// One response: built as a tree, or a finished job's completion line,
/// already rendered.
enum Reply {
    Tree(Json),
    Line(Arc<str>),
}

fn write_line(stream: &mut UnixStream, msg: &Json) -> std::io::Result<()> {
    let mut line = msg.render();
    line.push('\n');
    stream.write_all(line.as_bytes())
}

fn write_reply(stream: &mut UnixStream, reply: &Reply) -> std::io::Result<()> {
    match reply {
        Reply::Tree(msg) => write_line(stream, msg),
        Reply::Line(line) => stream.write_all(line.as_bytes()),
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix-socket path to listen on. The server owns the path: a stale
    /// file from a previous run is replaced on bind.
    pub socket: PathBuf,
    /// Run-cache directory; `None` serves purely from the in-memory
    /// cell table (single-flight still applies, nothing persists). A
    /// cache dir also carries the checkpoint journal
    /// ([`sim::journal::SweepJournal::FILE_NAME`]).
    pub cache_dir: Option<PathBuf>,
    /// Replay the journal on startup and re-run every unfinished sweep
    /// as a background job — completed cells answer from the cache, only
    /// the interrupted remainder re-executes.
    pub resume: bool,
    /// How long `shutdown` waits for in-flight jobs before exiting
    /// anyway (`None` = wait until they all finish).
    pub drain_timeout: Option<Duration>,
    /// Armed fault plan (chaos tests only; `None` costs one branch).
    pub faults: Option<Arc<Injector>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            socket: PathBuf::from("/tmp/campaignd.sock"),
            cache_dir: None,
            resume: false,
            drain_timeout: None,
            faults: None,
        }
    }
}

/// The campaign server: bind once, then [`Server::serve`] until a
/// `shutdown` request arrives.
pub struct Server {
    inner: Arc<Inner>,
    listener: UnixListener,
    drain_timeout: Option<Duration>,
}

impl Server {
    /// Binds the socket, opens the cache and journal, and (with
    /// `cfg.resume`) resurrects every unfinished journaled sweep as a
    /// background job.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        if cfg.socket.exists() {
            std::fs::remove_file(&cfg.socket)?;
        }
        let listener = UnixListener::bind(&cfg.socket)?;
        let cache = cfg.cache_dir.as_ref().map(RunCache::open).transpose()?;
        let journal = cfg.cache_dir.as_ref().map(SweepJournal::in_cache_dir).transpose()?;
        let inner = Arc::new(Inner {
            socket: cfg.socket,
            cache,
            journal,
            faults: cfg.faults,
            table: Mutex::new(Table {
                cells: HashMap::new(),
                jobs: HashMap::new(),
                next_job: 1,
                active: 0,
            }),
            changed: Condvar::new(),
            executed: AtomicU64::new(0),
            resumed_sweeps: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
        });
        if cfg.resume {
            resume_unfinished(&inner);
        }
        Ok(Server { inner, listener, drain_timeout: cfg.drain_timeout })
    }

    /// The socket path being served.
    pub fn socket(&self) -> &Path {
        &self.inner.socket
    }

    /// Total simulations performed since startup — the single-flight
    /// witness: concurrent identical submissions move this by the number
    /// of unique cells.
    pub fn executed(&self) -> u64 {
        self.inner.executed.load(Ordering::Relaxed)
    }

    /// Sweeps resurrected from the journal at startup.
    pub fn resumed_sweeps(&self) -> u64 {
        self.inner.resumed_sweeps.load(Ordering::Relaxed)
    }

    /// Accepts connections (one thread each) until a `shutdown` request,
    /// then drains: in-flight jobs run to completion (bounded by the
    /// configured drain timeout) before the socket file is removed.
    pub fn serve(self) -> std::io::Result<()> {
        for stream in self.listener.incoming() {
            if self.inner.shutdown.load(Ordering::Relaxed) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let inner = self.inner.clone();
            std::thread::spawn(move || handle_connection(&inner, stream));
        }
        // Graceful drain: every accepted job still finishes (and lands in
        // the cache + journal) unless the timeout expires first — a
        // drained shutdown loses nothing, a timed-out one loses only
        // what the journal lets the next incarnation resume.
        let (inner, active) = (&self.inner, |table: &mut Table| table.active > 0);
        match self.drain_timeout {
            None => drop(inner.wait_while(active)),
            Some(timeout) => drop(inner.changed.wait_timeout_while(inner.table(), timeout, active)),
        }
        let _ = std::fs::remove_file(&self.inner.socket);
        Ok(())
    }
}

/// Replays the journal and re-submits every unfinished sweep as a
/// background job. Completed cells answer from the cache; only the
/// interrupted remainder re-executes (the chaos suite asserts the resumed
/// report is byte-identical to an uninterrupted run).
fn resume_unfinished(inner: &Arc<Inner>) {
    let Some(journal) = &inner.journal else { return };
    let Ok(state) = journal.load() else { return };
    for (_, progress) in state.unfinished() {
        let Some(spec_json) = &progress.spec_json else { continue };
        let Ok(spec) = SweepSpec::from_json_str(spec_json) else { continue };
        let Ok(cells) = spec.expand_keyed() else { continue };
        inner.resumed_sweeps.fetch_add(1, Ordering::Relaxed);
        spawn_background_job(inner, spec, cells);
    }
}

/// Creates a job and drives it on a detached thread, streaming nothing;
/// returns `(id, cells)`.
fn spawn_background_job(
    inner: &Arc<Inner>,
    spec: SweepSpec,
    cells: Vec<KeyedCell>,
) -> (u64, usize) {
    let (id, slots) = inner.register_job(&cells);
    let count = cells.len();
    let inner = inner.clone();
    std::thread::spawn(move || run_job(&inner, id, slots, &spec, cells, &|_| {}));
    (id, count)
}

/// Longest a waiting submit's progress write may block on a client that
/// is not reading (its socket's send buffer full) before the client is
/// severed. Every worker of the job waits behind that write, so without
/// a bound one stalled client would stall the job, every submission
/// waiting on its cells, and a draining shutdown.
const PROGRESS_WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Longest request line a connection may send, newline included. The
/// largest request the repo makes, a waiting submit of the pinned 18-cell
/// spec, is 239 bytes.
const MAX_REQUEST_LINE: usize = 1 << 20;

fn handle_connection(inner: &Arc<Inner>, mut stream: UnixStream) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut line = Vec::new();
    loop {
        line.clear();
        // Bounded, so a client that never sends a newline costs at most one
        // line of memory and then its own connection.
        match (&mut reader).take(MAX_REQUEST_LINE as u64 + 1).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if line.len() > MAX_REQUEST_LINE {
            let refusal = err_json(format!("request line exceeds {MAX_REQUEST_LINE} bytes"));
            let _ = write_line(&mut stream, &refusal);
            return;
        }
        // A line that is not UTF-8 is one bad request, like a line that
        // is not JSON: answered, and the connection goes on.
        let reply = match std::str::from_utf8(&line).map(str::trim) {
            Ok("") => continue,
            Ok(text) => match Json::parse(text) {
                Ok(request) => dispatch(inner, &request, &mut stream),
                Err(e) => Reply::Tree(err_json(format!("bad request: {e}"))),
            },
            Err(e) => Reply::Tree(err_json(format!("bad request: {e}"))),
        };
        if write_reply(&mut stream, &reply).is_err() {
            return;
        }
        if inner.shutdown.load(Ordering::Relaxed) {
            // Wake the acceptor so serve() can observe the flag.
            let _ = UnixStream::connect(&inner.socket);
            return;
        }
    }
}

/// Handles one request, returning its final response (a waiting submit
/// writes its progress lines to `stream` first).
fn dispatch(inner: &Arc<Inner>, request: &Json, stream: &mut UnixStream) -> Reply {
    let cmd = match request.get("cmd") {
        Some(Json::Str(cmd)) => cmd.as_str(),
        _ => return Reply::Tree(err_json("missing 'cmd'")),
    };
    Reply::Tree(match cmd {
        "ping" => ok_json([("pong", Json::Bool(true))]),
        "submit" => return submit(inner, request, stream),
        "status" => match requested_job(inner, request) {
            Ok(id) => {
                let mut table = inner.table();
                let job = table.job(id);
                let state = if job.line.is_some() { "done" } else { "running" };
                ok_json([
                    ("job", Json::count(id)),
                    ("state", Json::str(state)),
                    ("done", Json::count(job.done as u64)),
                    ("cells", Json::count(job.cells as u64)),
                ])
            }
            Err(e) => e,
        },
        "wait" => match requested_job(inner, request) {
            Ok(id) => return Reply::Line(inner.wait_job(id)),
            Err(e) => e,
        },
        "lookup" => lookup_cell(inner, request),
        "stats" => {
            let table = inner.table();
            ok_json([
                ("executed", Json::count(inner.executed.load(Ordering::Relaxed))),
                ("jobs", Json::count(table.jobs.len() as u64)),
                ("active", Json::count(table.active as u64)),
                ("resumed_sweeps", Json::count(inner.resumed_sweeps.load(Ordering::Relaxed))),
                ("draining", Json::Bool(inner.draining.load(Ordering::Relaxed))),
                ("cache", inner.cache.as_ref().map(RunCache::stats).encode()),
            ])
        }
        "shutdown" => {
            // Draining first: submissions racing the shutdown are
            // rejected instead of silently competing with the drain.
            inner.draining.store(true, Ordering::Relaxed);
            inner.shutdown.store(true, Ordering::Relaxed);
            ok_json([("stopping", Json::Bool(true))])
        }
        other => err_json(format!("unknown cmd '{other}'")),
    })
}

/// The job a `status` or `wait` request names, if the server has it.
fn requested_job(inner: &Inner, request: &Json) -> Result<u64, Json> {
    let id: u64 = request.field("job").map_err(err_json)?;
    if inner.table().jobs.contains_key(&id) {
        Ok(id)
    } else {
        Err(err_json(format!("unknown job {id}")))
    }
}

/// The sweep a request carries under `"spec"`, expanded: broken specs —
/// and specs whose cells this server cannot run — are rejected before
/// anything is scheduled, and the cell count is fixed.
fn requested_sweep(request: &Json) -> Result<(SweepSpec, Vec<KeyedCell>), Json> {
    let spec_json = request.get("spec").ok_or_else(|| err_json("missing 'spec'"))?;
    let spec = SweepSpec::from_json(spec_json).map_err(err_json)?;
    // `[attacker]` cells run the attacker pipeline and `[profile]` specs
    // the profile workflow (`redteam::run_spec`); only `spec_run` routes to those. Simulating
    // them as plain cells would answer with the wrong numbers.
    let unserved = [("attacker", spec.attacker.is_some()), ("profile", spec.profile.is_some())];
    if let Some((section, _)) = unserved.into_iter().find(|(_, set)| *set) {
        return Err(err_json(format!(
            "campaignd cannot serve a spec that sets [{section}]; run it with spec_run"
        )));
    }
    let cells = spec.expand_keyed().map_err(err_json)?;
    Ok((spec, cells))
}

/// Answers a cache lookup for a single cell — the same sweep spec
/// `submit` takes, which must expand to exactly one cell — and never
/// simulates.
fn lookup_cell(inner: &Inner, request: &Json) -> Json {
    let cells = match requested_sweep(request) {
        Ok((_, cells)) => cells,
        Err(e) => return e,
    };
    let [(_, key)] = cells.as_slice() else {
        let cells = cells.len();
        return err_json(format!("lookup takes a one-cell spec; this one has {cells} cells"));
    };
    let Some(key) = key else {
        return err_json("cell is uncacheable");
    };
    let settled = inner.table().outcome(&key.key).cloned();
    if let Some(Ok(result)) = settled.as_deref() {
        return ok_json([("cached", Json::Bool(true)), ("result", result_to_json(result))]);
    }
    if let Some(result) = inner.cache.as_ref().and_then(|c| c.lookup(key)) {
        return ok_json([("cached", Json::Bool(true)), ("result", result_to_json(&result))]);
    }
    ok_json([("cached", Json::Bool(false)), ("result", Json::Null)])
}

/// One `{"event":"progress",...}` line of a waiting submit: `done` of
/// `cells` sweep cells finished for job `job`. Public so dashboards (the
/// `redteam warroom` TUI) can build and parse the exact wire shape the
/// server streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressEvent {
    /// Server-assigned job id.
    pub job: u64,
    /// Cells completed so far.
    pub done: u64,
    /// Total cells in the job.
    pub cells: u64,
}

impl ProgressEvent {
    /// Serializes to the wire shape `submit` streams.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("event", Json::str("progress")),
            ("job", self.job.encode()),
            ("done", self.done.encode()),
            ("cells", self.cells.encode()),
        ])
    }

    /// Parses a streamed line; `None` when the object is not a progress
    /// event (e.g. the final completion response).
    pub fn from_json(j: &Json) -> Option<Self> {
        if j.field::<String>("event").ok()? != "progress" {
            return None;
        }
        let count = |key| j.field(key).ok();
        Some(Self { job: count("job")?, done: count("done")?, cells: count("cells")? })
    }

    /// Completion fraction in `[0, 1]` (1 for an empty job).
    pub fn fraction(&self) -> f64 {
        if self.cells == 0 {
            1.0
        } else {
            self.done as f64 / self.cells as f64
        }
    }
}

fn submit(inner: &Arc<Inner>, request: &Json, stream: &mut UnixStream) -> Reply {
    if inner.draining.load(Ordering::Relaxed) {
        return Reply::Tree(err_json("server is draining (shutdown in progress)"));
    }
    let (spec, cells) = match requested_sweep(request) {
        Ok(sweep) => sweep,
        Err(e) => return Reply::Tree(e),
    };
    let wait = matches!(request.get("wait"), Some(Json::Bool(true)));
    if !wait {
        let (job_id, cells) = spawn_background_job(inner, spec, cells);
        let queued = ok_json([("job", Json::count(job_id)), ("cells", Json::count(cells as u64))]);
        return Reply::Tree(queued);
    }
    let (id, slots) = inner.register_job(&cells);
    let count = cells.len() as u64;
    // Waiting submit: this thread drives the job, and the job writes its
    // progress lines itself, from whichever executor worker settled a
    // cell. The lock holds the client (`None` once severed) and the last
    // `done` written: lines never interleave, and one that lost the race
    // to a larger `done` is dropped, so the stream strictly increases.
    // A progress write that cannot finish within PROGRESS_WRITE_TIMEOUT
    // severs the client, so a client that stops reading stalls neither
    // this job's workers nor the submissions waiting on its cells.
    let _ = stream.set_write_timeout(Some(PROGRESS_WRITE_TIMEOUT));
    let client = Mutex::new((Some(&mut *stream), 0));
    let progress = |done: usize| {
        let mut client = client.lock().unwrap_or_else(PoisonError::into_inner);
        let (open, written) = &mut *client;
        let Some(stream) = open else { return };
        // Chaos hook, probed before every line (so before the first):
        // sever the client mid-stream. The job keeps running — the cell
        // table, cache and journal all still win — and a reconnecting
        // client shares its results.
        let cut = inner.faults.as_ref().and_then(|f| f.check(FaultSite::ClientStream))
            == Some(FaultAction::Disconnect);
        if !cut {
            if done <= *written {
                return;
            }
            *written = done;
            let event = ProgressEvent { job: id, done: done as u64, cells: count }.to_json();
            if write_line(stream, &event).is_ok() {
                return;
            }
        }
        // Cut, gone, or not reading: no further line goes out, and the
        // final response's write fails and ends the connection.
        let _ = stream.shutdown(std::net::Shutdown::Both);
        *open = None;
    };
    let line = run_job(inner, id, slots, &spec, cells, &progress);
    let _ = stream.set_write_timeout(None);
    Reply::Line(line)
}

/// A blocking line-protocol client (what `campaignctl` and the tests
/// speak).
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    /// Connects to a running server's socket.
    pub fn connect(path: impl AsRef<Path>) -> std::io::Result<Client> {
        let writer = UnixStream::connect(path)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Sends one request line.
    pub fn send(&mut self, request: &Json) -> std::io::Result<()> {
        let mut line = request.render();
        line.push('\n');
        self.writer.write_all(line.as_bytes())
    }

    /// Receives one response line.
    pub fn recv(&mut self) -> std::io::Result<Json> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            let text = line.trim();
            if text.is_empty() {
                continue;
            }
            return Json::parse(text).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad response: {e}"))
            });
        }
    }

    /// One request, one response.
    pub fn request(&mut self, request: &Json) -> std::io::Result<Json> {
        self.send(request)?;
        self.recv()
    }

    /// One request, streaming intermediate events (objects without an
    /// `"ok"` member) to `on_event`, returning the final response.
    pub fn request_streaming(
        &mut self,
        request: &Json,
        mut on_event: impl FnMut(&Json),
    ) -> std::io::Result<Json> {
        self.send(request)?;
        loop {
            let msg = self.recv()?;
            if msg.get("ok").is_some() {
                return Ok(msg);
            }
            on_event(&msg);
        }
    }
}

/// Builds a `submit` request for a sweep spec.
pub fn submit_request(spec: &SweepSpec, wait: bool) -> Json {
    Json::obj([("cmd", Json::str("submit")), ("spec", spec.to_json()), ("wait", Json::Bool(wait))])
}
