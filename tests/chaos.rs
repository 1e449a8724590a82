//! The chaos matrix: seeded fault campaigns across the recovery stack.
//!
//! Every test arms a deterministic [`sim_core::fault::FaultPlan`] against
//! one layer — cache payload corruption, cache IO errors, job panics,
//! campaignd client disconnects, kill-and-resume —
//! and asserts the headline invariant: the surviving run produces a
//! report **byte-identical** to an undisturbed one (or, for permanent
//! faults, a deterministic quarantine list), with exact executed-cell
//! accounting. Faults are injector-instance scoped, so the matrix runs
//! safely in parallel with the rest of the suite.

use sim::cache::RunCache;
use sim::journal::SweepJournal;
use sim::runner::RunnerConfig;
use sim::spec::SweepSpec;
use sim_core::fault::{FaultPlan, FaultSite};
use sim_core::json::Json;

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dapper-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Four unique cells, short window: real simulations, fast enough to
/// re-run several times per test.
fn chaos_spec() -> SweepSpec {
    let mut spec = SweepSpec::new("chaos");
    spec.workloads = vec!["mcf_like".to_string()];
    spec.trackers =
        vec!["none".to_string(), "para".to_string(), "hydra".to_string(), "comet".to_string()];
    spec.options.window_us = Some(20.0);
    spec.options.seed = Some(7);
    spec
}

fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

#[test]
fn corrupted_cache_entries_recompute_byte_identically() {
    let dir = scratch("corrupt");
    let spec = chaos_spec();
    let cache = RunCache::open(&dir).expect("open cache");
    let (cold, summary) = spec.run_cached(&cache).expect("cold run");
    assert_eq!((summary.hits, summary.misses), (0, 4));
    let cold_json = cold.to_json().render();

    // Bit-flip the first warm read, truncate the second: both damaged
    // entries must fail validation, evict, and recompute.
    let cache = RunCache::open(&dir).expect("reopen");
    let plan = FaultPlan::new(41).flip_cache_read_nth(1).truncate_cache_read_nth(2);
    cache.store().arm_faults(plan.arm());
    let (warm, summary) = spec.run_cached(&cache).expect("faulted warm run");
    assert_eq!((summary.hits, summary.misses), (2, 2), "exactly the damaged cells recompute");
    assert_eq!(cache.stats().corrupt, 2, "both damaged entries are counted");
    assert_eq!(warm.to_json().render(), cold_json, "recovered report is byte-identical");

    // The recomputed entries were re-stored: a clean pass is all hits.
    let cache = RunCache::open(&dir).expect("reopen clean");
    let (_, summary) = spec.run_cached(&cache).expect("clean pass");
    assert_eq!((summary.hits, summary.misses), (4, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_io_errors_degrade_to_recompute() {
    let dir = scratch("io-error");
    let spec = chaos_spec();

    // A write error on the cold run silently drops one entry (the cache
    // is an accelerator: losing a write must never fail the sweep).
    let cache = RunCache::open(&dir).expect("open cache");
    cache.store().arm_faults(FaultPlan::new(43).fail_cache_write_nth(1).arm());
    let (cold, summary) = spec.run_cached(&cache).expect("cold run under write faults");
    assert_eq!(summary.misses, 4);
    assert!(cold.failures.is_empty());
    assert_eq!(cache.stats().io_errors, 1, "the injected write error is counted");
    let cold_json = cold.to_json().render();

    // The dropped entry is a plain miss on the next pass — recomputed,
    // re-stored, report unflinching.
    let cache = RunCache::open(&dir).expect("reopen after lost write");
    let (warm, summary) = spec.run_cached(&cache).expect("warm run");
    assert_eq!((summary.hits, summary.misses), (3, 1), "exactly the lost write recomputes");
    assert_eq!(warm.to_json().render(), cold_json);

    // With the cache now complete, an injected *read* IO error degrades
    // exactly one hit to a recompute. The report never flinches.
    let cache = RunCache::open(&dir).expect("reopen for read faults");
    cache.store().arm_faults(FaultPlan::new(43).fail_cache_read_nth(1).arm());
    let (warm, summary) = spec.run_cached(&cache).expect("warm run under read faults");
    assert_eq!((summary.hits, summary.misses), (3, 1), "exactly the failed read recomputes");
    assert_eq!(cache.stats().io_errors, 1);
    assert_eq!(warm.to_json().render(), cold_json, "report is byte-identical throughout");

    let cache = RunCache::open(&dir).expect("reopen clean");
    let (_, summary) = spec.run_cached(&cache).expect("clean pass");
    assert_eq!((summary.hits, summary.misses), (4, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn permanent_job_panic_quarantines_deterministically() {
    let spec = chaos_spec();
    let run_once = || {
        let dir = scratch("quarantine");
        let cache = RunCache::open(&dir).expect("open cache");
        let faults = FaultPlan::new(53).panic_job_always(1).arm();
        let runner = RunnerConfig { faults: Some(faults.clone()) };
        let (report, _) =
            quiet_panics(|| spec.run_cached_with(&cache, None, &runner)).expect("faulted run");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(faults.fired(FaultSite::JobRun), 1, "the quarantined cell ran once");
        report
    };
    let (a, b) = (run_once(), run_once());
    assert_eq!(a.failures.len(), 1, "exactly the armed cell is quarantined");
    let f = &a.failures[0];
    assert_eq!(f.index, 1);
    let rendered = a.to_json();
    let Some(Json::Arr(failures)) = rendered.get("failures") else { panic!("no failures list") };
    assert!(failures[0].get("attempts").is_none(), "no attempt count: {}", failures[0].render());
    assert!(f.cell.contains("mcf_like") && f.cell.contains("PARA"), "{}", f.cell);
    assert!(f.message.contains("injected fault"), "{}", f.message);
    assert_eq!(
        a.to_json().render(),
        b.to_json().render(),
        "quarantine (and the surviving cells) is deterministic"
    );
    assert_eq!(a.results.len(), 3, "healthy neighbours complete");
}

#[test]
fn interrupted_sweep_resumes_byte_identically() {
    let spec = chaos_spec();
    // Uninterrupted baseline in its own cache dir.
    let baseline_dir = scratch("resume-baseline");
    let cache = RunCache::open(&baseline_dir).expect("open baseline cache");
    let (baseline, _) = spec.run_cached(&cache).expect("baseline run");
    let baseline_json = baseline.to_json().render();
    let _ = std::fs::remove_dir_all(&baseline_dir);

    // "Kill" a run partway: every cell from index 2 panics permanently,
    // leaving the same durable state (two cached cells, a `start` record
    // and no `end`) a kill -9 after two cells would.
    let dir = scratch("resume");
    let cache = RunCache::open(&dir).expect("open cache");
    let journal = SweepJournal::in_cache_dir(&dir).expect("open journal");
    let runner = RunnerConfig { faults: Some(FaultPlan::new(61).halt_jobs_from(2).arm()) };
    let (hurt, summary) =
        quiet_panics(|| spec.run_cached_with(&cache, Some(&journal), &runner)).expect("hurt run");
    assert_eq!(summary.misses, 4);
    assert_eq!(hurt.failures.len(), 2, "the tail of the sweep died");
    let state = journal.load().expect("load journal");
    let hash = SweepJournal::sweep_hash(&spec);
    let progress = state.progress(&hash).expect("sweep journaled");
    assert!(progress.unfinished(), "no end record for an interrupted sweep");
    let cells = spec.expand_keyed().expect("expands");
    let saved = cells.iter().filter(|(_, key)| cache.lookup(key.as_ref().unwrap()).is_some());
    assert_eq!(saved.count(), 2, "exactly the finished cells are in the cache");

    // Resume against the same cache + journal, fault-free: only the
    // unfinished remainder re-executes, and the report is byte-identical
    // to the uninterrupted baseline.
    let cache = RunCache::open(&dir).expect("reopen cache");
    let journal = SweepJournal::in_cache_dir(&dir).expect("reopen journal");
    let (resumed, summary) = spec
        .run_cached_with(&cache, Some(&journal), &RunnerConfig::default())
        .expect("resumed run");
    assert_eq!(summary.hits, 2, "the cells saved before the kill answer from the cache");
    assert_eq!(summary.misses, cells.len() - summary.hits, "only the remainder executes");
    assert!(resumed.failures.is_empty());
    assert_eq!(resumed.to_json().render(), baseline_json, "resumed report is byte-identical");
    assert!(
        !journal.load().expect("reload").progress(&hash).expect("progress").unfinished(),
        "the resumed sweep recorded its end"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn severed_campaignd_client_shares_the_finished_job() {
    use campaignd::{submit_request, Client, Server, ServerConfig};
    use sim_core::json::Json;
    let dir = scratch("disconnect");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let socket = dir.join("chaos.sock");
    let server = Server::bind(ServerConfig {
        socket: socket.clone(),
        cache_dir: Some(dir.join("cache")),
        faults: Some(FaultPlan::new(67).disconnect_client_nth(1).arm()),
        ..ServerConfig::default()
    })
    .expect("bind");
    std::thread::spawn(move || server.serve().expect("serve"));

    // The armed server severs this client before its second progress line.
    let mut client = Client::connect(&socket).expect("connect");
    assert!(
        client.request_streaming(&submit_request(&chaos_spec(), true), |_| {}).is_err(),
        "the injected disconnect surfaces as an io error"
    );
    // The job keeps running server-side; a fresh client waits it out and
    // a warm resubmit shares the identical report with zero simulation.
    let mut client = Client::connect(&socket).expect("reconnect");
    let done = loop {
        let r = client
            .request(&Json::obj([("cmd", Json::str("wait")), ("job", Json::count(1))]))
            .expect("wait");
        if matches!(r.get("ok"), Some(Json::Bool(true))) {
            break r;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let report = done.get("report").expect("report").render();
    let warm =
        client.request_streaming(&submit_request(&chaos_spec(), true), |_| {}).expect("resubmit");
    assert_eq!(warm.get("executed"), Some(&Json::Num(0.0)), "warm resubmit simulates nothing");
    assert_eq!(warm.get("report").expect("report").render(), report, "byte-identical share");
    let _ = client.request(&Json::obj([("cmd", Json::str("shutdown"))]));
    let _ = std::fs::remove_dir_all(&dir);
}
