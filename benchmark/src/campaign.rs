//! The three campaign workloads: the pinned sweep run cold
//! (`campaign_cold`), re-run against a populated cache (`campaign_warm`),
//! and submitted to an in-process `campaignd` (`campaignd_warm`).

use crate::decl::Workload;
use crate::pass::{Clock, PassArgs, PassOut};
use crate::stats;
use crate::trace::{spanned, Tracer};
use campaignd::{submit_request, Client, Server, ServerConfig};
use sim::cache::CacheRunSummary;
use sim::runner::RunnerConfig;
use sim::spec::SweepReport;
use sim::{RunCache, SweepJournal, SweepSpec};
use sim_core::cache::{content_key, decode_entry, encode_entry};
use sim_core::json::Json;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The pinned sweep; see the header of the file for its origin.
const SPEC_TOML: &str = include_str!("../specs/campaign.toml");
/// Cells the pinned sweep expands to; an edit that changes the
/// workload's size must not pass silently.
const SPEC_CELLS: usize = 18;

/// Warm sweeps per `campaign_warm` pass.
const WARM_SWEEPS: usize = 50;
/// Waiting submits per `campaignd_warm` pass.
const SUBMITS: usize = 20;
/// Submit latencies the traced `campaignd_warm` pass samples at most: p99
/// then has ten samples beyond it.
const TRACED_SUBMITS: usize = 1000;
/// The traced pass stops sampling after this long, so that it fits the run
/// length `BENCHMARK.json` declares: at today's 26 ms per submit (the
/// server's 25 ms wait-poll) that is ~190 samples, p99 with one beyond it.
const TRACED_SUBMIT_SECONDS: f64 = 5.0;
/// Decomposed sweeps behind the service-layer medians on the workloads
/// that do not run them as their traced pass.
const PROBE_SWEEPS: usize = 20;

/// Replaces the value of the top-level `key = ...` line.
fn set_line(text: &str, key: &str, value: &str) -> String {
    let prefix = format!("{key} = ");
    let mut hit = false;
    let lines: Vec<String> = text
        .lines()
        .map(|l| {
            if l.starts_with(&prefix) {
                hit = true;
                format!("{prefix}{value}")
            } else {
                l.to_string()
            }
        })
        .collect();
    assert!(hit, "specs/campaign.toml has no '{key}' line");
    lines.join("\n") + "\n"
}

/// The sweep's TOML text for this run: the pinned file with its seed line
/// rewritten from `--seed` (and its window divided under `--quick`).
fn spec_text(args: &PassArgs) -> String {
    let text = set_line(SPEC_TOML, "seed", &format!("{:#X}", args.seed));
    if args.quick {
        let full = SweepSpec::from_toml_str(SPEC_TOML).expect("pinned spec parses");
        let window = full.options.window_us.expect("pinned spec sets window_us");
        set_line(&text, "window_us", &format!("{:?}", args.scaled(window)))
    } else {
        text
    }
}

fn cache_dir(args: &PassArgs) -> PathBuf {
    args.work_dir.join("cache")
}

fn pass_dir(args: &PassArgs) -> PathBuf {
    args.work_dir.join("pass-cache")
}

fn cold_report_path(args: &PassArgs) -> PathBuf {
    args.work_dir.join("cold_report.json")
}

fn pristine_journal_path(args: &PassArgs) -> PathBuf {
    args.work_dir.join("journal.pristine")
}

/// TOML text to rendered report through `dir`, the way `spec_run --resume`
/// goes: fresh `RunCache` and `SweepJournal` handles every time.
fn sweep(text: &str, dir: &Path) -> (String, SweepReport, CacheRunSummary) {
    let spec = SweepSpec::from_toml_str(text).expect("benchmark spec parses");
    let cache = RunCache::open(dir).expect("open run cache");
    let journal = SweepJournal::in_cache_dir(dir).expect("open journal");
    let (report, summary) = spec
        .run_cached_with(&cache, Some(&journal), &RunnerConfig::default())
        .expect("benchmark spec expands");
    (report.to_json().render(), report, summary)
}

fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create scratch directory");
}

/// Copies a populated cache (entry shards, not the journal) for one pass.
fn copy_cache(from: &Path, to: &Path) {
    fresh_dir(to);
    for shard in std::fs::read_dir(from).expect("read cache dir") {
        let shard = shard.expect("cache dir entry").path();
        if !shard.is_dir() {
            continue;
        }
        let dest = to.join(shard.file_name().expect("shard name"));
        std::fs::create_dir_all(&dest).expect("create shard");
        for entry in std::fs::read_dir(&shard).expect("read shard") {
            let entry = entry.expect("shard entry").path();
            std::fs::copy(&entry, dest.join(entry.file_name().expect("entry name")))
                .expect("copy cache entry");
        }
    }
}

/// Checks a cold sweep's bookkeeping; returns the failed-cell count.
fn check_cold(out: &mut PassOut, report: &SweepReport, s: &CacheRunSummary) {
    if s.cells != SPEC_CELLS {
        out.fail(s.cells as u64, format!("spec expands to {} cells, not {SPEC_CELLS}", s.cells));
    }
    if !(s.misses == s.cells && s.stored == s.cells && s.hits == 0) {
        out.fail(
            s.cells as u64,
            format!("cold sweep summary is not misses == stored == cells: {s}"),
        );
    }
    if !report.failures.is_empty() {
        out.fail(
            report.failures.len() as u64,
            format!("{} cell(s) quarantined", report.failures.len()),
        );
    }
}

/// Checks one warm answer against the cold report: same bytes, and (where
/// the caller sees a `CacheRunSummary`) every cell a cache hit.
fn check_warm(out: &mut PassOut, bytes: &str, cold: &str, hits: Option<usize>, what: &str) {
    if bytes != cold {
        out.fail(SPEC_CELLS as u64, format!("{what}: report differs from the cold report"));
    } else if hits.is_some_and(|h| h != SPEC_CELLS) {
        out.fail(SPEC_CELLS as u64, format!("{what}: {hits:?} cache hits, not {SPEC_CELLS}"));
    }
}

/// One-time preparation. Every campaign workload checks that the pinned
/// spec still expands to 18 cells; the warm ones run the cold sweep that
/// populates the cache and keep its report and journal as references.
pub fn prepare(args: &PassArgs) -> PassOut {
    let mut out = PassOut::default();
    let text = spec_text(args);
    let cells = SweepSpec::from_toml_str(&text)
        .and_then(|s| s.expand())
        .expect("benchmark spec expands")
        .len();
    assert_eq!(cells, SPEC_CELLS, "specs/campaign.toml must expand to exactly {SPEC_CELLS} cells");
    out.cells = cells as u64;
    if args.workload == Workload::CampaignCold {
        // Each cold pass re-reads its own cache warm and compares.
        return out;
    }
    let dir = cache_dir(args);
    fresh_dir(&dir);
    let (bytes, report, summary) = sweep(&text, &dir);
    check_cold(&mut out, &report, &summary);
    std::fs::write(cold_report_path(args), &bytes).expect("write cold report");
    std::fs::copy(dir.join(SweepJournal::FILE_NAME), pristine_journal_path(args))
        .expect("keep pristine journal");
    out
}

pub fn pass(args: &PassArgs) -> PassOut {
    let mut out = match args.workload {
        Workload::CampaignCold => cold_pass(args),
        Workload::CampaignWarm => warm_pass(args),
        Workload::CampaigndWarm => campaignd_pass(args),
        other => panic!("{} is not a campaign workload", other.name()),
    };
    out.set("runner.cpu_over_wall", out.cpu_s / out.wall_s);
    let _ = std::fs::remove_dir_all(pass_dir(args));
    out
}

/// The model's own outputs over a report's cells.
fn model_outputs(out: &mut PassOut, report: &SweepReport) {
    let n = report.results.len().max(1) as f64;
    let norm: f64 = report.results.iter().map(|r| r.normalized_performance).sum();
    out.set("model.norm_perf_mean", norm / n);
    // Expansion order is report order while no cell failed (a pass with
    // failures is rejected anyway).
    let experiments = report.spec.expand().expect("report spec expands");
    let ipc: f64 = report
        .results
        .iter()
        .zip(&experiments)
        .map(|(r, e)| r.run.mean_ipc(&e.benign_cores()))
        .sum();
    out.set("model.ipc_mean", ipc / n);
}

fn journal_records(dir: &Path) -> f64 {
    std::fs::read_to_string(dir.join(SweepJournal::FILE_NAME))
        .map_or(0.0, |t| t.lines().filter(|l| !l.is_empty()).count() as f64)
}

fn cold_pass(args: &PassArgs) -> PassOut {
    let text = spec_text(args);
    let dir = pass_dir(args);
    fresh_dir(&dir);
    let mut tracer = args.trace.then(Tracer::new);

    let clock = Clock::start();
    let (bytes, report, summary) =
        spanned(&mut tracer, "campaign.cold_sweep", 0, || sweep(&text, &dir));
    let (wall_s, cpu_s) = clock.stop();

    let mut out = PassOut {
        wall_s,
        cpu_s,
        cells: summary.cells as u64,
        digest: content_key(bytes.as_bytes()),
        ..PassOut::default()
    };
    check_cold(&mut out, &report, &summary);
    // The gate for this workload: the cache just written answers the same
    // sweep warm, byte for byte, without simulating.
    let (warm_bytes, _, warm) = sweep(&text, &dir);
    check_warm(&mut out, &warm_bytes, &bytes, Some(warm.hits), "warm re-read of the cold pass");

    model_outputs(&mut out, &report);
    // The reference runs behind `isolate` are simulated too but leave no
    // counters in the report.
    let runs: Vec<_> = report.results.iter().map(|r| &r.run).collect();
    out.set_simulated_work(&runs);
    let simulated: u64 = report.results.iter().map(|r| r.run.cycles + r.reference.cycles).sum();
    out.set("system.mcycles_per_s", simulated as f64 / wall_s / 1e6);
    out.set("memctrl.host_ns_per_act", wall_s * 1e9 / out.layer["memctrl.activations"].max(1.0));
    out.set("runner.threads", crate::host::parallelism().min(summary.cells) as f64);
    out.set("cache.hits", summary.hits as f64);
    out.set("cache.misses", summary.misses as f64);
    out.set("cache.stored", summary.stored as f64);
    // start + one record per cell + end, then the warm re-read's end.
    out.set("journal.records", journal_records(&dir) - 1.0);
    if let Some(tracer) = tracer {
        out.span_self_s = tracer.layer_self_seconds();
        tracer.append_jsonl(&crate::trace_path(), args.workload.name()).expect("write trace.jsonl");
        std::fs::copy(dir.join(SweepJournal::FILE_NAME), pristine_journal_path(args))
            .expect("keep journal");
        service_probes(&mut out, args, &text, &bytes, PROBE_SWEEPS);
    }
    out
}

/// What the warm workloads need from the preparation.
struct Warm {
    text: String,
    cold: String,
    dir: PathBuf,
}

fn warm_setup(args: &PassArgs) -> Warm {
    let dir = pass_dir(args);
    copy_cache(&cache_dir(args), &dir);
    Warm {
        text: spec_text(args),
        cold: std::fs::read_to_string(cold_report_path(args)).expect("read cold report"),
        dir,
    }
}

/// Puts back the journal the cold sweep left. Untimed, before every warm
/// sweep: otherwise each sweep appends an fsynced `end` record,
/// `SweepJournal::load` re-parses a growing file, and sweep N is slower
/// than sweep 1.
fn restore_journal(args: &PassArgs, dir: &Path) {
    std::fs::copy(pristine_journal_path(args), dir.join(SweepJournal::FILE_NAME))
        .expect("restore journal");
}

fn warm_pass(args: &PassArgs) -> PassOut {
    let w = warm_setup(args);
    let sweeps = args.scaled_count(WARM_SWEEPS);
    let mut out = PassOut { digest: content_key(w.cold.as_bytes()), ..PassOut::default() };
    if args.trace {
        // The monolith once, to hold the hand-decomposed sweeps against.
        restore_journal(args, &w.dir);
        let (bytes, _, summary) = sweep(&w.text, &w.dir);
        check_warm(&mut out, &bytes, &w.cold, Some(summary.hits), "run_cached_with");
        service_probes(&mut out, args, &w.text, &w.cold, sweeps);
        out.set("cache.hits", out.cells as f64);
        out.set("runner.threads", 1.0);
        return out;
    }
    let mut hits = 0;
    for i in 0..sweeps {
        restore_journal(args, &w.dir);
        let clock = Clock::start();
        let (bytes, _, summary) = sweep(&w.text, &w.dir);
        let (wall_s, cpu_s) = clock.stop();
        out.wall_s += wall_s;
        out.cpu_s += cpu_s;
        out.cells += summary.cells as u64;
        hits += summary.hits;
        check_warm(&mut out, &bytes, &w.cold, Some(summary.hits), &format!("warm sweep {i}"));
    }
    out.set("cache.hits", hits as f64);
    out.set("journal.records", journal_records(&w.dir) - 1.0);
    out.set("runner.threads", 1.0);
    out
}

/// An in-process `campaignd` on its own threads plus one connected client.
struct Daemon {
    client: Client,
    serve: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start(args: &PassArgs, dir: &Path) -> Daemon {
        // Relative to the working directory: a unix socket path holds
        // ~100 bytes, and the checkout may sit deep in the file system.
        let socket = args.work_dir.join("d.sock");
        let server = Server::bind(ServerConfig {
            socket: socket.clone(),
            cache_dir: Some(dir.to_path_buf()),
            ..ServerConfig::default()
        })
        .expect("bind campaignd socket");
        let serve = std::thread::spawn(move || server.serve());
        Daemon { client: Client::connect(&socket).expect("connect to campaignd"), serve }
    }

    fn request(&mut self, cmd: &str) -> Json {
        self.client.request(&Json::obj([("cmd", Json::str(cmd))])).expect("campaignd request")
    }

    /// `stats.executed`: simulations the server has performed.
    fn executed(&mut self) -> f64 {
        match self.request("stats").get("executed") {
            Some(Json::Num(n)) => *n,
            _ => panic!("campaignd stats carry no 'executed'"),
        }
    }

    fn stop(mut self) {
        self.request("shutdown");
        drop(self.client);
        self.serve.join().expect("campaignd thread").expect("campaignd serve");
    }
}

/// One waiting submit; returns its wall seconds after checking the answer.
fn submit(d: &mut Daemon, out: &mut PassOut, request: &Json, cold: &str, what: &str) -> f64 {
    let t = Instant::now();
    let done = d.client.request_streaming(request, |_| {}).expect("campaignd submit");
    let wall = t.elapsed().as_secs_f64();
    let ok = matches!(done.get("ok"), Some(Json::Bool(true)));
    match done.get("report") {
        Some(report) if ok => check_warm(out, &report.render(), cold, None, what),
        _ => out.fail(SPEC_CELLS as u64, format!("{what}: not ok: {}", done.render())),
    }
    wall
}

fn campaignd_pass(args: &PassArgs) -> PassOut {
    let w = warm_setup(args);
    restore_journal(args, &w.dir);
    let spec = SweepSpec::from_toml_str(&w.text).expect("benchmark spec parses");
    let request = submit_request(&spec, true);
    let mut out = PassOut { digest: content_key(w.cold.as_bytes()), ..PassOut::default() };
    let mut d = Daemon::start(args, &w.dir);
    // The first submit moves the cells from disk into the server's table.
    submit(&mut d, &mut out, &request, &w.cold, "warm-up submit");
    let executed_before = d.executed();

    let submits = args.scaled_count(if args.trace { TRACED_SUBMITS } else { SUBMITS });
    let mut tracer = args.trace.then(Tracer::new);
    let mut latencies_ms = Vec::with_capacity(submits);
    let started = Instant::now();
    let clock = Clock::start();
    for i in 0..submits {
        if args.trace && started.elapsed().as_secs_f64() > TRACED_SUBMIT_SECONDS {
            break;
        }
        let wall = spanned(&mut tracer, "campaignd.submit", i as u64, || {
            submit(&mut d, &mut out, &request, &w.cold, &format!("submit {i}"))
        });
        latencies_ms.push(wall * 1e3);
    }
    (out.wall_s, out.cpu_s) = clock.stop();
    let submits = latencies_ms.len();
    out.cells = (SPEC_CELLS * submits) as u64;

    let executed = d.executed() - executed_before;
    if executed != 0.0 {
        out.fail(out.cells, format!("campaignd simulated {executed} cell(s) while warm"));
    }
    out.set("campaignd.executed", executed);
    out.set("runner.threads", 1.0);
    if let Some(mut tracer) = tracer {
        out.span_self_s = tracer.layer_self_seconds();
        latencies_ms.sort_by(f64::total_cmp);
        out.set("campaignd.submit_ms_p50", stats::median_sorted(&latencies_ms));
        // The sample with a hundredth of the samples beyond it.
        out.set("campaignd.submit_ms_p99", latencies_ms[(submits * 99).div_ceil(100) - 1]);
        for i in 0..200 {
            tracer.call("campaignd.stats", i, || d.request("stats"));
        }
        out.set("campaignd.stats_rtt_us", tracer.median_us("campaignd.stats"));
        tracer.append_jsonl(&crate::trace_path(), args.workload.name()).expect("write trace.jsonl");
        d.stop();
        let direct_ms = service_probes(&mut out, args, &w.text, &w.cold, PROBE_SWEEPS);
        out.set("campaignd.submit_over_direct", out.layer["campaignd.submit_ms_p50"] / direct_ms);
    } else {
        d.stop();
    }
    out
}

/// The warm sweep re-performed by hand through the same public functions
/// `run_cached_with` goes through, one span per call, `sweeps` times over
/// the populated cache in the pass directory; then the cache, codec and
/// JSON calls a warm sweep does not make on its own. Sets the service
/// layers' per-layer metrics from the span medians.
///
/// On `campaign_warm` this *is* the traced pass, so it also fills the
/// pass's wall, CPU, cell count and span self time. Returns the median
/// milliseconds of the monolithic warm sweep, the "direct path" a
/// `campaignd` submit is compared with.
fn service_probes(
    out: &mut PassOut,
    args: &PassArgs,
    text: &str,
    cold: &str,
    sweeps: usize,
) -> f64 {
    let dir = pass_dir(args);
    let is_pass = args.workload == Workload::CampaignWarm;
    let mut tr = Tracer::new();
    for k in 0..sweeps as u64 {
        restore_journal(args, &dir);
        // `from_toml_str` parses again; on its own so the layer has a number.
        tr.call("toml.parse", k, || sim::toml::parse(text).expect("benchmark spec is TOML"));
        let clock = Clock::start();
        let sweep_span = tr.enter("sweep", k);
        let spec = tr.call("spec.from_toml", k, || SweepSpec::from_toml_str(text).expect("parses"));
        let experiments = tr.call("spec.expand", k, || spec.expand().expect("expands"));
        let cache = tr.call("cache.open", k, || RunCache::open(&dir).expect("open run cache"));
        let journal =
            tr.call("journal.open", k, || SweepJournal::in_cache_dir(&dir).expect("open journal"));
        let hash = tr.call("journal.sweep_hash", k, || SweepJournal::sweep_hash(&spec));
        let state = tr.call("journal.load", k, || journal.load().expect("load journal"));
        assert!(state.progress(&hash).is_some(), "the cold sweep journaled its start");
        let cells = experiments.len() as u64;
        let mut results = Vec::with_capacity(experiments.len());
        for e in &experiments {
            let key =
                tr.call("cache.key", k, || RunCache::key_for(e)).expect("cells are cacheable");
            match tr.call("cache.lookup", k, || cache.lookup(&key)) {
                Some(result) => results.push(result),
                None => out.fail(1, format!("decomposed sweep {k}: cache miss on {}", key.key)),
            }
        }
        tr.call("journal.record_end", k, || journal.record_end(&hash).expect("append journal"));
        let report = SweepReport { name: spec.name.clone(), spec, results, failures: Vec::new() };
        let bytes = tr.call("spec.report_render", k, || report.to_json().render());
        tr.exit(sweep_span);
        let (wall_s, cpu_s) = clock.stop();
        if is_pass {
            out.wall_s += wall_s;
            out.cpu_s += cpu_s;
            out.cells += cells;
        }
        if k == 0 {
            model_outputs(out, &report);
        }
        if bytes != cold {
            out.fail(
                SPEC_CELLS as u64,
                format!("decomposed sweep {k} differs from run_cached_with"),
            );
        }
    }
    out.set("toml.parse_us", tr.median_us("toml.parse"));
    out.set("spec.from_toml_us", tr.median_us("spec.from_toml"));
    out.set("spec.expand_us", tr.median_us("spec.expand"));
    out.set("spec.report_render_us", tr.median_us("spec.report_render"));
    out.set("cache.cell_key_us", tr.median_us("cache.key"));
    out.set("cache.lookup_disk_us", tr.median_us("cache.lookup"));
    out.set("journal.open_us", tr.median_us("journal.open"));
    out.set("journal.load_us", tr.median_us("journal.load"));
    out.set("journal.append_fsync_us", tr.median_us("journal.record_end"));
    if is_pass {
        // `toml.parse` ran outside the sweeps: not part of the pass.
        let parse_ns: u64 =
            tr.spans().iter().filter(|s| s.name == "toml.parse").map(|s| s.duration_ns()).sum();
        out.span_self_s = tr.layer_self_seconds() - parse_ns as f64 / 1e9;
    }

    // Calls a warm sweep does not make, or makes only inside `lookup`.
    let spec = SweepSpec::from_toml_str(text).expect("parses");
    let experiments = spec.expand().expect("expands");
    let cache = RunCache::open(&dir).expect("open run cache");
    let keys: Vec<_> = experiments.iter().filter_map(RunCache::key_for).collect();
    let scratch = RunCache::open(args.work_dir.join("probe-cache")).expect("open scratch cache");
    for (i, key) in keys.iter().enumerate() {
        let i = i as u64;
        let result = cache.lookup(key).expect("populated");
        tr.call("cache.lookup_front", i, || cache.lookup(key).expect("front hit"));
        tr.call("cache.save", i, || scratch.save(key, &result));
        let payload = cache.store().get(&key.key).expect("populated");
        let entry = tr.call("corecache.encode", i, || encode_entry(&payload));
        tr.call("corecache.decode", i, || decode_entry(&entry).expect("decodes").len());
    }
    let entry_bytes: u64 = keys
        .iter()
        .map(|k| std::fs::metadata(cache.store().entry_path(&k.key)).expect("entry file").len())
        .sum();
    out.set("cache.entry_bytes", entry_bytes as f64 / keys.len() as f64);
    for i in 0..PROBE_SWEEPS as u64 {
        let parsed = tr.call("json.parse", i, || Json::parse(cold).expect("report is JSON"));
        tr.call("json.render", i, || parsed.render());
        tr.call("spec.json_roundtrip", i, || {
            SweepSpec::from_json_str(&spec.to_json().render()).expect("spec round-trips")
        });
        restore_journal(args, &dir);
        tr.call("sweep.direct", i, || sweep(text, &dir));
    }
    out.set("cache.lookup_front_us", tr.median_us("cache.lookup_front"));
    out.set("cache.save_us", tr.median_us("cache.save"));
    out.set("corecache.encode_us", tr.median_us("corecache.encode"));
    out.set("corecache.decode_us", tr.median_us("corecache.decode"));
    out.set("json.parse_us", tr.median_us("json.parse"));
    out.set("json.render_us", tr.median_us("json.render"));
    out.set("spec.json_roundtrip_us", tr.median_us("spec.json_roundtrip"));
    let name = args.workload.name();
    let tag = if is_pass { name.to_string() } else { format!("{name}/service") };
    tr.append_jsonl(&crate::trace_path(), &tag).expect("write trace.jsonl");
    tr.median_us("sweep.direct") / 1e3
}
