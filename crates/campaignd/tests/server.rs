//! End-to-end exercises of the campaign server over a real unix socket:
//! single-flight dedup between concurrent clients, warm-cache restarts,
//! the async submit/status/wait lifecycle, and a seeded fuzz of request
//! lines.

use campaignd::{submit_request, Client, Server, ServerConfig};
use sim::spec::{Series, SweepSpec};
use sim_core::config::MitigationKind::DrfmSb;
use sim_core::json::Json;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("campaignd-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Two unique cells, short window: fast enough to simulate for real.
fn tiny_spec() -> SweepSpec {
    let mut spec = SweepSpec::new("campaignd_smoke");
    spec.workloads = vec!["mcf_like".to_string()];
    spec.trackers = vec!["none".to_string(), "para".to_string()];
    spec.options.window_us = Some(20.0);
    spec.options.seed = Some(7);
    spec
}

fn start(dir: &std::path::Path, tag: &str) -> PathBuf {
    start_with(dir, tag, ServerConfig::default())
}

fn start_with(dir: &std::path::Path, tag: &str, mut cfg: ServerConfig) -> PathBuf {
    let socket = dir.join(format!("{tag}.sock"));
    cfg.socket = socket.clone();
    cfg.cache_dir = Some(dir.join("cache"));
    let server = Server::bind(cfg).expect("bind");
    std::thread::spawn(move || server.serve().expect("serve"));
    socket
}

fn field_u64(j: &Json, key: &str) -> u64 {
    j.field(key).unwrap_or_else(|e| panic!("{e} in {}", j.render()))
}

fn assert_ok(j: &Json) {
    assert!(matches!(j.get("ok"), Some(Json::Bool(true))), "not ok: {}", j.render());
}

fn server_executed(socket: &std::path::Path) -> u64 {
    let mut client = Client::connect(socket).expect("connect");
    let stats = client.request(&Json::obj([("cmd", Json::str("stats"))])).expect("stats");
    assert_ok(&stats);
    field_u64(&stats, "executed")
}

fn active_jobs(client: &mut Client) -> u64 {
    let stats = client.request(&Json::obj([("cmd", Json::str("stats"))])).expect("stats");
    assert_ok(&stats);
    field_u64(&stats, "active")
}

fn shutdown(socket: &std::path::Path) {
    let mut client = Client::connect(socket).expect("connect");
    assert_ok(&client.request(&Json::obj([("cmd", Json::str("shutdown"))])).expect("shutdown"));
}

#[test]
fn concurrent_identical_submissions_run_each_cell_once() {
    let dir = scratch("single-flight");
    let socket = start(&dir, "a");
    let spec = tiny_spec();

    // Two clients race the same two-cell sweep.
    let completions: Vec<Json> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (socket, spec) = (socket.clone(), spec.clone());
                scope.spawn(move || {
                    let mut client = Client::connect(&socket).expect("connect");
                    client
                        .request_streaming(&submit_request(&spec, true), |_event| {})
                        .expect("submit")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    for c in &completions {
        assert_ok(c);
        assert_eq!(field_u64(c, "cells"), 2);
    }
    // Byte-identical reports no matter which submission simulated what.
    let reports: Vec<String> =
        completions.iter().map(|c| c.get("report").expect("report").render()).collect();
    assert_eq!(reports[0], reports[1]);
    // Single-flight witness: 2 unique cells → exactly 2 simulations.
    assert_eq!(server_executed(&socket), 2);
    assert_eq!(field_u64(&completions[0], "executed") + field_u64(&completions[1], "executed"), 2);

    // A third submission is answered wholly from the in-memory table.
    let mut client = Client::connect(&socket).expect("connect");
    let warm = client.request_streaming(&submit_request(&spec, true), |_| {}).expect("resubmit");
    assert_ok(&warm);
    assert_eq!(field_u64(&warm, "executed"), 0);
    assert_eq!(field_u64(&warm, "shared"), 2);
    assert_eq!(warm.get("report").expect("report").render(), reports[0]);
    assert_eq!(server_executed(&socket), 2);

    // A cell lookup answers from cache without simulating.
    let cell = |workloads: Vec<Json>| {
        let spec = Json::obj([
            ("workloads", Json::Arr(workloads)),
            ("trackers", Json::str("para")),
            ("window_us", Json::Num(20.0)),
            ("seed", Json::count(7)),
        ]);
        Json::obj([("cmd", Json::str("lookup")), ("spec", spec)])
    };
    let looked = client.request(&cell(vec![Json::str("mcf_like")])).expect("lookup");
    assert_ok(&looked);
    assert!(matches!(looked.get("cached"), Some(Json::Bool(true))), "{}", looked.render());
    // A lookup names exactly one cell.
    let two = client.request(&cell(vec![Json::str("mcf_like"), Json::str("gcc_like")])).unwrap();
    assert!(two.render().contains("has 2 cells"), "{}", two.render());
    shutdown(&socket);

    // A fresh server over the same cache dir serves the sweep from disk:
    // still zero simulations.
    let socket2 = start(&dir, "b");
    let mut client = Client::connect(&socket2).expect("connect");
    let restarted =
        client.request_streaming(&submit_request(&spec, true), |_| {}).expect("warm submit");
    assert_ok(&restarted);
    assert_eq!(field_u64(&restarted, "executed"), 0);
    assert_eq!(field_u64(&restarted, "hits"), 2);
    assert_eq!(restarted.get("report").expect("report").render(), reports[0]);
    assert_eq!(server_executed(&socket2), 0);
    shutdown(&socket2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_series_spec_runs_like_any_sweep() {
    // A paper figure's shape: `[[series]]` and an N_RH list in place of
    // trackers x attacks. The server runs it to the report a direct run
    // writes.
    let dir = scratch("series");
    let socket = start(&dir, "a");
    let mut spec = SweepSpec::new("series_smoke");
    spec.workloads = vec!["mcf_like".to_string()];
    spec.series = vec![
        Series::new("PARA", "para", "refresh").isolating(),
        Series::new("DAPPER-H-DRFMsb", "dapper-h", "none").mitigation(DrfmSb).blast_radius(2),
    ];
    spec.options.nrh = vec![250, 1000];
    spec.options.window_us = Some(20.0);
    spec.options.seed = Some(7);
    let mut client = Client::connect(&socket).expect("connect");
    let done = client.request_streaming(&submit_request(&spec, true), |_| {}).expect("submit");
    assert_ok(&done);
    assert_eq!(field_u64(&done, "cells"), 4);
    let direct = spec.run().expect("the spec expands");
    assert_eq!((direct.results.len(), direct.failures.len()), (4, 0));
    assert_eq!(done.get("report").expect("report").render(), direct.render());
    shutdown(&socket);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn async_submit_status_wait_lifecycle() {
    let dir = scratch("async");
    let socket = start(&dir, "a");
    let mut client = Client::connect(&socket).expect("connect");

    assert_ok(&client.request(&Json::obj([("cmd", Json::str("ping"))])).expect("ping"));

    // Sections only `spec_run` can route are refused by name, on `submit`
    // and `lookup` alike, before anything is scheduled or simulated.
    let mut attacker = tiny_spec();
    attacker.attacker = Some(Default::default());
    let mut profile = tiny_spec();
    profile.profile = Some(Default::default());
    for (section, spec) in [("[attacker]", attacker), ("[profile]", profile)] {
        let lookup = Json::obj([("cmd", Json::str("lookup")), ("spec", spec.to_json())]);
        for request in [submit_request(&spec, true), submit_request(&spec, false), lookup] {
            let refused = client.request(&request).expect("refusal");
            let error = refused.render();
            assert!(matches!(refused.get("ok"), Some(Json::Bool(false))), "{error}");
            assert!(error.contains(section) && error.contains("spec_run"), "{error}");
        }
    }
    let stats = client.request(&Json::obj([("cmd", Json::str("stats"))])).expect("stats");
    assert_eq!((field_u64(&stats, "executed"), field_u64(&stats, "jobs")), (0, 0));

    // The same spec without the section runs.
    let queued = client.request(&submit_request(&tiny_spec(), false)).expect("submit");
    assert_ok(&queued);
    let job = field_u64(&queued, "job");
    assert_eq!(field_u64(&queued, "cells"), 2);

    let done = client
        .request(&Json::obj([("cmd", Json::str("wait")), ("job", Json::count(job))]))
        .expect("wait");
    assert_ok(&done);
    assert_eq!(field_u64(&done, "cells"), 2);
    assert!(done.get("report").is_some());
    // A job leaves `active` as it publishes its line: a `stats` sent right
    // after `wait` returns never counts it.
    assert_eq!(active_jobs(&mut client), 0, "a finished job is still counted active");

    let status = client
        .request(&Json::obj([("cmd", Json::str("status")), ("job", Json::count(job))]))
        .expect("status");
    assert_ok(&status);
    assert_eq!(status.get("state"), Some(&Json::str("done")));
    assert_eq!(field_u64(&status, "done"), 2);

    // Unknown jobs and malformed requests error without killing the
    // connection.
    let missing = client
        .request(&Json::obj([("cmd", Json::str("status")), ("job", Json::count(999))]))
        .expect("missing status");
    assert!(matches!(missing.get("ok"), Some(Json::Bool(false))));
    let bad = client.request(&Json::obj([("cmd", Json::str("no-such"))])).expect("bad cmd");
    assert!(matches!(bad.get("ok"), Some(Json::Bool(false))));

    shutdown(&socket);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_drains_in_flight_jobs_before_exit() {
    let dir = scratch("drain");
    let socket = start_with(
        &dir,
        "a",
        ServerConfig {
            drain_timeout: Some(std::time::Duration::from_secs(60)),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(&socket).expect("connect");
    let queued = client.request(&submit_request(&tiny_spec(), false)).expect("submit");
    assert_ok(&queued);
    // Shutdown lands while the background job is (most likely) still
    // simulating; the drain must let it finish and commit to the cache.
    shutdown(&socket);
    for _ in 0..2000 {
        if !socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(!socket.exists(), "the server exits after draining");
    // A fresh server over the same cache dir proves nothing was lost:
    // the drained job's two cells answer from disk, zero simulations.
    let socket2 = start(&dir, "b");
    let mut client = Client::connect(&socket2).expect("connect");
    let warm = client.request_streaming(&submit_request(&tiny_spec(), true), |_| {}).expect("warm");
    assert_ok(&warm);
    assert_eq!(field_u64(&warm, "executed"), 0);
    assert_eq!(field_u64(&warm, "hits"), 2);
    shutdown(&socket2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disconnected_client_does_not_wedge_the_job() {
    use sim_core::fault::FaultPlan;
    let dir = scratch("disconnect");
    let socket = start_with(
        &dir,
        "a",
        ServerConfig {
            faults: Some(FaultPlan::new(17).disconnect_client_nth(1).arm()),
            ..ServerConfig::default()
        },
    );
    // The armed server severs this client before its second progress
    // line; the submit surfaces as an io error, never a completion.
    let mut client = Client::connect(&socket).expect("connect");
    let severed = client.request_streaming(&submit_request(&tiny_spec(), true), |_| {});
    assert!(severed.is_err(), "the injected disconnect must surface to the client");
    // The job keeps running server-side. A reconnecting client waits on
    // it (the severed submit was job 1) and gets the full report.
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
    assert_eq!(field_u64(&done, "cells"), 2);
    let report = done.get("report").expect("report").render();
    // And a clean resubmit shares those exact results byte-for-byte.
    let warm = client.request_streaming(&submit_request(&tiny_spec(), true), |_| {}).expect("warm");
    assert_ok(&warm);
    assert_eq!(field_u64(&warm, "executed"), 0);
    assert_eq!(warm.get("report").expect("report").render(), report);
    shutdown(&socket);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_request_line_is_refused_and_costs_only_its_connection() {
    use std::io::{BufRead, BufReader, Write};
    let dir = scratch("oversized");
    let socket = start(&dir, "a");
    // One byte past the 1 MiB limit and never a newline: an unbounded
    // `read_line` would buffer this (and whatever followed) for ever.
    let mut hog = std::os::unix::net::UnixStream::connect(&socket).expect("connect");
    hog.set_read_timeout(Some(std::time::Duration::from_secs(10))).expect("timeout");
    hog.write_all(&vec![b'x'; (1 << 20) + 1]).expect("write the oversized line");
    let mut reader = BufReader::new(hog);
    let mut line = String::new();
    reader.read_line(&mut line).expect("the server answers instead of buffering on");
    assert_eq!(line, "{\"ok\":false,\"error\":\"request line exceeds 1048576 bytes\"}\n");
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("eof"), 0, "the connection is closed");
    // Only that connection: the server still answers everyone else.
    let mut client = Client::connect(&socket).expect("connect");
    assert_ok(&client.request(&Json::obj([("cmd", Json::str("ping"))])).expect("ping"));
    shutdown(&socket);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deeply_nested_request_line_is_an_error_not_an_abort() {
    use std::io::{BufRead, BufReader, Write};
    let dir = scratch("nesting");
    let socket = start(&dir, "a");
    // 100 KB of brackets, well inside the 1 MiB line cap: parsing it by
    // unbounded recursion overflowed the stack and aborted the server.
    let mut conn = std::os::unix::net::UnixStream::connect(&socket).expect("connect");
    conn.set_read_timeout(Some(std::time::Duration::from_secs(10))).expect("timeout");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut ask = |request: String| {
        conn.write_all(format!("{request}\n").as_bytes()).expect("write the request");
        let mut line = String::new();
        reader.read_line(&mut line).expect("the server answers");
        Json::parse(&line).unwrap_or_else(|e| panic!("{e}: {line:?}"))
    };
    let refused = ask("[".repeat(100_000));
    assert!(matches!(refused.get("ok"), Some(Json::Bool(false))), "{}", refused.render());
    assert!(refused.render().contains("nested deeper than 128"), "{}", refused.render());
    // The same connection is still served.
    let pong = ask(Json::obj([("cmd", Json::str("ping"))]).render());
    assert!(matches!(pong.get("pong"), Some(Json::Bool(true))), "{}", pong.render());
    shutdown(&socket);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_request_line_that_is_not_utf8_is_answered_and_the_connection_goes_on() {
    use std::io::{BufRead, BufReader, Write};
    let dir = scratch("not-utf8");
    let socket = start(&dir, "a");
    let mut conn = std::os::unix::net::UnixStream::connect(&socket).expect("connect");
    conn.set_read_timeout(Some(std::time::Duration::from_secs(10))).expect("timeout");
    // Both lines in one write: a dropped connection would lose the second.
    conn.write_all(b"{\"cmd\":\"ping\",\"x\":\"\xff\"}\n{\"cmd\":\"ping\"}\n").expect("send");
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    reader.read_line(&mut line).expect("the bad line is answered");
    assert!(line.starts_with("{\"ok\":false,\"error\":\"bad request: "), "{line:?}");
    assert!(line.contains("utf-8"), "{line:?}");
    line.clear();
    reader.read_line(&mut line).expect("the next line is served");
    assert_eq!(line, "{\"ok\":true,\"pong\":true}\n");
    shutdown(&socket);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One waiting submit of `tiny_spec()`; returns the `done` value of every
/// progress line it streamed, in order, and the final response.
fn waiting_submit(client: &mut Client) -> (Vec<u64>, Json) {
    let mut dones = Vec::new();
    let done = client
        .request_streaming(&submit_request(&tiny_spec(), true), |event| {
            let progress = campaignd::ProgressEvent::from_json(event).expect("a progress line");
            assert_eq!(progress.cells, 2);
            dones.push(progress.done);
        })
        .expect("submit");
    assert_ok(&done);
    (dones, done)
}

#[test]
fn progress_stream_is_coalesced_and_ordered() {
    let dir = scratch("progress");
    let socket = start(&dir, "a");
    let mut client = Client::connect(&socket).expect("connect");
    // Cold: one line per distinct `done`, so strictly increasing and never
    // past the cell count.
    let (cold, done) = waiting_submit(&mut client);
    assert_eq!(field_u64(&done, "executed"), 2);
    assert!(cold.windows(2).all(|w| w[0] < w[1]), "strictly increasing: {cold:?}");
    assert!(cold.iter().all(|&d| (1..=2).contains(&d)), "within 1..=cells: {cold:?}");
    // Warm: every cell is ready at the claim pass, which publishes them as
    // one update, and the connection thread driving the job writes it: one
    // line, with `done == cells`.
    let (warm, done) = waiting_submit(&mut client);
    assert_eq!(field_u64(&done, "executed"), 0);
    assert_eq!(warm, [2], "one coalesced update");
    // Nothing streams after a final response: the next line on the
    // connection is the next request's answer.
    let pong = client.request(&Json::obj([("cmd", Json::str("ping"))])).expect("ping");
    assert!(matches!(pong.get("pong"), Some(Json::Bool(true))), "{}", pong.render());
    shutdown(&socket);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_cut_off_at_a_warm_progress_line_does_not_wedge_the_job() {
    use sim_core::fault::FaultPlan;
    let dir = scratch("warm-cut");
    // The first progress line this server writes severs its client. A
    // background submit streams nothing, so it fills the cell table and
    // leaves the fault armed for the warm resubmit's one line.
    let socket = start_with(
        &dir,
        "a",
        ServerConfig {
            faults: Some(FaultPlan::new(29).disconnect_client_nth(0).arm()),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(&socket).expect("connect");
    let queued = client.request(&submit_request(&tiny_spec(), false)).expect("submit");
    assert_ok(&queued);
    let wait = |client: &mut Client, job: u64| {
        client
            .request(&Json::obj([("cmd", Json::str("wait")), ("job", Json::count(job))]))
            .expect("wait")
    };
    let first = wait(&mut client, field_u64(&queued, "job"));
    assert_ok(&first);
    let report = first.get("report").expect("report").render();

    let mut severed = Client::connect(&socket).expect("connect");
    let cut = severed.request_streaming(&submit_request(&tiny_spec(), true), |_| {});
    assert!(cut.is_err(), "the injected disconnect must surface to the client: {cut:?}");
    // The warm job, registered right after the first, still finished on
    // the server: `wait` returns the first submit's report byte for byte
    // and nothing was simulated again.
    let warm = wait(&mut client, field_u64(&queued, "job") + 1);
    assert_ok(&warm);
    assert_eq!(field_u64(&warm, "executed"), 0);
    assert_eq!(warm.get("report").expect("report").render(), report);
    assert_eq!(server_executed(&socket), 2);
    // And it retired as it published its line, which `wait` returned.
    assert_eq!(active_jobs(&mut client), 0, "the severed submit's job is still counted active");
    shutdown(&socket);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sends one request line on a fresh connection and returns the raw
/// lines it gets back, up to and including the final response (the first
/// line carrying `"ok"`), newlines kept.
fn raw_request(socket: &std::path::Path, request: &Json) -> Vec<String> {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::os::unix::net::UnixStream::connect(socket).expect("connect");
    stream.write_all(format!("{}\n", request.render()).as_bytes()).expect("send");
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("read") > 0, "closed early: {lines:?}");
        let last = line.starts_with(r#"{"ok":"#);
        lines.push(line);
        if last {
            return lines;
        }
    }
}

#[test]
fn completion_line_is_the_tree_rendered_response_for_submit_and_every_wait() {
    use sim::runner::RunnerConfig;
    use sim_core::fault::FaultPlan;
    let dir = scratch("completion-bytes");
    // The second simulated cell panics every time it runs, so the report
    // carries one quarantined cell next to one result.
    let plan = || FaultPlan::new(53).panic_job_always(1).arm();
    let socket =
        start_with(&dir, "a", ServerConfig { faults: Some(plan()), ..ServerConfig::default() });
    let spec = tiny_spec();
    let submitted = raw_request(&socket, &submit_request(&spec, true));
    let line = submitted.last().expect("a final response");
    let job = field_u64(&Json::parse(line).expect("the final line parses"), "job");
    // What the server sent when it built the response as a tree: the
    // report of the same cells under the same plan, rendered from its
    // tree, merged after `"ok":true` into the completion object.
    let cells = spec.expand_keyed().expect("expands");
    let runner = RunnerConfig { faults: Some(plan()) };
    let (report, _) = spec.run_expanded(cells, None, None, &runner);
    assert_eq!((report.results.len(), report.failures.len()), (1, 1));
    let tree = Json::obj([
        ("ok", Json::Bool(true)),
        ("job", Json::count(job)),
        ("cells", Json::count(2)),
        ("hits", Json::count(0)),
        ("executed", Json::count(2)),
        ("shared", Json::count(0)),
        ("report", report.to_json()),
    ]);
    let expected = format!("{}\n", tree.render());
    assert_eq!(line, &expected, "the waiting submit's final line");
    // Two later waits, each from a connection of its own, write the same
    // bytes again.
    let wait = Json::obj([("cmd", Json::str("wait")), ("job", Json::count(job))]);
    for _ in 0..2 {
        assert_eq!(raw_request(&socket, &wait), std::slice::from_ref(&expected), "a later wait");
    }
    shutdown(&socket);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_that_stops_reading_stalls_no_other_submission() {
    use std::io::{Read, Write};
    use std::time::Duration;
    let dir = scratch("stalled-reader");
    let socket = start(&dir, "a");
    // 456 distinct cells, each a progress line when it settles: more than
    // a unix socket's default send buffer holds.
    let mut spec = tiny_spec();
    spec.workloads = vec!["@all".to_string()];
    spec.attacks = ["none", "cache-thrash", "streaming", "refresh"].map(String::from).to_vec();
    spec.options.window_us = Some(2.0);
    let cells = 57 * 2 * 4;

    // This client submits and waits, but never reads a byte.
    let mut stalled = std::os::unix::net::UnixStream::connect(&socket).expect("connect");
    let mut line = submit_request(&spec, true).render();
    line.push('\n');
    stalled.write_all(line.as_bytes()).expect("send");
    let mut client = Client::connect(&socket).expect("connect");
    let stats = Json::obj([("cmd", Json::str("stats"))]);
    while field_u64(&client.request(&stats).expect("stats"), "active") == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }

    // A second client submits the same sweep and shares the stalled
    // client's cells. It runs on its own thread, so a server wedged
    // behind the stalled reader fails the test instead of hanging it.
    let (tx, rx) = std::sync::mpsc::channel();
    let (sweep, path) = (spec.clone(), socket.clone());
    std::thread::spawn(move || {
        let mut client = Client::connect(&path).expect("connect");
        let _ = tx.send(client.request_streaming(&submit_request(&sweep, true), |_| {}));
    });
    let done = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("the second submit is wedged behind the client that stopped reading")
        .expect("submit");
    assert_ok(&done);
    assert_eq!(field_u64(&done, "cells"), cells);
    assert_eq!(server_executed(&socket), cells, "each unique cell ran once");

    // The stalled client was severed: its socket holds the progress lines
    // that fit, then ends, with no final response.
    stalled.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let mut text = String::new();
    stalled.read_to_string(&mut text).expect("the stalled client's stream must end");
    assert!(text.starts_with("{\"event\":\"progress\""), "{text:.80}");
    assert!(!text.contains("\"ok\""), "a severed client got a final response");
    shutdown(&socket);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_waiting_submits_pay_no_poll_floor() {
    let dir = scratch("poll-floor");
    let socket = start(&dir, "a");
    let mut client = Client::connect(&socket).expect("connect");
    waiting_submit(&mut client);
    // The streamer used to sleep 25 ms between looks at the job, so a warm
    // waiting submit could not finish in less. The bound is that floor
    // itself, not a tuned number: a timer on the submit path fails it.
    let submits = 20;
    let started = std::time::Instant::now();
    for _ in 0..submits {
        let (_, done) = waiting_submit(&mut client);
        assert_eq!(field_u64(&done, "executed"), 0);
    }
    let took = started.elapsed();
    let floor = std::time::Duration::from_millis(25) * submits;
    assert!(took < floor, "{submits} warm submits took {took:?}, the old poll floor is {floor:?}");
    shutdown(&socket);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restarted_server_resumes_only_the_unfinished_remainder() {
    use sim_core::fault::FaultPlan;
    // Baseline: an uninterrupted run in its own cache dir.
    let clean_dir = scratch("resume-clean");
    let clean_socket = start(&clean_dir, "c");
    let mut client = Client::connect(&clean_socket).expect("connect");
    let clean =
        client.request_streaming(&submit_request(&tiny_spec(), true), |_| {}).expect("clean");
    assert_ok(&clean);
    let clean_report = clean.get("report").expect("report").render();
    shutdown(&clean_socket);

    // Interrupted run: cell index 1 panics on every attempt, so the sweep
    // ends with one cached cell, a `start` record and no `end` — the same
    // durable state a kill -9 after cell 0 would leave.
    let dir = scratch("resume");
    let socket = start_with(
        &dir,
        "a",
        ServerConfig {
            faults: Some(FaultPlan::new(23).halt_jobs_from(1).arm()),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(&socket).expect("connect");
    let hurt = client.request_streaming(&submit_request(&tiny_spec(), true), |_| {}).expect("hurt");
    assert_ok(&hurt);
    assert_eq!(field_u64(&hurt, "executed"), 2, "both cells were attempted");
    let report = hurt.get("report").expect("report");
    let failures = match report.get("failures") {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("expected a failures array, got {other:?}"),
    };
    assert_eq!(failures.len(), 1, "exactly the faulted cell is quarantined");
    assert!(
        matches!(failures[0].get("cell"), Some(Json::Str(s)) if s.contains("mcf_like")),
        "quarantine carries the cell descriptor: {}",
        failures[0].render()
    );
    shutdown(&socket);
    for _ in 0..2000 {
        if !socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let cells = tiny_spec().expand_keyed().expect("expands");
    let cache = sim::cache::RunCache::open(dir.join("cache")).expect("open cache");
    let saved = cells.iter().filter(|(_, key)| cache.lookup(key.as_ref().unwrap()).is_some());
    let saved = saved.count() as u64;
    assert_eq!(saved, 1, "the finished cell is in the cache");

    // Restart (fault-free) with resume: the journaled sweep comes back as
    // job 1, re-executes only what the cache lacks, and the final report
    // is byte-identical to the uninterrupted baseline.
    let socket2 = start_with(&dir, "b", ServerConfig { resume: true, ..ServerConfig::default() });
    let mut client = Client::connect(&socket2).expect("connect");
    let resumed = client
        .request(&Json::obj([("cmd", Json::str("wait")), ("job", Json::count(1))]))
        .expect("wait resumed");
    assert_ok(&resumed);
    let hits = field_u64(&resumed, "hits");
    assert!(hits >= saved, "{hits} hits, {saved} cells saved before the restart");
    let executed = field_u64(&resumed, "executed");
    assert_eq!(executed, cells.len() as u64 - hits, "only the unfinished remainder re-executes");
    assert_eq!(executed, 1);
    assert_eq!(resumed.get("report").expect("report").render(), clean_report);
    let stats = client.request(&Json::obj([("cmd", Json::str("stats"))])).expect("stats");
    assert_eq!(field_u64(&stats, "resumed_sweeps"), 1);
    shutdown(&socket2);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&clean_dir);
}

#[test]
fn resume_skips_a_journaled_spec_that_carries_a_retired_key() {
    use sim::journal::SweepJournal;
    // A journal written while `[system] threads` and the top-level
    // `engine` were spec keys: those specs no longer parse, so resume must
    // pass over them and still bring the sweep journaled after them back.
    let dir = scratch("resume-retired-key");
    let mut old = tiny_spec();
    old.name = "with_lane_knob".to_string();
    old.system = Some(sim::SystemOptions {
        geometry: Some("paper-baseline".to_string()),
        ..Default::default()
    });
    let lanes = old.to_json().render().replace("\"geometry\":", "\"threads\":4,\"geometry\":");
    old.name = "with_engine_knob".to_string();
    let engine = old.to_json().render().replace("\"name\":", "\"engine\":\"dense\",\"name\":");
    let journal = SweepJournal::in_cache_dir(dir.join("cache")).expect("journal");
    for (hash, old_json, key) in [("0ld", &lanes, "system.threads"), ("0ld2", &engine, "'engine'")]
    {
        let err = SweepSpec::from_json_str(old_json).expect_err("the key is gone");
        assert!(err.to_string().contains(key), "{err}");
        journal.record_start(hash, old_json, 2).expect("start");
    }
    let spec = tiny_spec();
    let hash = SweepJournal::sweep_hash(&spec);
    journal.record_start(&hash, &spec.to_json().render(), 2).expect("start");
    assert_eq!(journal.load().expect("load").unfinished().count(), 3);
    drop(journal);

    let socket = start_with(&dir, "a", ServerConfig { resume: true, ..ServerConfig::default() });
    let mut client = Client::connect(&socket).expect("connect");
    let resumed = client
        .request(&Json::obj([("cmd", Json::str("wait")), ("job", Json::count(1))]))
        .expect("wait resumed");
    assert_ok(&resumed);
    assert_eq!(field_u64(&resumed, "executed"), 2, "the parseable sweep ran");
    let stats = client.request(&Json::obj([("cmd", Json::str("stats"))])).expect("stats");
    assert_eq!((field_u64(&stats, "resumed_sweeps"), field_u64(&stats, "jobs")), (1, 1));
    shutdown(&socket);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaignctl_refuses_a_mistyped_flag_before_connecting() {
    // `--outt` used to be ignored: the report was silently not written and
    // the exit status was 0. No server listens on this socket, so reaching
    // the connect would exit 1 instead.
    let dir = scratch("ctl-typo");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_campaignctl"))
        .arg("--socket")
        .arg(dir.join("nobody.sock"))
        .args(["wait", "1", "--outt", "r.json"])
        .output()
        .expect("run campaignctl");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("'--outt'"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaignctl_reports_a_bad_spec_whether_or_not_a_server_listens() {
    // The spec is read before connecting: with no server listening, a spec
    // error used to be reported as `cannot connect to ...`.
    let dir = scratch("ctl-bad-spec");
    let spec = dir.join("bad.toml");
    std::fs::write(
        &spec,
        "name = \"bad\"\nworkloads = [\"mcf_like\"]\ntrackers = [\"para\"]\n\
         [params.comet]\nrat_entries = 64\n",
    )
    .expect("write spec");
    let submit = |socket: &std::path::Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_campaignctl"))
            .arg("--socket")
            .arg(socket)
            .arg("submit")
            .arg(&spec)
            .output()
            .expect("run campaignctl")
    };
    let absent = submit(&dir.join("nobody.sock"));
    let socket = start(&dir, "live");
    let live = submit(&socket);
    shutdown(&socket);
    for (server, out) in [("absent", &absent), ("live", &live)] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("does not match any tracker in 'trackers'"), "{server}: {stderr}");
        assert!(!stderr.contains("cannot connect"), "{server}: {stderr}");
    }
    assert_eq!(absent.status.code(), live.status.code());
    assert_eq!(absent.status.code(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn progress_events_round_trip_the_wire_shape() {
    use campaignd::ProgressEvent;
    let e = ProgressEvent { job: 7, done: 3, cells: 18 };
    let j = e.to_json();
    assert_eq!(
        j.render(),
        r#"{"event":"progress","job":7,"done":3,"cells":18}"#,
        "wire shape is part of the protocol"
    );
    assert_eq!(ProgressEvent::from_json(&j), Some(e));
    assert!((e.fraction() - 3.0 / 18.0).abs() < 1e-12);
    // Non-progress lines (e.g. the final completion response) parse to None.
    let done = Json::obj([("ok", Json::Bool(true)), ("job", Json::count(7))]);
    assert_eq!(ProgressEvent::from_json(&done), None);
    // Seeded property: any event survives the wire, and one with a count
    // missing, fractional, negative or mistyped is not an event
    // (regression: a fractional `done` used to truncate).
    let mut rng = sim_core::rng::Xoshiro256::seed_from(0x9E7);
    for _ in 0..50 {
        let mut count = || rng.next_u64() >> 11;
        let e = ProgressEvent { job: count(), done: count(), cells: count() };
        let Json::Obj(pairs) = e.to_json() else { panic!("events are objects") };
        assert_eq!(ProgressEvent::from_json(&Json::Obj(pairs.clone())), Some(e));
        for i in 1..pairs.len() {
            for bad in [Json::Num(2.5), Json::Num(-1.0), Json::str("3")] {
                let mut broken = pairs.clone();
                broken[i].1 = bad;
                assert_eq!(ProgressEvent::from_json(&Json::Obj(broken)), None, "{}", pairs[i].0);
            }
            let mut missing = pairs.clone();
            missing.remove(i);
            assert_eq!(ProgressEvent::from_json(&Json::Obj(missing)), None, "{}", pairs[i].0);
        }
    }
}

/// One seeded edit of an ASCII request line: flip one of the low seven
/// bits of a byte, insert a printable byte, delete a byte, or truncate.
/// The line stays ASCII, so it stays one or more request lines.
fn mutate_request(line: &mut Vec<u8>, rng: &mut sim_core::rng::Xoshiro256) {
    if line.is_empty() {
        return;
    }
    let at = rng.gen_range(line.len() as u64) as usize;
    match rng.gen_range(4) {
        0 => line[at] ^= 1 << rng.gen_range(7),
        1 => line.insert(at, b' ' + rng.gen_range(95) as u8),
        2 => drop(line.remove(at)),
        _ => line.truncate(at),
    }
}

/// The request lines the seeded fuzz edits: every command, with valid and
/// malformed job ids, a one-cell lookup, and submits that are refused.
fn fuzz_seeds() -> Vec<String> {
    // Refused for four reasons (an unknown tracker, a negative window, and
    // two sections only `spec_run` serves), more than the edits a line
    // gets can remove, so no mutant schedules a cell.
    let refused = r#"{"workloads":["mcf_like"],"trackers":["no-such"],"window_us":-1,"attacker":{},"profile":{}}"#;
    let one_cell = r#"{"workloads":"mcf_like","trackers":"para","window_us":20,"seed":7}"#;
    vec![
        r#"{"cmd":"ping"}"#.to_string(),
        r#"{"cmd":"stats"}"#.to_string(),
        r#"{"cmd":"status","job":1}"#.to_string(),
        r#"{"cmd":"wait","job":1}"#.to_string(),
        r#"{"cmd":"status","job":"1"}"#.to_string(),
        r#"{"cmd":"wait","job":-1}"#.to_string(),
        r#"{"cmd":"wait","job":1.5}"#.to_string(),
        r#"{"cmd":"status","job":1e300}"#.to_string(),
        r#"{"cmd":"wait","job":18446744073709551615}"#.to_string(),
        r#"{"cmd":"no-such","job":1}"#.to_string(),
        format!(r#"{{"cmd":"lookup","spec":{one_cell}}}"#),
        format!(r#"{{"cmd":"submit","spec":{refused},"wait":true}}"#),
        format!(r#"{{"cmd":"submit","spec":{refused},"wait":"yes"}}"#),
        format!(r#"{{"cmd":"submit","spec":{refused}}}"#),
        r#"{"cmd":"submit","spec":[],"wait":true}"#.to_string(),
        r#"{"cmd":"submit","wait":true}"#.to_string(),
    ]
}

/// One connection of the seeded request fuzz: eight writes of one to four
/// lines each. A line is a seed edited up to three times (an edit may
/// split a line or blank it) or, one time in four, a `live` line as it
/// is; one line in eight then gets a byte that makes it not UTF-8. Every
/// line must get exactly one final response (a waiting submit's progress
/// lines come before its own), and then nothing more is owed. Returns how
/// many lines were answered.
fn fuzz_connection(
    socket: &std::path::Path,
    seeds: &[String],
    live: &[String],
    rng: &mut sim_core::rng::Xoshiro256,
) -> usize {
    use std::io::{BufRead, BufReader, Write};
    let pick = |rng: &mut sim_core::rng::Xoshiro256, lines: &[String]| -> Vec<u8> {
        lines[rng.gen_range(lines.len() as u64) as usize].clone().into()
    };
    let mut conn = std::os::unix::net::UnixStream::connect(socket).expect("connect");
    conn.set_read_timeout(Some(std::time::Duration::from_secs(10))).expect("timeout");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut answered = 0;
    for _ in 0..8 {
        let mut bytes = Vec::new();
        for _ in 0..=rng.gen_range(4) {
            let mut line = if !live.is_empty() && rng.gen_range(4) == 0 {
                pick(rng, live)
            } else {
                let mut line = pick(rng, seeds);
                for _ in 0..rng.gen_range(4) {
                    mutate_request(&mut line, rng);
                }
                line
            };
            if rng.gen_range(8) == 0 {
                let at = rng.gen_range(line.len() as u64 + 1) as usize;
                line.insert(at, 0x80 | rng.next_u64() as u8);
            }
            bytes.extend_from_slice(&line);
            bytes.push(b'\n');
        }
        // A line that is not UTF-8 is never blank: U+FFFD is no space.
        let text = String::from_utf8_lossy(&bytes);
        let expected = text.lines().filter(|line| !line.trim().is_empty()).count();
        conn.write_all(&bytes).expect("send");
        for _ in 0..expected {
            let mut response = String::new();
            while response.is_empty() || response.starts_with(r#"{"event":"progress""#) {
                response.clear();
                let read = reader.read_line(&mut response).expect("one response per line");
                assert!(read > 0, "{text:?}: the connection closed");
            }
            assert!(response.starts_with(r#"{"ok":"#), "{text:?} got {response:?}");
            Json::parse(&response).unwrap_or_else(|e| panic!("{e}: {response:?}"));
        }
        answered += expected;
    }
    // Nothing more is owed: the next line answered is this ping's.
    conn.write_all(b"{\"cmd\":\"ping\"}\n").expect("ping");
    let mut pong = String::new();
    reader.read_line(&mut pong).expect("pong");
    assert_eq!(pong, "{\"ok\":true,\"pong\":true}\n");
    answered
}

#[test]
fn mutated_request_lines_each_get_exactly_one_final_response() {
    let dir = scratch("request-fuzz");
    let socket = start(&dir, "a");
    let seeds = fuzz_seeds();
    let mut rng = sim_core::rng::Xoshiro256::seed_from(0x5E9D);
    let connections = 100;
    let lines: usize =
        (0..connections).map(|_| fuzz_connection(&socket, &seeds, &[], &mut rng)).sum();
    assert!(lines > 8 * connections, "{lines} lines in {} writes", 8 * connections);
    let mut client = Client::connect(&socket).expect("connect");
    let stats = client.request(&Json::obj([("cmd", Json::str("stats"))])).expect("stats");
    let counts = ["executed", "jobs", "active"].map(|key| field_u64(&stats, key));
    assert_eq!(counts, [0, 0, 0], "no mutant ran a job: {}", stats.render());
    shutdown(&socket);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mutated_request_lines_around_a_live_job_each_get_exactly_one_final_response() {
    use sim::runner::RunnerConfig;
    let dir = scratch("request-fuzz-live");
    let socket = start(&dir, "a");
    // Long enough that the fuzz reaches the job while it runs.
    let mut spec = tiny_spec();
    spec.options.window_us = Some(60.0);
    let mut client = Client::connect(&socket).expect("connect");
    let queued = client.request(&submit_request(&spec, false)).expect("submit");
    assert_ok(&queued);
    let job = field_u64(&queued, "job");
    // Unedited: an edit of the spec could make it simulate new cells.
    let live = [
        format!(r#"{{"cmd":"status","job":{job}}}"#),
        format!(r#"{{"cmd":"wait","job":{job}}}"#),
        submit_request(&spec, true).render(),
    ];
    let seeds = fuzz_seeds();
    let status = Json::obj([("cmd", Json::str("status")), ("job", Json::count(job))]);
    let mut rng = sim_core::rng::Xoshiro256::seed_from(0x11FE);
    let (mut connections, mut while_running) = (0, 0);
    loop {
        let state = client.request(&status).expect("status");
        let running = state.get("state") == Some(&Json::str("running"));
        if !running && connections >= 20 {
            break;
        }
        while_running += usize::from(running);
        fuzz_connection(&socket, &seeds, &live, &mut rng);
        connections += 1;
    }
    assert!(while_running > 0, "the job finished before the fuzz reached it");
    // The job's report is a clean run's, and each of its cells ran once
    // however many submits shared them.
    let wait = Json::obj([("cmd", Json::str("wait")), ("job", Json::count(job))]);
    let done = client.request(&wait).expect("wait");
    assert_ok(&done);
    let (clean, _) = spec.run_expanded(
        spec.expand_keyed().expect("expands"),
        None,
        None,
        &RunnerConfig::default(),
    );
    assert_eq!(done.get("report").expect("report").render(), clean.to_json().render());
    let stats = client.request(&Json::obj([("cmd", Json::str("stats"))])).expect("stats");
    assert_eq!(field_u64(&stats, "executed"), 2, "{}", stats.render());
    assert_eq!(field_u64(&stats, "active"), 0, "{}", stats.render());
    shutdown(&socket);
    let _ = std::fs::remove_dir_all(&dir);
}
