//! `campaignctl` — client for the `campaignd` sweep server.
//!
//! ```text
//! campaignctl submit examples/specs/fig09_quick.toml --out report.json
//! campaignctl status 1
//! campaignctl wait 1 --out report.json
//! campaignctl stats
//! ```
//!
//! `submit` waits by default, streaming progress to stderr and writing
//! the report JSON to `--out` (or summarizing on stdout); `--async`
//! queues the job and prints its id for a later `wait`.

use campaignd::{submit_request, Client};
use sim::runner::SweepError;
use sim::spec::SweepSpec;
use sim_core::json::Json;

const USAGE: &str = "campaignctl — campaignd client

USAGE: campaignctl [--socket PATH] COMMAND [ARGS]

  ping                          liveness check
  submit SPEC.toml [--async] [--out FILE]
                                submit a sweep; waits and streams progress
                                unless --async; --out writes the report JSON
  status JOB                    one-line job state
  wait JOB [--out FILE]         block until a job completes
  stats                         server counters (executions, cache hits)
  shutdown                      stop the server

  --socket PATH                 server socket (default /tmp/campaignd.sock)
";

fn field_u64(j: &Json, key: &str) -> u64 {
    j.field(key).unwrap_or(0)
}

/// Prints a completion object's summary and optionally writes its report.
/// Quarantined cells are rendered as a failure table and turn the exit
/// status non-zero — a red sweep must not look green in a shell script.
fn finish(response: &Json, out: Option<&str>) -> Result<(), String> {
    let report = response.get("report").ok_or("response carried no report")?;
    println!(
        "job {}: {} cells, {} hits, {} executed, {} shared",
        field_u64(response, "job"),
        field_u64(response, "cells"),
        field_u64(response, "hits"),
        field_u64(response, "executed"),
        field_u64(response, "shared"),
    );
    if let Some(path) = out {
        std::fs::write(path, report.render()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("report written to {path}");
    }
    let failures: Vec<SweepError> = report.field("failures").map_err(|e| e.to_string())?;
    if failures.is_empty() {
        return Ok(());
    }
    eprintln!("quarantined cells:");
    eprintln!("  {:>5}  {:<48}  message", "index", "cell");
    for f in &failures {
        eprintln!("  {:>5}  {:<48}  {}", f.index, f.cell, f.message);
    }
    Err(format!("{} cell(s) quarantined", failures.len()))
}

fn expect_ok(response: Json) -> Result<Json, String> {
    match response.get("ok") {
        Some(Json::Bool(true)) => Ok(response),
        _ => {
            let message = match response.get("error") {
                Some(Json::Str(e)) => e.clone(),
                _ => response.render(),
            };
            Err(format!("server error: {message}"))
        }
    }
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        return Err(USAGE.to_string());
    }
    let mut socket = "/tmp/campaignd.sock".to_string();
    if let Some(pos) = args.iter().position(|a| a == "--socket") {
        socket = args.get(pos + 1).ok_or("--socket requires a value")?.clone();
        args.drain(pos..=pos + 1);
    }
    let mut out: Option<String> = None;
    if let Some(pos) = args.iter().position(|a| a == "--out") {
        out = Some(args.get(pos + 1).ok_or("--out requires a value")?.clone());
        args.drain(pos..=pos + 1);
    }
    let wait = if let Some(pos) = args.iter().position(|a| a == "--async") {
        args.remove(pos);
        false
    } else {
        true
    };
    // Every known flag has been drained: a leftover one is a typo, and
    // ignoring it would e.g. silently not write the report.
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("campaignctl: unknown argument '{flag}' (try --help)"));
    }
    let command = args.first().map(String::as_str).unwrap_or("");
    // The request is built before connecting, so a bad spec or job id
    // reports itself whether or not a server is listening.
    let (request, job) = match command {
        "ping" | "stats" | "shutdown" => (Json::obj([("cmd", Json::str(command))]), 0),
        "status" | "wait" => {
            let job = parse_job(&args)?;
            (Json::obj([("cmd", Json::str(command)), ("job", Json::count(job))]), job)
        }
        "submit" => {
            let file = args.get(1).ok_or("submit requires a SPEC.toml path")?;
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
            let spec = SweepSpec::from_toml_str(&text).map_err(|e| format!("{file}: {e}"))?;
            (submit_request(&spec, wait), 0)
        }
        other => return Err(format!("unknown command '{other}' (try --help)")),
    };
    let mut client =
        Client::connect(&socket).map_err(|e| format!("cannot connect to {socket}: {e}"))?;
    if command == "submit" && wait {
        let response = client
            .request_streaming(&request, |event| {
                eprintln!(
                    "  progress: {}/{} cells",
                    field_u64(event, "done"),
                    field_u64(event, "cells")
                );
            })
            .map_err(io_err)?;
        return finish(&expect_ok(response)?, out.as_deref());
    }
    let response = expect_ok(client.request(&request).map_err(io_err)?)?;
    match command {
        "ping" => println!("pong"),
        "submit" => println!(
            "job {} queued ({} cells)",
            field_u64(&response, "job"),
            field_u64(&response, "cells")
        ),
        "status" => println!(
            "job {}: {} ({}/{} cells)",
            job,
            match response.get("state") {
                Some(Json::Str(s)) => s.clone(),
                _ => "unknown".to_string(),
            },
            field_u64(&response, "done"),
            field_u64(&response, "cells"),
        ),
        "wait" => return finish(&response, out.as_deref()),
        "stats" => println!("{}", response.render()),
        _ => println!("server stopping"),
    }
    Ok(())
}

fn parse_job(args: &[String]) -> Result<u64, String> {
    args.get(1).and_then(|a| a.parse().ok()).ok_or_else(|| "expected a numeric job id".to_string())
}

fn io_err(e: std::io::Error) -> String {
    format!("connection failed: {e}")
}

fn main() {
    if let Err(msg) = run() {
        eprintln!("{msg}");
        std::process::exit(if msg.starts_with("campaignctl") { 2 } else { 1 });
    }
}
