//! `campaignd` — the campaign server daemon.
//!
//! ```text
//! cargo run --release --bin campaignd -- --socket /tmp/campaignd.sock --cache-dir run_cache
//! ```
//!
//! Serves sweep submissions over the unix socket until a client sends
//! `shutdown` (`campaignctl shutdown`), then drains in-flight jobs
//! before exiting. See the crate docs for the protocol and single-flight
//! semantics.

use campaignd::{Server, ServerConfig};
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "campaignd — campaign-as-a-service sweep server

USAGE: campaignd [--socket PATH] [--cache-dir DIR] [--resume]
                 [--drain-timeout SECS]

  --socket PATH         unix socket to listen on (default /tmp/campaignd.sock)
  --cache-dir DIR       persist results in a content-addressed run cache
                        (also enables the checkpoint journal)
  --resume              replay the journal on startup and re-run every
                        unfinished sweep (only its unfinished cells
                        re-execute; requires --cache-dir)
  --drain-timeout SECS  cap how long shutdown waits for in-flight jobs
                        (default: wait until they finish)
";

/// The server configuration `args` ask for, or the line to exit 2 with.
fn config_from(args: &[String]) -> Result<ServerConfig, String> {
    let flags = &["--socket", "--cache-dir", "--drain-timeout"];
    let parsed = sim_core::cli::parse(args, flags, &["--resume"], USAGE)?;
    let mut cfg = ServerConfig::default();
    if let Some(socket) = parsed.get("--socket") {
        cfg.socket = PathBuf::from(socket);
    }
    cfg.cache_dir = parsed.get("--cache-dir").map(PathBuf::from);
    cfg.resume = parsed.has("--resume");
    if parsed.get("--drain-timeout").is_some() {
        cfg.drain_timeout = Some(Duration::from_secs(parsed.int("--drain-timeout", 0)?));
    }
    if cfg.resume && cfg.cache_dir.is_none() {
        return Err("--resume needs --cache-dir (the journal lives there)".to_string());
    }
    Ok(cfg)
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = config_from(&args)?;
    let server = Server::bind(cfg).map_err(|e| format!("cannot bind: {e}"))?;
    if server.resumed_sweeps() > 0 {
        println!(
            "campaignd resumed {} unfinished sweep(s) from the journal",
            server.resumed_sweeps()
        );
    }
    println!("campaignd listening on {}", server.socket().display());
    server.serve().map_err(|e| format!("serve failed: {e}"))
}

fn main() {
    if let Err(msg) = run() {
        eprintln!("{msg}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(line: &str) -> Result<ServerConfig, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        config_from(&args)
    }

    #[test]
    fn flags_land_in_their_fields_and_default_when_absent() {
        let cfg = config("").expect("defaults");
        let default = ServerConfig::default();
        assert_eq!(cfg.socket, default.socket);
        assert_eq!(cfg.cache_dir, None);
        assert!(!cfg.resume);
        assert_eq!(cfg.drain_timeout, None);
        let cfg = config("--socket s.sock --cache-dir c --resume --drain-timeout 5")
            .expect("valid flags");
        assert_eq!(cfg.socket, PathBuf::from("s.sock"));
        assert_eq!(cfg.cache_dir, Some(PathBuf::from("c")));
        assert!(cfg.resume);
        assert_eq!(cfg.drain_timeout, Some(Duration::from_secs(5)));
    }

    #[test]
    fn bad_arguments_name_the_offender() {
        for (line, offender) in [
            ("--retreis 2", "'--retreis'"),
            ("--socket", "--socket requires a value"),
            ("--retries 2", "'--retries'"),
            ("--drain-timeout 1.5", "--drain-timeout"),
            ("--resume", "--cache-dir"),
        ] {
            let err = config(line).err().unwrap_or_else(|| panic!("`{line}` was accepted"));
            assert!(err.contains(offender), "`{line}`: {err}");
        }
    }
}
