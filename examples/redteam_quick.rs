//! A miniature red-team campaign: the fixed attack matrix plus a short
//! worst-case search against two trackers, in a few seconds.
//!
//! Run with: `cargo run --release --example redteam_quick`

use dapper_repro::redteam::{run_campaign, CampaignConfig};
use dapper_repro::sim::TrackerSel;

fn main() {
    let mut cfg = CampaignConfig::new(
        vec![TrackerSel::by_key("dapper-h").unwrap(), TrackerSel::by_key("hydra").unwrap()],
        "libquantum_like",
    );
    cfg.arena.window_us = 120.0;
    cfg.search_budget = 12;

    let report = run_campaign(&cfg, None);
    println!("resilience leaderboard (worst case per tracker, best defense first):");
    print!("{}", report.leaderboard_table());
    for s in &report.searches {
        println!(
            "{}: search best {:.2}x vs tailored {:.2}x (seed {:#x} reproduces it)",
            s.tracker, s.best.slowdown, s.tailored.slowdown, s.seed
        );
    }
}
