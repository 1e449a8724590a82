//! # attacklab — composable adversarial scenarios and red-team campaigns
//!
//! The paper's claim is resilience against *performance attacks*; this
//! crate stops taking the attacker's side for granted. It replaces the
//! fixed menu of hand-written patterns (`workloads::Attack`) with:
//!
//! * [`pattern`] — a SWAGE-style composable pattern engine: primitives
//!   ([`pattern::RowSweep`], [`pattern::HammerRows`],
//!   [`pattern::LineStream`], [`pattern::RandomRows`]) wrapped by
//!   combinators ([`pattern::Interleave`], [`pattern::Burst`],
//!   [`pattern::Decoy`], [`pattern::Feint`], [`pattern::RateLimit`]), all
//!   deterministic in their seed;
//! * [`scenario`] — the [`scenario::ScenarioSpec`] genome that expands into
//!   pattern compositions (every paper attack among them, rebuilt
//!   bit-exactly) and supports one-gene mutation;
//! * [`search`](mod@search) — hill-climbing worst-case search on normalized slowdown,
//!   seeded with the paper's tailored attacks so it can only match or beat
//!   them, reporting the seed that reproduces its best find;
//! * [`campaign`] — scenario × tracker matrices over the parallel sweep
//!   runner, with a resilience leaderboard and JSON/CSV export;
//! * [`cli`] — the `redteam` binary driving all of the above.
//!
//! # Quickstart
//!
//! ```no_run
//! use attacklab::search::{search, SearchConfig};
//! let mut cfg = SearchConfig::new("hydra", "libquantum_like");
//! cfg.budget = 20;
//! let report = search(&cfg);
//! println!(
//!     "worst case for {}: {:.2}x slowdown via {} (seed {:#x})",
//!     report.tracker, report.best.slowdown, report.best.name, report.seed
//! );
//! assert!(report.rediscovered_tailored());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod cli;
pub mod pattern;
pub mod scenario;
pub mod search;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport, CampaignRow};
pub use pattern::{BoxPattern, PatternGen, PatternTrace};
pub use scenario::{ScenarioSpec, Shape};
pub use search::{
    evaluate_specs_cached, evaluate_specs_memo, search, search_seeded, search_seeded_observed,
    EvalMemo, SearchConfig, SearchReport,
};
