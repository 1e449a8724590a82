//! # attacklab — composable adversarial scenarios and red-team campaigns
//!
//! The paper's claim is resilience against *performance attacks*; this
//! crate stops taking the attacker's side for granted. It replaces the
//! fixed menu of hand-written patterns (`workloads::Attack`) with:
//!
//! * [`pattern`] — a SWAGE-style composable pattern engine: primitives
//!   ([`pattern::RowSweep`], [`pattern::HammerRows`],
//!   [`pattern::LineStream`], [`pattern::RandomRows`]) wrapped by
//!   combinators ([`pattern::Burst`], [`pattern::Decoy`],
//!   [`pattern::Feint`], [`pattern::RateLimit`]), all deterministic in
//!   their seed;
//! * [`scenario`] — the [`scenario::ScenarioSpec`] genome that expands into
//!   pattern compositions (every paper attack among them, rebuilt
//!   bit-exactly) and supports one-gene mutation;
//! * [`arena`] — the one evaluation core: (tracker, genome) → cacheable
//!   [`sim::Experiment`], one lazily simulated shared [`Reference`], one
//!   batch call through [`sim::exec::Executor`] against any payload
//!   cache, one [`Score`] per result. The campaign and the search below,
//!   and the `profiler` crate's stages, all evaluate through it;
//! * [`search`](mod@search) — hill-climbing worst-case search on normalized slowdown,
//!   seeded with the paper's tailored attacks so it can only match or beat
//!   them, optionally warm-started from prior genomes, reporting the seed
//!   that reproduces its best find;
//! * [`campaign`] — scenario × tracker matrices over the parallel sweep
//!   runner, with a resilience leaderboard and JSON/CSV export.
//!
//! The `redteam` binary driving all of the above lives in the
//! `attackpipe` crate (`attackpipe::cli`), next to the attacker pipeline
//! and the profiler subcommands it also dispatches.
//!
//! # Quickstart
//!
//! ```no_run
//! use attacklab::{search, Arena, Reference, SearchConfig};
//! let mut cfg = SearchConfig::new("hydra", Arena::new("libquantum_like"));
//! cfg.budget = 20;
//! let report = search(&cfg, &Reference::default(), &[], &mut |_, _| {});
//! println!(
//!     "worst case for {}: {:.2}x slowdown via {} (seed {:#x})",
//!     report.tracker, report.best.slowdown, report.best.name, report.seed
//! );
//! assert!(report.rediscovered_tailored());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod campaign;
pub mod pattern;
pub mod scenario;
pub mod search;

pub use arena::{Arena, EvalStats, Reference, Score};
pub use campaign::{run_campaign, CampaignConfig, CampaignReport, CampaignRow};
pub use pattern::{BoxPattern, PatternGen, PatternTrace};
pub use scenario::{ScenarioSpec, Shape};
pub use search::{evaluate_specs_memo, search, EvalMemo, EvalRecord, SearchConfig, SearchReport};
