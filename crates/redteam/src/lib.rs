//! # redteam — red-teaming trackers
//!
//! The paper's claim is resilience against *performance attacks*; this
//! crate stops taking the attacker's side for granted. It searches for
//! worst cases instead of replaying the paper's hand-written patterns,
//! makes the attacker's knowledge of the DRAM mapping an experimental
//! axis, and splits a campaign into cached stages. Its modules:
//!
//! * `pattern` and `scenario` — the genome (Swage's hammerer):
//!   seed-deterministic combinators over the attack-stream primitives of
//!   [`workloads::attacks`], and the [`ScenarioSpec`] record that expands
//!   into them (a baseline genome is the paper's attack itself,
//!   [`workloads::Attack::trace`]) and mutates one gene at a time;
//! * `arena` and `search` — the one evaluation core ([`Arena`]: tracker
//!   and genome → cacheable [`sim::Experiment`], one lazily simulated
//!   shared reference, one batch call through [`sim::exec::Executor`],
//!   one score per result) and the hill-climbing worst-case search on
//!   normalized slowdown, seeded with the paper's tailored attacks;
//! * `campaign` — scenario × tracker matrices plus a search per tracker,
//!   a resilience leaderboard and JSON / CSV exports ([`run_campaign`]);
//! * `recon`, `hammer`, `victim` and `pipeline` — the attacker pipeline
//!   per cell ([`run_cell`]): a timing side channel infers the mapping
//!   ([`infer_map`]), the belief compiles into a double-sided hammer,
//!   and victims with per-row thresholds are adjudicated against the
//!   ground-truth oracle; verdicts are cached, and [`attacker_axis`]
//!   adds them to a campaign;
//! * `heatmap`, then `profile` / `evaluate` / `attack` — the stages
//!   (kyber-not-it's shape): a cached sensitivity heatmap
//!   ([`run_profile`]), its top cells at full fidelity, and a search
//!   warm-started from its hottest genomes;
//! * `warroom` — the terminal dashboard the stages stream
//!   [`CampaignEvent`]s to;
//! * `spec` — [`run_spec`], what `spec_run` calls for a spec with an
//!   `[attacker]` or `[profile]` section;
//! * `cli` — the `redteam` command line ([`redteam_main`]).
//!
//! # Quickstart
//!
//! ```no_run
//! use redteam::{run_campaign, CampaignConfig};
//! use sim::TrackerSel;
//!
//! let mut cfg = CampaignConfig::new(vec![TrackerSel::by_key("hydra").unwrap()], "povray_like");
//! cfg.search_budget = 20;
//! let report = run_campaign(&cfg, None);
//! print!("{}", report.leaderboard_table());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod attack;
mod campaign;
mod cli;
mod evaluate;
mod hammer;
mod heatmap;
mod pattern;
mod pipeline;
mod profile;
mod recon;
mod scenario;
mod search;
mod spec;
mod victim;
mod warroom;

pub use arena::{Arena, EvalStats};
pub use campaign::{run_campaign, CampaignConfig, CampaignReport, CampaignRow};
pub use cli::redteam_main;
pub use heatmap::{Family, SensitivityHeatmap};
pub use pipeline::{attacker_axis, run_cell, AttackerSweepReport, PipelineVerdict};
pub use profile::{run_profile, ProfileConfig};
pub use recon::{infer_map, InferredMap};
pub use scenario::{ScenarioSpec, Shape};
pub use search::{EvalRecord, SearchReport};
pub use spec::run_spec;
pub use warroom::CampaignEvent;
