//! # profiler — profile → evaluate → attack campaign workflow
//!
//! A three-stage red-team campaign against a tracker configuration,
//! porting the shape of CodeyBoi/kyber-not-it's `profile` / `evaluate` /
//! `attack` tooling onto the DAPPER reproduction:
//!
//! 1. **profile** ([`run_profile`]) — sweep cheap short-horizon probe
//!    scenarios over the bank-spread × intensity × pattern-family grid
//!    and score each cell by the benign slowdown it provokes, producing a
//!    [`SensitivityHeatmap`]. Probes read through the content-addressed
//!    run cache, so a warm profile performs **zero** simulations and
//!    reproduces the heatmap byte-identically.
//! 2. **evaluate** ([`run_evaluate`]) — re-run the top-K heatmap cells at
//!    full fidelity and emit a ranked [`VulnReport`].
//! 3. **attack** ([`run_attack`]) — feed the heatmap's hottest genomes
//!    into [`attacklab::search`](attacklab::search()) as warm-start priors, replacing
//!    the hill-climber's cold random restarts; the outcome records how
//!    many fewer evaluations the warm search needed to reach the cold
//!    baseline's worst-case slowdown.
//!
//! Every stage evaluates its genomes through the one core in
//! [`attacklab::arena`] (genome → cacheable cell → shared reference →
//! executor → score) and streams [`CampaignEvent`]s to the observer it
//! is handed. The [`warroom`] module renders those live in a raw-ANSI
//! terminal dashboard (no dependencies, offline-friendly); the
//! `profile` / `evaluate` / `attack` subcommands of the `redteam` binary
//! live with the rest of its command line in `attackpipe::cli`, and
//! [`spec`] routes `[profile]` spec sections from `spec_run`.

#![forbid(unsafe_code)]

pub mod attack;
pub mod evaluate;
pub mod heatmap;
pub mod profile;
pub mod spec;
pub mod warroom;

pub use attack::{run_attack, AttackConfig, AttackOutcome};
pub use evaluate::{run_evaluate, EvaluateConfig, VulnReport, VulnRow};
pub use heatmap::{probe_spec, Family, HeatmapCell, SensitivityHeatmap};
pub use profile::{run_profile, ProfileConfig};
pub use warroom::Dashboard;

/// One live event of a running campaign — what the stages stream and the
/// [`warroom::Dashboard`] renders.
#[derive(Debug, Clone)]
pub enum CampaignEvent {
    /// A stage began (`"profile"`, `"evaluate"`, `"attack"`).
    Stage(&'static str),
    /// One heatmap probe resolved.
    ProbeDone {
        /// Probe family.
        family: Family,
        /// Bank-spread bucket.
        bank_group: u32,
        /// Intensity bucket.
        row_group: u32,
        /// Mean slowdown the probe provoked.
        slowdown: f64,
        /// Whether the run cache answered it without simulating.
        cached: bool,
    },
    /// The search frontier advanced: best slowdown after `evaluation`
    /// candidate evaluations.
    Frontier {
        /// Candidate evaluations spent so far.
        evaluation: u32,
        /// Best slowdown found so far.
        best_slowdown: f64,
    },
    /// Run-cache counters for the stage so far.
    CacheStats {
        /// Cells answered from cache.
        hits: u64,
        /// Cells that simulated.
        misses: u64,
    },
    /// A free-form log line.
    Note(String),
}
