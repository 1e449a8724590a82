//! Full-system simulator for the DAPPER reproduction.
//!
//! Assembles the substrates — trace-driven cores (`cpu`), the shared LLC
//! (`llcache`), per-channel memory controllers (`memctrl`) over the DDR5
//! model (`dram`) — around a pluggable RowHammer tracker (`dapper` or
//! `trackers`), and provides the experiment runner every bench binary and
//! figure harness uses.
//!
//! Trackers are resolved through the fixed tracker table in [`registry`]:
//! every defense is constructible by string key plus a parameter map, and
//! the declarative [`spec`] layer turns TOML/JSON
//! experiment descriptions into parallel sweeps. Every cell any front end
//! runs goes through the one [`exec`] path: probe the cache, simulate the
//! misses, save, journal, notify.
//!
//! # Quickstart
//!
//! ```no_run
//! use sim::experiment::{AttackChoice, Experiment};
//!
//! let summary = Experiment::quick("mcf_like")
//!     .tracker("dapper-h")
//!     .attack(AttackChoice::Tailored)
//!     .run();
//! println!(
//!     "{} under attack: {:.3} of baseline",
//!     summary.tracker_name, summary.normalized_performance
//! );
//! ```
//!
//! Parameter overrides ride the tracker selection (here: a quarter-size
//! row counter cache for a Hydra sensitivity point):
//!
//! ```no_run
//! use sim::Experiment;
//!
//! let r = Experiment::quick("mcf_like")
//!     .tracker("hydra")
//!     .tracker_param("rcc_entries", 1024)
//!     .run();
//! # let _ = r;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod exec;
pub mod experiment;
pub mod journal;
pub mod metrics;
pub mod registry;
pub mod runner;
pub mod spec;
pub mod system;
pub mod toml;

pub use cache::{cell_key, cell_key_with_attack_id, CacheRunSummary, CellKey, RunCache};
pub use exec::{Checkpoint, Executor, PayloadCache, Source};
pub use experiment::{
    AttackChoice, AttackerConfig, AttackerKnowledge, CustomAttack, Experiment, ExperimentResult,
    TelemetrySpec, Threads, TrackerSel,
};
pub use journal::{JournalState, SweepJournal, SweepProgress};
pub use metrics::{normalized_performance, RunStats, RunTelemetry, RECOVERY_THRESHOLD};
pub use registry::tracker_keys;
pub use runner::{cell_label, parallel_map, RunnerConfig, SweepError};
pub use spec::{
    AttackerOptions, CacheOptions, ProfileOptions, Series, SpecError, SweepSpec, SystemOptions,
    TelemetryOptions, KNOWN_PROFILE_FAMILIES,
};
pub use system::{Engine, EngineStats, System};
