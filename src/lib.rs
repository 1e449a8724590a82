//! # DAPPER reproduction — workspace facade
//!
//! This crate re-exports every workspace member so examples and integration
//! tests can reach the whole system through one dependency. The interesting
//! code lives in the member crates:
//!
//! * [`dapper`] — DAPPER-S / DAPPER-H, the paper's contribution,
//! * [`trackers`] — Hydra, START, CoMeT, ABACUS, BlockHammer, PARA, PrIDE,
//!   PRAC baselines,
//! * [`sim`] — the full-system simulator and experiment runner,
//! * [`workloads`] — the 57-workload catalog and the Perf-Attack generators,
//! * [`analysis`] — security/storage/energy models and the RowHammer oracle,
//! * [`redteam`] — red-teaming trackers: the composable scenario genome,
//!   worst-case search and campaigns, the end-to-end attacker pipeline
//!   (timing-side-channel recon → hammer compilation → victim bit-flip
//!   adjudication), the profile → evaluate → attack stages with their
//!   `warroom` dashboard, and the `redteam` command line,
//! * [`dram`], [`memctrl`], [`llcache`], [`cpu`], [`llbc`], [`sim_core`] —
//!   substrates.
//!
//! # Quickstart
//!
//! Trackers resolve through the fixed tracker table by string key (key,
//! display name or alias, with optional parameter overrides):
//!
//! ```no_run
//! use dapper_repro::sim::experiment::{AttackChoice, Experiment};
//!
//! let result = Experiment::quick("milc_like")
//!     .tracker("dapper-h")
//!     .attack(AttackChoice::None)
//!     .run();
//! assert!(result.normalized_performance > 0.5);
//! ```

#![forbid(unsafe_code)]

pub use analysis;
pub use cpu;
pub use dapper;
pub use dram;
pub use llbc;
pub use llcache;
pub use memctrl;
pub use redteam;
pub use sim;
pub use sim_core;
pub use trackers;
pub use workloads;
