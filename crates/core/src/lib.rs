//! # DAPPER: a performance-attack-resilient RowHammer tracker
//!
//! The paper's primary contribution, in two stages:
//!
//! * [`DapperS`] — the secure-hashing template (Section V). Rows are mapped
//!   to shared **Row Group Counters** (RGCs) through a keyed low-latency
//!   block cipher so an attacker cannot learn which rows share a counter;
//!   all counters live in memory-controller SRAM, so there is no counter
//!   traffic to amplify. Vulnerable to the mapping-agnostic *streaming* and
//!   *refresh* attacks.
//! * [`DapperH`] — the hardened tracker (Section VI): **double hashing**
//!   (two independently keyed RGC tables; mitigation only when *both*
//!   groups hit the threshold), a **per-bank bit-vector** that defeats the
//!   streaming attack, **shared-row mitigation** (only rows in both groups
//!   are refreshed — 99.9% of the time exactly the aggressor), and the
//!   **reset-counter** scheme that keeps un-refreshed members soundly
//!   accounted after a mitigation.
//!
//! Both implement [`sim_core::tracker::RowHammerTracker`] and drop into the
//! `memctrl` controller unchanged.
//!
//! # Example
//!
//! ```
//! use dapper::{DapperH, DapperConfig};
//! use sim_core::addr::{DramAddr, Geometry};
//! use sim_core::req::SourceId;
//! use sim_core::tracker::{Activation, RowHammerTracker, TrackerAction};
//!
//! let cfg = DapperConfig::baseline(500, 0, 42);
//! let mut tracker = DapperH::new(cfg);
//! let mut actions = Vec::new();
//! let row = DramAddr::new(0, 0, 3, 1, 0x1234, 0);
//! // Hammer one row to the RowHammer threshold: DAPPER-H mitigates first.
//! for cycle in 0..500u64 {
//!     tracker.on_activation(
//!         Activation { addr: row, source: SourceId(0), cycle },
//!         &mut actions,
//!     );
//! }
//! assert!(actions.iter().any(|a| matches!(a, TrackerAction::MitigateRow(r) if r.row == 0x1234)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod dapper_h;
mod dapper_s;
pub mod registry;
mod rgc;

pub use config::{DapperConfig, ResetStrategy};
pub use dapper_h::DapperH;
pub use dapper_s::DapperS;
pub use registry::{DAPPER_H, DAPPER_S};
pub use rgc::RgcTable;
