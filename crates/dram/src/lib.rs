//! Cycle-level DDR5 device model.
//!
//! This crate is the stand-in for the DRAM half of Ramulator: per-bank state
//! machines with DDR5-6400 timing constraints, rank-level ACT spacing
//! (tRRD/tFAW), the shared data bus, auto-refresh, and the mitigation
//! commands RowHammer defenses issue (victim-row refresh, same-bank RFM and
//! DRFM, and full structure-reset sweeps).
//!
//! The memory controller (`memctrl` crate) asks a [`DramChannel`] when a
//! command may issue ([`DramChannel::earliest_act`] and friends) and then
//! commits it ([`DramChannel::issue_act`], ...). Energy is accounted per
//! event in [`energy::EnergyCounters`].
//!
//! # Example
//!
//! ```
//! use dram::{DramChannel, TimingParams};
//! use sim_core::addr::{DramAddr, Geometry};
//!
//! let geom = Geometry::paper_baseline();
//! let mut ch = DramChannel::new(geom, TimingParams::ddr5_6400());
//! let a = DramAddr::new(0, 0, 0, 0, 42, 3);
//! let t = ch.earliest_act(&a, 0);
//! ch.issue_act(&a, t);
//! assert_eq!(ch.open_row(&a), Some(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod energy;
pub mod timing;

pub use channel::{BankState, DramChannel};
pub use energy::EnergyCounters;
pub use timing::TimingParams;
