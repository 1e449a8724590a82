//! Baseline RowHammer trackers.
//!
//! Faithful (behaviour-level) reimplementations of the state-of-the-art
//! host-side mitigations the paper evaluates and attacks:
//!
//! | Module | Scheme | Shared structure a Perf-Attack exploits |
//! |---|---|---|
//! | [`hydra`] | Hydra (ISCA'22) | Row Counter Cache misses → DRAM counter traffic |
//! | [`start`] | START (HPCA'24) | reserved-LLC counter region misses → DRAM traffic |
//! | [`comet`] | CoMeT (HPCA'24) | Recent Aggressor Table thrash → full-rank reset sweeps |
//! | [`abacus`] | ABACuS (Security'24) | Misra-Gries spillover overflow → channel reset sweeps |
//! | [`blockhammer`] | BlockHammer (HPCA'21) | Bloom-filter false positives → benign throttling |
//! | [`para`] | PARA (ISCA'14) | stateless; frequent mitigations at low N_RH |
//! | [`pride`] | PrIDE (ISCA'24) | per-tREFI mitigation budget |
//! | [`prac`] | PRAC/QPRAC (DDR5 spec / HPCA'25) | per-ACT counter read-modify-write tax |
//!
//! Every tracker implements [`sim_core::tracker::RowHammerTracker`],
//! covers **one memory channel**, is built from
//! [`sim_core::tracker::TrackerParams`], and publishes its entry of the
//! tracker table as its module's `SPEC`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abacus;
pub mod blockhammer;
pub mod comet;
pub mod hydra;
pub mod para;
pub mod prac;
pub mod pride;
pub mod start;
pub(crate) mod util;

pub use abacus::{Abacus, AbacusParams};
pub use blockhammer::{BlockHammer, BlockHammerParams};
pub use comet::{Comet, CometParams};
pub use hydra::{Hydra, HydraParams};
pub use para::{Para, ParaParams};
pub use prac::{Prac, PracParams};
pub use pride::{Pride, PrideParams};
pub use start::{Start, StartParams};
