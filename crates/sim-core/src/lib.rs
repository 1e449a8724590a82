//! Shared vocabulary for the DAPPER reproduction.
//!
//! This crate defines the types every other crate in the workspace speaks:
//!
//! * [`addr`] — physical and DRAM coordinates plus the address-mapping scheme,
//! * [`cache`] — a content-addressed blob cache (stable hashing, checksummed
//!   atomic disk store, LRU front) underpinning the run cache and
//!   `campaignd`,
//! * [`cli`] — the strict `--flag value` argument parser every flag-driven
//!   binary shares,
//! * [`time`] — the global clock domain (DDR5 memory-bus cycles) and unit
//!   conversions,
//! * [`config`] — the system configuration mirroring Table I of the paper,
//! * [`counter`] — the saturating group-counter table trackers keep their
//!   SRAM counters in, stored at the width of the hardware entry,
//! * [`fault`] — the deterministic fault-injection plane ([`FaultPlan`] /
//!   [`Injector`]) the chaos suite arms into the cache, runner and
//!   `campaignd` layers,
//! * [`tracker`] — the [`RowHammerTracker`] trait
//!   through which the memory controller consults a mitigation,
//! * [`registry`] — the [`TrackerSpec`] entry through which trackers are
//!   described, parameterized, and built,
//! * [`json`] — a dependency-free JSON builder/parser for spec files and
//!   structured results,
//! * [`req`] — memory requests exchanged by cores, caches, and controllers,
//! * [`rng`] — small deterministic PRNGs used in simulation hot paths,
//! * [`sched`] — the event-time vocabulary ([`sched::NEVER`] and two
//!   helpers) the time-skipping engine's due cycles are written in,
//! * [`stats`] — counters and summary statistics,
//! * [`telemetry`] — the composable [`Probe`] observation
//!   API: typed taps on memory events, per-window counter deltas, and run
//!   lifecycle, with built-in recorders (time series, slowdown traces,
//!   mitigation logs) that attach to a run without perturbing it.
//!
//! # Example
//!
//! ```
//! use sim_core::addr::{DramAddr, Geometry};
//!
//! let geom = Geometry::paper_baseline();
//! let addr = DramAddr::new(0, 1, 3, 2, 4096, 17);
//! let flat = geom.rank_row_index(&addr);
//! let back = geom.addr_from_rank_row_index(addr.channel, addr.rank, flat);
//! assert_eq!((back.bank_group, back.bank, back.row), (3, 2, 4096));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod cache;
pub mod cli;
pub mod config;
pub mod counter;
pub mod events;
pub mod fault;
pub mod json;
pub mod registry;
pub mod req;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod tracker;

pub use addr::{DramAddr, Geometry, PhysAddr};
pub use cache::{CacheStats, DiskStore};
pub use config::SystemConfig;
pub use counter::CounterTable;
pub use events::MemEvent;
pub use fault::{FaultAction, FaultPlan, FaultRule, FaultSite, Injector, Trigger};
pub use registry::{ParamSpec, ParamValue, RegistryError, TrackerSpec};
pub use req::{AccessKind, MemRequest, SourceId};
pub use telemetry::{
    LatencyProbe, LatencySample, MitigationLog, NullProbe, Probe, SlowdownTrace, Telemetry,
    TimeSeriesRecorder, WindowSample,
};
pub use time::Cycle;
pub use tracker::{Activation, RowHammerTracker, StorageOverhead, TrackerAction, TrackerParams};
