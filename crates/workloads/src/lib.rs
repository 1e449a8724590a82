//! Synthetic workloads and Perf-Attack generators.
//!
//! The paper evaluates 57 applications from SPEC2006, SPEC2017, TPC,
//! Hadoop, MediaBench, and YCSB. Those traces are not redistributable, so
//! [`catalog`](mod@catalog) provides 57 synthetic stand-ins whose *memory behaviour*
//! (accesses per kilo-instruction, row locality, footprint, write fraction,
//! reuse skew) is calibrated per suite from published characterisations —
//! e.g. `mcf_like` and `parest_like` are the memory-monsters the paper
//! calls out (429.mcf, 510.parest). See DESIGN.md for the substitution
//! rationale.
//!
//! [`attacks`] implements the RH-Tracker-based Performance Attacks of
//! Section III-B plus the mapping-agnostic streaming/refresh attacks of
//! Section V-E from three stream primitives ([`RowSweep`], [`HammerRows`],
//! [`LineStream`]), each a [`cpu::TraceSource`] an attacker core runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod catalog;
pub mod synth;

pub use attacks::{Attack, HammerRows, LineStream, RowSweep, SweepOrder, RESERVED_TOP_ROWS};
pub use catalog::{catalog, quick_subset, spec_by_name, Suite, WorkloadSpec};
pub use synth::SyntheticTrace;
