//! # attackpipe — the end-to-end attacker pipeline
//!
//! Simulator studies (this reproduction included, before this crate)
//! grant the attacker a free superpower: perfect knowledge of the DRAM
//! address mapping, so every hammer lands on true same-bank adjacent
//! rows. Real attackers start from nothing but a virtual address space
//! and a timer. This crate closes that gap with a three-stage pipeline
//! that makes *attacker knowledge* an experimental axis
//! ([`sim::AttackerKnowledge`]):
//!
//! 1. **Recon** ([`recon`]) — a Spoiler/DRAMA-style timing campaign:
//!    probe pairs of physical addresses through the real simulated
//!    memory system and classify row-buffer *conflicts* (slow) against
//!    row hits and bank parallelism (fast), using nothing a userspace
//!    attacker could not observe (issue→completion latency via
//!    [`sim_core::telemetry::LatencyProbe`]). The result is an
//!    [`recon::InferredMap`]: a believed row stride, per-pair bank
//!    co-location verdicts with confidence, and an estimated mitigation
//!    cadence.
//! 2. **Hammer** ([`hammer`]) — compiles the (possibly wrong) belief
//!    into a double-sided aggressor pattern driven through the
//!    [`attacklab::pattern::PatternGen`] engine; inference errors blunt
//!    the attack exactly as they would on hardware.
//! 3. **Victim** ([`victim`]) — places victim rows with per-row
//!    HammerCount thresholds (real DIMMs have weak cells) and
//!    adjudicates bit flips against the ground-truth oracle's peak
//!    disturbance ([`analysis::OracleProbe::peak_damage_at`]), yielding
//!    a flips-vs-slowdown verdict per tracker.
//!
//! The [`pipeline`] module drives all three stages per experiment cell,
//! caches verdicts content-addressed (a warm re-run simulates nothing),
//! and powers both the `spec_run` `[attacker]` section and the
//! `redteam --attacker` campaign axis. The [`cli`] module is the whole
//! `redteam` command line: the attacklab campaign, that axis, and the
//! profiler's `profile` / `evaluate` / `attack` stages.
//!
//! # Quickstart
//!
//! ```no_run
//! use sim::{AttackerConfig, AttackerKnowledge, Experiment};
//!
//! let e = Experiment::quick("libquantum_like")
//!     .tracker("para")
//!     .attacker(AttackerConfig::new(AttackerKnowledge::TimingRecon));
//! let reference = e.reference();
//! let verdict = attackpipe::pipeline::run_cell(&e, &reference);
//! println!(
//!     "{}: {} flips at {:.3} of baseline (map accuracy {:?})",
//!     verdict.tracker, verdict.flips, verdict.normalized_performance,
//!     verdict.recon_accuracy
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod hammer;
pub mod pipeline;
pub mod recon;
pub mod victim;

pub use cli::redteam_main;
pub use hammer::{HammerPlan, PhysRoundRobin};
pub use pipeline::{
    attacker_axis, run_attacker_sweep, run_cell, AttackerSweepReport, PipelineVerdict,
};
pub use recon::{Belief, InferredMap, KnowledgeModel, PairVerdict};
pub use victim::{FlipVerdict, VictimOrchestrator, VictimPlacement};
