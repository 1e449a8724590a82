//! Deterministic, seed-driven fault injection for the campaign stack.
//!
//! Resilience claims are only as good as the faults they were tested
//! against, so this module gives every infrastructure layer a common
//! *fault plane*: a [`FaultPlan`] is a seeded, declarative schedule of
//! faults ([`FaultRule`]s), armed into an [`Injector`] that the cache
//! store, the cell executor, and `campaignd` consult at
//! well-known [`FaultSite`]s. Production paths hold an
//! `Option<Arc<Injector>>` that is `None` unless a chaos test armed a
//! plan, so the unarmed hook is a single branch on an `Option` — no
//! atomics touched, no rules scanned.
//!
//! Determinism is the contract that makes chaos tests assertable:
//!
//! * every probe of a site bumps a per-site atomic occurrence counter, so
//!   `nth`-triggered rules fire at a reproducible point in any *serial*
//!   site (cache reads, client streams);
//! * sites probed concurrently (sweep jobs) pass an
//!   explicit index ([`Injector::check_indexed`]) and rules target that
//!   index, which is stable regardless of thread interleaving;
//! * every rule carries a fire *budget* (default: once), so "the fault
//!   happens exactly N times, then the site recovers" is expressible;
//! * payload damage (which byte a bit-flip hits) derives from the plan's
//!   seed, never from ambient randomness.
//!
//! ```
//! use sim_core::fault::{FaultAction, FaultPlan, FaultSite};
//!
//! let inj = FaultPlan::new(7).fail_cache_read_nth(1).arm();
//! assert_eq!(inj.check(FaultSite::CacheRead), None); // occurrence 0
//! assert_eq!(inj.check(FaultSite::CacheRead), Some(FaultAction::IoError));
//! assert_eq!(inj.check(FaultSite::CacheRead), None); // budget spent
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where in the stack a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// [`crate::cache::DiskStore::get`]'s disk path (front hits bypass it).
    CacheRead,
    /// [`crate::cache::DiskStore::put`].
    CacheWrite,
    /// A sweep cell about to run (`sim::exec`); indexed by its position
    /// among the cells that simulate.
    JobRun,
    /// A `campaignd` connection streaming progress events to a client.
    ClientStream,
}

const SITE_COUNT: usize = 4;

fn site_idx(site: FaultSite) -> usize {
    match site {
        FaultSite::CacheRead => 0,
        FaultSite::CacheWrite => 1,
        FaultSite::JobRun => 2,
        FaultSite::ClientStream => 3,
    }
}

/// What happens when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the operation with a synthetic IO error.
    IoError,
    /// Flip one payload byte (position derived from the plan seed).
    BitFlip,
    /// Truncate the payload mid-entry.
    Truncate,
    /// Crash after writing the temp file but before the rename commits.
    CrashBeforeRename,
    /// Panic inside the job body (exercises catch-unwind + quarantine).
    Panic,
    /// Sever the client connection mid-stream.
    Disconnect,
}

/// When a rule fires, relative to its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// On the `n`th probe of the site (0-based). Only meaningful for
    /// sites probed serially — under concurrency the occurrence order is
    /// scheduling-dependent.
    Nth(u64),
    /// When the caller-supplied index equals `n` (job index). Stable
    /// under any thread interleaving.
    Index(u64),
    /// When the caller-supplied index is `>= n`. Used to "kill" the tail
    /// of a sweep deterministically.
    IndexAtLeast(u64),
    /// On every probe (combine with a budget to bound the blast radius).
    Always,
}

/// One scheduled fault: fire `action` at `site` when `trigger` matches,
/// at most `budget` times (`None` = unlimited).
#[derive(Debug, Clone, Copy)]
pub struct FaultRule {
    /// Where the fault strikes.
    pub site: FaultSite,
    /// What the fault does.
    pub action: FaultAction,
    /// When it fires.
    pub trigger: Trigger,
    /// How many times it may fire in total (`None` = every match).
    pub budget: Option<u64>,
}

/// A declarative, seeded schedule of faults. Build one per chaos
/// scenario, then [`FaultPlan::arm`] it into the layer under test.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan with the given damage seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, rules: Vec::new() }
    }

    /// Adds an arbitrary rule.
    pub fn rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    fn once(self, site: FaultSite, action: FaultAction, trigger: Trigger) -> FaultPlan {
        self.rule(FaultRule { site, action, trigger, budget: Some(1) })
    }

    /// IO-error the `n`th disk read (0-based), once.
    pub fn fail_cache_read_nth(self, n: u64) -> FaultPlan {
        self.once(FaultSite::CacheRead, FaultAction::IoError, Trigger::Nth(n))
    }

    /// IO-error the `n`th write (0-based), once.
    pub fn fail_cache_write_nth(self, n: u64) -> FaultPlan {
        self.once(FaultSite::CacheWrite, FaultAction::IoError, Trigger::Nth(n))
    }

    /// Bit-flip the payload of the `n`th disk read, once.
    pub fn flip_cache_read_nth(self, n: u64) -> FaultPlan {
        self.once(FaultSite::CacheRead, FaultAction::BitFlip, Trigger::Nth(n))
    }

    /// Truncate the payload of the `n`th disk read, once.
    pub fn truncate_cache_read_nth(self, n: u64) -> FaultPlan {
        self.once(FaultSite::CacheRead, FaultAction::Truncate, Trigger::Nth(n))
    }

    /// Crash the `n`th write between temp-file write and rename, once.
    pub fn crash_cache_write_nth(self, n: u64) -> FaultPlan {
        self.once(FaultSite::CacheWrite, FaultAction::CrashBeforeRename, Trigger::Nth(n))
    }

    /// Panic sweep job `index` whenever it runs (permanent quarantine).
    pub fn panic_job_always(self, index: u64) -> FaultPlan {
        self.rule(FaultRule {
            site: FaultSite::JobRun,
            action: FaultAction::Panic,
            trigger: Trigger::Index(index),
            budget: None,
        })
    }

    /// Panic every sweep job at index `>= index` —
    /// the in-process stand-in for killing a sweep partway through.
    pub fn halt_jobs_from(self, index: u64) -> FaultPlan {
        self.rule(FaultRule {
            site: FaultSite::JobRun,
            action: FaultAction::Panic,
            trigger: Trigger::IndexAtLeast(index),
            budget: None,
        })
    }

    /// Sever the `n`th client progress stream, once.
    pub fn disconnect_client_nth(self, n: u64) -> FaultPlan {
        self.once(FaultSite::ClientStream, FaultAction::Disconnect, Trigger::Nth(n))
    }

    /// Arms the plan: freezes the rules into a shareable [`Injector`].
    pub fn arm(self) -> Arc<Injector> {
        let fired = self.rules.iter().map(|_| AtomicU64::new(0)).collect();
        Arc::new(Injector {
            seed: self.seed,
            rules: self.rules,
            occurrences: std::array::from_fn(|_| AtomicU64::new(0)),
            fired,
        })
    }
}

/// An armed [`FaultPlan`]: thread-safe, probed via [`Injector::check`] /
/// [`Injector::check_indexed`] at each [`FaultSite`].
#[derive(Debug)]
pub struct Injector {
    seed: u64,
    rules: Vec<FaultRule>,
    occurrences: [AtomicU64; SITE_COUNT],
    fired: Vec<AtomicU64>,
}

impl Injector {
    /// Probes a serial site. Bumps the site's occurrence counter and
    /// returns the action of the first matching rule with budget left.
    pub fn check(&self, site: FaultSite) -> Option<FaultAction> {
        self.probe(site, None)
    }

    /// Probes a concurrent site with an explicit stable index (job
    /// position).
    pub fn check_indexed(&self, site: FaultSite, index: u64) -> Option<FaultAction> {
        self.probe(site, Some(index))
    }

    fn probe(&self, site: FaultSite, index: Option<u64>) -> Option<FaultAction> {
        let occ = self.occurrences[site_idx(site)].fetch_add(1, Ordering::SeqCst);
        for (i, rule) in self.rules.iter().enumerate() {
            if rule.site != site {
                continue;
            }
            let matched = match rule.trigger {
                Trigger::Nth(n) => occ == n,
                Trigger::Index(n) => index == Some(n),
                Trigger::IndexAtLeast(n) => index.is_some_and(|ix| ix >= n),
                Trigger::Always => true,
            };
            if !matched {
                continue;
            }
            match rule.budget {
                None => {
                    self.fired[i].fetch_add(1, Ordering::SeqCst);
                    return Some(rule.action);
                }
                Some(budget) => {
                    // Claim one unit of budget atomically so concurrent
                    // probes cannot overspend it.
                    let claim =
                        self.fired[i].fetch_update(Ordering::SeqCst, Ordering::SeqCst, |fired| {
                            (fired < budget).then_some(fired + 1)
                        });
                    if claim.is_ok() {
                        return Some(rule.action);
                    }
                }
            }
        }
        None
    }

    /// The plan's damage seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total fires across all rules targeting `site`.
    pub fn fired(&self, site: FaultSite) -> u64 {
        self.rules
            .iter()
            .zip(&self.fired)
            .filter(|(r, _)| r.site == site)
            .map(|(_, f)| f.load(Ordering::SeqCst))
            .sum()
    }

    /// Total fires across every rule.
    pub fn fired_total(&self) -> u64 {
        self.fired.iter().map(|f| f.load(Ordering::SeqCst)).sum()
    }

    /// How many times `site` has been probed (armed paths only).
    pub fn probes(&self, site: FaultSite) -> u64 {
        self.occurrences[site_idx(site)].load(Ordering::SeqCst)
    }

    /// Deterministically picks the payload byte a [`FaultAction::BitFlip`]
    /// damages: a seed-derived position, nudged to the nearest ASCII byte
    /// so the damaged text stays valid UTF-8 (the store works in `String`s;
    /// the flip must corrupt the checksum, not the encoding).
    pub fn corrupt(&self, payload: &str) -> String {
        let mut bytes = payload.as_bytes().to_vec();
        if bytes.is_empty() {
            return String::new();
        }
        let start = (crate::cache::checksum64(&self.seed.to_le_bytes()) as usize) % bytes.len();
        let pos = (start..bytes.len()).chain(0..start).find(|&i| bytes[i] < 0x80).unwrap_or(0);
        bytes[pos] ^= 0x01;
        String::from_utf8(bytes)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_trigger_fires_once_at_the_right_occurrence() {
        let inj = FaultPlan::new(1).fail_cache_read_nth(2).arm();
        assert_eq!(inj.check(FaultSite::CacheRead), None);
        assert_eq!(inj.check(FaultSite::CacheRead), None);
        assert_eq!(inj.check(FaultSite::CacheRead), Some(FaultAction::IoError));
        assert_eq!(inj.check(FaultSite::CacheRead), None);
        assert_eq!(inj.fired(FaultSite::CacheRead), 1);
        assert_eq!(inj.probes(FaultSite::CacheRead), 4);
        // Other sites are untouched.
        assert_eq!(inj.check(FaultSite::CacheWrite), None);
        assert_eq!(inj.fired(FaultSite::CacheWrite), 0);
    }

    #[test]
    fn index_trigger_ignores_occurrence_order() {
        let inj = FaultPlan::new(1).panic_job_always(3).arm();
        // Whatever order a parallel sweep probes in, only index 3 fires.
        for ix in [5u64, 0, 3, 3, 1] {
            let expected = (ix == 3).then_some(FaultAction::Panic);
            assert_eq!(inj.check_indexed(FaultSite::JobRun, ix), expected, "index {ix}");
        }
        assert_eq!(inj.fired(FaultSite::JobRun), 2);
        // A `once` builder fires once, however often its site is probed.
        let inj = FaultPlan::new(1).disconnect_client_nth(0).arm();
        assert_eq!(inj.check(FaultSite::ClientStream), Some(FaultAction::Disconnect));
        for _ in 0..4 {
            assert_eq!(inj.check(FaultSite::ClientStream), None);
        }
        assert_eq!(inj.fired(FaultSite::ClientStream), 1, "budget of one fire");
    }

    #[test]
    fn index_at_least_fires_unbounded() {
        let inj = FaultPlan::new(1).halt_jobs_from(2).arm();
        assert_eq!(inj.check_indexed(FaultSite::JobRun, 0), None);
        assert_eq!(inj.check_indexed(FaultSite::JobRun, 2), Some(FaultAction::Panic));
        assert_eq!(inj.check_indexed(FaultSite::JobRun, 7), Some(FaultAction::Panic));
        assert_eq!(inj.check_indexed(FaultSite::JobRun, 2), Some(FaultAction::Panic));
        assert_eq!(inj.fired(FaultSite::JobRun), 3);
    }

    #[test]
    fn budget_is_not_overspent_under_concurrency() {
        let inj = FaultPlan::new(1)
            .rule(FaultRule {
                site: FaultSite::CacheRead,
                action: FaultAction::IoError,
                trigger: Trigger::Always,
                budget: Some(3),
            })
            .arm();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let inj = Arc::clone(&inj);
                s.spawn(move || {
                    for _ in 0..50 {
                        inj.check(FaultSite::CacheRead);
                    }
                });
            }
        });
        assert_eq!(inj.fired(FaultSite::CacheRead), 3);
        assert_eq!(inj.probes(FaultSite::CacheRead), 400);
    }

    #[test]
    fn corrupt_is_deterministic_and_breaks_the_checksum() {
        let inj = FaultPlan::new(42).arm();
        let payload = "{\"result\":123,\"unicode\":\"caf\u{e9}\"}";
        let damaged = inj.corrupt(payload);
        assert_ne!(damaged, payload);
        assert_eq!(damaged, inj.corrupt(payload), "same seed, same damage");
        assert_ne!(
            FaultPlan::new(43).arm().corrupt(payload),
            damaged,
            "different seed lands elsewhere (for this payload)"
        );
        assert_ne!(
            crate::cache::checksum64(damaged.as_bytes()),
            crate::cache::checksum64(payload.as_bytes())
        );
        assert_eq!(inj.corrupt(""), "");
    }

    #[test]
    fn empty_plan_never_fires() {
        let inj = FaultPlan::new(0).arm();
        for site in [
            FaultSite::CacheRead,
            FaultSite::CacheWrite,
            FaultSite::JobRun,
            FaultSite::ClientStream,
        ] {
            assert_eq!(inj.check(site), None);
        }
        assert_eq!(inj.fired_total(), 0);
    }
}
