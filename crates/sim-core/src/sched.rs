//! Event-time vocabulary for the time-skipping engine.
//!
//! A component that can be skipped reports a **due cycle**: a lower bound
//! on the first cycle at which stepping it could have an observable
//! effect. The memory controller's is `ChannelController::next_event` in
//! `memctrl`, which carries the contract; a parked core's is its wake
//! cycle in `sim::System`. This module holds what both are written in:
//! [`NEVER`] for "nothing pending at all" (callers clamp it against their
//! own horizon, the end of the simulation window), and two helpers for
//! combining candidate times.

use crate::time::Cycle;

/// "No event pending": the maximal cycle, to be clamped by the caller.
pub const NEVER: Cycle = Cycle::MAX;

/// Clamps a candidate event time into the range callers that track
/// "first effect strictly after the tick I just ran" expect: at least
/// `now + 1` (the current cycle has already been processed) and at most
/// [`NEVER`].
pub fn at_least_next_cycle(t: Cycle, now: Cycle) -> Cycle {
    t.max(now.saturating_add(1))
}

/// Earliest of a set of candidate event times; [`NEVER`] for an empty set.
pub fn earliest<I: IntoIterator<Item = Cycle>>(times: I) -> Cycle {
    times.into_iter().min().unwrap_or(NEVER)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_is_strictly_in_the_future() {
        assert_eq!(at_least_next_cycle(0, 10), 11);
        assert_eq!(at_least_next_cycle(15, 10), 15);
        assert_eq!(at_least_next_cycle(NEVER, NEVER), NEVER, "no overflow at the horizon");
    }

    #[test]
    fn earliest_handles_empty_and_min() {
        assert_eq!(earliest([]), NEVER);
        assert_eq!(earliest([5, 3, 9]), 3);
    }
}
