//! The global clock domain.
//!
//! Everything in the simulator runs on the **memory-bus clock** of a
//! DDR5-6400 part: 3.2 GHz, i.e. one cycle every 0.3125 ns. Cores nominally
//! run at 4 GHz (Table I); instead of modelling two clock domains we scale
//! core throughput by the 4/3.2 ratio (see the `cpu` crate).
//!
//! # Example
//!
//! ```
//! use sim_core::time::{ns_to_cycles, cycles_to_ns, us_to_cycles, BUS_FREQ_GHZ};
//!
//! assert_eq!(BUS_FREQ_GHZ, 3.2);
//! assert_eq!(ns_to_cycles(48.0), 154); // tRC rounds up
//! assert_eq!(us_to_cycles(3.9), 12480); // tREFI
//! assert!((cycles_to_ns(154) - 48.125).abs() < 1e-9);
//! ```

/// A point in time or a duration, measured in memory-bus cycles.
pub type Cycle = u64;

/// Memory-bus frequency in GHz (DDR5-6400: 3.2 GHz clock, 6.4 GT/s data).
pub const BUS_FREQ_GHZ: f64 = 3.2;

/// Nominal core frequency in GHz (Table I).
pub const CORE_FREQ_GHZ: f64 = 4.0;

/// Converts nanoseconds to bus cycles, rounding up (timing constraints are
/// minimums, so rounding up is the conservative direction).
pub fn ns_to_cycles(ns: f64) -> Cycle {
    (ns * BUS_FREQ_GHZ).ceil() as Cycle
}

/// Whether `us` is a usable window length in microseconds: finite and
/// positive. Spec keys and command-line flags share this one rule, so a
/// zero, negative, NaN or infinite window is refused where it is named,
/// not run.
pub fn is_positive_us(us: f64) -> bool {
    us.is_finite() && us > 0.0
}

/// Converts microseconds to bus cycles, rounding up.
pub fn us_to_cycles(us: f64) -> Cycle {
    ns_to_cycles(us * 1_000.0)
}

/// Converts milliseconds to bus cycles, rounding up.
pub fn ms_to_cycles(ms: f64) -> Cycle {
    ns_to_cycles(ms * 1_000_000.0)
}

/// Converts a cycle count back to nanoseconds.
pub fn cycles_to_ns(cycles: Cycle) -> f64 {
    cycles as f64 / BUS_FREQ_GHZ
}

/// Converts a cycle count to microseconds.
pub fn cycles_to_us(cycles: Cycle) -> f64 {
    cycles_to_ns(cycles) / 1_000.0
}

/// Converts a cycle count to milliseconds.
pub fn cycles_to_ms(cycles: Cycle) -> f64 {
    cycles_to_ns(cycles) / 1_000_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_are_close() {
        for ns in [0.5, 2.5, 48.0, 295.0, 3900.0] {
            let c = ns_to_cycles(ns);
            let back = cycles_to_ns(c);
            assert!(back >= ns, "rounding must not shorten a constraint");
            assert!(back - ns < 1.0, "rounding error under one cycle: {ns} -> {back}");
        }
    }

    #[test]
    fn trefw_is_about_102m_cycles() {
        // 32 ms refresh window at 3.2 GHz.
        assert_eq!(ms_to_cycles(32.0), 102_400_000);
    }

    #[test]
    fn unit_helpers_agree() {
        assert_eq!(us_to_cycles(1.0), ns_to_cycles(1000.0));
        assert_eq!(ms_to_cycles(1.0), us_to_cycles(1000.0));
        assert!((cycles_to_us(3200) - 1.0).abs() < 1e-12);
        assert!((cycles_to_ms(3_200_000) - 1.0).abs() < 1e-12);
    }
}
