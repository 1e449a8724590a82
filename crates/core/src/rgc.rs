//! The Row Group Counter table.

/// A table of saturating group counters (one per row group of a rank).
///
/// One byte per counter up to N_M = 255, matching the paper's 1-byte RGC
/// entries; two bytes up to N_M = 65 535, else four. Counters saturate at
/// the full range of that width ([`DapperConfig::counter_limit`]) rather
/// than wrapping, and the host stores each at that width, so a rank's
/// table takes the 8 KB of SRAM the paper sizes it at.
///
/// [`DapperConfig::counter_limit`]: crate::DapperConfig::counter_limit
pub type RgcTable = sim_core::counter::CounterTable;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increments_saturate() {
        let mut t = RgcTable::new(4, 3);
        assert_eq!(t.increment(1), 1);
        assert_eq!(t.increment(1), 2);
        assert_eq!(t.increment(1), 3);
        assert_eq!(t.increment(1), 3, "saturated");
        assert_eq!(t.get(0), 0);
    }

    #[test]
    fn set_clamps() {
        let mut t = RgcTable::new(2, 255);
        t.set(0, 1000);
        assert_eq!(t.get(0), 255);
    }

    #[test]
    fn clear_zeroes() {
        let mut t = RgcTable::new(2, 255);
        t.increment(0);
        t.increment(1);
        t.clear();
        assert_eq!(t.max(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn zero_groups_rejected() {
        let _ = RgcTable::new(0, 255);
    }
}
