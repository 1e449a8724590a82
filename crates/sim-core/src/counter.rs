//! Saturating counter tables stored at hardware width.
//!
//! A tracker's group counters are small SRAM entries: DAPPER's RGC entries
//! and Hydra's GCT entries are one byte each at the paper's N_RH = 500. A
//! [`CounterTable`] stores every counter in the narrowest of `u8`, `u16`
//! and `u32` that holds the table's saturation limit, so its host memory is
//! the SRAM it models: 8K one-byte counters take 8 KiB, not 32. The width
//! follows from the limit alone; it is not a setting.
//!
//! The counters live in a zero-allocated vector, so building a table
//! writes nothing and the host faults pages in only as counters are
//! touched.

/// The counters at one of the three widths.
#[derive(Debug, Clone)]
enum Cells {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
}

/// Runs `$body` with `$v` bound to the counter vector, whatever its width.
macro_rules! each {
    ($cells:expr, $v:ident => $body:expr) => {
        match $cells {
            Cells::U8($v) => $body,
            Cells::U16($v) => $body,
            Cells::U32($v) => $body,
        }
    };
}

/// A table of saturating counters, indexed by group.
///
/// Counters saturate at the table's limit rather than wrapping, as a
/// hardware entry of that width does.
#[derive(Debug, Clone)]
pub struct CounterTable {
    cells: Cells,
    limit: u32,
}

// `each!`'s `u32` arm converts a `u32` to itself.
#[allow(clippy::useless_conversion)]
impl CounterTable {
    /// Creates a zeroed table of `groups` counters saturating at `limit`,
    /// each stored in the narrowest width that holds `limit`.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero or does not fit the host's address space.
    pub fn new(groups: u64, limit: u32) -> Self {
        assert!(groups > 0, "a counter table must have at least one group");
        let n = usize::try_from(groups).expect("a counter table must fit in host memory");
        let cells = match Self::bytes_per_counter(limit) {
            1 => Cells::U8(vec![0; n]),
            2 => Cells::U16(vec![0; n]),
            _ => Cells::U32(vec![0; n]),
        };
        Self { cells, limit }
    }

    /// Bytes per counter of a table saturating at `limit`: 1 up to 255,
    /// 2 up to 65 535, else 4.
    pub fn bytes_per_counter(limit: u32) -> u64 {
        match limit {
            0..=0xFF => 1,
            0x100..=0xFFFF => 2,
            _ => 4,
        }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        each!(&self.cells, v => v.len())
    }

    /// True if the table has no groups (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current count of `group`.
    #[inline]
    pub fn get(&self, group: u64) -> u32 {
        each!(&self.cells, v => u32::from(v[group as usize]))
    }

    /// Saturating increment; returns the new value.
    #[inline]
    pub fn increment(&mut self, group: u64) -> u32 {
        let limit = self.limit;
        each!(&mut self.cells, v => {
            let c = &mut v[group as usize];
            if u32::from(*c) < limit {
                *c += 1;
            }
            u32::from(*c)
        })
    }

    /// Sets `group` to `value` (clamped to the saturation limit).
    #[inline]
    pub fn set(&mut self, group: u64, value: u32) {
        // The clamped value fits the width chosen for the limit.
        let value = value.min(self.limit);
        each!(&mut self.cells, v => v[group as usize] = value as _)
    }

    /// Zeroes every counter.
    pub fn clear(&mut self) {
        each!(&mut self.cells, v => v.fill(0))
    }

    /// The saturation limit.
    pub fn saturation(&self) -> u32 {
        self.limit
    }

    /// Maximum count currently in the table (introspection).
    pub fn max(&self) -> u32 {
        each!(&self.cells, v => v.iter().copied().max().map_or(0, u32::from))
    }

    /// Host bytes the counters occupy: groups times the counter width.
    pub fn host_bytes(&self) -> u64 {
        each!(&self.cells, v => std::mem::size_of_val(&v[..]) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_follows_the_limit() {
        for (limit, width) in [(1, 1), (255, 1), (256, 2), (65_535, 2), (65_536, 4), (u32::MAX, 4)]
        {
            let t = CounterTable::new(1000, limit);
            assert_eq!(CounterTable::bytes_per_counter(limit), width, "limit {limit}");
            assert_eq!(t.host_bytes(), 1000 * width, "limit {limit}");
            assert_eq!(t.len(), 1000);
        }
    }

    #[test]
    fn every_width_saturates_at_its_limit() {
        for limit in [3, 255, 300, 65_535, 70_000, u32::MAX] {
            let mut t = CounterTable::new(2, limit);
            t.set(1, limit - 1);
            assert_eq!(t.increment(1), limit, "limit {limit}");
            assert_eq!(t.increment(1), limit, "limit {limit}: saturated");
            assert_eq!(t.get(1), limit);
            t.set(0, u32::MAX);
            assert_eq!(t.get(0), limit, "limit {limit}: set clamps");
            assert_eq!(t.max(), limit);
            t.clear();
            assert_eq!((t.get(0), t.get(1), t.max()), (0, 0, 0));
        }
    }
}
