//! Physical and DRAM addressing.
//!
//! The simulated machine exposes a flat physical address space that the
//! memory controller decodes into DRAM coordinates
//! (channel / rank / bank group / bank / row / column) according to a
//! [`Geometry`]. Trackers additionally need a *flat row index within a rank*
//! — the 21-bit domain (2M rows for the baseline) that DAPPER's secure hash
//! permutes — provided by [`Geometry::rank_row_index`].

/// A flat physical byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// Returns the 64-byte cache-line index of this address.
    pub fn line(self) -> u64 {
        self.0 >> 6
    }
}

impl std::fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// DRAM coordinates of one column access.
///
/// `row` identifies a DRAM row within one bank; `col` is the 64-byte column
/// (cache line) within the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DramAddr {
    /// Channel index.
    pub channel: u8,
    /// Rank index within the channel.
    pub rank: u8,
    /// Bank group within the rank.
    pub bank_group: u8,
    /// Bank within the bank group.
    pub bank: u8,
    /// Row within the bank.
    pub row: u32,
    /// 64-byte column within the row.
    pub col: u16,
}

impl DramAddr {
    /// Creates DRAM coordinates from explicit components.
    pub fn new(channel: u8, rank: u8, bank_group: u8, bank: u8, row: u32, col: u16) -> Self {
        Self { channel, rank, bank_group, bank, row, col }
    }

    /// Returns the same coordinates with a different row.
    pub fn with_row(mut self, row: u32) -> Self {
        self.row = row;
        self
    }
}

impl std::fmt::Display for DramAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ch{}/rk{}/bg{}/bk{}/row{:#x}/col{}",
            self.channel, self.rank, self.bank_group, self.bank, self.row, self.col
        )
    }
}

/// DRAM organisation (Table I of the paper).
///
/// The baseline system is a dual-channel, dual-rank DDR5 configuration with
/// 8 bank groups x 4 banks and 64K rows of 8 KB per bank: 32 GB per channel,
/// 64 GB total, 2M rows per rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Number of memory channels.
    pub channels: u8,
    /// Ranks per channel.
    pub ranks: u8,
    /// Bank groups per rank.
    pub bank_groups: u8,
    /// Banks per bank group.
    pub banks_per_group: u8,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Row size in bytes.
    pub row_bytes: u32,
}

// As run-cache cell descriptors spell it.
crate::json_record!(Geometry {
    channels,
    ranks,
    bank_groups,
    banks_per_group,
    rows_per_bank,
    row_bytes,
});

impl Geometry {
    /// The paper's baseline: 2 channels x 2 ranks x 8 bank groups x 4 banks,
    /// 64K rows of 8 KB per bank (Table I).
    pub fn paper_baseline() -> Self {
        Self {
            channels: 2,
            ranks: 2,
            bank_groups: 8,
            banks_per_group: 4,
            rows_per_bank: 64 * 1024,
            row_bytes: 8 * 1024,
        }
    }

    /// The enlarged system of Section III-D: eight channels, 64 GB each.
    pub fn eight_channel() -> Self {
        Self { channels: 8, ..Self::paper_baseline() }
    }

    /// The server-class preset name used by the `[system]` spec section
    /// (`geometry = "enlarged-8ch"`): the Section III-D enlarged system.
    /// Alias of [`Geometry::eight_channel`], named for what it selects
    /// rather than how it differs from the baseline.
    pub fn enlarged_8ch() -> Self {
        Self::eight_channel()
    }

    /// A miniature geometry for fast unit tests (2 ch x 1 rank x 2x2 banks,
    /// 1K rows). Not representative of any real part.
    pub fn tiny() -> Self {
        Self {
            channels: 2,
            ranks: 1,
            bank_groups: 2,
            banks_per_group: 2,
            rows_per_bank: 1024,
            row_bytes: 8 * 1024,
        }
    }

    /// Banks per rank.
    pub fn banks_per_rank(&self) -> u32 {
        self.bank_groups as u32 * self.banks_per_group as u32
    }

    /// Rows per rank (the domain DAPPER's secure hash permutes; 2M in the
    /// baseline).
    pub fn rows_per_rank(&self) -> u64 {
        self.banks_per_rank() as u64 * self.rows_per_bank as u64
    }

    /// Rows per channel.
    pub fn rows_per_channel(&self) -> u64 {
        self.rows_per_rank() * self.ranks as u64
    }

    /// Total rows in the system.
    pub fn total_rows(&self) -> u64 {
        self.rows_per_channel() * self.channels as u64
    }

    /// 64-byte columns per row.
    pub fn cols_per_row(&self) -> u16 {
        (self.row_bytes / 64) as u16
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_rows() * self.row_bytes as u64
    }

    /// Bytes per channel.
    pub fn channel_bytes(&self) -> u64 {
        self.capacity_bytes() / self.channels as u64
    }

    /// Number of bits needed to index a row within a rank.
    pub fn rank_row_bits(&self) -> u32 {
        let rows = self.rows_per_rank();
        assert!(rows.is_power_of_two(), "rank row count must be a power of two");
        rows.trailing_zeros()
    }

    /// Global bank index within a rank (0..banks_per_rank).
    pub fn bank_in_rank(&self, addr: &DramAddr) -> u32 {
        addr.bank_group as u32 * self.banks_per_group as u32 + addr.bank as u32
    }

    /// Flat row index within a rank: `bank_in_rank * rows_per_bank + row`.
    ///
    /// This is the n-bit value (21 bits for the baseline) that DAPPER's LLBC
    /// encrypts.
    pub fn rank_row_index(&self, addr: &DramAddr) -> u64 {
        self.bank_in_rank(addr) as u64 * self.rows_per_bank as u64 + addr.row as u64
    }

    /// Inverse of [`Self::rank_row_index`]: reconstructs full coordinates from
    /// a flat per-rank row index (column set to zero).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for this geometry.
    pub fn addr_from_rank_row_index(&self, channel: u8, rank: u8, index: u64) -> DramAddr {
        assert!(index < self.rows_per_rank(), "row index {index} out of range");
        let bank_flat = (index / self.rows_per_bank as u64) as u32;
        let row = (index % self.rows_per_bank as u64) as u32;
        DramAddr {
            channel,
            rank,
            bank_group: (bank_flat / self.banks_per_group as u32) as u8,
            bank: (bank_flat % self.banks_per_group as u32) as u8,
            row,
            col: 0,
        }
    }

    /// Decodes a physical address into DRAM coordinates.
    ///
    /// Bit layout, LSB first: 6 offset bits (64-byte line), channel bits,
    /// column bits, bank bits, bank-group bits, rank bits, row bits. This
    /// stripes consecutive lines across channels, then across the open row —
    /// the usual open-page-friendly mapping used by Ramulator's baseline
    /// (`RoBaRaCoCh`).
    pub fn decode(&self, p: PhysAddr) -> DramAddr {
        let mut a = p.0 >> 6;
        let take = |a: &mut u64, count: u32| -> u64 {
            if count == 0 {
                return 0;
            }
            let v = *a & ((1u64 << count) - 1);
            *a >>= count;
            v
        };
        let channel = take(&mut a, log2(self.channels as u64));
        let col = take(&mut a, log2(self.cols_per_row() as u64));
        let bank = take(&mut a, log2(self.banks_per_group as u64));
        let bank_group = take(&mut a, log2(self.bank_groups as u64));
        let rank = take(&mut a, log2(self.ranks as u64));
        let row = take(&mut a, log2(self.rows_per_bank as u64));
        DramAddr {
            channel: channel as u8,
            rank: rank as u8,
            bank_group: bank_group as u8,
            bank: bank as u8,
            row: row as u32,
            col: col as u16,
        }
    }

    /// Encodes DRAM coordinates back into a physical address (inverse of
    /// [`Self::decode`]).
    pub fn encode(&self, d: &DramAddr) -> PhysAddr {
        let mut a: u64 = 0;
        let mut shift = 6u32;
        let mut put = |val: u64, count: u32| {
            if count > 0 {
                a |= val << shift;
                shift += count;
            }
        };
        put(d.channel as u64, log2(self.channels as u64));
        put(d.col as u64, log2(self.cols_per_row() as u64));
        put(d.bank as u64, log2(self.banks_per_group as u64));
        put(d.bank_group as u64, log2(self.bank_groups as u64));
        put(d.rank as u64, log2(self.ranks as u64));
        put(d.row as u64, log2(self.rows_per_bank as u64));
        PhysAddr(a)
    }
}

fn log2(v: u64) -> u32 {
    debug_assert!(v.is_power_of_two(), "geometry dimensions must be powers of two");
    v.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_one() {
        let g = Geometry::paper_baseline();
        assert_eq!(g.banks_per_rank(), 32);
        assert_eq!(g.rows_per_rank(), 2 * 1024 * 1024);
        assert_eq!(g.rank_row_bits(), 21);
        assert_eq!(g.capacity_bytes(), 64 * (1u64 << 30));
        assert_eq!(g.channel_bytes(), 32 * (1u64 << 30));
        assert_eq!(g.cols_per_row(), 128);
    }

    #[test]
    fn rank_row_index_round_trip() {
        let g = Geometry::paper_baseline();
        for (bg, bk, row) in [(0, 0, 0), (7, 3, 65535), (3, 1, 12345), (5, 2, 1)] {
            let a = DramAddr::new(1, 1, bg, bk, row, 0);
            let idx = g.rank_row_index(&a);
            let back = g.addr_from_rank_row_index(1, 1, idx);
            assert_eq!(back, a);
        }
    }

    #[test]
    fn decode_encode_round_trip() {
        let g = Geometry::paper_baseline();
        // The baseline addresses 64 GB = 36 bits; stay in range.
        for raw in [0u64, 64, 4096, 0xea_dbee_fac0 & 0xf_ffff_ffc0, 0x7_ffff_ffc0] {
            let p = PhysAddr(raw);
            let d = g.decode(p);
            assert_eq!(g.encode(&d), p, "address {raw:#x}");
        }
    }

    #[test]
    fn consecutive_lines_stripe_channels_then_columns() {
        let g = Geometry::paper_baseline();
        let a = g.decode(PhysAddr(0));
        let b = g.decode(PhysAddr(64));
        let c = g.decode(PhysAddr(128));
        assert_ne!(a.channel, b.channel, "adjacent lines alternate channels");
        assert_eq!(a.channel, c.channel);
        assert_eq!(c.col, a.col + 1, "then walk the open row");
        assert_eq!(a.row, c.row);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_row_index_panics() {
        let g = Geometry::tiny();
        g.addr_from_rank_row_index(0, 0, g.rows_per_rank());
    }
}
