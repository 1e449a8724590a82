//! The 57-workload catalog.

/// Benchmark suite a workload stands in for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU2006 (23 workloads).
    Spec2006,
    /// SPEC CPU2017 (18 workloads).
    Spec2017,
    /// TPC (4 workloads).
    Tpc,
    /// Hadoop (3 workloads).
    Hadoop,
    /// MediaBench (3 workloads).
    MediaBench,
    /// YCSB (6 workloads).
    Ycsb,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Suite::Spec2006 => "SPEC2K6",
            Suite::Spec2017 => "SPEC2K17",
            Suite::Tpc => "TPC",
            Suite::Hadoop => "Hadoop",
            Suite::MediaBench => "MediaBench",
            Suite::Ycsb => "YCSB",
        };
        f.write_str(s)
    }
}

/// Memory-behaviour parameters of one synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Stand-in name (suffixed `_like` to mark it synthetic).
    pub name: &'static str,
    /// Source suite.
    pub suite: Suite,
    /// LLC accesses per kilo-instruction (post-L2 traffic intensity).
    pub apki: f64,
    /// Probability an access stays within the currently open row.
    pub row_locality: f64,
    /// Working-set size in MiB (drives LLC hit rate).
    pub footprint_mib: u64,
    /// Fraction of accesses that are stores.
    pub write_frac: f64,
    /// Zipf skew over the footprint (None = uniform).
    pub zipf_theta: Option<f64>,
}

impl WorkloadSpec {
    const fn new(
        name: &'static str,
        suite: Suite,
        apki: f64,
        row_locality: f64,
        footprint_mib: u64,
        write_frac: f64,
        zipf_theta: Option<f64>,
    ) -> Self {
        Self { name, suite, apki, row_locality, footprint_mib, write_frac, zipf_theta }
    }

    /// Rough row-buffer-miss-per-kilo-instruction estimate used to split
    /// the figures into "memory intensive" (>= 2 RBMPKI) and the rest, as
    /// the paper's per-workload plots do. The LLC absorbs most accesses for
    /// small footprints; large-footprint traffic mostly misses.
    pub fn rbmpki_estimate(&self) -> f64 {
        let llc_capacity_mib = 8.0;
        let miss_frac = if (self.footprint_mib as f64) <= llc_capacity_mib {
            0.02
        } else {
            1.0 - llc_capacity_mib / self.footprint_mib as f64
        };
        self.apki * miss_frac * (1.0 - self.row_locality)
    }

    /// True if this workload lands in the paper's memory-intensive panel.
    pub fn memory_intensive(&self) -> bool {
        self.rbmpki_estimate() >= 2.0
    }
}

/// The full 57-entry catalog (23 + 18 + 4 + 3 + 3 + 6).
pub fn catalog() -> &'static [WorkloadSpec] {
    use Suite::*;
    const W: &[WorkloadSpec] = &[
        // --- SPEC CPU2006 (23) ---
        WorkloadSpec::new("perlbench_like", Spec2006, 2.1, 0.70, 25, 0.25, None),
        WorkloadSpec::new("bzip2_like", Spec2006, 6.1, 0.55, 96, 0.22, None),
        WorkloadSpec::new("gcc_like", Spec2006, 9.5, 0.50, 60, 0.28, None),
        WorkloadSpec::new("mcf_like", Spec2006, 52.0, 0.18, 1700, 0.18, None), // 429.mcf
        WorkloadSpec::new("milc_like", Spec2006, 28.0, 0.35, 680, 0.20, None),
        WorkloadSpec::new("zeusmp_like", Spec2006, 10.5, 0.55, 510, 0.24, None),
        WorkloadSpec::new("gromacs_like", Spec2006, 1.4, 0.65, 28, 0.25, None),
        WorkloadSpec::new("cactusADM_like", Spec2006, 12.0, 0.60, 640, 0.30, None),
        WorkloadSpec::new("leslie3d_like", Spec2006, 19.0, 0.50, 130, 0.24, None),
        WorkloadSpec::new("namd_like", Spec2006, 1.0, 0.70, 46, 0.15, None),
        WorkloadSpec::new("gobmk_like", Spec2006, 1.2, 0.60, 28, 0.25, None),
        WorkloadSpec::new("dealII_like", Spec2006, 4.5, 0.60, 110, 0.20, None),
        WorkloadSpec::new("soplex_like", Spec2006, 27.0, 0.35, 440, 0.18, None),
        WorkloadSpec::new("povray_like", Spec2006, 0.4, 0.75, 3, 0.25, None),
        WorkloadSpec::new("calculix_like", Spec2006, 1.5, 0.70, 60, 0.20, None),
        WorkloadSpec::new("hmmer_like", Spec2006, 2.8, 0.80, 30, 0.30, None),
        WorkloadSpec::new("sjeng_like", Spec2006, 1.1, 0.45, 170, 0.20, None),
        WorkloadSpec::new("GemsFDTD_like", Spec2006, 24.0, 0.45, 840, 0.25, None),
        WorkloadSpec::new("libquantum_like", Spec2006, 33.0, 0.85, 64, 0.15, None),
        WorkloadSpec::new("h264ref_like", Spec2006, 1.9, 0.75, 60, 0.25, None),
        WorkloadSpec::new("lbm_like", Spec2006, 36.0, 0.55, 410, 0.45, None),
        WorkloadSpec::new("omnetpp_like", Spec2006, 21.0, 0.25, 150, 0.30, None),
        WorkloadSpec::new("xalancbmk_like", Spec2006, 13.0, 0.30, 190, 0.22, None),
        // --- SPEC CPU2017 (18) ---
        WorkloadSpec::new("perlbench_r_like", Spec2017, 1.7, 0.70, 40, 0.25, None),
        WorkloadSpec::new("gcc_r_like", Spec2017, 7.8, 0.50, 90, 0.28, None),
        WorkloadSpec::new("bwaves_r_like", Spec2017, 26.0, 0.55, 760, 0.20, None),
        WorkloadSpec::new("mcf_r_like", Spec2017, 38.0, 0.22, 520, 0.20, None),
        WorkloadSpec::new("cactuBSSN_r_like", Spec2017, 14.0, 0.55, 710, 0.30, None),
        WorkloadSpec::new("namd_r_like", Spec2017, 1.1, 0.70, 50, 0.15, None),
        WorkloadSpec::new("parest_r_like", Spec2017, 43.0, 0.30, 410, 0.20, None), // 510.parest
        WorkloadSpec::new("povray_r_like", Spec2017, 0.3, 0.75, 4, 0.25, None),
        WorkloadSpec::new("lbm_r_like", Spec2017, 34.0, 0.55, 410, 0.45, None),
        WorkloadSpec::new("omnetpp_r_like", Spec2017, 18.0, 0.25, 240, 0.30, None),
        WorkloadSpec::new("wrf_r_like", Spec2017, 8.5, 0.60, 200, 0.25, None),
        WorkloadSpec::new("xalancbmk_r_like", Spec2017, 11.0, 0.30, 480, 0.22, None),
        WorkloadSpec::new("x264_r_like", Spec2017, 2.2, 0.75, 150, 0.30, None),
        WorkloadSpec::new("blender_r_like", Spec2017, 3.0, 0.60, 190, 0.25, None),
        WorkloadSpec::new("cam4_r_like", Spec2017, 6.0, 0.55, 280, 0.25, None),
        WorkloadSpec::new("deepsjeng_r_like", Spec2017, 1.5, 0.45, 700, 0.20, None),
        WorkloadSpec::new("imagick_r_like", Spec2017, 1.0, 0.80, 30, 0.30, None),
        WorkloadSpec::new("nab_r_like", Spec2017, 2.5, 0.60, 140, 0.20, None),
        // --- TPC (4) ---
        WorkloadSpec::new("tpcc64_like", Tpc, 16.0, 0.30, 1400, 0.35, Some(0.7)),
        WorkloadSpec::new("tpch2_like", Tpc, 12.0, 0.45, 820, 0.10, Some(0.5)),
        WorkloadSpec::new("tpch6_like", Tpc, 21.0, 0.55, 1100, 0.10, Some(0.5)),
        WorkloadSpec::new("tpch17_like", Tpc, 14.0, 0.40, 950, 0.12, Some(0.5)),
        // --- Hadoop (3) ---
        WorkloadSpec::new("hadoop_grep_like", Hadoop, 9.0, 0.60, 620, 0.20, Some(0.6)),
        WorkloadSpec::new("hadoop_sort_like", Hadoop, 15.0, 0.45, 900, 0.40, Some(0.6)),
        WorkloadSpec::new("hadoop_wordcount_like", Hadoop, 11.0, 0.55, 740, 0.30, Some(0.6)),
        // --- MediaBench (3) ---
        WorkloadSpec::new("h263enc_like", MediaBench, 3.2, 0.80, 35, 0.30, None),
        WorkloadSpec::new("h264dec_like", MediaBench, 2.4, 0.80, 28, 0.30, None),
        WorkloadSpec::new("mpeg2enc_like", MediaBench, 4.1, 0.75, 42, 0.30, None),
        // --- YCSB (6) ---
        WorkloadSpec::new("ycsb_a_like", Ycsb, 18.0, 0.25, 1200, 0.50, Some(0.9)),
        WorkloadSpec::new("ycsb_b_like", Ycsb, 16.0, 0.25, 1200, 0.10, Some(0.9)),
        WorkloadSpec::new("ycsb_c_like", Ycsb, 15.0, 0.25, 1200, 0.0, Some(0.9)),
        WorkloadSpec::new("ycsb_d_like", Ycsb, 14.0, 0.30, 1000, 0.10, Some(0.85)),
        WorkloadSpec::new("ycsb_e_like", Ycsb, 20.0, 0.45, 1300, 0.05, Some(0.8)),
        WorkloadSpec::new("ycsb_f_like", Ycsb, 17.0, 0.25, 1200, 0.30, Some(0.9)),
    ];
    W
}

/// Looks up a workload by name.
pub fn spec_by_name(name: &str) -> Option<&'static WorkloadSpec> {
    catalog().iter().find(|w| w.name == name)
}

/// A small representative subset (one per suite plus the two memory
/// monsters) used by quick benches.
pub fn quick_subset() -> Vec<&'static WorkloadSpec> {
    [
        "mcf_like",
        "parest_r_like",
        "libquantum_like",
        "povray_like",
        "tpcc64_like",
        "hadoop_sort_like",
        "h263enc_like",
        "ycsb_a_like",
        "gcc_like",
    ]
    .iter()
    .map(|n| spec_by_name(n).expect("subset name in catalog"))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_57_workloads_with_paper_suite_counts() {
        let c = catalog();
        assert_eq!(c.len(), 57);
        let count = |s: Suite| c.iter().filter(|w| w.suite == s).count();
        assert_eq!(count(Suite::Spec2006), 23);
        assert_eq!(count(Suite::Spec2017), 18);
        assert_eq!(count(Suite::Tpc), 4);
        assert_eq!(count(Suite::Hadoop), 3);
        assert_eq!(count(Suite::MediaBench), 3);
        assert_eq!(count(Suite::Ycsb), 6);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = catalog().iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 57);
    }

    #[test]
    fn memory_monsters_are_intensive() {
        assert!(spec_by_name("mcf_like").unwrap().memory_intensive());
        assert!(spec_by_name("parest_r_like").unwrap().memory_intensive());
        assert!(!spec_by_name("povray_like").unwrap().memory_intensive());
    }

    #[test]
    fn intensive_panel_is_a_meaningful_split() {
        let intensive = catalog().iter().filter(|w| w.memory_intensive()).count();
        assert!((15..45).contains(&intensive), "{intensive} intensive workloads");
    }

    #[test]
    fn quick_subset_spans_suites() {
        let subset = quick_subset();
        assert_eq!(subset.len(), 9);
        let suites: std::collections::HashSet<_> = subset.iter().map(|w| w.suite).collect();
        assert_eq!(suites.len(), 6);
    }

    #[test]
    fn parameters_are_sane() {
        for w in catalog() {
            assert!(w.apki > 0.0 && w.apki < 100.0, "{}", w.name);
            assert!((0.0..=1.0).contains(&w.row_locality), "{}", w.name);
            assert!((0.0..=1.0).contains(&w.write_frac), "{}", w.name);
            assert!(w.footprint_mib > 0, "{}", w.name);
            if let Some(t) = w.zipf_theta {
                assert!(t > 0.0 && t < 1.0, "{}", w.name);
            }
        }
    }
}
