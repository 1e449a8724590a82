//! The paper's evaluation section as data: every simulated figure and table
//! is one [`Figure`] row of [`FIGURES`]. A grid figure's declaration builds
//! a [`SweepSpec`] from the command line's [`BenchOpts`] — its
//! `[[series]]` are the grid's columns, its `nrh` or `llc_mib_per_core`
//! list the rows of a [`Layout::Means`] grid — and one driver runs that
//! sweep through [`SweepSpec::run`], folds the results into a grid and
//! prints it.
//!
//! So a figure's cells come from the same builder as `spec_run`'s and
//! `campaignctl submit`'s ([`SweepSpec::expand_keyed`]), and a new column
//! is one [`Series`] in a declaration, not a program. The four outputs that
//! are not grids (the analytical tables, the security analysis, the
//! ablation) ride in the same table as [`Body::Custom`] printers.

use crate::{header, printers, BenchOpts, USAGE};
use sim::experiment::ExperimentResult;
use sim::spec::{expand_workloads, Series, SweepSpec, SystemOptions, KNOWN_GEOMETRIES};
use sim_core::config::MitigationKind::{DrfmSb, RfmSb};
use workloads::catalog::WorkloadSpec;

/// One entry of the evaluation section.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// What `figure <id>` is called with.
    pub id: &'static str,
    /// The paper's name for it and a one-line description.
    pub title: &'static str,
    /// How it is produced.
    pub body: Body,
}

impl Figure {
    /// The sweep a grid figure runs under `opts`, named after the figure;
    /// `None` for a [`Body::Custom`] printer.
    pub fn sweep(&self, opts: &BenchOpts) -> Option<SweepSpec> {
        let Body::Grid(grid) = self.body else { return None };
        let mut spec = (grid.sweep)(opts);
        spec.name = self.id.to_string();
        Some(spec)
    }
}

/// How a [`Figure`] is produced.
#[derive(Debug, Clone, Copy)]
pub enum Body {
    /// Simulated: swept, run and printed by the one driver.
    Grid(GridSpec),
    /// A bespoke printer (analytical models, oracle audits).
    Custom(fn(&BenchOpts)),
}

/// The declaration of a simulated figure.
#[derive(Debug, Clone, Copy)]
pub struct GridSpec {
    /// The figure's sweep under the command line's options: one grid
    /// column per series (an energy metric's baselines aside), one
    /// [`Layout::Means`] row per N_RH or per-core LLC point.
    pub sweep: fn(&BenchOpts) -> SweepSpec,
    /// How the workload dimension is folded into rows.
    pub layout: Layout,
    /// The printed quantity.
    pub metric: Metric,
    /// The paper's headline numbers, printed under the grid.
    pub paper: &'static str,
}

/// How the workload dimension becomes rows. `Suites` and `Workloads` plot
/// the sweep's first point.
#[derive(Debug, Clone, Copy)]
pub enum Layout {
    /// One row per benchmark suite plus `All`.
    Suites,
    /// One row per workload in two panels (memory-intensive, all), then
    /// each series' mean and worst workload.
    Workloads,
    /// One row per point of the sweep (its per-core LLC sizes if it has
    /// any, else its N_RH values), folded over all workloads.
    Means,
}

/// The quantity a grid prints.
#[derive(Debug, Clone, Copy)]
pub enum Metric {
    /// Mean benign IPC relative to the reference run.
    NormalizedPerformance,
    /// DRAM energy overhead in percent against the same series (same mix,
    /// attacker included) on the insecure baseline, as DRAMPower does in
    /// the paper. The sweep's second half of series are those baselines,
    /// in the order of the first half's.
    EnergyOverhead,
}

const NORM: Metric = Metric::NormalizedPerformance;

/// Figs. 1, 3-5: cache thrashing (tracker-independent in the paper's plots,
/// so run on the insecure baseline) against each scalable tracker's
/// tailored attack.
fn motivation(thrash: &str) -> Vec<Series> {
    vec![
        Series::new(thrash, "none", "cache-thrash"),
        Series::new("Hydra", "hydra", "tailored"),
        Series::new("START", "start", "tailored"),
        Series::new("ABACUS", "abacus", "tailored"),
        Series::new("CoMeT", "comet", "tailored"),
    ]
}

/// Fig. 12 and Table IV: DAPPER-H benign and attacked.
fn dapper_h_modes() -> Vec<Series> {
    vec![
        Series::new("benign", "dapper-h", "none"),
        Series::new("streaming", "dapper-h", "streaming"),
        Series::new("refresh", "dapper-h", "refresh"),
    ]
}

/// Figs. 15-16: PARA and PrIDE against DAPPER-H, per-bank and same-bank.
fn probabilistic(attack: &str) -> Vec<Series> {
    vec![
        Series::new("PARA", "para", attack),
        Series::new("PARA-DRFMsb", "para", attack).mitigation(DrfmSb),
        Series::new("PrIDE", "pride", attack),
        Series::new("PrIDE-RFMsb", "pride", attack).mitigation(RfmSb),
        Series::new("DAPPER-H", "dapper-h", attack),
        Series::new("DAPPER-H-DRFMsb", "dapper-h", attack).mitigation(DrfmSb),
    ]
}

/// `series`, each normalized against an attacker-inclusive baseline, so
/// that only the tracker's own overhead shows.
fn isolating(series: Vec<Series>) -> Vec<Series> {
    series.into_iter().map(Series::isolating).collect()
}

/// `series`, then each of them again on the insecure baseline: the
/// reference of [`Metric::EnergyOverhead`].
fn with_baseline(mut series: Vec<Series>) -> Vec<Series> {
    let baseline: Vec<Series> = series
        .iter()
        .map(|s| Series {
            label: s.label.as_ref().map(|label| format!("{label} on none")),
            tracker: "none".to_string(),
            ..s.clone()
        })
        .collect();
    series.extend(baseline);
    series
}

/// `spec` at each of these thresholds, one point each.
fn at_nrh(mut spec: SweepSpec, nrh: &[u32]) -> SweepSpec {
    spec.options.nrh = nrh.to_vec();
    spec
}

/// `spec` on the eight-channel system at each of these per-core LLC
/// sizes (MiB), one point each.
fn at_llc_mib(mut spec: SweepSpec, sizes: &[u64]) -> SweepSpec {
    let geometry = Some(KNOWN_GEOMETRIES[1].to_string());
    spec.system = Some(SystemOptions { geometry, llc_mib_per_core: sizes.to_vec() });
    spec
}

/// Every figure and table of the evaluation section, in paper order.
#[rustfmt::skip]
pub static FIGURES: &[Figure] = &[
    Figure { id: "fig01", title: "Fig. 1: scalable trackers under Perf-Attacks (per suite)",
        body: Body::Grid(GridSpec { layout: Layout::Suites, metric: NORM,
            sweep: |o| o.sweep(motivation("CacheThrash")),
            paper: "paper: tailored attacks cost 60-90% vs ~40% for cache thrashing" }) },
    Figure { id: "fig03", title: "Fig. 3: per-workload impact of Perf-Attacks",
        body: Body::Grid(GridSpec { layout: Layout::Workloads, metric: NORM,
            sweep: |o| o.sweep(motivation("thrash")), paper: "" }) },
    Figure { id: "fig04", title: "Fig. 4: Perf-Attack sensitivity to N_RH",
        body: Body::Grid(GridSpec { layout: Layout::Means, metric: NORM,
            sweep: |o| at_nrh(o.sweep(motivation("CacheThrash")), &[500, 1000, 2000, 4000]),
            paper: "paper: even at N_RH=4K the tailored attacks cost 46-71%" }) },
    Figure { id: "fig05", title: "Fig. 5: Perf-Attacks vs per-core LLC size, 8 channels",
        body: Body::Grid(GridSpec { layout: Layout::Means, metric: NORM,
            sweep: |o| at_llc_mib(o.sweep(motivation("CacheThrash")), &[2, 3, 4, 5]),
            paper: "paper: 30-79% loss under Perf-Attacks even with 5MB/core LLC" }) },
    Figure { id: "fig09", title: "Fig. 9: mapping-agnostic attacks on DAPPER-S",
        body: Body::Grid(GridSpec { layout: Layout::Suites, metric: NORM,
            sweep: |o| o.sweep(isolating(vec![
                Series::new("Streaming", "dapper-s", "streaming"),
                Series::new("Refresh", "dapper-s", "refresh"),
            ])),
            paper: "(figure reports overhead = 1 - normalized performance)\n\
                    paper: streaming ~13% overhead, refresh ~20% overhead" }) },
    Figure { id: "fig10", title: "Fig. 10: DAPPER-H under mapping-agnostic attacks",
        body: Body::Grid(GridSpec { layout: Layout::Workloads, metric: NORM,
            sweep: |o| o.sweep(isolating(vec![
                Series::new("Streaming", "dapper-h", "streaming"),
                Series::new("Refresh", "dapper-h", "refresh"),
            ])),
            paper: "paper: <1% average slowdown; max 4.7% (streaming), 2.3% (refresh)" }) },
    Figure { id: "fig11", title: "Fig. 11: DAPPER-H benign performance",
        body: Body::Grid(GridSpec { layout: Layout::Workloads, metric: NORM,
            sweep: |o| o.sweep(vec![Series::new("DAPPER-H", "dapper-h", "none")]),
            paper: "paper: 0.1% average slowdown; worst 4.4% (429.mcf)" }) },
    Figure { id: "fig12", title: "Fig. 12: DAPPER-H sensitivity to N_RH",
        body: Body::Grid(GridSpec { layout: Layout::Means, metric: NORM,
            sweep: |o| at_nrh(o.sweep(isolating(dapper_h_modes())), o.nrh_sweep()),
            paper: "paper: <1% at N_RH >= 500; up to 6% at N_RH = 125 under attack" }) },
    Figure { id: "fig13", title: "Fig. 13: DAPPER-H: blast radius and DRFMsb",
        body: Body::Grid(GridSpec { layout: Layout::Means, metric: NORM,
            sweep: |o| at_nrh(o.sweep(isolating(vec![
                Series::new("BR1", "dapper-h", "none"),
                Series::new("BR2", "dapper-h", "none").blast_radius(2),
                Series::new("DRFMsb", "dapper-h", "none").mitigation(DrfmSb).blast_radius(2),
                Series::new("BR1-Refr", "dapper-h", "refresh"),
                Series::new("BR2-Refr", "dapper-h", "refresh").blast_radius(2),
                Series::new("DRFMsb-Refr", "dapper-h", "refresh").mitigation(DrfmSb).blast_radius(2),
            ])), o.nrh_sweep()),
            paper: "paper @N_RH=500 under refresh attack: BR1 ~1%, BR2 ~2%, DRFMsb ~8%" }) },
    Figure { id: "fig14", title: "Fig. 14: BlockHammer comparison (benign)",
        body: Body::Grid(GridSpec { layout: Layout::Means, metric: NORM,
            sweep: |o| at_nrh(o.sweep(vec![
                Series::new("BlockHammer", "blockhammer", "none"),
                Series::new("DAPPER-H", "dapper-h", "none"),
                Series::new("DAPPER-H-DRFMsb", "dapper-h", "none").mitigation(DrfmSb),
            ]), o.nrh_sweep()),
            paper: "paper: BlockHammer 25% @500, 46.4% @250, 66% @125; DAPPER-H <1% @500" }) },
    Figure { id: "fig15", title: "Fig. 15: probabilistic mitigations, benign",
        body: Body::Grid(GridSpec { layout: Layout::Means, metric: NORM,
            sweep: |o| at_nrh(o.sweep(probabilistic("none")), o.nrh_sweep()),
            paper: "paper @500: PARA 3%, PrIDE 7%, PARA-DRFMsb 18.4%, PrIDE-RFMsb 11.5%, \
                    DAPPER-H <0.3%" }) },
    // Refresh: the strongest mapping-agnostic pattern for all three defenses.
    Figure { id: "fig16", title: "Fig. 16: probabilistic mitigations under Perf-Attacks",
        body: Body::Grid(GridSpec { layout: Layout::Means, metric: NORM,
            sweep: |o| at_nrh(o.sweep(isolating(probabilistic("refresh"))), o.nrh_sweep()),
            paper: "paper @125: DAPPER-H 6%, PARA 14.6%, PrIDE 22.8%" }) },
    Figure { id: "fig17", title: "Fig. 17: PRAC comparison",
        body: Body::Grid(GridSpec { layout: Layout::Means, metric: NORM,
            sweep: |o| at_nrh(o.sweep(isolating(vec![
                Series::new("PRAC", "prac", "none"),
                Series::new("PRAC-Perf", "prac", "refresh"),
                Series::new("DAPPER-H", "dapper-h", "none"),
                Series::new("DAPPER-H-DRFMsb", "dapper-h", "none").mitigation(DrfmSb),
                Series::new("DAPPER-H-Refr", "dapper-h", "refresh"),
                Series::new("DAPPER-H-DRFM-Refr", "dapper-h", "refresh").mitigation(DrfmSb),
            ])), o.nrh_sweep()),
            paper: "paper: PRAC ~7% benign at every N_RH (up to 20%); DAPPER-H <4% benign" }) },
    Figure { id: "table02", title: "Table II: DAPPER-S Mapping-Capturing analysis",
        body: Body::Custom(printers::table02) },
    Figure { id: "table03", title: "Table III: storage overhead per 32 GB DDR5 memory",
        body: Body::Custom(printers::table03) },
    Figure { id: "table04", title: "Table IV: energy overhead of DAPPER-H",
        body: Body::Grid(GridSpec { layout: Layout::Means, metric: Metric::EnergyOverhead,
            sweep: |o| at_nrh(o.sweep(with_baseline(dapper_h_modes())), o.nrh_sweep()),
            paper: "paper @500: benign 0.1%, streaming 0.2%, refresh 1.1%; @125: 4.5/7.0/7.5%" }) },
    Figure { id: "security", title: "Section VI-C: security analysis with oracle-audited attacks",
        body: Body::Custom(printers::security) },
    Figure { id: "ablation", title: "Ablation: DAPPER design choices",
        body: Body::Custom(printers::ablation) },
];

impl GridSpec {
    /// Runs `spec`, this figure's sweep, and prints its grids.
    fn run(&self, spec: &SweepSpec) {
        let cube = Cube::run(spec, self.metric);
        let workloads = &cube.workloads;
        let (all, columns) = (cube.all(), cube.labels());
        let per_workload = |keep: fn(&WorkloadSpec) -> bool| -> Vec<Row> {
            let shown = all.iter().filter(|&&w| keep(workloads[w]));
            shown.map(|&w| cube.fold(workloads[w].name, 0, &[w])).collect()
        };
        match self.layout {
            Layout::Suites => {
                let mut rows: Vec<Row> = Vec::new();
                for first in workloads {
                    let label = first.suite.to_string();
                    if rows.iter().all(|(seen, _)| *seen != label) {
                        let suite = all.iter().filter(|&&w| workloads[w].suite == first.suite);
                        rows.push(cube.fold(&label, 0, &suite.copied().collect::<Vec<_>>()));
                    }
                }
                rows.push(cube.fold("All", 0, &all));
                print_grid("suite", columns, &rows);
            }
            Layout::Workloads => {
                println!("--- panel A: memory-intensive workloads (>= 2 RBMPKI) ---");
                print_grid("workload", columns, &per_workload(WorkloadSpec::memory_intensive));
                println!("\n--- panel B: all workloads ---");
                print_grid("workload", columns, &per_workload(|_| true));
                println!();
                for (s, label) in columns.iter().enumerate() {
                    let (worst, at) = all
                        .iter()
                        .map(|&w| (cube.value(0, s, &[w]), workloads[w].name))
                        .min_by(|a, b| a.0.total_cmp(&b.0))
                        .expect("nonempty workload set");
                    let (mean, worst) =
                        (self.metric.render(cube.value(0, s, &all)), self.metric.render(worst));
                    println!("{label}: mean normalized = {mean}, worst {at} at {worst}");
                }
            }
            Layout::Means => {
                let llc = spec.system.as_ref().map_or(&[][..], |s| &s.llc_mib_per_core[..]);
                let (corner, labels): (_, Vec<String>) = match llc {
                    [] => ("N_RH", spec.options.nrh.iter().map(u32::to_string).collect()),
                    sizes => ("LLC/core", sizes.iter().map(|m| format!("{m}MB")).collect()),
                };
                let rows = labels.iter().enumerate().map(|(i, label)| cube.fold(label, i, &all));
                print_grid(corner, columns, &rows.collect::<Vec<_>>());
            }
        }
        if !self.paper.is_empty() {
            println!("\n{}", self.paper);
        }
    }
}

impl Metric {
    fn render(self, value: f64) -> String {
        match self {
            Metric::NormalizedPerformance => format!("{value:.4}"),
            Metric::EnergyOverhead => format!("{value:.1}%"),
        }
    }
}

/// Runs `spec` uncached and returns its results in expansion order.
///
/// # Panics
///
/// If the spec does not expand, or, after the run, if any cell failed,
/// naming every quarantined cell.
pub(crate) fn run_clean(spec: &SweepSpec) -> Vec<ExperimentResult> {
    let report = spec.run().unwrap_or_else(|e| panic!("sweep '{}': {e}", spec.name));
    let failed: Vec<String> = report.failures.iter().map(ToString::to_string).collect();
    assert!(
        failed.is_empty(),
        "{} of {} cells failed: {}",
        failed.len(),
        failed.len() + report.results.len(),
        failed.join("; ")
    );
    report.results
}

/// The results of one figure's sweep, in its `(point, workload, series)`
/// expansion order.
pub(crate) struct Cube {
    metric: Metric,
    workloads: Vec<&'static WorkloadSpec>,
    /// Every series' label; the grid shows the first [`Cube::shown`].
    series: Vec<String>,
    results: Vec<ExperimentResult>,
}

/// One grid row: its label and one rendered value per series.
type Row = (String, Vec<String>);

impl Cube {
    /// Runs `spec` ([`run_clean`]) and keeps its results under `metric`.
    pub(crate) fn run(spec: &SweepSpec, metric: Metric) -> Self {
        let names = expand_workloads(&spec.workloads).expect("the sweep ran, so it expands");
        let workloads: Vec<_> = names
            .iter()
            .map(|name| workloads::spec_by_name(name).expect("expanded names are catalog names"))
            .collect();
        let series: Vec<String> =
            spec.series.iter().map(|s| s.label.clone().unwrap_or_default()).collect();
        let results = run_clean(spec);
        let cells_per_point = workloads.len() * series.len();
        assert_eq!(results.len() % cells_per_point, 0, "a figure's cells are all distinct");
        Cube { metric, workloads, series, results }
    }

    /// Every workload's index.
    pub(crate) fn all(&self) -> Vec<usize> {
        (0..self.workloads.len()).collect()
    }

    /// How many series the grid shows: all of them, or, for an overhead
    /// metric, the first half (the second is their baselines).
    fn shown(&self) -> usize {
        match self.metric {
            Metric::NormalizedPerformance => self.series.len(),
            Metric::EnergyOverhead => self.series.len() / 2,
        }
    }

    /// The labels of the shown series.
    pub(crate) fn labels(&self) -> &[String] {
        &self.series[..self.shown()]
    }

    /// The figure's metric for series `s` at sweep point `point`, folded
    /// over `workloads`.
    pub(crate) fn value(&self, point: usize, s: usize, workloads: &[usize]) -> f64 {
        let sum = |s: usize, of: fn(&ExperimentResult) -> f64| -> f64 {
            let at = |w: usize| (point * self.workloads.len() + w) * self.series.len() + s;
            workloads.iter().map(|&w| of(&self.results[at(w)])).sum()
        };
        match self.metric {
            Metric::NormalizedPerformance => {
                sum(s, |r| r.normalized_performance) / workloads.len() as f64
            }
            Metric::EnergyOverhead => {
                let with = sum(s, |r| r.run.energy_mj);
                let without = sum(s + self.shown(), |r| r.run.energy_mj);
                100.0 * (with - without) / without
            }
        }
    }

    /// The grid row `label`: every shown series at `point` over
    /// `workloads`.
    fn fold(&self, label: &str, point: usize, workloads: &[usize]) -> Row {
        let value = |s| self.metric.render(self.value(point, s, workloads));
        (label.to_string(), (0..self.shown()).map(value).collect())
    }
}

/// Prints a grid — row labels, column labels, values — under the one width
/// rule: each column is as wide as its widest entry, heading included;
/// labels left-aligned, values right-aligned, two spaces apart.
fn print_grid(corner: &str, columns: &[String], rows: &[Row]) {
    let heading = (corner.to_string(), columns.to_vec());
    let lines: Vec<&Row> = [&heading].into_iter().chain(rows).collect();
    let label_width = lines.iter().map(|(label, _)| label.len()).max().unwrap_or(0);
    let width = |c: usize| lines.iter().map(|(_, v)| v[c].len()).max().unwrap_or(0);
    for (label, values) in &lines {
        print!("{label:<label_width$}");
        for (c, value) in values.iter().enumerate() {
            print!("  {value:>w$}", w = width(c));
        }
        println!();
    }
}

/// Runs `figure <id> [options]`: `Err` is the diagnostic (an unknown or
/// missing id lists every id with its title) for exit code 2.
pub fn dispatch(args: &[String]) -> Result<(), String> {
    let listing = || {
        let ids = FIGURES.iter().map(|f| format!("  {:<9} {}\n", f.id, f.title));
        format!("usage: figure <id> [options]\n\n{}\n{USAGE}", ids.collect::<String>())
    };
    let (id, rest) = args.split_first().ok_or_else(listing)?;
    let figure = FIGURES.iter().find(|f| f.id == id);
    let figure = figure.ok_or_else(|| format!("unknown figure '{id}'\n{}", listing()))?;
    let opts = BenchOpts::parse(rest)?;
    match figure.body {
        Body::Grid(grid) => {
            header(figure.title, &opts);
            grid.run(&figure.sweep(&opts).expect("a grid figure sweeps"));
        }
        Body::Custom(print) => print(&opts),
    }
    Ok(())
}
