//! The paper's evaluation section as data: every simulated figure and table
//! is one [`Figure`] row of [`FIGURES`], and one driver turns a row into
//! experiments (`rows × series × workloads`, a single parallel batch),
//! folds the results into a grid and prints it.
//!
//! A [`Series`] is one of the paper's comparisons, so a new column is a
//! table entry, not a program. The four outputs that are not grids (the
//! analytical tables, the security analysis, the ablation) ride in the
//! same table as [`Body::Custom`] printers.

use crate::{header, printers, BenchOpts, USAGE};
use sim::experiment::AttackChoice::{self, CacheThrash, Specific, Tailored};
use sim::experiment::{Experiment, ExperimentResult};
use sim::runner::{cell_label, RunnerConfig};
use sim::Executor;
use sim_core::config::MitigationKind::{self, DrfmSb, RfmSb, Vrr};
use workloads::catalog::WorkloadSpec;
use workloads::Attack::{RefreshAttack, Streaming};

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

/// How a [`Figure`] is produced.
#[derive(Debug, Clone, Copy)]
pub enum Body {
    /// Simulated: expanded, run and printed by the one driver.
    Grid(GridSpec),
    /// A bespoke printer (analytical models, oracle audits).
    Custom(fn(&BenchOpts)),
}

/// The declaration of a simulated figure.
#[derive(Debug, Clone, Copy)]
pub struct GridSpec {
    /// The swept system parameter, one grid row per value.
    pub rows: Axis,
    /// How the workload dimension is folded into rows.
    pub layout: Layout,
    /// The printed quantity.
    pub metric: Metric,
    /// The compared configurations, one grid column each.
    pub series: &'static [Series],
    /// The paper's headline numbers, printed under the grid.
    pub paper: &'static str,
}

/// The system parameter a figure sweeps.
#[derive(Debug, Clone, Copy)]
pub enum Axis {
    /// Nothing: one point at the command line's `--nrh`.
    None,
    /// These RowHammer thresholds.
    Nrh(&'static [u32]),
    /// The `--sweep-points` threshold sweep ([`BenchOpts::nrh_sweep`]).
    NrhSweep,
    /// The eight-channel system with this many MiB of LLC per core.
    LlcMib(&'static [u64]),
}

/// How the workload dimension becomes rows. `Suites` and `Workloads` plot
/// the first [`Axis`] point.
#[derive(Debug, Clone, Copy)]
pub enum Layout {
    /// One row per benchmark suite plus `All`.
    Suites,
    /// One row per workload in two panels (memory-intensive, all), then
    /// each series' mean and worst workload.
    Workloads,
    /// One row per [`Axis`] point, folded over all workloads.
    Means,
}

/// The quantity a grid prints.
#[derive(Debug, Clone, Copy)]
pub enum Metric {
    /// Mean benign IPC relative to the reference run.
    NormalizedPerformance,
    /// DRAM energy overhead in percent against the same series (same mix,
    /// attacker included) on this tracker, as DRAMPower does in the paper.
    EnergyOverheadVs(&'static str),
}

/// One column: a defense configuration and the adversary it faces.
#[derive(Debug, Clone, Copy)]
pub struct Series {
    /// Column label, unique within its figure.
    pub label: &'static str,
    /// Tracker registry key.
    pub tracker: &'static str,
    /// The adversary on the last core.
    pub attack: AttackChoice,
    /// Mitigation command the controller issues.
    pub mitigation: MitigationKind,
    /// Victim rows refreshed on each side of an aggressor.
    pub blast_radius: u8,
    /// Keep the attacker in the reference run ([`Experiment::isolating`]),
    /// so that only the tracker's own overhead shows.
    pub isolating: bool,
}

/// A [`Series`], positionally: label, tracker, attack, mitigation command,
/// blast radius, isolating.
pub(crate) const fn col(
    label: &'static str,
    tracker: &'static str,
    attack: AttackChoice,
    mitigation: MitigationKind,
    blast_radius: u8,
    isolating: bool,
) -> Series {
    Series { label, tracker, attack, mitigation, blast_radius, isolating }
}

const NORM: Metric = Metric::NormalizedPerformance;

/// Figs. 1, 3-5: cache thrashing (tracker-independent in the paper's plots,
/// so run on the insecure baseline) against each scalable tracker's
/// tailored attack.
const fn motivation(thrash: &'static str) -> [Series; 5] {
    [
        col(thrash, "none", CacheThrash, Vrr, 1, false),
        col("Hydra", "hydra", Tailored, Vrr, 1, false),
        col("START", "start", Tailored, Vrr, 1, false),
        col("ABACUS", "abacus", Tailored, Vrr, 1, false),
        col("CoMeT", "comet", Tailored, Vrr, 1, false),
    ]
}
const MOTIVATION: &[Series] = &motivation("CacheThrash");

/// Fig. 12 (isolating) and Table IV (not): DAPPER-H benign and attacked.
const fn dapper_h_modes(isolating: bool) -> [Series; 3] {
    [
        col("benign", "dapper-h", AttackChoice::None, Vrr, 1, isolating),
        col("streaming", "dapper-h", Specific(Streaming), Vrr, 1, isolating),
        col("refresh", "dapper-h", Specific(RefreshAttack), Vrr, 1, isolating),
    ]
}

/// Figs. 15-16: PARA and PrIDE against DAPPER-H, per-bank and same-bank.
const fn probabilistic(attack: AttackChoice, isolating: bool) -> [Series; 6] {
    [
        col("PARA", "para", attack, Vrr, 1, isolating),
        col("PARA-DRFMsb", "para", attack, DrfmSb, 1, isolating),
        col("PrIDE", "pride", attack, Vrr, 1, isolating),
        col("PrIDE-RFMsb", "pride", attack, RfmSb, 1, isolating),
        col("DAPPER-H", "dapper-h", attack, Vrr, 1, isolating),
        col("DAPPER-H-DRFMsb", "dapper-h", attack, DrfmSb, 1, isolating),
    ]
}

/// Every figure and table of the evaluation section, in paper order.
#[rustfmt::skip]
pub static FIGURES: &[Figure] = &[
    Figure { id: "fig01", title: "Fig. 1: scalable trackers under Perf-Attacks (per suite)",
        body: Body::Grid(GridSpec { rows: Axis::None, layout: Layout::Suites, metric: NORM,
            series: MOTIVATION,
            paper: "paper: tailored attacks cost 60-90% vs ~40% for cache thrashing" }) },
    Figure { id: "fig03", title: "Fig. 3: per-workload impact of Perf-Attacks",
        body: Body::Grid(GridSpec { rows: Axis::None, layout: Layout::Workloads, metric: NORM,
            series: &motivation("thrash"), paper: "" }) },
    Figure { id: "fig04", title: "Fig. 4: Perf-Attack sensitivity to N_RH",
        body: Body::Grid(GridSpec { rows: Axis::Nrh(&[500, 1000, 2000, 4000]),
            layout: Layout::Means, metric: NORM, series: MOTIVATION,
            paper: "paper: even at N_RH=4K the tailored attacks cost 46-71%" }) },
    Figure { id: "fig05", title: "Fig. 5: Perf-Attacks vs per-core LLC size, 8 channels",
        body: Body::Grid(GridSpec { rows: Axis::LlcMib(&[2, 3, 4, 5]),
            layout: Layout::Means, metric: NORM, series: MOTIVATION,
            paper: "paper: 30-79% loss under Perf-Attacks even with 5MB/core LLC" }) },
    Figure { id: "fig09", title: "Fig. 9: mapping-agnostic attacks on DAPPER-S",
        body: Body::Grid(GridSpec { rows: Axis::None, layout: Layout::Suites, metric: NORM,
            series: &[
                col("Streaming", "dapper-s", Specific(Streaming), Vrr, 1, true),
                col("Refresh", "dapper-s", Specific(RefreshAttack), Vrr, 1, true),
            ],
            paper: "(figure reports overhead = 1 - normalized performance)\n\
                    paper: streaming ~13% overhead, refresh ~20% overhead" }) },
    Figure { id: "fig10", title: "Fig. 10: DAPPER-H under mapping-agnostic attacks",
        body: Body::Grid(GridSpec { rows: Axis::None, layout: Layout::Workloads, metric: NORM,
            series: &[
                col("Streaming", "dapper-h", Specific(Streaming), Vrr, 1, true),
                col("Refresh", "dapper-h", Specific(RefreshAttack), Vrr, 1, true),
            ],
            paper: "paper: <1% average slowdown; max 4.7% (streaming), 2.3% (refresh)" }) },
    Figure { id: "fig11", title: "Fig. 11: DAPPER-H benign performance",
        body: Body::Grid(GridSpec { rows: Axis::None, layout: Layout::Workloads, metric: NORM,
            series: &[col("DAPPER-H", "dapper-h", AttackChoice::None, Vrr, 1, false)],
            paper: "paper: 0.1% average slowdown; worst 4.4% (429.mcf)" }) },
    Figure { id: "fig12", title: "Fig. 12: DAPPER-H sensitivity to N_RH",
        body: Body::Grid(GridSpec { rows: Axis::NrhSweep, layout: Layout::Means, metric: NORM,
            series: &dapper_h_modes(true),
            paper: "paper: <1% at N_RH >= 500; up to 6% at N_RH = 125 under attack" }) },
    Figure { id: "fig13", title: "Fig. 13: DAPPER-H: blast radius and DRFMsb",
        body: Body::Grid(GridSpec { rows: Axis::NrhSweep, layout: Layout::Means, metric: NORM,
            series: &[
                col("BR1", "dapper-h", AttackChoice::None, Vrr, 1, true),
                col("BR2", "dapper-h", AttackChoice::None, Vrr, 2, true),
                col("DRFMsb", "dapper-h", AttackChoice::None, DrfmSb, 2, true),
                col("BR1-Refr", "dapper-h", Specific(RefreshAttack), Vrr, 1, true),
                col("BR2-Refr", "dapper-h", Specific(RefreshAttack), Vrr, 2, true),
                col("DRFMsb-Refr", "dapper-h", Specific(RefreshAttack), DrfmSb, 2, true),
            ],
            paper: "paper @N_RH=500 under refresh attack: BR1 ~1%, BR2 ~2%, DRFMsb ~8%" }) },
    Figure { id: "fig14", title: "Fig. 14: BlockHammer comparison (benign)",
        body: Body::Grid(GridSpec { rows: Axis::NrhSweep, layout: Layout::Means, metric: NORM,
            series: &[
                col("BlockHammer", "blockhammer", AttackChoice::None, Vrr, 1, false),
                col("DAPPER-H", "dapper-h", AttackChoice::None, Vrr, 1, false),
                col("DAPPER-H-DRFMsb", "dapper-h", AttackChoice::None, DrfmSb, 1, false),
            ],
            paper: "paper: BlockHammer 25% @500, 46.4% @250, 66% @125; DAPPER-H <1% @500" }) },
    Figure { id: "fig15", title: "Fig. 15: probabilistic mitigations, benign",
        body: Body::Grid(GridSpec { rows: Axis::NrhSweep, layout: Layout::Means, metric: NORM,
            series: &probabilistic(AttackChoice::None, false),
            paper: "paper @500: PARA 3%, PrIDE 7%, PARA-DRFMsb 18.4%, PrIDE-RFMsb 11.5%, \
                    DAPPER-H <0.3%" }) },
    // Refresh: the strongest mapping-agnostic pattern for all three defenses.
    Figure { id: "fig16", title: "Fig. 16: probabilistic mitigations under Perf-Attacks",
        body: Body::Grid(GridSpec { rows: Axis::NrhSweep, layout: Layout::Means, metric: NORM,
            series: &probabilistic(Specific(RefreshAttack), true),
            paper: "paper @125: DAPPER-H 6%, PARA 14.6%, PrIDE 22.8%" }) },
    Figure { id: "fig17", title: "Fig. 17: PRAC comparison",
        body: Body::Grid(GridSpec { rows: Axis::NrhSweep, layout: Layout::Means, metric: NORM,
            series: &[
                col("PRAC", "prac", AttackChoice::None, Vrr, 1, true),
                col("PRAC-Perf", "prac", Specific(RefreshAttack), Vrr, 1, true),
                col("DAPPER-H", "dapper-h", AttackChoice::None, Vrr, 1, true),
                col("DAPPER-H-DRFMsb", "dapper-h", AttackChoice::None, DrfmSb, 1, true),
                col("DAPPER-H-Refr", "dapper-h", Specific(RefreshAttack), Vrr, 1, true),
                col("DAPPER-H-DRFM-Refr", "dapper-h", Specific(RefreshAttack), DrfmSb, 1, true),
            ],
            paper: "paper: PRAC ~7% benign at every N_RH (up to 20%); DAPPER-H <4% benign" }) },
    Figure { id: "table02", title: "Table II: DAPPER-S Mapping-Capturing analysis",
        body: Body::Custom(printers::table02) },
    Figure { id: "table03", title: "Table III: storage overhead per 32 GB DDR5 memory",
        body: Body::Custom(printers::table03) },
    Figure { id: "table04", title: "Table IV: energy overhead of DAPPER-H",
        body: Body::Grid(GridSpec { rows: Axis::NrhSweep, layout: Layout::Means,
            metric: Metric::EnergyOverheadVs("none"), series: &dapper_h_modes(false),
            paper: "paper @500: benign 0.1%, streaming 0.2%, refresh 1.1%; @125: 4.5/7.0/7.5%" }) },
    Figure { id: "security", title: "Section VI-C: security analysis with oracle-audited attacks",
        body: Body::Custom(printers::security) },
    Figure { id: "ablation", title: "Ablation: DAPPER design choices",
        body: Body::Custom(printers::ablation) },
];

impl Axis {
    /// The grid corner and the row labels, one per swept value (`None`: one
    /// unlabelled row).
    fn labels(self, opts: &BenchOpts) -> (&'static str, Vec<String>) {
        match self {
            Axis::None => ("", vec![String::new()]),
            Axis::Nrh(list) => ("N_RH", list.iter().map(u32::to_string).collect()),
            Axis::NrhSweep => Axis::Nrh(opts.nrh_sweep()).labels(opts),
            Axis::LlcMib(list) => ("LLC/core", list.iter().map(|m| format!("{m}MB")).collect()),
        }
    }

    /// `e` at the `i`th swept value.
    fn at(self, i: usize, opts: &BenchOpts, e: Experiment) -> Experiment {
        match self {
            Axis::None => e,
            Axis::Nrh(list) => e.nrh(list[i]),
            Axis::NrhSweep => e.nrh(opts.nrh_sweep()[i]),
            Axis::LlcMib(list) => e.eight_channel(list[i]),
        }
    }
}

impl GridSpec {
    /// Every experiment of the figure, in `(row, series, workload)` order;
    /// an overhead metric appends the same cells on its baseline tracker.
    /// Builds only; nothing is simulated.
    pub fn cells(&self, opts: &BenchOpts) -> Vec<Experiment> {
        let workloads = opts.workloads();
        let trackers = match self.metric {
            Metric::NormalizedPerformance => vec![None],
            Metric::EnergyOverheadVs(baseline) => vec![None, Some(baseline)],
        };
        let mut cells = Vec::new();
        for tracker in trackers {
            for row in 0..self.rows.labels(opts).1.len() {
                for s in self.series {
                    for w in &workloads {
                        let e = Experiment::new(w.name)
                            .tracker(tracker.unwrap_or(s.tracker))
                            .attack(s.attack)
                            .mitigation(s.mitigation)
                            .blast_radius(s.blast_radius);
                        let e = opts.apply(if s.isolating { e.isolating() } else { e });
                        cells.push(self.rows.at(row, opts, e));
                    }
                }
            }
        }
        cells
    }

    /// Simulates every cell as one parallel batch through the executor,
    /// uncached.
    ///
    /// # Panics
    ///
    /// After the batch, if any cell failed, naming every quarantined cell.
    pub(crate) fn simulate(&self, opts: &BenchOpts) -> Cube<'_> {
        let cells = self.cells(opts).into_iter().map(|e| (e, None)).collect();
        let exec = Executor { cache: None, runner: &RunnerConfig::default() };
        let (outcomes, _) =
            exec.probe(cells, |_, _, _| {}).run(cell_label, Experiment::run, |_, _, _| {});
        let failed: Vec<String> =
            outcomes.iter().filter_map(|o| o.as_ref().err().map(ToString::to_string)).collect();
        assert!(
            failed.is_empty(),
            "{} of {} cells failed: {}",
            failed.len(),
            outcomes.len(),
            failed.join("; ")
        );
        let results = outcomes.into_iter().map(|o| o.expect("checked above")).collect();
        Cube { spec: self, workloads: opts.workloads(), results }
    }

    /// Simulates the figure and prints its grids.
    fn run(&self, opts: &BenchOpts) {
        let cube = self.simulate(opts);
        let workloads = &cube.workloads;
        let all: Vec<usize> = (0..workloads.len()).collect();
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
                print_grid("suite", self.series, &rows);
            }
            Layout::Workloads => {
                println!("--- panel A: memory-intensive workloads (>= 2 RBMPKI) ---");
                print_grid("workload", self.series, &per_workload(WorkloadSpec::memory_intensive));
                println!("\n--- panel B: all workloads ---");
                print_grid("workload", self.series, &per_workload(|_| true));
                println!();
                for (s, series) in self.series.iter().enumerate() {
                    let (worst, at) = all
                        .iter()
                        .map(|&w| (cube.value(0, s, &[w]), workloads[w].name))
                        .min_by(|a, b| a.0.total_cmp(&b.0))
                        .expect("nonempty workload set");
                    let (mean, worst) =
                        (self.metric.render(cube.value(0, s, &all)), self.metric.render(worst));
                    println!("{}: mean normalized = {mean}, worst {at} at {worst}", series.label);
                }
            }
            Layout::Means => {
                let (corner, labels) = self.rows.labels(opts);
                let rows = labels.iter().enumerate().map(|(i, label)| cube.fold(label, i, &all));
                print_grid(corner, self.series, &rows.collect::<Vec<_>>());
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
            Metric::EnergyOverheadVs(_) => format!("{value:.1}%"),
        }
    }
}

/// The results of one figure, in [`GridSpec::cells`] order.
pub(crate) struct Cube<'a> {
    spec: &'a GridSpec,
    workloads: Vec<&'static WorkloadSpec>,
    results: Vec<ExperimentResult>,
}

/// One grid row: its label and one rendered value per series.
type Row = (String, Vec<String>);

impl Cube<'_> {
    /// The figure's metric for series `s` at axis point `row`, folded over
    /// `workloads`.
    pub(crate) fn value(&self, row: usize, s: usize, workloads: &[usize]) -> f64 {
        let sum = |first: usize, of: fn(&ExperimentResult) -> f64| -> f64 {
            let column = first + (row * self.spec.series.len() + s) * self.workloads.len();
            workloads.iter().map(|&w| of(&self.results[column + w])).sum()
        };
        match self.spec.metric {
            Metric::NormalizedPerformance => {
                sum(0, |r| r.normalized_performance) / workloads.len() as f64
            }
            Metric::EnergyOverheadVs(_) => {
                let with = sum(0, |r| r.run.energy_mj);
                let without = sum(self.results.len() / 2, |r| r.run.energy_mj);
                100.0 * (with - without) / without
            }
        }
    }

    /// The grid row `label`: every series at axis point `row` over `workloads`.
    fn fold(&self, label: &str, row: usize, workloads: &[usize]) -> Row {
        let value = |s| self.spec.metric.render(self.value(row, s, workloads));
        (label.to_string(), (0..self.spec.series.len()).map(value).collect())
    }
}

/// Prints a grid — row labels, column labels, values — under the one width
/// rule: each column is as wide as its widest entry, heading included;
/// labels left-aligned, values right-aligned, two spaces apart.
fn print_grid(corner: &str, series: &[Series], rows: &[Row]) {
    let heading = (corner.to_string(), series.iter().map(|s| s.label.to_string()).collect());
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
        Body::Grid(spec) => {
            header(figure.title, &opts);
            spec.run(&opts);
        }
        Body::Custom(print) => print(&opts),
    }
    Ok(())
}
