//! The figure harness: the declaration table is well-formed, every entry
//! expands to runnable cells, the declared Fig. 9 is the shipped spec's
//! matrix, and the `figure` binary runs one end to end.

use bench::figures::{Axis, Body, Figure, GridSpec, Metric, FIGURES};
use bench::BenchOpts;
use sim::cache::cell_key;
use sim::spec::SweepSpec;
use std::collections::BTreeSet;
use std::process::{Command, Output};
use workloads::catalog::quick_subset;

fn find(id: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.id == id)
}

fn grid(id: &str) -> GridSpec {
    match find(id).unwrap_or_else(|| panic!("{id} is declared")).body {
        Body::Grid(spec) => spec,
        Body::Custom(_) => panic!("{id} is a grid figure"),
    }
}

fn figure(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figure")).args(args).output().expect("figure binary runs")
}

#[test]
fn every_declared_figure_expands_to_keyed_cells_without_simulating() {
    let opts = BenchOpts { sweep_points: 3, ..BenchOpts::default() };
    let ids: BTreeSet<&str> = FIGURES.iter().map(|f| f.id).collect();
    assert_eq!(ids.len(), FIGURES.len(), "figure ids are unique");
    let mut grids = 0;
    for figure in FIGURES {
        let Body::Grid(spec) = figure.body else { continue };
        grids += 1;
        let labels: BTreeSet<&str> = spec.series.iter().map(|s| s.label).collect();
        assert_eq!(labels.len(), spec.series.len(), "{}: series labels are unique", figure.id);
        for s in spec.series {
            assert!(sim::registry::resolve(s.tracker).is_ok(), "{}: {}", figure.id, s.tracker);
        }
        let rows = match spec.rows {
            Axis::None => 1,
            Axis::Nrh(list) => list.len(),
            Axis::NrhSweep => opts.nrh_sweep().len(),
            Axis::LlcMib(list) => list.len(),
        };
        // An overhead metric simulates each series twice: as declared and
        // on the baseline tracker.
        let columns = match spec.metric {
            Metric::NormalizedPerformance => spec.series.len(),
            Metric::EnergyOverheadVs(baseline) => {
                assert!(sim::registry::resolve(baseline).is_ok(), "{}: {baseline}", figure.id);
                2 * spec.series.len()
            }
        };
        let cells = spec.cells(&opts);
        assert_eq!(cells.len(), rows * columns * opts.workloads().len(), "{}", figure.id);
        let keys: BTreeSet<String> = cells
            .iter()
            .map(|e| cell_key(e).unwrap_or_else(|| panic!("{}: uncacheable cell", figure.id)).key)
            .collect();
        assert_eq!(keys.len(), cells.len(), "{}: every cell is a distinct simulation", figure.id);
    }
    assert_eq!((grids, FIGURES.len()), (14, 18), "14 simulated grids, 4 bespoke printers");
}

#[test]
fn readme_lists_exactly_the_declared_ids() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("README.md at the repo root");
    let listed: Vec<&str> = readme
        .lines()
        .filter_map(|l| l.strip_prefix("| `")?.split_once("` | ").map(|(id, _)| id))
        .filter(|id| find(id).is_some())
        .collect();
    let declared: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    assert_eq!(listed, declared, "README's figure table, in declaration order");
}

#[test]
fn declared_fig09_is_the_shipped_spec_matrix() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/specs/fig09_quick.toml");
    let spec = SweepSpec::from_toml_str(&std::fs::read_to_string(path).expect("shipped spec"))
        .expect("fig09_quick.toml parses");
    let opts = BenchOpts {
        window_us: spec.options.window_us.expect("spec pins its window"),
        seed: spec.options.seed.expect("spec pins its seed"),
        nrh: spec.options.nrh.expect("spec pins N_RH"),
        ..BenchOpts::default()
    };
    let key_set = |keys: Vec<Option<sim::cache::CellKey>>| -> BTreeSet<String> {
        keys.into_iter().map(|k| k.expect("cacheable cell").key).collect()
    };
    let declared = key_set(grid("fig09").cells(&opts).iter().map(cell_key).collect());
    let from_spec =
        key_set(spec.expand_keyed().expect("spec expands").into_iter().map(|(_, k)| k).collect());
    assert_eq!(declared.len(), 18);
    assert_eq!(declared, from_spec);
}

#[test]
fn fig11_runs_end_to_end_with_both_panels_and_a_mean_line() {
    let out = figure(&["fig11", "--window-us", "30"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    // Each panel: its heading, the column header, then one row per workload
    // up to the next blank line.
    let panel = |heading: &str| -> Vec<&str> {
        let mut lines = stdout.lines().skip_while(|l| !l.starts_with(heading));
        assert!(lines.next().is_some(), "no '{heading}' in:\n{stdout}");
        assert_eq!(
            lines.next().map(|l| l.split_whitespace().collect()),
            Some(vec!["workload", "DAPPER-H"])
        );
        lines
            .take_while(|l| !l.is_empty())
            .map(|l| {
                let (name, value) = l.split_once(' ').expect("label and value");
                let value: f64 = value.trim().parse().expect("a number");
                assert!(value > 0.5 && value < 1.5, "{l}");
                name
            })
            .collect()
    };
    let (a, b) = (panel("--- panel A"), panel("--- panel B"));
    let quick: Vec<&str> = quick_subset().iter().map(|w| w.name).collect();
    assert_eq!(b, quick, "panel B: one row per quick-subset workload");
    assert!(!a.is_empty() && a.iter().all(|w| b.contains(w)), "panel A is a subset: {a:?}");
    let summary = stdout.lines().find(|l| l.starts_with("DAPPER-H: mean normalized = "));
    assert!(summary.is_some_and(|l| l.contains(", worst ")), "{stdout}");
    assert!(stdout.contains("\npaper: 0.1% average slowdown"), "{stdout}");
}

#[test]
fn a_bad_command_line_exits_2_naming_the_offender() {
    for (args, offender) in [
        (&["fig99"][..], "unknown figure 'fig99'"),
        (&["fig11", "--window_us", "30"][..], "--window_us"),
        (&[][..], "usage: figure <id>"),
    ] {
        let out = figure(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing is simulated");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(offender), "{args:?}: {stderr}");
    }
    // An unknown id answers with the table of known ones.
    let stderr = String::from_utf8(figure(&["fig99"]).stderr).expect("utf-8");
    for f in FIGURES {
        assert!(stderr.contains(&format!("  {:<9} {}", f.id, f.title)), "{}", f.id);
    }
}
