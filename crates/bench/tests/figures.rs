//! The figure harness: the declaration table is well-formed, every entry
//! is a sweep that expands to runnable cells and round-trips as a spec,
//! each figure's cell keys are pinned, the declared Fig. 9 is the shipped
//! spec's matrix, and the `figure` binary runs one end to end.

use bench::figures::{Body, Figure, Metric, FIGURES};
use bench::BenchOpts;
use sim::journal::SweepJournal;
use sim::spec::SweepSpec;
use std::collections::BTreeSet;
use std::process::{Command, Output};
use workloads::catalog::quick_subset;

fn find(id: &str) -> &'static Figure {
    FIGURES.iter().find(|f| f.id == id).unwrap_or_else(|| panic!("{id} is declared"))
}

fn figure(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figure")).args(args).output().expect("figure binary runs")
}

/// The sorted content keys of every cell `spec` expands to.
fn key_set(spec: &SweepSpec) -> BTreeSet<String> {
    let cells = spec.expand_keyed().unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    let keys = cells.into_iter().map(|(_, key)| key.expect("a figure's cells are cacheable").key);
    keys.collect()
}

#[test]
fn every_declared_figure_expands_to_keyed_cells_without_simulating() {
    let opts = BenchOpts { sweep_points: 3, ..BenchOpts::default() };
    let ids: BTreeSet<&str> = FIGURES.iter().map(|f| f.id).collect();
    assert_eq!(ids.len(), FIGURES.len(), "figure ids are unique");
    let mut grids = 0;
    for figure in FIGURES {
        let Body::Grid(grid) = figure.body else { continue };
        grids += 1;
        let spec = figure.sweep(&opts).expect("a grid figure sweeps");
        assert_eq!(spec.name, figure.id);
        let labels: BTreeSet<Option<&str>> =
            spec.series.iter().map(|s| s.label.as_deref()).collect();
        assert!(!labels.contains(&None), "{}: every series is labelled", figure.id);
        assert_eq!(labels.len(), spec.series.len(), "{}: series labels are unique", figure.id);
        for s in &spec.series {
            assert!(sim::registry::resolve(&s.tracker).is_ok(), "{}: {}", figure.id, s.tracker);
        }
        // An overhead metric's second half of series are the first half's
        // baselines: the same series on the insecure baseline.
        if let Metric::EnergyOverhead = grid.metric {
            let (shown, baselines) = spec.series.split_at(spec.series.len() / 2);
            assert_eq!(shown.len(), baselines.len(), "{}", figure.id);
            for (s, b) in shown.iter().zip(baselines) {
                assert_eq!((b.tracker.as_str(), &b.attack), ("none", &s.attack), "{}", figure.id);
            }
        }
        let points = spec.options.nrh.len()
            * spec.system.as_ref().map_or(1, |s| s.llc_mib_per_core.len().max(1));
        let workloads = sim::spec::expand_workloads(&spec.workloads).expect("workloads").len();
        assert_eq!(workloads, quick_subset().len(), "{}", figure.id);
        let cells = spec.expand_keyed().expect("expands").len();
        assert_eq!(cells, points * spec.series.len() * workloads, "{}", figure.id);
        assert_eq!(
            key_set(&spec).len(),
            cells,
            "{}: every cell is a distinct simulation",
            figure.id
        );
    }
    assert_eq!((grids, FIGURES.len()), (14, 18), "14 simulated grids, 4 bespoke printers");
}

/// FNV-1a over the keys, one line each.
fn digest(keys: &BTreeSet<String>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in keys.iter().flat_map(|key| key.bytes().chain([b'\n'])) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[test]
fn every_figure_expands_to_its_pinned_cell_key_set() {
    // Recorded from the figure harness's own cell builder before figures
    // became sweeps: (id, cells, digest) at the default options, then at
    // `--full`. A figure that runs other cells, or the same cells under
    // other keys, fails here.
    #[rustfmt::skip]
    const PINNED: [(&str, usize, u64, usize, u64); 14] = [
        ("fig01", 45, 0xac10c244bbeff490, 285, 0xbd65e3a401fcbe12),
        ("fig03", 45, 0xac10c244bbeff490, 285, 0xbd65e3a401fcbe12),
        ("fig04", 180, 0x1633ec6e950f74e6, 1140, 0x5bd10e3e74e4e045),
        ("fig05", 180, 0xf4cf092e2adb3a41, 1140, 0xb049c183a042a93d),
        ("fig09", 18, 0x9fdbd13a82a34cbc, 114, 0x04c8006b9db10696),
        ("fig10", 18, 0xd843db9ba9cbb52a, 114, 0xe5848dcbc09645d5),
        ("fig11", 9, 0xd44f9c99aea74baf, 57, 0x4b7f4743237a069e),
        ("fig12", 162, 0x012f6bf3921b490d, 1026, 0x8e05328586f27304),
        ("fig13", 324, 0x9cf7d33e8a16e3d6, 2052, 0xb01f507ea15a314d),
        ("fig14", 162, 0x0bdf4d9824f712ba, 1026, 0xe8e22cb1ff05343a),
        ("fig15", 324, 0x4cbb6dc4b3a90ebd, 2052, 0xa175bbb70defb3c0),
        ("fig16", 324, 0x1304af99ae436de5, 2052, 0x236cb9e7e798ae25),
        ("fig17", 324, 0xd6eb6da2d1900363, 2052, 0x85a6f43f6e024b90),
        ("table04", 324, 0x60bf699d91dc3bdb, 2052, 0x449d100a8021e57d),
    ];
    let grids = FIGURES.iter().filter(|f| matches!(f.body, Body::Grid(_)));
    let grids: Vec<&str> = grids.map(|f| f.id).collect();
    assert_eq!(grids, PINNED.map(|p| p.0), "every grid figure is pinned");
    let (mut quick_total, mut full_total) = (0, 0);
    for (id, quick_cells, quick_digest, full_cells, full_digest) in PINNED {
        for (full, cells, pinned) in
            [(false, quick_cells, quick_digest), (true, full_cells, full_digest)]
        {
            let opts = BenchOpts { full, ..BenchOpts::default() };
            let keys = key_set(&find(id).sweep(&opts).expect("a grid figure"));
            assert_eq!((keys.len(), digest(&keys)), (cells, pinned), "{id}, full = {full}");
        }
        quick_total += quick_cells;
        full_total += full_cells;
    }
    assert_eq!((quick_total, full_total), (2_439, 15_447));
}

#[test]
fn every_figure_sweep_round_trips_as_a_spec() {
    for full in [false, true] {
        let opts = BenchOpts { full, sweep_points: 3, ..BenchOpts::default() };
        for figure in FIGURES {
            let Some(spec) = figure.sweep(&opts) else { continue };
            let hash = SweepJournal::sweep_hash(&spec);
            let from_toml = SweepSpec::from_toml_str(&spec.to_toml())
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", figure.id, spec.to_toml()));
            let from_json = SweepSpec::from_json_str(&spec.to_json().render())
                .unwrap_or_else(|e| panic!("{}: {e}", figure.id));
            for (leg, back) in [("toml", from_toml), ("json", from_json)] {
                assert_eq!(back, spec, "{}: {leg}", figure.id);
                assert_eq!(SweepJournal::sweep_hash(&back), hash, "{}: {leg}", figure.id);
                assert_eq!(format!("{back:?}"), format!("{spec:?}"), "{}: {leg}", figure.id);
            }
        }
    }
}

#[test]
fn readme_lists_exactly_the_declared_ids() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("README.md at the repo root");
    let listed: Vec<&str> = readme
        .lines()
        .filter_map(|l| l.strip_prefix("| `")?.split_once("` | ").map(|(id, _)| id))
        .filter(|id| FIGURES.iter().any(|f| f.id == *id))
        .collect();
    let declared: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    assert_eq!(listed, declared, "README's figure table, in declaration order");
}

#[test]
fn declared_fig09_is_the_shipped_spec_matrix() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/specs/fig09_quick.toml");
    let spec = SweepSpec::from_toml_str(&std::fs::read_to_string(path).expect("shipped spec"))
        .expect("fig09_quick.toml parses");
    let [nrh] = spec.options.nrh[..] else { panic!("spec pins one N_RH") };
    let opts = BenchOpts {
        window_us: spec.options.window_us.expect("spec pins its window"),
        seed: spec.options.seed.expect("spec pins its seed"),
        nrh,
        ..BenchOpts::default()
    };
    let declared = key_set(&find("fig09").sweep(&opts).expect("a grid figure"));
    assert_eq!(declared.len(), 18);
    assert_eq!(declared, key_set(&spec));
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
