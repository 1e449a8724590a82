//! The [`Body::Custom`](crate::figures::Body::Custom) entries of the figure
//! table: the evaluation outputs that are not workload × series grids. The
//! two that simulate run sweeps ([`BenchOpts::sweep`]) like every grid.

use crate::figures::{run_clean, Cube, Metric};
use crate::{header, BenchOpts};
use analysis::equations::{dapper_h_success, dapper_s_capture, table_two};
use analysis::montecarlo::{h_capture_trials, s_capture_trials};
use analysis::storage::storage_table;
use dapper::{DapperConfig, DapperH, DapperS};
use sim::spec::{Series, TelemetryOptions};
use sim::TelemetrySpec;
use sim_core::addr::Geometry;
use sim_core::tracker::RowHammerTracker;

/// Table II: vulnerability of DAPPER-S to Mapping-Capturing attacks, from
/// the analytical model (Equations 1-5) at DDR5-6400 timing.
pub(crate) fn table02(_: &BenchOpts) {
    println!("==== Table II: DAPPER-S Mapping-Capturing analysis ====");
    println!("(Eqs. 1-5; tRC=48ns, tRRD_S=2.5ns, N_M=250, 8K row groups)\n");
    println!(
        "{:>12} {:>12} {:>12} {:>14} {:>14} {:>14}",
        "t_reset", "t_left", "ACT_MAX", "P_success", "AT_iter", "AT_time"
    );
    for r in table_two() {
        println!(
            "{:>10.0}us {:>10.2}us {:>12.1} {:>14.6} {:>14.1} {}",
            r.t_reset_ns / 1000.0,
            r.t_left_ns / 1000.0,
            r.act_max,
            r.p_success,
            r.at_iter,
            fmt_time(r.at_time_ns),
        );
    }
    println!("\npaper (same formulas, slightly different ACT spacing):");
    println!("  36us -> 1.8 iterations (64us); 24us -> 3 (71us); 12us -> 630.6 (7.6ms)");
    println!("shape check: even a 12us reset is captured within milliseconds:");
    let r = dapper_s_capture(12_000.0, 48.0, 2.5, 250, 8192);
    println!("  ours: {:.1} iterations -> {}", r.at_iter, fmt_time(r.at_time_ns));
}

fn fmt_time(ns: f64) -> String {
    if ns >= 1.0e6 {
        format!("{:>11.2}ms", ns / 1.0e6)
    } else {
        format!("{:>11.2}us", ns / 1.0e3)
    }
}

/// Table III: storage overhead per 32 GB DDR5 channel.
pub(crate) fn table03(_: &BenchOpts) {
    println!("==== Table III: storage overhead per 32 GB DDR5 memory ====\n");
    println!("{:<14} {:>10} {:>10} {:>18}", "tracker", "SRAM (KB)", "CAM (KB)", "die area (mm^2)");
    for row in storage_table(500) {
        let marker = if row.in_paper_table { "" } else { " (not in paper table)" };
        println!(
            "{:<14} {:>10.1} {:>10.1} {:>18.3}{marker}",
            row.name,
            row.overhead.sram_kb(),
            row.overhead.cam_kb(),
            row.overhead.die_area_mm2(),
        );
    }
    println!("\npaper: Hydra 56.5 | CoMeT 112+23 | START 4 | ABACUS 19.3+7.5 | DAPPER-H 96");
}

/// Section VI-C security analysis: DAPPER-H Mapping-Capturing success
/// probability (Eqs. 6-7), Monte-Carlo validation, and an oracle-audited
/// simulation of the strongest attack patterns.
pub(crate) fn security(opts: &BenchOpts) {
    println!("==== Security analysis (Section VI-C, Table II) ====\n");

    println!("-- DAPPER-S analytical capture times (Table II) --");
    for r in table_two() {
        println!(
            "  t_reset {:>5.0}us: {:>8.1} iterations, {:>10.3}ms per captured pair",
            r.t_reset_ns / 1000.0,
            r.at_iter,
            r.at_time_ns / 1.0e6
        );
    }

    println!("\n-- DAPPER-H analytical success probability (Eqs. 6-7) --");
    let h = dapper_h_success(8192, 250, 616_000.0);
    println!("  per-trial p = {:.3e}", h.p_trial);
    println!("  trials per tREFW = {:.0}", h.trials);
    println!("  capture probability per tREFW = {:.3e}", h.p_window);
    println!("  prevention rate = {:.4}% (paper: 99.99%)", 100.0 * (1.0 - h.p_window));

    println!("\n-- Monte-Carlo validation on real LLBC mappings (small geometry) --");
    let mut cfg = DapperConfig::baseline(500, 0, opts.seed);
    cfg.geometry = Geometry {
        channels: 1,
        ranks: 1,
        bank_groups: 2,
        banks_per_group: 2,
        rows_per_bank: 16 * 1024,
        row_bytes: 8192,
    };
    let n = cfg.groups_per_rank() as f64;
    let (sh, st) = s_capture_trials(cfg, 400_000, opts.seed);
    println!(
        "  DAPPER-S single-probe hit rate: {:.5} (analytic 1/N = {:.5})",
        sh as f64 / st as f64,
        1.0 / n
    );
    let (hh, ht) = h_capture_trials(cfg, 4_000_000, opts.seed);
    let expect = {
        let one = 1.0 - (1.0 - 1.0 / n) * (1.0 - 1.0 / n);
        one * one
    };
    println!(
        "  DAPPER-H dual-probe hit rate:   {:.2e} (analytic {:.2e})",
        hh as f64 / ht as f64,
        expect
    );

    println!("\n-- Oracle-audited attack simulations (N_RH = {}) --", opts.nrh);
    let mut audited = opts.sweep(vec![
        Series::new("DAPPER-H vs refresh attack", "dapper-h", "refresh"),
        Series::new("DAPPER-H vs streaming", "dapper-h", "streaming"),
        Series::new("DAPPER-S vs refresh attack", "dapper-s", "refresh"),
        Series::new("no tracker vs refresh", "none", "refresh"),
    ]);
    audited.workloads = vec!["gcc_like".to_string()];
    let oracle = TelemetrySpec { oracle: true, ..TelemetrySpec::default() };
    audited.telemetry = Some(TelemetryOptions { spec: oracle, out: None });
    for (series, r) in audited.series.iter().zip(run_clean(&audited)) {
        let label = series.label.as_deref().unwrap_or_default();
        let (max_damage, violations) = r.run.oracle.expect("oracle attached");
        println!(
            "  {label:<27}: max victim disturbance {max_damage:>6} / N_RH {}, violations: {violations}",
            opts.nrh
        );
    }
    println!("\n(violations must be 0 for every real tracker; the no-tracker row");
    println!(" shows the attack actually hammers when undefended)");
}

/// Ablation study of DAPPER's design choices (DESIGN.md index):
/// group size, single vs double hashing, and mitigation scope.
pub(crate) fn ablation(opts: &BenchOpts) {
    header("Ablation: DAPPER design choices", opts);

    println!("-- single hash (DAPPER-S) vs double hash (DAPPER-H), refresh attack --");
    let hashing = opts.sweep(vec![
        Series::new("DAPPER-S", "dapper-s", "refresh"),
        Series::new("DAPPER-H", "dapper-h", "refresh"),
    ]);
    let cube = Cube::run(&hashing, Metric::NormalizedPerformance);
    for (s, label) in cube.labels().iter().enumerate() {
        println!("  {label:<10} {:.4}", cube.value(0, s, &cube.all()));
    }

    println!("\n-- storage vs group size (both trackers, per 32 GB channel) --");
    println!(
        "  {:<8} {:>14} {:>14} {:>12}",
        "group", "DAPPER-S (KB)", "DAPPER-H (KB)", "groups/rank"
    );
    for gs in [64u32, 128, 256, 512] {
        let cfg = DapperConfig::baseline(opts.nrh, 0, opts.seed).with_group_size(gs);
        let s = DapperS::new(cfg).storage_overhead().sram_kb();
        let h = DapperH::new(cfg).storage_overhead().sram_kb();
        println!("  {gs:<8} {s:>14.1} {h:>14.1} {:>12}", cfg.groups_per_rank());
    }

    println!("\n-- mitigation scope: rows refreshed per mitigation --");
    let cfg = DapperConfig::baseline(opts.nrh, 0, opts.seed);
    println!("  DAPPER-S refreshes the whole group: {} rows per mitigation", cfg.group_size);
    println!("  DAPPER-H refreshes the shared rows: ~1 row (99.9% single, Section VI-D)");

    println!("\n-- reset-period sensitivity for DAPPER-S (Table II shape) --");
    for t_reset_us in [36.0, 24.0, 12.0] {
        let r = dapper_s_capture(t_reset_us * 1000.0, 48.0, 2.5, 250, 8192);
        println!("  t_reset {t_reset_us:>4.0}us -> capture every {:>9.3} ms", r.at_time_ns / 1e6);
    }
}
