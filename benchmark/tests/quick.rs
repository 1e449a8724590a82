//! Runs the whole benchmark in `--quick` mode and holds its result file
//! against `BENCHMARK.json`: every declared workload and metric present,
//! nothing undeclared, names and counts within the contract's limits, and
//! no failed cell. Not part of the repo's tier-1 suite; run it with
//! `cargo test --release` here (a debug build simulates ~10x slower).

use sim_core::json::Json;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn members<'a>(j: &'a Json, key: &str) -> &'a [(String, Json)] {
    match j.get(key) {
        Some(Json::Obj(pairs)) => pairs,
        _ => panic!("'{key}' is not an object"),
    }
}

fn items<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    match j.get(key) {
        Some(Json::Arr(items)) => items,
        _ => panic!("'{key}' is not an array"),
    }
}

fn text<'a>(j: &'a Json, key: &str) -> &'a str {
    match j.get(key) {
        Some(Json::Str(s)) => s,
        _ => panic!("'{key}' is not a string"),
    }
}

fn names(entries: &[Json]) -> BTreeSet<String> {
    let set: BTreeSet<String> = entries.iter().map(|e| text(e, "name").to_string()).collect();
    assert_eq!(set.len(), entries.len(), "a name is declared twice");
    set
}

fn keys(pairs: &[(String, Json)]) -> BTreeSet<String> {
    pairs.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn quick_run_reports_exactly_what_benchmark_json_declares() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let declared = std::fs::read_to_string(root.join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let declared = Json::parse(&declared).expect("BENCHMARK.json parses");
    let workloads = names(items(&declared, "workloads"));
    let end_to_end = names(items(&declared, "end_to_end"));
    let per_layer = names(items(&declared, "per_layer"));
    assert!((2..=8).contains(&workloads.len()), "{} workloads", workloads.len());
    assert!((1..=16).contains(&end_to_end.len()), "{} end-to-end metrics", end_to_end.len());
    assert!((1..=128).contains(&per_layer.len()), "{} per-layer metrics", per_layer.len());
    for name in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        let ok = name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        assert!(ok, "name '{name}' is outside [A-Za-z0-9][A-Za-z0-9_.-]*");
    }

    let out = root.join("out/quick-test.json");
    let status = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("--quick")
        .arg("--out")
        .arg(&out)
        .status()
        .expect("run the benchmark");
    assert!(status.success(), "benchmark --quick ended with {status}");
    let result = std::fs::read_to_string(&out).expect("result file");
    let result = Json::parse(&result).expect("result file parses");

    let measured = members(&result, "workloads");
    assert_eq!(keys(measured), workloads, "workloads differ from BENCHMARK.json");
    for (workload, w) in measured {
        assert_eq!(
            w.get("failed"),
            Some(&Json::Num(0.0)),
            "{workload}: failed cells: {}",
            w.render()
        );
        assert_eq!(keys(members(w, "end_to_end")), end_to_end, "{workload}: end-to-end metrics");
        assert_eq!(keys(members(w, "per_layer")), per_layer, "{workload}: per-layer metrics");
        for (metric, value) in members(w, "end_to_end") {
            assert!(
                matches!(value, Json::Num(v) if *v > 0.0),
                "{workload}: {metric} is not positive"
            );
        }
    }
}
