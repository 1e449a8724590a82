//! Cache-key stability goldens and crash-safety of the run cache.
//!
//! The golden constants pin the content-addressed cell keys for a fixed
//! experiment matrix. They must only change when the cache format changes
//! *intentionally* — in which case bump [`sim::cache::CACHE_EPOCH`] in the
//! same commit and refresh the constants below. An accidental key change
//! (a refactor that perturbs canonicalization) silently invalidates every
//! cache on disk, so this test treats any drift as a failure.

use sim::cache::{cell_key, RunCache, CACHE_EPOCH};
use sim::experiment::{AttackChoice, Experiment};
use sim::spec::SweepSpec;

/// The pinned matrix: one golden per canonicalization feature (defaults,
/// parameter overrides, tailored-attack resolution, seed knobs). The
/// `event-driven-seeded` golden was recorded with the engine named on the
/// experiment: the descriptor's constant `engine` member must keep it.
fn golden_matrix() -> Vec<(&'static str, Experiment, &'static str)> {
    vec![
        (
            "defaults",
            Experiment::new("mcf_like").tracker("para"),
            "532bbf365a9ad9615e9bba3c06d860e3",
        ),
        (
            "param-override",
            Experiment::new("mcf_like").tracker("hydra").tracker_param("rcc_entries", 4096i64),
            "aeaf43d27c6fceaf69452897db277db5",
        ),
        (
            "tailored-attack",
            Experiment::new("libquantum_like").tracker("dapper-s").attack(AttackChoice::Tailored),
            "c0c8211340fa096157f37d81079b25ad",
        ),
        (
            "event-driven-seeded",
            Experiment::new("gups_like").tracker("comet").seed(0xFEED).nrh(750),
            "36c9f421c0dab90a1115e1baa27ada74",
        ),
    ]
}

#[test]
fn cell_keys_are_stable_across_releases() {
    assert_eq!(CACHE_EPOCH, 1, "epoch bumped: refresh the golden keys below in the same commit");
    for (label, experiment, golden) in golden_matrix() {
        let key = cell_key(&experiment).expect("matrix cells are cacheable").key;
        assert_eq!(
            key, golden,
            "cell key drifted for '{label}': either revert the canonicalization \
             change or bump CACHE_EPOCH and refresh this golden"
        );
    }
}

#[test]
fn cell_keys_track_geometry() {
    // Geometry shapes results: the enlarged eight-channel system must
    // never collide with the two-channel baseline.
    let base = Experiment::new("mcf_like").tracker("dapper-h");
    let baseline = cell_key(&base).expect("cacheable").key;
    let enlarged = cell_key(&base.clone().eight_channel(2)).expect("cacheable").key;
    assert_ne!(baseline, enlarged, "channel count is part of the modeled system");
}

/// One digest over the keys of every cell the repository ships a spec for:
/// each `examples/specs/*.toml` in file-name order, then the benchmark's
/// pinned sweep, every cell in expansion order, one key per line.
const SHIPPED_KEYS_DIGEST: &str = "03c1f85fef2959c1a6ce515b80938198";

#[test]
fn shipped_spec_cell_keys_are_stable_across_releases() {
    // The four goldens above pin one cell per canonicalization feature;
    // this pins every shipped cell, so a drift anywhere in a descriptor
    // (a member, its order, escaping or number text) fails here.
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<_> = std::fs::read_dir(root.join("examples/specs"))
        .expect("examples/specs")
        .map(|entry| entry.expect("spec dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    files.sort();
    files.push(root.join("benchmark/specs/campaign.toml"));
    let mut manifest = String::new();
    let mut cells = 0;
    for file in &files {
        let text = std::fs::read_to_string(file).expect("read spec");
        let spec = SweepSpec::from_toml_str(&text).expect("spec parses");
        for (_, key) in spec.expand_keyed().expect("spec expands") {
            let key = key.unwrap_or_else(|| panic!("{}: uncacheable cell", file.display()));
            manifest.push_str(&key.key);
            manifest.push('\n');
            cells += 1;
        }
    }
    assert_eq!(
        (cells, sim_core::cache::content_key(manifest.as_bytes()).as_str()),
        (74, SHIPPED_KEYS_DIGEST),
        "a shipped cell's key drifted: revert the canonicalization change, or bump \
         CACHE_EPOCH and refresh this digest (and the cell count, when a spec changes)"
    );
}

#[test]
fn corrupt_entries_are_evicted_and_recomputed() {
    let dir = std::env::temp_dir().join(format!("cache-crash-safety-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut spec = SweepSpec::new("crash_safety");
    spec.workloads = vec!["mcf_like".to_string()];
    spec.trackers = vec!["none".to_string(), "para".to_string()];
    spec.options.window_us = Some(20.0);

    let cache = RunCache::open(&dir).expect("open cache");
    let (cold, summary) = spec.run_cached(&cache).expect("cold run");
    assert_eq!((summary.hits, summary.misses), (0, 2));
    let cold_json = cold.to_json().render();

    // Simulate a crash mid-write: truncate one entry to half its length.
    let entries: Vec<std::path::PathBuf> = walk_entries(&dir);
    assert_eq!(entries.len(), 2, "one entry file per cell");
    let victim = &entries[0];
    let text = std::fs::read_to_string(victim).expect("read entry");
    std::fs::write(victim, &text[..text.len() / 2]).expect("truncate entry");

    // A fresh cache over the same dir detects the bad checksum, evicts the
    // entry, recomputes the cell, and reproduces the report byte-for-byte.
    let cache = RunCache::open(&dir).expect("reopen cache");
    let (warm, summary) = spec.run_cached(&cache).expect("warm run");
    assert_eq!((summary.hits, summary.misses), (1, 1), "only the corrupt cell recomputes");
    assert_eq!(cache.stats().corrupt, 1, "the truncated entry must be counted");
    assert_eq!(warm.to_json().render(), cold_json, "recomputed report is byte-identical");

    // The recomputed entry was re-stored: a third pass is all hits.
    let cache = RunCache::open(&dir).expect("reopen again");
    let (_, summary) = spec.run_cached(&cache).expect("third run");
    assert_eq!((summary.hits, summary.misses), (2, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_io_errors_read_as_a_miss_and_recover_byte_identically() {
    use sim_core::fault::FaultPlan;
    // The recovery path: an injected read IO error degrades to a miss, the
    // cell is recomputed and re-stored, and the entry then reads back as
    // the cold result, byte for byte.
    let dir = std::env::temp_dir().join(format!("cache-io-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let e = Experiment::quick("mcf_like").tracker("para").window_us(50.0);
    let key = cell_key(&e).expect("cacheable");
    let cache = RunCache::open(&dir).expect("open cache");
    let cold = e.clone().run();
    cache.save(&key, &cold);

    let cache = RunCache::open(&dir).expect("reopen");
    cache.store().arm_faults(FaultPlan::new(71).fail_cache_read_nth(0).arm());
    assert!(cache.lookup(&key).is_none(), "injected IO error reads as a miss");
    assert_eq!(cache.stats().io_errors, 1, "the error is counted");
    let recomputed = e.run();
    cache.save(&key, &recomputed);
    let back = cache.lookup(&key).expect("re-stored entry reads back");
    assert_eq!(
        sim::spec::result_to_json(&back).render(),
        sim::spec::result_to_json(&cold).render(),
        "recovery reproduces the cold result byte-for-byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn walk_entries(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("read_dir").flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "entry") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// The `.entry` files under `dir`, as the content keys they are named by.
fn entry_keys(dir: &std::path::Path) -> Vec<String> {
    walk_entries(dir)
        .iter()
        .map(|p| p.file_stem().expect("entry file").to_string_lossy().into_owned())
        .collect()
}

#[test]
fn redteam_cell_keys_are_stable_across_releases() {
    // The red-team front ends key their cells by (conditions, scenario
    // genome). Each runs here through the `redteam` entry point against
    // an empty cache directory, and the entries it leaves behind are
    // compared with keys recorded before the three crates were folded
    // onto one evaluation core: a drift would turn every existing
    // `--cache-dir` cold.
    let dir = std::env::temp_dir().join(format!("redteam-goldens-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let redteam = |args: String| {
        let argv: Vec<String> = args.split_whitespace().map(String::from).collect();
        assert_eq!(redteam::redteam_main(&argv), 0, "redteam {args}");
    };
    let d = dir.display();

    // The campaign's fixed matrix: the seven paper attacks against Hydra.
    redteam(format!(
        "--trackers hydra --budget 0 --window-us 60 --workload povray_like \
         --cache-dir {d}/matrix --out {d}/matrix.json"
    ));
    assert_eq!(entry_keys(&dir.join("matrix")), GOLDEN_MATRIX, "fixed matrix");

    // The profile stage's probe cells (8 trace windows + mitigation log).
    redteam(format!(
        "profile --tracker hydra --workload povray_like --probe-window-us 25 --bank-groups 2 \
         --row-groups 1 --families hammer --cache-dir {d}/profile --out {d}/heatmap.json"
    ));
    assert_eq!(entry_keys(&dir.join("profile")), GOLDEN_PROBES, "profile probes");

    // The evaluate stage's full-fidelity cell for the hottest probe.
    redteam(format!(
        "evaluate --heatmap {d}/heatmap.json --top-k 1 --window-us 60 --cache-dir {d}/evaluate"
    ));
    assert_eq!(entry_keys(&dir.join("evaluate")), GOLDEN_EVALUATE, "evaluate cell");
    let _ = std::fs::remove_dir_all(&dir);
}

const GOLDEN_MATRIX: [&str; 7] = [
    "379e093d1ee503a7f40b271a8ab9c4f5",
    "80572f35ffbb03c513895e3b6b9beb14",
    "8702163086e4d840104e54ed1ad442fd",
    "a6b2be5347ff6213c8e7141bc518a9fa",
    "bb371c3b32c1c5637529b6abe72a69c6",
    "c71279910036da5149a73723bb33af1c",
    "dd5e9bb0bbf6b94e4ea2b4ba9336bb36",
];
const GOLDEN_PROBES: [&str; 2] =
    ["3c45dae42f532eb229e8ddcd50e2adc0", "420eef5cab20302d4cbd625092527b7d"];
const GOLDEN_EVALUATE: [&str; 1] = ["b6b2bcd278d89260546674d97db5ac22"];

#[test]
fn redteam_attacker_axis_is_all_hits_and_byte_identical_on_a_warm_rerun() {
    // `redteam --attacker all --cache-dir D`, twice: the pipeline cells
    // run through the same cached driver as `[attacker]` specs, so the
    // second campaign simulates none of them and exports the same bytes.
    use redteam::{attacker_axis, run_campaign, CampaignConfig};
    use sim::{AttackerKnowledge, TrackerSel};
    let dir = std::env::temp_dir().join(format!("redteam-attacker-axis-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = CampaignConfig::new(vec![TrackerSel::by_key("hydra").unwrap()], "povray_like");
    cfg.arena.window_us = 60.0;
    cfg.scenarios.truncate(1);
    cfg.search_budget = 0;
    let campaign = || {
        let cache = RunCache::open(&dir).expect("open cache");
        let mut report = run_campaign(&cfg, Some(&cache));
        let axis = attacker_axis(&mut report, &AttackerKnowledge::ALL, Some(&cache));
        (report.to_json().render(), report.to_csv(), axis)
    };
    let (cold_json, cold_csv, cold) = campaign();
    assert_eq!((cold.cells, cold.hits, cold.misses), (3, 0, 3));
    let (warm_json, warm_csv, warm) = campaign();
    assert_eq!((warm.cells, warm.hits, warm.misses), (3, 3, 0), "no pipeline cell simulates");
    assert_eq!(warm.verdicts, cold.verdicts);
    assert_eq!((warm_json, warm_csv), (cold_json.clone(), cold_csv));
    assert_eq!(cold_json.matches("\"origin\":\"attacker\"").count(), 3, "one row per level");
    let _ = std::fs::remove_dir_all(&dir);
}
