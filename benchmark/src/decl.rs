//! What the benchmark declares. `BENCHMARK.json` at the repo root is the one
//! statement of the workloads, the end-to-end metrics with their regression
//! bounds, and the per-layer metrics; it is compiled in and parsed once.
//! Rust adds only what the file cannot say: which workload name runs which
//! code, and which per-layer metrics are counts.

use sim_core::json::Json;
use std::sync::OnceLock;

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimIdle,
    SimSaturated,
    SimAttack,
    Sim8ch,
    CampaignCold,
    CampaignWarm,
    CampaigndWarm,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::SimIdle,
        Workload::SimSaturated,
        Workload::SimAttack,
        Workload::Sim8ch,
        Workload::CampaignCold,
        Workload::CampaignWarm,
        Workload::CampaigndWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimIdle => "sim_idle",
            Workload::SimSaturated => "sim_saturated",
            Workload::SimAttack => "sim_attack",
            Workload::Sim8ch => "sim_8ch",
            Workload::CampaignCold => "campaign_cold",
            Workload::CampaignWarm => "campaign_warm",
            Workload::CampaigndWarm => "campaignd_warm",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_sim(self) -> bool {
        matches!(
            self,
            Workload::SimIdle | Workload::SimSaturated | Workload::SimAttack | Workload::Sim8ch
        )
    }
}

/// An end-to-end metric and the share of the parent's median by which it
/// may worsen before a change counts as a regression. The timing bounds
/// are what this two-vCPU sandbox allows, not what one would like
/// (README.md, "Why the median"); on a quieter host, tighten them.
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

/// Whether two runs of the same code must agree on a per-layer value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Made by the program from its inputs alone: repeats exactly.
    Count,
    /// A host timing or a ratio of host timings: informational, ungated.
    Host,
}

pub struct PerLayer {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub kind: Kind,
}

/// The per-layer metrics of [`Kind::Count`]; every other one is a host
/// timing. The `model.*` pair is the model's own (simulated) output.
const COUNTS: &[&str] = &[
    "system.dense_step_fraction",
    "system.skips",
    "system.skipped_cycles",
    "system.frozen_cycle_fraction",
    "memctrl.shard_tick_fraction",
    "memctrl.activations",
    "memctrl.row_hit_rate",
    "memctrl.refreshes",
    "memctrl.mitigations",
    "memctrl.counter_ops",
    "memctrl.reset_sweeps",
    "memctrl.mitigation_block_cycles",
    "tracker.mitigations_per_kact",
    "llcache.hit_rate",
    "pool.worker_respawns",
    "runner.threads",
    "cache.entry_bytes",
    "cache.hits",
    "cache.misses",
    "cache.stored",
    "journal.records",
    "campaignd.executed",
    "model.norm_perf_mean",
    "model.ipc_mean",
];

/// The metric tables of `BENCHMARK.json`, in its order. A workload whose
/// path does not cross a layer reports that layer's metrics as 0.
pub struct Declared {
    pub end_to_end: Vec<EndToEnd>,
    pub per_layer: Vec<PerLayer>,
}

pub fn declared() -> &'static Declared {
    static TABLES: OnceLock<Declared> = OnceLock::new();
    TABLES.get_or_init(|| parse(include_str!("../../BENCHMARK.json")))
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    declared().per_layer.iter().find(|m| m.name == name)
}

fn parse(text: &str) -> Declared {
    let json = Json::parse(text).expect("BENCHMARK.json parses");
    let items = |key: &str| match json.get(key) {
        Some(Json::Arr(items)) => items.as_slice(),
        _ => panic!("BENCHMARK.json: '{key}' is not an array"),
    };
    let text = |entry: &Json, key: &str| match entry.get(key) {
        Some(Json::Str(s)) => s.clone(),
        _ => panic!("BENCHMARK.json: an entry has no string '{key}'"),
    };
    let workloads: Vec<String> = items("workloads").iter().map(|w| text(w, "name")).collect();
    assert!(
        workloads.iter().map(String::as_str).eq(Workload::ALL.iter().map(|w| w.name())),
        "BENCHMARK.json names the workloads {workloads:?}"
    );
    let end_to_end = items("end_to_end")
        .iter()
        .map(|m| EndToEnd {
            name: text(m, "name"),
            unit: text(m, "unit"),
            better: text(m, "better"),
            bound: match m.get("bound") {
                Some(Json::Num(b)) => *b,
                _ => panic!("BENCHMARK.json: an end-to-end metric has no bound"),
            },
        })
        .collect();
    let per_layer: Vec<PerLayer> = items("per_layer")
        .iter()
        .map(|m| {
            let name = text(m, "name");
            let kind = if COUNTS.contains(&name.as_str()) { Kind::Count } else { Kind::Host };
            PerLayer { name, unit: text(m, "unit"), better: text(m, "better"), kind }
        })
        .collect();
    for &name in COUNTS {
        assert!(per_layer.iter().any(|m| m.name == name), "BENCHMARK.json lacks count '{name}'");
    }
    Declared { end_to_end, per_layer }
}
