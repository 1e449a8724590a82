//! Declarative experiment specs: TOML/JSON descriptions of experiments and
//! sweeps that expand into [`Experiment`]s through the tracker registry.
//!
//! A [`SweepSpec`] names trackers by registry key (with per-tracker
//! parameter overrides like `hydra.rcc_entries = 512`), workloads from the
//! catalog (or the `@quick` / `@all` tokens), and attacks by name; it
//! expands into the full cross product for
//! [`crate::runner::try_run_parallel`] and round-trips results to JSON.
//! An [`ExperimentSpec`] is the single-cell form. Both serialize to TOML
//! and JSON and parse back losslessly; every validation failure names the
//! offending key.
//!
//! ```toml
//! # A paper-figure matrix, declaratively:
//! name = "fig09-quick"
//! workloads = ["@quick"]
//! trackers = ["dapper-s"]
//! attacks = ["streaming", "refresh"]
//! isolate = true
//!
//! [params.dapper-s]
//! group_size = 256
//! ```

use crate::experiment::{
    AttackChoice, AttackerConfig, AttackerKnowledge, Experiment, ExperimentResult, TelemetrySpec,
    TrackerSel,
};
use crate::runner::{try_run_parallel, SweepError};
use crate::system::Engine;
use crate::toml::{self, TomlError, TomlValue};
use sim_core::config::Threads;
use sim_core::json::{Json, JsonError};
use sim_core::registry::{ParamValue, RegistryError};
use std::collections::BTreeMap;
use workloads::Attack;

/// What went wrong turning a spec into experiments. Every variant names
/// the offending key/name so the user can fix the exact line.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The TOML text did not parse.
    Toml(TomlError),
    /// The JSON text did not parse.
    Json(JsonError),
    /// A tracker name or parameter the registry rejected.
    Registry(RegistryError),
    /// A workload name the catalog does not know.
    UnknownWorkload {
        /// The offending name.
        name: String,
    },
    /// An attack name outside the known set.
    UnknownAttack {
        /// The offending name.
        name: String,
        /// The names that would have worked.
        known: Vec<String>,
    },
    /// A malformed or missing field.
    Field {
        /// The offending key.
        key: String,
        /// What is wrong with it.
        message: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Toml(e) => e.fmt(f),
            SpecError::Json(e) => e.fmt(f),
            SpecError::Registry(e) => e.fmt(f),
            SpecError::UnknownWorkload { name } => write!(f, "unknown workload '{name}'"),
            SpecError::UnknownAttack { name, known } => {
                write!(f, "unknown attack '{name}'; known: {}", known.join(", "))
            }
            SpecError::Field { key, message } => write!(f, "spec field '{key}': {message}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<TomlError> for SpecError {
    fn from(e: TomlError) -> Self {
        SpecError::Toml(e)
    }
}
impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::Json(e)
    }
}
impl From<RegistryError> for SpecError {
    fn from(e: RegistryError) -> Self {
        SpecError::Registry(e)
    }
}

fn field_err(key: &str, message: impl Into<String>) -> SpecError {
    SpecError::Field { key: key.to_string(), message: message.into() }
}

/// The attack names the spec layer accepts: the three experiment-level
/// modes plus every specific pattern.
pub fn known_attacks() -> Vec<String> {
    let mut known = vec!["none".to_string(), "tailored".to_string()];
    known.extend(Attack::all().map(|a| a.name().to_string()));
    known
}

/// Parses an attack name into an [`AttackChoice`]. `"none"`/`"benign"`
/// select no attacker, `"tailored"` the tracker-specific pattern, anything
/// else a specific [`Attack`] by its display name.
pub fn parse_attack(name: &str) -> Result<AttackChoice, SpecError> {
    let norm = sim_core::registry::normalize_key(name);
    match norm.as_str() {
        "none" | "benign" => return Ok(AttackChoice::None),
        "tailored" => return Ok(AttackChoice::Tailored),
        _ => {}
    }
    Attack::all()
        .into_iter()
        .find(|a| {
            let n = sim_core::registry::normalize_key(a.name());
            n == norm || norm == format!("{n}attack")
        })
        .map(AttackChoice::Specific)
        .ok_or_else(|| SpecError::UnknownAttack { name: name.to_string(), known: known_attacks() })
}

// ---------------------------------------------------------------------------
// Tree helpers shared by the TOML and JSON front-ends.
// ---------------------------------------------------------------------------

fn json_to_toml(j: &Json, key: &str) -> Result<TomlValue, SpecError> {
    Ok(match j {
        Json::Null => return Err(field_err(key, "null is not a spec value")),
        Json::Bool(b) => TomlValue::Bool(*b),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                TomlValue::Int(*n as i64)
            } else {
                TomlValue::Float(*n)
            }
        }
        Json::Str(s) => TomlValue::Str(s.clone()),
        Json::Arr(items) => {
            TomlValue::Arr(items.iter().map(|i| json_to_toml(i, key)).collect::<Result<_, _>>()?)
        }
        Json::Obj(pairs) => {
            let mut t = BTreeMap::new();
            for (k, v) in pairs {
                t.insert(k.clone(), json_to_toml(v, k)?);
            }
            TomlValue::Table(t)
        }
    })
}

fn toml_to_json(v: &TomlValue) -> Json {
    match v {
        TomlValue::Str(s) => Json::Str(s.clone()),
        TomlValue::Int(i) => Json::Num(*i as f64),
        TomlValue::Float(f) => Json::Num(*f),
        TomlValue::Bool(b) => Json::Bool(*b),
        TomlValue::Arr(items) => Json::Arr(items.iter().map(toml_to_json).collect()),
        TomlValue::Table(t) => {
            Json::Obj(t.iter().map(|(k, v)| (k.clone(), toml_to_json(v))).collect())
        }
    }
}

fn param_from_toml(key: &str, v: &TomlValue) -> Result<ParamValue, SpecError> {
    Ok(match v {
        TomlValue::Int(i) => ParamValue::Int(*i),
        TomlValue::Float(f) => ParamValue::Float(*f),
        TomlValue::Bool(b) => ParamValue::Bool(*b),
        TomlValue::Str(s) => ParamValue::Str(s.clone()),
        other => {
            return Err(field_err(key, format!("a {} is not a parameter value", other.kind())))
        }
    })
}

fn param_to_toml(v: &ParamValue) -> TomlValue {
    match v {
        ParamValue::Int(i) => TomlValue::Int(*i),
        ParamValue::Float(f) => TomlValue::Float(*f),
        ParamValue::Bool(b) => TomlValue::Bool(*b),
        ParamValue::Str(s) => TomlValue::Str(s.clone()),
    }
}

fn param_table(t: &TomlValue, key: &str) -> Result<BTreeMap<String, ParamValue>, SpecError> {
    match t {
        TomlValue::Table(entries) => {
            let mut out = BTreeMap::new();
            for (k, v) in entries {
                out.insert(k.clone(), param_from_toml(&format!("{key}.{k}"), v)?);
            }
            Ok(out)
        }
        other => Err(field_err(key, format!("expected a table, got {}", other.kind()))),
    }
}

struct Fields<'a> {
    table: &'a BTreeMap<String, TomlValue>,
}

impl<'a> Fields<'a> {
    fn opt_str(&self, key: &str) -> Result<Option<String>, SpecError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(TomlValue::Str(s)) => Ok(Some(s.clone())),
            Some(other) => Err(field_err(key, format!("expected a string, got {}", other.kind()))),
        }
    }

    fn req_str(&self, key: &str) -> Result<String, SpecError> {
        self.opt_str(key)?.ok_or_else(|| field_err(key, "required"))
    }

    fn opt_u64(&self, key: &str) -> Result<Option<u64>, SpecError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(TomlValue::Int(i)) if *i >= 0 => Ok(Some(*i as u64)),
            // Values above i64::MAX (e.g. full-width seeds) serialize as
            // hex strings; accept them back.
            Some(TomlValue::Str(s)) => {
                let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => s.parse::<u64>(),
                };
                parsed.map(Some).map_err(|_| {
                    field_err(key, format!("cannot parse '{s}' as an unsigned integer"))
                })
            }
            Some(other) => {
                Err(field_err(key, format!("expected a non-negative integer, got {other:?}")))
            }
        }
    }

    fn opt_u32(&self, key: &str) -> Result<Option<u32>, SpecError> {
        match self.opt_u64(key)? {
            None => Ok(None),
            Some(v) => u32::try_from(v)
                .map(Some)
                .map_err(|_| field_err(key, format!("{v} does not fit in 32 bits"))),
        }
    }

    fn opt_f64(&self, key: &str) -> Result<Option<f64>, SpecError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(TomlValue::Float(f)) => Ok(Some(*f)),
            Some(TomlValue::Int(i)) => Ok(Some(*i as f64)),
            Some(other) => Err(field_err(key, format!("expected a number, got {}", other.kind()))),
        }
    }

    fn opt_bool(&self, key: &str) -> Result<Option<bool>, SpecError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(TomlValue::Bool(b)) => Ok(Some(*b)),
            Some(other) => Err(field_err(key, format!("expected a boolean, got {}", other.kind()))),
        }
    }

    fn str_list(&self, key: &str) -> Result<Option<Vec<String>>, SpecError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(TomlValue::Arr(items)) => {
                let mut out = Vec::new();
                for item in items {
                    match item {
                        TomlValue::Str(s) => out.push(s.clone()),
                        other => {
                            return Err(field_err(
                                key,
                                format!("expected strings, got a {}", other.kind()),
                            ))
                        }
                    }
                }
                Ok(Some(out))
            }
            Some(TomlValue::Str(s)) => Ok(Some(vec![s.clone()])),
            Some(other) => {
                Err(field_err(key, format!("expected an array of strings, got {}", other.kind())))
            }
        }
    }

    fn reject_unknown(&self, allowed: &[&str]) -> Result<(), SpecError> {
        for key in self.table.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(field_err(
                    key,
                    format!("unknown spec field; allowed: {}", allowed.join(", ")),
                ));
            }
        }
        Ok(())
    }
}

fn parse_engine(name: &str) -> Result<Engine, SpecError> {
    match name {
        "dense" => Ok(Engine::Dense),
        "event-driven" | "event_driven" => Ok(Engine::EventDriven),
        other => Err(field_err("engine", format!("'{other}' is not 'dense' or 'event-driven'"))),
    }
}

fn engine_name(e: Engine) -> &'static str {
    match e {
        Engine::Dense => "dense",
        Engine::EventDriven => "event-driven",
    }
}

/// Shared system-level knobs of a spec (every field optional; the
/// [`Experiment`] defaults apply when absent).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpecOptions {
    /// RowHammer threshold N_RH.
    pub nrh: Option<u32>,
    /// Simulation window, microseconds.
    pub window_us: Option<f64>,
    /// RNG seed.
    pub seed: Option<u64>,
    /// Normalize against an attacker-inclusive baseline (the DAPPER-figure
    /// normalization).
    pub isolate: Option<bool>,
    /// Simulation engine (`dense` / `event-driven`).
    pub engine: Option<Engine>,
}

impl SpecOptions {
    const KEYS: [&'static str; 5] = ["nrh", "window_us", "seed", "isolate", "engine"];

    fn from_fields(f: &Fields) -> Result<Self, SpecError> {
        Ok(Self {
            nrh: f.opt_u32("nrh")?,
            window_us: f.opt_f64("window_us")?,
            seed: f.opt_u64("seed")?,
            isolate: f.opt_bool("isolate")?,
            engine: match f.opt_str("engine")? {
                None => None,
                Some(name) => Some(parse_engine(&name)?),
            },
        })
    }

    fn write(&self, t: &mut BTreeMap<String, TomlValue>) {
        if let Some(nrh) = self.nrh {
            t.insert("nrh".into(), TomlValue::Int(nrh as i64));
        }
        if let Some(w) = self.window_us {
            t.insert("window_us".into(), TomlValue::Float(w));
        }
        if let Some(s) = self.seed {
            // Seeds past i64::MAX cannot be a TOML integer; hex strings
            // round-trip exactly (opt_u64 accepts them back).
            let v = match i64::try_from(s) {
                Ok(i) => TomlValue::Int(i),
                Err(_) => TomlValue::Str(format!("{s:#x}")),
            };
            t.insert("seed".into(), v);
        }
        if let Some(i) = self.isolate {
            t.insert("isolate".into(), TomlValue::Bool(i));
        }
        if let Some(e) = self.engine {
            t.insert("engine".into(), TomlValue::Str(engine_name(e).into()));
        }
    }

    fn apply(&self, mut e: Experiment) -> Experiment {
        if let Some(nrh) = self.nrh {
            e = e.nrh(nrh);
        }
        if let Some(w) = self.window_us {
            e = e.window_us(w);
        }
        if let Some(s) = self.seed {
            e = e.seed(s);
        }
        if self.isolate == Some(true) {
            e = e.isolating();
        }
        if let Some(engine) = self.engine {
            e = e.engine(engine);
        }
        e
    }
}

/// The `[telemetry]` spec section: which recorders to attach, the window
/// length, and an optional export stem.
///
/// ```toml
/// [telemetry]
/// window_us = 25.0
/// recorders = ["time-series", "slowdown"]   # or ["all"]
/// oracle = false
/// out = "transient"                         # export stem under out/
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryOptions {
    /// Recorder selection and window length (applied to every cell).
    pub spec: TelemetrySpec,
    /// Export stem: when set, the runner writes `<stem>_telemetry.json`
    /// beside the sweep results.
    pub out: Option<String>,
}

/// The recorder names `[telemetry] recorders = [...]` accepts.
pub const KNOWN_RECORDERS: [&str; 4] = ["time-series", "slowdown", "mitigation-log", "all"];

impl TelemetryOptions {
    fn from_value(v: &TomlValue) -> Result<Self, SpecError> {
        let TomlValue::Table(table) = v else {
            return Err(field_err("telemetry", format!("expected a table, got {}", v.kind())));
        };
        let f = Fields { table };
        f.reject_unknown(&["window_us", "recorders", "oracle", "out"])?;
        let window_us = f.opt_f64("window_us")?;
        if let Some(w) = window_us {
            // Catch it here with the key named, not as a per-job panic
            // when the engine asserts a nonzero window length.
            if !(w.is_finite() && w > 0.0) {
                return Err(field_err(
                    "telemetry.window_us",
                    format!("must be a positive number of microseconds, got {w}"),
                ));
            }
        }
        let mut spec = TelemetrySpec { window_us, ..Default::default() };
        spec.oracle = f.opt_bool("oracle")?.unwrap_or(false);
        for name in f.str_list("recorders")?.unwrap_or_default() {
            match sim_core::registry::normalize_key(&name).as_str() {
                "timeseries" => spec.time_series = true,
                "slowdown" => spec.slowdown = true,
                "mitigationlog" => spec.mitigation_log = true,
                "all" => {
                    spec.time_series = true;
                    spec.slowdown = true;
                    spec.mitigation_log = true;
                }
                _ => {
                    return Err(field_err(
                        "telemetry.recorders",
                        format!("unknown recorder '{name}'; known: {}", KNOWN_RECORDERS.join(", ")),
                    ))
                }
            }
        }
        Ok(Self { spec, out: f.opt_str("out")? })
    }

    fn to_value(&self) -> TomlValue {
        let mut t = BTreeMap::new();
        if let Some(w) = self.spec.window_us {
            t.insert("window_us".into(), TomlValue::Float(w));
        }
        let mut recorders = Vec::new();
        if self.spec.time_series && self.spec.slowdown && self.spec.mitigation_log {
            recorders.push("all");
        } else {
            if self.spec.time_series {
                recorders.push("time-series");
            }
            if self.spec.slowdown {
                recorders.push("slowdown");
            }
            if self.spec.mitigation_log {
                recorders.push("mitigation-log");
            }
        }
        if !recorders.is_empty() {
            t.insert(
                "recorders".into(),
                TomlValue::Arr(recorders.into_iter().map(|r| TomlValue::Str(r.into())).collect()),
            );
        }
        if self.spec.oracle {
            t.insert("oracle".into(), TomlValue::Bool(true));
        }
        if let Some(out) = &self.out {
            t.insert("out".into(), TomlValue::Str(out.clone()));
        }
        TomlValue::Table(t)
    }

    fn apply(&self, e: Experiment) -> Experiment {
        e.with_telemetry(self.spec)
    }
}

/// The `[cache]` spec section: where (and whether) to read results
/// through the content-addressed run cache
/// ([`crate::cache::RunCache`]).
///
/// ```toml
/// [cache]
/// dir = "run_cache"   # relative paths resolve against the working dir
/// enabled = true      # default; set false to keep the section but opt out
/// ```
///
/// Runners honour the section when expanding the sweep through
/// [`SweepSpec::run_cached`]; `spec_run`'s `--cache-dir`/`--no-cache`
/// flags override it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CacheOptions {
    /// Cache directory.
    pub dir: Option<String>,
    /// Explicit opt-out that survives round-trips (`Some(false)` keeps
    /// the directory configured but disables reads and writes).
    pub enabled: Option<bool>,
}

impl CacheOptions {
    fn from_value(v: &TomlValue) -> Result<Self, SpecError> {
        let TomlValue::Table(table) = v else {
            return Err(field_err("cache", format!("expected a table, got {}", v.kind())));
        };
        let f = Fields { table };
        f.reject_unknown(&["dir", "enabled"])?;
        Ok(Self { dir: f.opt_str("dir")?, enabled: f.opt_bool("enabled")? })
    }

    fn to_value(&self) -> TomlValue {
        let mut t = BTreeMap::new();
        if let Some(dir) = &self.dir {
            t.insert("dir".into(), TomlValue::Str(dir.clone()));
        }
        if let Some(enabled) = self.enabled {
            t.insert("enabled".into(), TomlValue::Bool(enabled));
        }
        TomlValue::Table(t)
    }

    /// The configured directory, unless the section opts out with
    /// `enabled = false`.
    pub fn effective_dir(&self) -> Option<&str> {
        if self.enabled == Some(false) {
            return None;
        }
        self.dir.as_deref()
    }
}

/// The probe-family names `[profile] families = [...]` accepts (`"all"`
/// expands to every parametric family). The profiler crate's `Family`
/// enum must agree with this list; a unit test over there pins it.
pub const KNOWN_PROFILE_FAMILIES: [&str; 5] = ["hammer", "sweep", "diagonal", "thrash", "all"];

/// The `[profile]` spec section: run the profile → evaluate → attack
/// campaign workflow (the `profiler` crate) instead of a plain sweep.
///
/// ```toml
/// [profile]
/// bank_groups = 4        # bank-spread axis resolution (default 4)
/// row_groups = 4         # intensity axis resolution (default 4)
/// probe_window_us = 60.0 # short-horizon probe window (default 60)
/// families = ["hammer", "sweep"]  # default: all families
/// top_k = 5              # heatmap cells re-run at full fidelity
/// budget = 48            # attack-stage search budget (0 / absent: skip)
/// ```
///
/// Runners route specs carrying this section through the profiler
/// workflow per (tracker, workload) pair; the `[cache]` section (or
/// `--cache-dir`) makes warm profiles cost zero simulations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileOptions {
    /// Bank-spread buckets on the heatmap's first axis.
    pub bank_groups: Option<u32>,
    /// Intensity buckets (rows / span / footprint) on the second axis.
    pub row_groups: Option<u32>,
    /// Probe simulation window, microseconds.
    pub probe_window_us: Option<f64>,
    /// Probe pattern families (subset of [`KNOWN_PROFILE_FAMILIES`];
    /// empty means all).
    pub families: Vec<String>,
    /// Heatmap cells promoted to the full-fidelity evaluate stage.
    pub top_k: Option<u32>,
    /// Attack-stage search budget (`None` or `0`: profile + evaluate
    /// only).
    pub budget: Option<u32>,
}

impl ProfileOptions {
    fn from_value(v: &TomlValue) -> Result<Self, SpecError> {
        let TomlValue::Table(table) = v else {
            return Err(field_err("profile", format!("expected a table, got {}", v.kind())));
        };
        let f = Fields { table };
        f.reject_unknown(&[
            "bank_groups",
            "row_groups",
            "probe_window_us",
            "families",
            "top_k",
            "budget",
        ])?;
        let families = f.str_list("families")?.unwrap_or_default();
        for fam in &families {
            if !KNOWN_PROFILE_FAMILIES.contains(&fam.as_str()) {
                return Err(field_err(
                    "profile.families",
                    format!(
                        "unknown family '{fam}' (known: {})",
                        KNOWN_PROFILE_FAMILIES.join(", ")
                    ),
                ));
            }
        }
        for key in ["bank_groups", "row_groups"] {
            if let Some(0) = f.opt_u32(key)? {
                return Err(field_err(&format!("profile.{key}"), "must be >= 1"));
            }
        }
        if let Some(w) = f.opt_f64("probe_window_us")? {
            if w.is_nan() || w <= 0.0 {
                return Err(field_err("profile.probe_window_us", "must be > 0"));
            }
        }
        Ok(Self {
            bank_groups: f.opt_u32("bank_groups")?,
            row_groups: f.opt_u32("row_groups")?,
            probe_window_us: f.opt_f64("probe_window_us")?,
            families,
            top_k: f.opt_u32("top_k")?,
            budget: f.opt_u32("budget")?,
        })
    }

    fn to_value(&self) -> TomlValue {
        let mut t = BTreeMap::new();
        if let Some(n) = self.bank_groups {
            t.insert("bank_groups".into(), TomlValue::Int(n as i64));
        }
        if let Some(n) = self.row_groups {
            t.insert("row_groups".into(), TomlValue::Int(n as i64));
        }
        if let Some(w) = self.probe_window_us {
            t.insert("probe_window_us".into(), TomlValue::Float(w));
        }
        if !self.families.is_empty() {
            t.insert(
                "families".into(),
                TomlValue::Arr(self.families.iter().cloned().map(TomlValue::Str).collect()),
            );
        }
        if let Some(k) = self.top_k {
            t.insert("top_k".into(), TomlValue::Int(k as i64));
        }
        if let Some(b) = self.budget {
            t.insert("budget".into(), TomlValue::Int(b as i64));
        }
        TomlValue::Table(t)
    }
}

/// The `[system]` spec section: machine-level knobs that are neither
/// tracker parameters nor run options.
///
/// ```toml
/// [system]
/// geometry = "enlarged-8ch"   # or "paper-baseline" (default)
/// threads = "auto"            # "seq" (default), "auto", or a lane count
/// ```
///
/// `geometry` selects a DRAM preset ([`Geometry::paper_baseline`] /
/// [`Geometry::enlarged_8ch`]); the LLC stays at the baseline capacity
/// either way. `threads` picks the memory-phase executor
/// ([`sim_core::config::Threads`]) — an execution knob with bit-identical
/// results, so it is deliberately **excluded** from the run-cache cell
/// key, while `geometry` (which changes what is simulated) is part of it.
///
/// [`Geometry::paper_baseline`]: sim_core::addr::Geometry::paper_baseline
/// [`Geometry::enlarged_8ch`]: sim_core::addr::Geometry::enlarged_8ch
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SystemOptions {
    /// Canonical geometry preset name (`paper-baseline` / `enlarged-8ch`).
    pub geometry: Option<String>,
    /// Memory-phase execution lanes.
    pub threads: Option<Threads>,
}

/// The geometry preset names `[system] geometry = "..."` accepts.
pub const KNOWN_GEOMETRIES: [&str; 2] = ["paper-baseline", "enlarged-8ch"];

impl SystemOptions {
    fn from_value(v: &TomlValue) -> Result<Self, SpecError> {
        let TomlValue::Table(table) = v else {
            return Err(field_err("system", format!("expected a table, got {}", v.kind())));
        };
        let f = Fields { table };
        f.reject_unknown(&["geometry", "threads"])?;
        let geometry = match f.opt_str("geometry")? {
            None => None,
            Some(name) => Some(parse_geometry(&name)?.to_string()),
        };
        let threads = match table.get("threads") {
            None => None,
            Some(TomlValue::Str(s)) => {
                Some(Threads::parse(s).map_err(|m| field_err("system.threads", m))?)
            }
            Some(TomlValue::Int(i)) => {
                let n = usize::try_from(*i).ok().filter(|&n| n >= 1).ok_or_else(|| {
                    field_err("system.threads", format!("lane count must be >= 1, got {i}"))
                })?;
                Some(Threads::N(n))
            }
            Some(other) => {
                return Err(field_err(
                    "system.threads",
                    format!("expected \"seq\", \"auto\", or a lane count, got {}", other.kind()),
                ))
            }
        };
        Ok(Self { geometry, threads })
    }

    fn to_value(&self) -> TomlValue {
        let mut t = BTreeMap::new();
        if let Some(geometry) = &self.geometry {
            t.insert("geometry".into(), TomlValue::Str(geometry.clone()));
        }
        match self.threads {
            None => {}
            Some(Threads::N(n)) => {
                t.insert("threads".into(), TomlValue::Int(n as i64));
            }
            Some(t_) => {
                t.insert("threads".into(), TomlValue::Str(t_.to_string()));
            }
        }
        TomlValue::Table(t)
    }

    fn apply(&self, mut e: Experiment) -> Experiment {
        if self.geometry.as_deref() == Some("enlarged-8ch") {
            // Baseline per-core LLC share (2 MiB x 4 cores = the 8 MiB
            // baseline): geometry changes the memory system only.
            e = e.eight_channel(2);
        }
        if let Some(threads) = self.threads {
            e = e.threads(threads);
        }
        e
    }
}

/// Resolves a geometry preset name to its canonical spelling.
fn parse_geometry(name: &str) -> Result<&'static str, SpecError> {
    match sim_core::registry::normalize_key(name).as_str() {
        "paperbaseline" | "baseline" => Ok("paper-baseline"),
        "enlarged8ch" | "eightchannel" | "8ch" => Ok("enlarged-8ch"),
        _ => Err(field_err(
            "system.geometry",
            format!("unknown geometry '{name}'; known: {}", KNOWN_GEOMETRIES.join(", ")),
        )),
    }
}

/// The `[attacker]` spec section: the attacker-realism axis run by the
/// `attackpipe` pipeline (recon → hammer → victim adjudication).
///
/// ```toml
/// [attacker]
/// knowledge = ["omniscient", "timing-recon", "blind"]  # or one string
/// recon_budget = 4096    # probe accesses for timing-recon
/// seed = 0xA77AC4        # attacker-side RNG (hex string past i64::MAX)
/// ```
///
/// In a sweep the section multiplies the cross product: one cell per
/// knowledge level. Omitting `knowledge` sweeps all three levels (the
/// Fig-9-style leaderboard). A single-experiment spec must name exactly
/// one level.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AttackerOptions {
    /// Knowledge levels to run, deduplicated in spec order; empty means
    /// "all levels" ([`AttackerKnowledge::ALL`]).
    pub knowledge: Vec<AttackerKnowledge>,
    /// Recon budget in probe accesses
    /// ([`AttackerConfig::DEFAULT_RECON_BUDGET`] when absent).
    pub recon_budget: Option<u64>,
    /// Attacker-side RNG seed ([`AttackerConfig::DEFAULT_SEED`] when
    /// absent).
    pub seed: Option<u64>,
}

impl AttackerOptions {
    fn from_value(v: &TomlValue) -> Result<Self, SpecError> {
        let TomlValue::Table(table) = v else {
            return Err(field_err("attacker", format!("expected a table, got {}", v.kind())));
        };
        let f = Fields { table };
        f.reject_unknown(&["knowledge", "recon_budget", "seed"])?;
        let mut knowledge = Vec::new();
        for name in f.str_list("knowledge")?.unwrap_or_default() {
            let level =
                AttackerKnowledge::by_key(&name).map_err(|m| field_err("attacker.knowledge", m))?;
            if !knowledge.contains(&level) {
                knowledge.push(level);
            }
        }
        let recon_budget = f.opt_u64("recon_budget")?;
        if recon_budget == Some(0) {
            return Err(field_err("attacker.recon_budget", "must be at least one probe access"));
        }
        Ok(Self { knowledge, recon_budget, seed: f.opt_u64("seed")? })
    }

    fn to_value(&self) -> TomlValue {
        let mut t = BTreeMap::new();
        if !self.knowledge.is_empty() {
            t.insert(
                "knowledge".into(),
                TomlValue::Arr(
                    self.knowledge.iter().map(|k| TomlValue::Str(k.key().into())).collect(),
                ),
            );
        }
        if let Some(b) = self.recon_budget {
            t.insert("recon_budget".into(), TomlValue::Int(b as i64));
        }
        if let Some(s) = self.seed {
            // Same hex-string escape hatch as the top-level seed.
            let v = match i64::try_from(s) {
                Ok(i) => TomlValue::Int(i),
                Err(_) => TomlValue::Str(format!("{s:#x}")),
            };
            t.insert("seed".into(), v);
        }
        TomlValue::Table(t)
    }

    /// One [`AttackerConfig`] per selected knowledge level (all levels
    /// when the spec named none), in descending-knowledge order for the
    /// default.
    pub fn configs(&self) -> Vec<AttackerConfig> {
        let levels: Vec<AttackerKnowledge> = if self.knowledge.is_empty() {
            AttackerKnowledge::ALL.to_vec()
        } else {
            self.knowledge.clone()
        };
        levels
            .into_iter()
            .map(|knowledge| AttackerConfig {
                knowledge,
                recon_budget: self.recon_budget.unwrap_or(AttackerConfig::DEFAULT_RECON_BUDGET),
                seed: self.seed.unwrap_or(AttackerConfig::DEFAULT_SEED),
            })
            .collect()
    }

    /// Applies the section to a single experiment; errors unless exactly
    /// one knowledge level is selected (a sweep handles the multi-level
    /// cross product).
    fn apply_single(&self, e: Experiment) -> Result<Experiment, SpecError> {
        let mut configs = self.configs();
        if configs.len() != 1 {
            return Err(field_err(
                "attacker.knowledge",
                format!(
                    "a single experiment takes exactly one knowledge level, got {} \
                     (use a sweep spec to compare levels)",
                    configs.len()
                ),
            ));
        }
        Ok(e.attacker(configs.remove(0)))
    }
}

fn check_workload(name: &str) -> Result<(), SpecError> {
    if workloads::spec_by_name(name).is_none() {
        return Err(SpecError::UnknownWorkload { name: name.to_string() });
    }
    Ok(())
}

/// Expands a workload list, resolving the `@quick` (9-workload subset) and
/// `@all` (full 57-workload catalog) tokens and validating every name.
pub fn expand_workloads(names: &[String]) -> Result<Vec<String>, SpecError> {
    let mut out = Vec::new();
    for name in names {
        match name.as_str() {
            "@quick" => out.extend(workloads::quick_subset().iter().map(|w| w.name.to_string())),
            "@all" => out.extend(workloads::catalog().iter().map(|w| w.name.to_string())),
            other => {
                check_workload(other)?;
                out.push(other.to_string());
            }
        }
    }
    if out.is_empty() {
        return Err(field_err("workloads", "must name at least one workload"));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// ExperimentSpec
// ---------------------------------------------------------------------------

/// Numeric-coercing parameter equality: JSON cannot distinguish `5` from
/// `5.0`, so a spec that round-trips through JSON may come back with
/// integral floats as ints. The tracker schema coerces them identically at
/// build time; spec equality must treat them as equal too.
fn param_value_eq(a: &ParamValue, b: &ParamValue) -> bool {
    match (a, b) {
        (ParamValue::Int(i), ParamValue::Float(f)) | (ParamValue::Float(f), ParamValue::Int(i)) => {
            *i as f64 == *f
        }
        _ => a == b,
    }
}

fn param_map_eq(a: &BTreeMap<String, ParamValue>, b: &BTreeMap<String, ParamValue>) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|((ka, va), (kb, vb))| ka == kb && param_value_eq(va, vb))
}

/// A declarative description of one experiment cell.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Benign workload name.
    pub workload: String,
    /// Tracker registry key (or display name / alias).
    pub tracker: String,
    /// Tracker parameter overrides (`[params]` table).
    pub params: BTreeMap<String, ParamValue>,
    /// Attack name (default `none`).
    pub attack: String,
    /// System-level options.
    pub options: SpecOptions,
    /// Telemetry section (`[telemetry]`), if present.
    pub telemetry: Option<TelemetryOptions>,
    /// Machine section (`[system]`), if present.
    pub system: Option<SystemOptions>,
    /// Attacker section (`[attacker]`), if present.
    pub attacker: Option<AttackerOptions>,
}

impl ExperimentSpec {
    /// A benign spec for one workload/tracker pair.
    pub fn new(workload: &str, tracker: &str) -> Self {
        Self {
            workload: workload.to_string(),
            tracker: tracker.to_string(),
            params: BTreeMap::new(),
            attack: "none".to_string(),
            options: SpecOptions::default(),
            telemetry: None,
            system: None,
            attacker: None,
        }
    }

    fn from_table(table: &BTreeMap<String, TomlValue>) -> Result<Self, SpecError> {
        let f = Fields { table };
        let mut allowed =
            vec!["workload", "tracker", "params", "attack", "telemetry", "system", "attacker"];
        allowed.extend(SpecOptions::KEYS);
        f.reject_unknown(&allowed)?;
        let params = match table.get("params") {
            None => BTreeMap::new(),
            Some(t) => param_table(t, "params")?,
        };
        Ok(Self {
            workload: f.req_str("workload")?,
            tracker: f.req_str("tracker")?,
            params,
            attack: f.opt_str("attack")?.unwrap_or_else(|| "none".to_string()),
            options: SpecOptions::from_fields(&f)?,
            telemetry: table.get("telemetry").map(TelemetryOptions::from_value).transpose()?,
            system: table.get("system").map(SystemOptions::from_value).transpose()?,
            attacker: table.get("attacker").map(AttackerOptions::from_value).transpose()?,
        })
    }

    fn to_table(&self) -> BTreeMap<String, TomlValue> {
        let mut t = BTreeMap::new();
        t.insert("workload".into(), TomlValue::Str(self.workload.clone()));
        t.insert("tracker".into(), TomlValue::Str(self.tracker.clone()));
        t.insert("attack".into(), TomlValue::Str(self.attack.clone()));
        self.options.write(&mut t);
        if !self.params.is_empty() {
            let params = self.params.iter().map(|(k, v)| (k.clone(), param_to_toml(v))).collect();
            t.insert("params".into(), TomlValue::Table(params));
        }
        if let Some(telemetry) = &self.telemetry {
            t.insert("telemetry".into(), telemetry.to_value());
        }
        if let Some(system) = &self.system {
            t.insert("system".into(), system.to_value());
        }
        if let Some(attacker) = &self.attacker {
            t.insert("attacker".into(), attacker.to_value());
        }
        t
    }

    /// Parses a TOML spec.
    pub fn from_toml_str(input: &str) -> Result<Self, SpecError> {
        Self::from_table(&toml::parse(input)?)
    }

    /// Renders the spec as TOML (parses back to an equal spec).
    pub fn to_toml(&self) -> String {
        toml::render(&self.to_table())
    }

    /// Parses a JSON spec.
    pub fn from_json_str(input: &str) -> Result<Self, SpecError> {
        match json_to_toml(&Json::parse(input)?, "spec")? {
            TomlValue::Table(t) => Self::from_table(&t),
            other => Err(field_err("spec", format!("expected an object, got {}", other.kind()))),
        }
    }

    /// Renders the spec as JSON (parses back to an equal spec).
    pub fn to_json(&self) -> Json {
        toml_to_json(&TomlValue::Table(self.to_table()))
    }

    /// Resolves the spec into a runnable [`Experiment`]: registry lookup,
    /// parameter validation, workload and attack checks — all before any
    /// simulation starts.
    pub fn to_experiment(&self) -> Result<Experiment, SpecError> {
        check_workload(&self.workload)?;
        let tracker = TrackerSel::by_key(&self.tracker)?.with_params(self.params.clone())?;
        let attack = parse_attack(&self.attack)?;
        let mut e = Experiment::new(&self.workload).tracker(tracker).attack(attack);
        if let Some(telemetry) = &self.telemetry {
            e = telemetry.apply(e);
        }
        if let Some(system) = &self.system {
            e = system.apply(e);
        }
        if let Some(attacker) = &self.attacker {
            e = attacker.apply_single(e)?;
        }
        Ok(self.options.apply(e))
    }

    /// Expands and runs the single experiment.
    pub fn run(&self) -> Result<ExperimentResult, SpecError> {
        Ok(self.to_experiment()?.run())
    }
}

// ---------------------------------------------------------------------------
// SweepSpec
// ---------------------------------------------------------------------------

impl PartialEq for ExperimentSpec {
    fn eq(&self, other: &Self) -> bool {
        self.workload == other.workload
            && self.tracker == other.tracker
            && self.attack == other.attack
            && self.options == other.options
            && self.telemetry == other.telemetry
            && self.system == other.system
            && self.attacker == other.attacker
            && param_map_eq(&self.params, &other.params)
    }
}

/// A declarative tracker × workload × attack sweep.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Sweep name (used for output file naming).
    pub name: String,
    /// Workload names (may include `@quick` / `@all`).
    pub workloads: Vec<String>,
    /// Tracker registry keys.
    pub trackers: Vec<String>,
    /// Per-tracker parameter overrides, keyed by canonical tracker key
    /// (`[params.<tracker>]` tables).
    pub params: BTreeMap<String, BTreeMap<String, ParamValue>>,
    /// Attack names (default: just `none`).
    pub attacks: Vec<String>,
    /// System-level options applied to every cell.
    pub options: SpecOptions,
    /// Telemetry section (`[telemetry]`) applied to every cell.
    pub telemetry: Option<TelemetryOptions>,
    /// Machine section (`[system]`) applied to every cell.
    pub system: Option<SystemOptions>,
    /// Run-cache section (`[cache]`): where cache-aware runners read
    /// results through.
    pub cache: Option<CacheOptions>,
    /// Attacker section (`[attacker]`): one cell per knowledge level.
    pub attacker: Option<AttackerOptions>,
    /// Profile section (`[profile]`): route through the profiler's
    /// profile → evaluate → attack workflow.
    pub profile: Option<ProfileOptions>,
}

impl PartialEq for SweepSpec {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.workloads == other.workloads
            && self.trackers == other.trackers
            && self.attacks == other.attacks
            && self.options == other.options
            && self.telemetry == other.telemetry
            && self.system == other.system
            && self.cache == other.cache
            && self.attacker == other.attacker
            && self.profile == other.profile
            && self.params.len() == other.params.len()
            && self
                .params
                .iter()
                .zip(other.params.iter())
                .all(|((ka, va), (kb, vb))| ka == kb && param_map_eq(va, vb))
    }
}

impl SweepSpec {
    /// An empty benign sweep under a name.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            workloads: Vec::new(),
            trackers: Vec::new(),
            params: BTreeMap::new(),
            attacks: vec!["none".to_string()],
            options: SpecOptions::default(),
            telemetry: None,
            system: None,
            cache: None,
            attacker: None,
            profile: None,
        }
    }

    fn from_table(table: &BTreeMap<String, TomlValue>) -> Result<Self, SpecError> {
        let f = Fields { table };
        let mut allowed = vec![
            "name",
            "workloads",
            "trackers",
            "params",
            "attacks",
            "telemetry",
            "system",
            "cache",
            "attacker",
            "profile",
        ];
        allowed.extend(SpecOptions::KEYS);
        f.reject_unknown(&allowed)?;
        let mut params = BTreeMap::new();
        if let Some(t) = table.get("params") {
            match t {
                TomlValue::Table(entries) => {
                    for (tracker, overrides) in entries {
                        params.insert(
                            tracker.clone(),
                            param_table(overrides, &format!("params.{tracker}"))?,
                        );
                    }
                }
                other => {
                    return Err(field_err(
                        "params",
                        format!("expected per-tracker tables, got {}", other.kind()),
                    ))
                }
            }
        }
        Ok(Self {
            name: f.opt_str("name")?.unwrap_or_else(|| "sweep".to_string()),
            workloads: f
                .str_list("workloads")?
                .ok_or_else(|| field_err("workloads", "required"))?,
            trackers: f.str_list("trackers")?.ok_or_else(|| field_err("trackers", "required"))?,
            params,
            attacks: f.str_list("attacks")?.unwrap_or_else(|| vec!["none".to_string()]),
            options: SpecOptions::from_fields(&f)?,
            telemetry: table.get("telemetry").map(TelemetryOptions::from_value).transpose()?,
            system: table.get("system").map(SystemOptions::from_value).transpose()?,
            cache: table.get("cache").map(CacheOptions::from_value).transpose()?,
            attacker: table.get("attacker").map(AttackerOptions::from_value).transpose()?,
            profile: table.get("profile").map(ProfileOptions::from_value).transpose()?,
        })
    }

    fn to_table(&self) -> BTreeMap<String, TomlValue> {
        let mut t = BTreeMap::new();
        t.insert("name".into(), TomlValue::Str(self.name.clone()));
        t.insert(
            "workloads".into(),
            TomlValue::Arr(self.workloads.iter().cloned().map(TomlValue::Str).collect()),
        );
        t.insert(
            "trackers".into(),
            TomlValue::Arr(self.trackers.iter().cloned().map(TomlValue::Str).collect()),
        );
        t.insert(
            "attacks".into(),
            TomlValue::Arr(self.attacks.iter().cloned().map(TomlValue::Str).collect()),
        );
        self.options.write(&mut t);
        if let Some(telemetry) = &self.telemetry {
            t.insert("telemetry".into(), telemetry.to_value());
        }
        if let Some(system) = &self.system {
            t.insert("system".into(), system.to_value());
        }
        if let Some(cache) = &self.cache {
            t.insert("cache".into(), cache.to_value());
        }
        if let Some(attacker) = &self.attacker {
            t.insert("attacker".into(), attacker.to_value());
        }
        if let Some(profile) = &self.profile {
            t.insert("profile".into(), profile.to_value());
        }
        if !self.params.is_empty() {
            let params = self
                .params
                .iter()
                .map(|(tracker, overrides)| {
                    (
                        tracker.clone(),
                        TomlValue::Table(
                            overrides.iter().map(|(k, v)| (k.clone(), param_to_toml(v))).collect(),
                        ),
                    )
                })
                .collect();
            t.insert("params".into(), TomlValue::Table(params));
        }
        t
    }

    /// Parses a TOML spec.
    pub fn from_toml_str(input: &str) -> Result<Self, SpecError> {
        Self::from_table(&toml::parse(input)?)
    }

    /// Renders the spec as TOML (parses back to an equal spec).
    pub fn to_toml(&self) -> String {
        toml::render(&self.to_table())
    }

    /// Parses a JSON spec.
    pub fn from_json_str(input: &str) -> Result<Self, SpecError> {
        match json_to_toml(&Json::parse(input)?, "spec")? {
            TomlValue::Table(t) => Self::from_table(&t),
            other => Err(field_err("spec", format!("expected an object, got {}", other.kind()))),
        }
    }

    /// Renders the spec as JSON (parses back to an equal spec).
    pub fn to_json(&self) -> Json {
        toml_to_json(&TomlValue::Table(self.to_table()))
    }

    /// The resolved tracker selections, with per-tracker overrides
    /// attached. Every `params.<tracker>` table must resolve to a tracker
    /// named in `trackers` (so a typo'd section errors instead of being
    /// silently ignored).
    pub fn resolve_trackers(&self) -> Result<Vec<TrackerSel>, SpecError> {
        let mut sels = Vec::new();
        for name in &self.trackers {
            let mut sel = TrackerSel::by_key(name)?;
            // Overrides may be keyed by any accepted spelling of the
            // tracker's name; match on the canonical key.
            for (param_key, overrides) in &self.params {
                let canonical = crate::registry::resolve(param_key)?.key().to_string();
                if canonical == sel.key() {
                    sel = sel.with_params(overrides.clone())?;
                }
            }
            sels.push(sel);
        }
        for param_key in self.params.keys() {
            let canonical = crate::registry::resolve(param_key)?.key().to_string();
            if !sels.iter().any(|s| s.key() == canonical) {
                return Err(field_err(
                    &format!("params.{param_key}"),
                    "does not match any tracker in 'trackers'",
                ));
            }
        }
        Ok(sels)
    }

    /// Expands the full workload × tracker × attack cross product into
    /// runnable experiments (attacks vary fastest, then trackers), after
    /// validating every name and parameter — including a probe build per
    /// tracker, so parameter *combinations* the flat schema cannot express
    /// (e.g. an RCC entry count that is not a multiple of the way count)
    /// fail here instead of panicking inside every sweep worker.
    pub fn expand(&self) -> Result<Vec<Experiment>, SpecError> {
        let workloads = expand_workloads(&self.workloads)?;
        let trackers = self.resolve_trackers()?;
        if trackers.is_empty() {
            return Err(field_err("trackers", "must name at least one tracker"));
        }
        let probe_cfg = sim_core::config::SystemConfig::paper_baseline();
        let nrh = self.options.nrh.unwrap_or(probe_cfg.nrh);
        for tracker in &trackers {
            let probe = sim_core::registry::TrackerParams::new(nrh, probe_cfg.geometry, 0, 0)
                .with_values(tracker.params().clone());
            tracker.spec().build(&probe)?;
        }
        let attacks: Vec<AttackChoice> =
            self.attacks.iter().map(|a| parse_attack(a)).collect::<Result<_, _>>()?;
        if attacks.is_empty() {
            return Err(field_err("attacks", "must name at least one attack"));
        }
        // The `[attacker]` section fans out one cell per knowledge level
        // (innermost axis); without it every cell stays attacker-free.
        let attacker_cfgs: Vec<Option<AttackerConfig>> = match &self.attacker {
            None => vec![None],
            Some(a) => a.configs().into_iter().map(Some).collect(),
        };
        let mut out = Vec::with_capacity(
            workloads.len() * trackers.len() * attacks.len() * attacker_cfgs.len(),
        );
        // Cells that canonicalize identically (an alias tracker name next
        // to its primary key, `tailored` next to the pattern it resolves
        // to) are one cell and run once; the first occurrence wins.
        let mut seen = std::collections::BTreeSet::new();
        for workload in &workloads {
            for tracker in &trackers {
                for attack in &attacks {
                    for cfg in &attacker_cfgs {
                        let mut e =
                            Experiment::new(workload).tracker(tracker.clone()).attack(*attack);
                        if let Some(telemetry) = &self.telemetry {
                            e = telemetry.apply(e);
                        }
                        if let Some(system) = &self.system {
                            e = system.apply(e);
                        }
                        if let Some(cfg) = cfg {
                            e = e.attacker(*cfg);
                        }
                        let e = self.options.apply(e);
                        if crate::cache::cell_identity(&e).is_none_or(|id| seen.insert(id)) {
                            out.push(e);
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Expands and runs the sweep in parallel. Individual cell failures
    /// are collected, not fatal.
    pub fn run(&self) -> Result<SweepReport, SpecError> {
        Ok(SweepReport::assemble(self, try_run_parallel(self.expand()?)))
    }
}

/// Outcome of [`SweepSpec::run`].
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The sweep's name.
    pub name: String,
    /// The spec that produced this report.
    pub spec: SweepSpec,
    /// Successful cells, in expansion order.
    pub results: Vec<ExperimentResult>,
    /// Failed cells.
    pub failures: Vec<SweepError>,
}

impl SweepReport {
    /// Assembles a report from per-cell outcomes in expansion order:
    /// successes become result rows, failures the quarantine list.
    pub fn assemble(spec: &SweepSpec, outcomes: Vec<Result<ExperimentResult, SweepError>>) -> Self {
        let mut results = Vec::new();
        let mut failures = Vec::new();
        for outcome in outcomes {
            match outcome {
                Ok(r) => results.push(r),
                Err(e) => failures.push(e),
            }
        }
        SweepReport { name: spec.name.clone(), spec: spec.clone(), results, failures }
    }

    /// Aggregated per-cell telemetry: one row per result that carried a
    /// [`crate::metrics::RunTelemetry`] bundle (i.e. when the spec had a
    /// `[telemetry]` section with recorders). `None` when no cell
    /// recorded anything.
    pub fn telemetry_json(&self) -> Option<Json> {
        let rows: Vec<Json> = self
            .results
            .iter()
            .filter_map(|r| {
                r.telemetry.as_ref().map(|t| {
                    Json::obj([
                        ("workload", Json::str(&r.workload)),
                        ("tracker", Json::str(&r.tracker_name)),
                        ("attack", Json::str(&r.attack_name)),
                        ("telemetry", t.to_json()),
                    ])
                })
            })
            .collect();
        if rows.is_empty() {
            return None;
        }
        Some(Json::obj([("name", Json::str(&self.name)), ("cells", Json::Arr(rows))]))
    }

    /// Serializes the report — spec and all result rows — as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("spec", self.spec.to_json()),
            ("results", Json::Arr(self.results.iter().map(result_to_json).collect())),
            (
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| {
                            Json::obj([
                                ("index", Json::count(f.index as u64)),
                                ("cell", Json::str(&f.cell)),
                                ("message", Json::str(&f.message)),
                                ("attempts", Json::count(u64::from(f.attempts))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Serializes one experiment result as a JSON row (the sweep export
/// format: identity, the paper's metric, and the headline counters).
pub fn result_to_json(r: &ExperimentResult) -> Json {
    Json::obj([
        ("workload", Json::str(&r.workload)),
        ("tracker", Json::str(&r.tracker_name)),
        ("attack", Json::str(&r.attack_name)),
        ("normalized_performance", Json::num(r.normalized_performance)),
        ("cycles", Json::count(r.run.cycles)),
        ("activations", Json::count(r.run.mem.activations)),
        ("mitigations", Json::count(r.run.mem.vrr_commands + r.run.mem.rfm_commands)),
        ("counter_ops", Json::count(r.run.mem.counter_reads + r.run.mem.counter_writes)),
        ("reset_sweeps", Json::count(r.run.mem.reset_sweeps)),
        ("llc_hit_rate", Json::num(r.run.llc_hit_rate)),
        ("energy_mj", Json::num(r.run.energy_mj)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG_SPEC: &str = r#"
# Fig. 9 quick matrix: DAPPER-S under the mapping-agnostic attacks.
name = "fig09-quick"
workloads = ["gcc_like", "mcf_like"]
trackers = ["dapper-s"]
attacks = ["streaming", "refresh"]
window_us = 100.0
isolate = true

[params.dapper-s]
group_size = 256
"#;

    #[test]
    fn sweep_parses_and_expands_the_cross_product() {
        let spec = SweepSpec::from_toml_str(FIG_SPEC).unwrap();
        assert_eq!(spec.name, "fig09-quick");
        let experiments = spec.expand().unwrap();
        assert_eq!(experiments.len(), 4, "2 workloads x 1 tracker x 2 attacks");
        assert!(experiments.iter().all(|e| e.tracker.key() == "dapper-s"));
        assert!(experiments.iter().all(|e| e.isolate_tracker_overhead));
        assert_eq!(experiments[0].workload, "gcc_like");
        assert_eq!(experiments[0].attack, AttackChoice::Specific(Attack::Streaming));
        assert_eq!(experiments[1].attack, AttackChoice::Specific(Attack::RefreshAttack));
    }

    #[test]
    fn expand_dedupes_cells_that_canonicalize_identically() {
        // `DAPPER_S` is an accepted spelling of `dapper-s`, and `benign`
        // of `none`: all four nominal cells canonicalize to one, which
        // must run once (regression: aliases used to simulate twice).
        let doc = "name = \"dedupe\"\nworkloads = [\"mcf_like\"]\n\
                   trackers = [\"dapper-s\", \"DAPPER_S\"]\nattacks = [\"none\", \"benign\"]\n";
        let spec = SweepSpec::from_toml_str(doc).unwrap();
        let experiments = spec.expand().unwrap();
        assert_eq!(experiments.len(), 1, "aliases are the same cell");
        assert_eq!(experiments[0].tracker.key(), "dapper-s");
    }

    #[test]
    fn cache_section_round_trips_and_resolves() {
        let doc = "name = \"cached\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"none\"]\n\
                   [cache]\ndir = \"run_cache\"\n";
        let spec = SweepSpec::from_toml_str(doc).unwrap();
        let cache = spec.cache.as_ref().expect("[cache] section present");
        assert_eq!(cache.effective_dir(), Some("run_cache"));
        let toml_back = SweepSpec::from_toml_str(&spec.to_toml()).unwrap();
        assert_eq!(toml_back, spec);
        let json_back = SweepSpec::from_json_str(&spec.to_json().render()).unwrap();
        assert_eq!(json_back, spec);
        // An explicit opt-out disables the directory but survives
        // round-trips.
        let off =
            SweepSpec::from_toml_str(&doc.replace("[cache]", "[cache]\nenabled = false")).unwrap();
        assert_eq!(off.cache.as_ref().unwrap().effective_dir(), None);
        assert_eq!(SweepSpec::from_toml_str(&off.to_toml()).unwrap(), off);
        // Unknown keys in the section are rejected loudly.
        let err = SweepSpec::from_toml_str(
            "name = \"x\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"none\"]\n[cache]\ndyr = \"d\"\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("dyr"), "{err}");
    }

    #[test]
    fn profile_section_round_trips_and_validates() {
        let doc = "name = \"profiled\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"hydra\"]\n\
                   [profile]\nbank_groups = 2\nrow_groups = 3\nprobe_window_us = 40.0\n\
                   families = [\"hammer\", \"sweep\"]\ntop_k = 4\nbudget = 24\n";
        let spec = SweepSpec::from_toml_str(doc).unwrap();
        let profile = spec.profile.as_ref().expect("[profile] section present");
        assert_eq!(profile.bank_groups, Some(2));
        assert_eq!(profile.row_groups, Some(3));
        assert_eq!(profile.probe_window_us, Some(40.0));
        assert_eq!(profile.families, vec!["hammer", "sweep"]);
        assert_eq!(profile.top_k, Some(4));
        assert_eq!(profile.budget, Some(24));
        assert_eq!(SweepSpec::from_toml_str(&spec.to_toml()).unwrap(), spec);
        assert_eq!(SweepSpec::from_json_str(&spec.to_json().render()).unwrap(), spec);
        // An empty section is valid (all defaults) and survives round-trips.
        let bare = SweepSpec::from_toml_str(
            "name = \"p\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"none\"]\n[profile]\n",
        )
        .unwrap();
        assert_eq!(bare.profile, Some(ProfileOptions::default()));
        assert_eq!(SweepSpec::from_toml_str(&bare.to_toml()).unwrap(), bare);
        // Unknown families and keys are rejected by name.
        let err = SweepSpec::from_toml_str(&doc.replace("\"sweep\"", "\"warp\"")).unwrap_err();
        assert!(err.to_string().contains("warp"), "{err}");
        let err = SweepSpec::from_toml_str(&doc.replace("top_k", "topk")).unwrap_err();
        assert!(err.to_string().contains("topk"), "{err}");
        // Degenerate grids are rejected.
        let err = SweepSpec::from_toml_str(&doc.replace("bank_groups = 2", "bank_groups = 0"))
            .unwrap_err();
        assert!(err.to_string().contains("bank_groups"), "{err}");
    }

    #[test]
    fn system_section_round_trips_and_applies() {
        let doc = "name = \"sharded\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"none\"]\n\
                   [system]\ngeometry = \"enlarged-8ch\"\nthreads = \"auto\"\n";
        let spec = SweepSpec::from_toml_str(doc).unwrap();
        let system = spec.system.as_ref().expect("[system] section present");
        assert_eq!(system.geometry.as_deref(), Some("enlarged-8ch"));
        assert_eq!(system.threads, Some(Threads::Auto));
        assert_eq!(SweepSpec::from_toml_str(&spec.to_toml()).unwrap(), spec);
        assert_eq!(SweepSpec::from_json_str(&spec.to_json().render()).unwrap(), spec);
        let cells = spec.expand().unwrap();
        assert_eq!(cells[0].cfg.geometry.channels, 8, "preset reaches the cell config");
        assert_eq!(cells[0].cfg.threads, Threads::Auto);

        // Integer lane counts and alias geometry spellings parse; both
        // forms survive the round-trip.
        let doc = "workload = \"gcc_like\"\ntracker = \"none\"\n\
                   [system]\ngeometry = \"8ch\"\nthreads = 4\n";
        let spec = ExperimentSpec::from_toml_str(doc).unwrap();
        let system = spec.system.as_ref().unwrap();
        assert_eq!(system.geometry.as_deref(), Some("enlarged-8ch"), "canonical spelling");
        assert_eq!(system.threads, Some(Threads::N(4)));
        assert_eq!(ExperimentSpec::from_toml_str(&spec.to_toml()).unwrap(), spec);
        let e = spec.to_experiment().unwrap();
        assert_eq!(e.cfg.geometry.channels, 8);
        assert_eq!(e.cfg.threads, Threads::N(4));

        // Unknown keys and bad values are rejected with the key named.
        let err = ExperimentSpec::from_toml_str(
            "workload = \"gcc_like\"\ntracker = \"none\"\n[system]\nthreds = 2\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("threds"), "{err}");
        let err = ExperimentSpec::from_toml_str(
            "workload = \"gcc_like\"\ntracker = \"none\"\n[system]\ngeometry = \"16ch\"\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("enlarged-8ch"), "must list known presets: {err}");
        let err = ExperimentSpec::from_toml_str(
            "workload = \"gcc_like\"\ntracker = \"none\"\n[system]\nthreads = 0\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("system.threads"), "{err}");
    }

    #[test]
    fn attacker_section_round_trips_and_expands() {
        let doc = "name = \"realism\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"dapper-s\"]\n\
                   attacks = [\"streaming\"]\n\
                   [attacker]\nknowledge = [\"omniscient\", \"TIMING_RECON\", \"blind\"]\n\
                   recon_budget = 2048\nseed = \"0xffffffffffffffff\"\n";
        let spec = SweepSpec::from_toml_str(doc).unwrap();
        let attacker = spec.attacker.as_ref().expect("[attacker] section present");
        assert_eq!(
            attacker.knowledge,
            vec![
                AttackerKnowledge::Omniscient,
                AttackerKnowledge::TimingRecon,
                AttackerKnowledge::Blind
            ],
            "spellings normalize like registry keys"
        );
        assert_eq!(attacker.seed, Some(u64::MAX), "hex seeds past i64::MAX parse");
        assert_eq!(SweepSpec::from_toml_str(&spec.to_toml()).unwrap(), spec);
        assert_eq!(SweepSpec::from_json_str(&spec.to_json().render()).unwrap(), spec);
        let cells = spec.expand().unwrap();
        assert_eq!(cells.len(), 3, "one cell per knowledge level");
        let cfg = cells[1].attacker.expect("attacker config reaches the cell");
        assert_eq!(cfg.knowledge, AttackerKnowledge::TimingRecon);
        assert_eq!(cfg.recon_budget, 2048);
        assert_eq!(cfg.seed, u64::MAX);

        // Omitting `knowledge` sweeps all three levels with defaults.
        let doc = "name = \"realism\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"dapper-s\"]\n\
                   [attacker]\n";
        let spec = SweepSpec::from_toml_str(doc).unwrap();
        let cells = spec.expand().unwrap();
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0].attacker.unwrap().recon_budget, AttackerConfig::DEFAULT_RECON_BUDGET);

        // A single experiment takes exactly one level, and a string works
        // where a one-element list would.
        let doc = "workload = \"gcc_like\"\ntracker = \"dapper-s\"\nattack = \"streaming\"\n\
                   [attacker]\nknowledge = \"timing-recon\"\n";
        let spec = ExperimentSpec::from_toml_str(doc).unwrap();
        assert_eq!(ExperimentSpec::from_toml_str(&spec.to_toml()).unwrap(), spec);
        let e = spec.to_experiment().unwrap();
        assert_eq!(e.attacker.unwrap().knowledge, AttackerKnowledge::TimingRecon);
        let err = ExperimentSpec::from_toml_str(
            "workload = \"gcc_like\"\ntracker = \"dapper-s\"\n[attacker]\n",
        )
        .unwrap()
        .to_experiment()
        .unwrap_err();
        assert!(err.to_string().contains("exactly one knowledge level"), "{err}");
    }

    #[test]
    fn attacker_section_rejects_bad_fields() {
        // Unknown nested keys are named in the error.
        let err = SweepSpec::from_toml_str(
            "name = \"x\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"none\"]\n\
             [attacker]\nrecon_buget = 100\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("recon_buget"), "{err}");
        // So are unknown knowledge levels and a zero budget.
        let err = SweepSpec::from_toml_str(
            "name = \"x\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"none\"]\n\
             [attacker]\nknowledge = [\"clairvoyant\"]\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("clairvoyant"), "{err}");
        let err = SweepSpec::from_toml_str(
            "name = \"x\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"none\"]\n\
             [attacker]\nrecon_budget = 0\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("recon_budget"), "{err}");
    }

    #[test]
    fn sweep_round_trips_through_toml_and_json() {
        let spec = SweepSpec::from_toml_str(FIG_SPEC).unwrap();
        let toml_back = SweepSpec::from_toml_str(&spec.to_toml())
            .unwrap_or_else(|e| panic!("{e}\n---\n{}", spec.to_toml()));
        assert_eq!(toml_back, spec);
        let json_back = SweepSpec::from_json_str(&spec.to_json().render()).unwrap();
        assert_eq!(json_back, spec);
    }

    #[test]
    fn experiment_spec_round_trips_and_resolves() {
        let mut spec = ExperimentSpec::new("gcc_like", "hydra");
        spec.attack = "tailored".to_string();
        spec.params.insert("rcc_entries".to_string(), ParamValue::Int(512));
        spec.options.nrh = Some(250);
        spec.options.window_us = Some(100.0);
        spec.options.seed = Some(0xDA99E5);
        spec.options.engine = Some(Engine::Dense);
        let toml_back = ExperimentSpec::from_toml_str(&spec.to_toml()).unwrap();
        assert_eq!(toml_back, spec);
        let json_back = ExperimentSpec::from_json_str(&spec.to_json().render()).unwrap();
        assert_eq!(json_back, spec);
        let e = spec.to_experiment().unwrap();
        assert_eq!(e.tracker.key(), "hydra");
        assert_eq!(e.tracker.params()["rcc_entries"], ParamValue::Int(512));
        assert_eq!(e.cfg.nrh, 250);
        assert_eq!(e.engine, Engine::Dense);
    }

    #[test]
    fn unknown_tracker_key_errors_name_it() {
        let spec = SweepSpec::from_toml_str(
            "name = \"x\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"hydrra\"]\n",
        )
        .unwrap();
        let err = spec.expand().unwrap_err();
        assert!(err.to_string().contains("'hydrra'"), "{err}");
        assert!(err.to_string().contains("hydra"), "must list known keys: {err}");
    }

    #[test]
    fn out_of_range_param_errors_name_the_key() {
        let doc = "name = \"x\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"comet\"]\n\
                   [params.comet]\nmiss_rate_reset = 3.5\n";
        let err = SweepSpec::from_toml_str(doc).unwrap().expand().unwrap_err();
        assert!(err.to_string().contains("'comet.miss_rate_reset'"), "{err}");
    }

    #[test]
    fn unknown_param_key_errors_name_it() {
        let doc = "name = \"x\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"hydra\"]\n\
                   [params.hydra]\nrcc_entriez = 512\n";
        let err = SweepSpec::from_toml_str(doc).unwrap().expand().unwrap_err();
        assert!(err.to_string().contains("'rcc_entriez'"), "{err}");
    }

    #[test]
    fn bad_param_combination_fails_at_expand_not_at_run() {
        // rcc_entries = 1000 is in schema range but not a multiple of the
        // default 32 ways: only the factory can reject it, and the probe
        // build in expand() must surface that before any worker panics.
        let doc = "name = \"x\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"hydra\"]\n\
                   [params.hydra]\nrcc_entries = 1000\n";
        let err = SweepSpec::from_toml_str(doc).unwrap().expand().unwrap_err();
        assert!(err.to_string().contains("'hydra.rcc_entries'"), "{err}");
        assert!(err.to_string().contains("rcc_ways"), "{err}");
    }

    #[test]
    fn integral_float_params_survive_the_json_round_trip() {
        // JSON cannot distinguish 5 from 5.0; the round-tripped spec must
        // still compare equal (schema coercion makes them build-identical).
        let mut spec = ExperimentSpec::new("gcc_like", "prac");
        spec.params.insert("rmw_tax_ns".to_string(), ParamValue::Float(5.0));
        let back = ExperimentSpec::from_json_str(&spec.to_json().render()).unwrap();
        assert_eq!(back, spec);
        let e = back.to_experiment().unwrap();
        assert_eq!(e.tracker.key(), "prac");
    }

    #[test]
    fn full_width_seeds_round_trip() {
        let mut spec = SweepSpec::new("seeds");
        spec.workloads = vec!["gcc_like".to_string()];
        spec.trackers = vec!["none".to_string()];
        spec.options.seed = Some(u64::MAX);
        let toml_text = spec.to_toml();
        let back = SweepSpec::from_toml_str(&toml_text)
            .unwrap_or_else(|e| panic!("{e}\n---\n{toml_text}"));
        assert_eq!(back.options.seed, Some(u64::MAX));
        let json_back = SweepSpec::from_json_str(&spec.to_json().render()).unwrap();
        assert_eq!(json_back.options.seed, Some(u64::MAX));
    }

    #[test]
    fn params_for_absent_tracker_error() {
        let doc = "name = \"x\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"hydra\"]\n\
                   [params.comet]\nrat_entries = 64\n";
        let err = SweepSpec::from_toml_str(doc).unwrap().expand().unwrap_err();
        assert!(err.to_string().contains("params.comet"), "{err}");
    }

    #[test]
    fn params_match_via_aliases() {
        // `[params.dapper]` (alias) attaches to the `dapper-h` tracker.
        let doc = "name = \"x\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"dapper-h\"]\n\
                   [params.dapper]\ngroup_size = 128\n";
        let spec = SweepSpec::from_toml_str(doc).unwrap();
        let experiments = spec.expand().unwrap();
        assert_eq!(experiments[0].tracker.params()["group_size"], ParamValue::Int(128));
    }

    #[test]
    fn unknown_workload_and_attack_error() {
        let doc =
            "name = \"x\"\nworkloads = [\"gcc_like\", \"not_a_workload\"]\ntrackers = [\"none\"]\n";
        let err = SweepSpec::from_toml_str(doc).unwrap().expand().unwrap_err();
        assert_eq!(err, SpecError::UnknownWorkload { name: "not_a_workload".into() });

        let doc = "name = \"x\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"none\"]\nattacks = [\"ddos\"]\n";
        let err = SweepSpec::from_toml_str(doc).unwrap().expand().unwrap_err();
        assert!(err.to_string().contains("'ddos'"), "{err}");
    }

    #[test]
    fn unknown_spec_fields_are_rejected() {
        let doc =
            "name = \"x\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"none\"]\nwidnow_us = 5.0\n";
        let err = SweepSpec::from_toml_str(doc).unwrap_err();
        assert!(err.to_string().contains("widnow_us"), "{err}");
    }

    #[test]
    fn telemetry_section_round_trips_and_applies() {
        let doc = "name = \"t\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"hydra\"]\n\
                   attacks = [\"cache-thrash\"]\nwindow_us = 100.0\n\
                   [telemetry]\nwindow_us = 20.0\nrecorders = [\"time-series\", \"slowdown\"]\n\
                   out = \"transient\"\n";
        let spec = SweepSpec::from_toml_str(doc).unwrap();
        let t = spec.telemetry.as_ref().expect("telemetry section parsed");
        assert!(t.spec.time_series && t.spec.slowdown && !t.spec.mitigation_log);
        assert_eq!(t.spec.window_us, Some(20.0));
        assert_eq!(t.out.as_deref(), Some("transient"));
        // Round trip through TOML and JSON.
        let back = SweepSpec::from_toml_str(&spec.to_toml()).unwrap();
        assert_eq!(back, spec);
        let json_back = SweepSpec::from_json_str(&spec.to_json().render()).unwrap();
        assert_eq!(json_back, spec);
        // The section lands on every expanded experiment.
        let experiments = spec.expand().unwrap();
        assert!(experiments.iter().all(|e| e.telemetry.slowdown));
        assert!(experiments.iter().all(|e| e.telemetry.window_us == Some(20.0)));
    }

    #[test]
    fn telemetry_window_must_be_positive_at_parse_time() {
        // Regression: window_us = 0 used to pass --validate and panic
        // inside every sweep worker at build time.
        for bad in ["0.0", "-5.0"] {
            let doc = format!(
                "name = \"t\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"none\"]\n\
                 [telemetry]\nwindow_us = {bad}\nrecorders = [\"slowdown\"]\n"
            );
            let err = SweepSpec::from_toml_str(&doc).unwrap_err();
            assert!(err.to_string().contains("telemetry.window_us"), "{bad}: {err}");
        }
    }

    #[test]
    fn telemetry_section_rejects_unknown_recorders_and_fields() {
        let doc = "name = \"t\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"none\"]\n\
                   [telemetry]\nrecorders = [\"sloowdown\"]\n";
        let err = SweepSpec::from_toml_str(doc).unwrap_err();
        assert!(err.to_string().contains("sloowdown"), "{err}");
        assert!(err.to_string().contains("slowdown"), "must list known recorders: {err}");
        let doc = "name = \"t\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"none\"]\n\
                   [telemetry]\nwidnow_us = 5.0\n";
        let err = SweepSpec::from_toml_str(doc).unwrap_err();
        assert!(err.to_string().contains("widnow_us"), "{err}");
    }

    #[test]
    fn telemetry_sweep_produces_per_cell_series() {
        let doc = "name = \"tiny-telemetry\"\nworkloads = [\"povray_like\"]\n\
                   trackers = [\"none\", \"para\"]\nwindow_us = 90.0\n\
                   [telemetry]\nwindow_us = 30.0\nrecorders = [\"all\"]\n";
        let report = SweepSpec::from_toml_str(doc).unwrap().run().unwrap();
        assert_eq!(report.results.len(), 2);
        for r in &report.results {
            let t = r.telemetry.as_ref().expect("every cell records");
            assert_eq!(t.windows.len(), 3, "90 us / 30 us windows");
            assert!(t.slowdown.is_some());
        }
        let telemetry = report.telemetry_json().expect("telemetry export present");
        let rendered = telemetry.render();
        assert!(rendered.contains("\"cells\""));
        assert!(Json::parse(&rendered).is_ok());
        // A recorder-free sweep exports nothing.
        let plain = SweepSpec::from_toml_str(
            "name = \"p\"\nworkloads = [\"povray_like\"]\ntrackers = [\"none\"]\nwindow_us = 60.0\n",
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(plain.telemetry_json().is_none());
    }

    #[test]
    fn workload_tokens_expand() {
        let quick = expand_workloads(&["@quick".to_string()]).unwrap();
        assert_eq!(quick.len(), workloads::quick_subset().len());
        let all = expand_workloads(&["@all".to_string()]).unwrap();
        assert_eq!(all.len(), workloads::catalog().len());
    }

    #[test]
    fn attack_names_parse() {
        assert_eq!(parse_attack("none").unwrap(), AttackChoice::None);
        assert_eq!(parse_attack("benign").unwrap(), AttackChoice::None);
        assert_eq!(parse_attack("tailored").unwrap(), AttackChoice::Tailored);
        assert_eq!(
            parse_attack("cache-thrash").unwrap(),
            AttackChoice::Specific(Attack::CacheThrash)
        );
        assert_eq!(parse_attack("refresh").unwrap(), AttackChoice::Specific(Attack::RefreshAttack));
        assert!(parse_attack("nope").is_err());
    }

    #[test]
    fn tiny_sweep_runs_end_to_end() {
        let doc =
            "name = \"tiny\"\nworkloads = [\"povray_like\"]\ntrackers = [\"none\", \"para\"]\n\
                   window_us = 60.0\n";
        let report = SweepSpec::from_toml_str(doc).unwrap().run().unwrap();
        assert_eq!(report.results.len(), 2);
        assert!(report.failures.is_empty());
        let json = report.to_json().render();
        assert!(json.contains("\"results\""));
        assert!(json.contains("povray_like"));
        // The export parses back as JSON.
        assert!(Json::parse(&json).is_ok());
    }
}
