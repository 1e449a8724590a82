//! Declarative experiment specs: TOML/JSON descriptions of experiments and
//! sweeps that expand into [`Experiment`]s through the tracker registry.
//!
//! A [`SweepSpec`] names trackers by registry key (with per-tracker
//! parameter overrides like `hydra.rcc_entries = 512`), workloads from the
//! catalog (or the `@quick` / `@all` tokens), and attacks by name; it
//! expands into the full cross product for [`SweepSpec::run_expanded`]
//! and round-trips results to JSON.
//! A single cell is a sweep that expands to one. Specs serialize to TOML
//! and JSON and parse back losslessly; every validation failure names the
//! offending key. Each table — the top level and every `[section]` —
//! declares its keys once, in its `Section::KEYS` list; reading,
//! unknown-key rejection, validation and writing all run off that list.
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

use crate::cache::{CellKeys, KeyedCell};
use crate::experiment::{
    AttackChoice, AttackerConfig, AttackerKnowledge, Experiment, ExperimentResult, TelemetrySpec,
    TrackerSel,
};
use crate::runner::{RunnerConfig, SweepError};
use crate::toml::{self, TomlError, TomlValue};
use sim_core::json::{parse_u64, write_str, DecodeError, Json, JsonCodec, JsonError};
use sim_core::registry::{normalize_key, ParamValue, RegistryError};
use std::collections::{BTreeMap, HashMap};
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
impl From<DecodeError> for SpecError {
    fn from(e: DecodeError) -> Self {
        // An error about the document itself has no key of its own.
        let key = if e.path.is_empty() { "spec".to_string() } else { e.path };
        SpecError::Field { key, message: e.message }
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
    let norm = normalize_key(name);
    match norm.as_str() {
        "none" | "benign" => return Ok(AttackChoice::None),
        "tailored" => return Ok(AttackChoice::Tailored),
        _ => {}
    }
    Attack::all()
        .into_iter()
        .find(|a| {
            let n = normalize_key(a.name());
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
            // Integral and exact in an f64 (up to 2^53): an integer.
            if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
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

// ---------------------------------------------------------------------------
// Keys: what a spec table may hold, declared once per table.
// ---------------------------------------------------------------------------

/// One kind of spec value: how it reads from and writes to TOML. Errors
/// describe the value only; [`read_table`] prefixes the key.
trait Value: Sized {
    fn from_toml(v: &TomlValue) -> Result<Self, DecodeError>;
    /// The TOML form, or `None` to leave the key out.
    fn write(&self) -> Option<TomlValue>;
}

fn expected<T>(what: &str, got: &TomlValue) -> Result<T, DecodeError> {
    Err(DecodeError::new(format!("expected {what}, got {}", got.kind())))
}

impl Value for String {
    fn from_toml(v: &TomlValue) -> Result<Self, DecodeError> {
        match v {
            TomlValue::Str(s) => Ok(s.clone()),
            other => expected("a string", other),
        }
    }
    fn write(&self) -> Option<TomlValue> {
        Some(TomlValue::Str(self.clone()))
    }
}

impl Value for bool {
    fn from_toml(v: &TomlValue) -> Result<Self, DecodeError> {
        match v {
            TomlValue::Bool(b) => Ok(*b),
            other => expected("a boolean", other),
        }
    }
    fn write(&self) -> Option<TomlValue> {
        Some(TomlValue::Bool(*self))
    }
}

impl Value for f64 {
    fn from_toml(v: &TomlValue) -> Result<Self, DecodeError> {
        match v {
            TomlValue::Float(f) => Ok(*f),
            TomlValue::Int(i) => Ok(*i as f64),
            other => expected("a number", other),
        }
    }
    fn write(&self) -> Option<TomlValue> {
        Some(TomlValue::Float(*self))
    }
}

/// The one `u64` rule every seed and budget shares: an integer while both
/// legs hold it exactly — up to 2^53, since the JSON leg's numbers are
/// `f64` — and a hex string beyond. Either form reads back at any size a
/// TOML integer can hold.
impl Value for u64 {
    fn from_toml(v: &TomlValue) -> Result<Self, DecodeError> {
        match v {
            TomlValue::Int(i) if *i >= 0 => Ok(*i as u64),
            TomlValue::Str(s) => parse_u64(s).ok_or_else(|| {
                DecodeError::new(format!("cannot parse '{s}' as an unsigned integer"))
            }),
            other => {
                Err(DecodeError::new(format!("expected a non-negative integer, got {other:?}")))
            }
        }
    }
    fn write(&self) -> Option<TomlValue> {
        Some(match *self {
            exact if exact <= 1 << 53 => TomlValue::Int(exact as i64),
            wide => TomlValue::Str(format!("{wide:#x}")),
        })
    }
}

impl Value for u32 {
    fn from_toml(v: &TomlValue) -> Result<Self, DecodeError> {
        let wide = u64::from_toml(v)?;
        u32::try_from(wide).map_err(|_| DecodeError::new(format!("{wide} does not fit in 32 bits")))
    }
    fn write(&self) -> Option<TomlValue> {
        Some(TomlValue::Int(i64::from(*self)))
    }
}

impl Value for AttackerKnowledge {
    fn from_toml(v: &TomlValue) -> Result<Self, DecodeError> {
        AttackerKnowledge::by_key(&String::from_toml(v)?).map_err(DecodeError::new)
    }
    fn write(&self) -> Option<TomlValue> {
        Some(TomlValue::Str(self.key().into()))
    }
}

impl Value for ParamValue {
    fn from_toml(v: &TomlValue) -> Result<Self, DecodeError> {
        match v {
            TomlValue::Int(i) => Ok(ParamValue::Int(*i)),
            TomlValue::Float(f) => Ok(ParamValue::Float(*f)),
            TomlValue::Bool(b) => Ok(ParamValue::Bool(*b)),
            TomlValue::Str(s) => Ok(ParamValue::Str(s.clone())),
            other => expected("a parameter value", other),
        }
    }
    fn write(&self) -> Option<TomlValue> {
        Some(match self {
            ParamValue::Int(i) => TomlValue::Int(*i),
            ParamValue::Float(f) => TomlValue::Float(*f),
            ParamValue::Bool(b) => TomlValue::Bool(*b),
            ParamValue::Str(s) => TomlValue::Str(s.clone()),
        })
    }
}

/// An absent key is `None`.
impl<T: Value> Value for Option<T> {
    fn from_toml(v: &TomlValue) -> Result<Self, DecodeError> {
        T::from_toml(v).map(Some)
    }
    fn write(&self) -> Option<TomlValue> {
        self.as_ref().and_then(T::write)
    }
}

/// A bare value is a one-element list; an empty list is an absent key.
impl<T: Value> Value for Vec<T> {
    fn from_toml(v: &TomlValue) -> Result<Self, DecodeError> {
        match v {
            TomlValue::Arr(items) => items.iter().map(T::from_toml).collect(),
            one => Ok(vec![T::from_toml(one)?]),
        }
    }
    fn write(&self) -> Option<TomlValue> {
        (!self.is_empty()).then(|| TomlValue::Arr(self.iter().filter_map(T::write).collect()))
    }
}

/// A table of named values (`[params.<tracker>]`). A table none of whose
/// entries writes anything is absent, like an empty one, so an empty
/// `[params.<tracker>]` leaves no `params` key behind to read back as a
/// different spec.
impl<T: Value> Value for BTreeMap<String, T> {
    fn from_toml(v: &TomlValue) -> Result<Self, DecodeError> {
        let TomlValue::Table(entries) = v else { return expected("a table", v) };
        entries
            .iter()
            .map(|(k, v)| Ok((k.clone(), T::from_toml(v).map_err(|e| e.at(k))?)))
            .collect()
    }
    fn write(&self) -> Option<TomlValue> {
        let entries: BTreeMap<_, _> =
            self.iter().filter_map(|(k, v)| Some((k.clone(), v.write()?))).collect();
        (!entries.is_empty()).then_some(TomlValue::Table(entries))
    }
}

/// One key of a spec table: its name, how it reads into the table's
/// struct `S`, and how it writes back out of it.
struct Key<S> {
    name: &'static str,
    read: fn(&mut S, &TomlValue) -> Result<(), DecodeError>,
    write: fn(&S) -> Option<TomlValue>,
}

/// The common [`Key`]: `name` holds the struct field of the same name
/// (or `name => path.to.field`) through that field's [`Value`] impl,
/// optionally vetted by a `fn(&FieldType) -> Result<(), String>`.
macro_rules! key {
    ($name:ident $(, $check:expr)?) => { key!($name => $name $(, $check)?) };
    ($name:ident => $($field:ident).+ $(, $check:expr)?) => {
        Key {
            name: stringify!($name),
            read: |s, v| {
                let value = Value::from_toml(v)?;
                $(($check)(&value).map_err(DecodeError::new)?;)?
                s.$($field).+ = value;
                Ok(())
            },
            write: |s| s.$($field).+.write(),
        }
    };
}

/// A spec table: starts from its `Default`, then every key present in
/// the document overwrites its part of it.
trait Section: Default + 'static {
    /// Every key the table accepts. The one place a key is named.
    const KEYS: &'static [Key<Self>];

    /// Checks what no one key can check alone, once every key is read.
    fn check(&self) -> Result<(), DecodeError> {
        Ok(())
    }
}

/// Reads a table: unknown keys are rejected with the allow-list, a key's
/// failure names it, and the table read is then held to [`Section::check`].
fn read_table<S: Section>(table: &BTreeMap<String, TomlValue>) -> Result<S, DecodeError> {
    let mut section = S::default();
    for (name, value) in table {
        let Some(key) = S::KEYS.iter().find(|key| key.name == name) else {
            let allowed: Vec<&str> = S::KEYS.iter().map(|key| key.name).collect();
            let message = format!("unknown spec field; allowed: {}", allowed.join(", "));
            return Err(DecodeError::new(message).at(name));
        };
        (key.read)(&mut section, value).map_err(|e| e.at(name))?;
    }
    section.check()?;
    Ok(section)
}

fn write_table<S: Section>(section: &S) -> BTreeMap<String, TomlValue> {
    S::KEYS.iter().filter_map(|key| Some((key.name.to_string(), (key.write)(section)?))).collect()
}

/// A `[section]` is a [`Value`] of its parent table.
impl<S: Section> Value for S {
    fn from_toml(v: &TomlValue) -> Result<Self, DecodeError> {
        match v {
            TomlValue::Table(table) => read_table(table),
            other => expected("a table", other),
        }
    }
    fn write(&self) -> Option<TomlValue> {
        Some(TomlValue::Table(write_table(self)))
    }
}

fn positive_us(w: &Option<f64>) -> Result<(), String> {
    match w {
        // Catch it here with the key named, not as a per-job panic when
        // the engine asserts a nonzero window length.
        Some(w) if !sim_core::time::is_positive_us(*w) => {
            Err(format!("must be a positive number of microseconds, got {w}"))
        }
        _ => Ok(()),
    }
}

fn at_least_one(n: &Option<u32>) -> Result<(), String> {
    if *n == Some(0) {
        return Err("must be >= 1".into());
    }
    Ok(())
}

/// Shared system-level knobs of a spec, top-level keys of the document
/// (every field optional; the [`Experiment`] defaults apply when absent).
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
}

impl SpecOptions {
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

/// A recorder name and the [`TelemetrySpec`] switch it throws.
type Recorder = (&'static str, fn(&mut TelemetrySpec) -> &mut bool);

/// The recorders `[telemetry] recorders = [...]` accepts (plus `"all"`).
const RECORDERS: [Recorder; 3] = [
    ("time-series", |t| &mut t.time_series),
    ("slowdown", |t| &mut t.slowdown),
    ("mitigation-log", |t| &mut t.mitigation_log),
];

impl Section for TelemetryOptions {
    const KEYS: &'static [Key<Self>] = &[
        key!(window_us => spec.window_us, positive_us),
        Key {
            name: "recorders",
            read: |s, v| {
                for name in Vec::<String>::from_toml(v)? {
                    let wanted = normalize_key(&name);
                    let mut named = RECORDERS
                        .iter()
                        .filter(|(recorder, _)| {
                            wanted == "all" || wanted == normalize_key(recorder)
                        })
                        .peekable();
                    if named.peek().is_none() {
                        let known: Vec<&str> = RECORDERS.iter().map(|r| r.0).collect();
                        let known = known.join(", ");
                        return Err(DecodeError::new(format!(
                            "unknown recorder '{name}'; known: {known}, all"
                        )));
                    }
                    named.for_each(|(_, switch)| *switch(&mut s.spec) = true);
                }
                Ok(())
            },
            write: |s| {
                let mut spec = s.spec;
                let on: Vec<String> = RECORDERS
                    .iter()
                    .filter(|(_, switch)| *switch(&mut spec))
                    .map(|(name, _)| name.to_string())
                    .collect();
                if on.len() == RECORDERS.len() { vec!["all".to_string()] } else { on }.write()
            },
        },
        Key {
            name: "oracle",
            read: |s, v| Value::from_toml(v).map(|on| s.spec.oracle = on),
            write: |s| s.spec.oracle.then_some(TomlValue::Bool(true)),
        },
        key!(out),
    ];
}

/// The `[cache]` spec section: where to read results through the
/// content-addressed run cache ([`crate::cache::RunCache`]).
///
/// ```toml
/// [cache]
/// dir = "run_cache"   # relative paths resolve against the working dir
/// ```
///
/// Runners honour the section when expanding the sweep through
/// [`SweepSpec::run_cached`]; `spec_run`'s `--cache-dir` flag overrides
/// it and `--no-cache` ignores it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CacheOptions {
    /// Cache directory.
    pub dir: Option<String>,
}

impl Section for CacheOptions {
    const KEYS: &'static [Key<Self>] = &[key!(dir)];
}

/// The probe-family names `[profile] families = [...]` accepts (`"all"`
/// expands to every parametric family). The `redteam` crate's `Family`
/// enum must agree with this list; a unit test over there pins it.
pub const KNOWN_PROFILE_FAMILIES: [&str; 5] = ["hammer", "sweep", "diagonal", "thrash", "all"];

/// The `[profile]` spec section: run the profile → evaluate → attack
/// campaign workflow (the `redteam` crate) instead of a plain sweep.
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
/// Runners route specs carrying this section through the profile
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

impl Section for ProfileOptions {
    const KEYS: &'static [Key<Self>] = &[
        key!(bank_groups, at_least_one),
        key!(row_groups, at_least_one),
        key!(probe_window_us, positive_us),
        key!(families, |families: &Vec<String>| {
            match families.iter().find(|f| !KNOWN_PROFILE_FAMILIES.contains(&f.as_str())) {
                Some(unknown) => Err(format!(
                    "unknown family '{unknown}' (known: {})",
                    KNOWN_PROFILE_FAMILIES.join(", ")
                )),
                None => Ok(()),
            }
        }),
        key!(top_k),
        key!(budget),
    ];
}

/// The `[system]` spec section: machine-level knobs that are neither
/// tracker parameters nor run options.
///
/// ```toml
/// [system]
/// geometry = "enlarged-8ch"   # or "paper-baseline" (default)
/// ```
///
/// `geometry` selects a DRAM preset ([`Geometry::paper_baseline`] /
/// [`Geometry::enlarged_8ch`]); the LLC stays at the baseline capacity
/// either way. It changes what is simulated, so it is part of the
/// run-cache cell key.
///
/// [`Geometry::paper_baseline`]: sim_core::addr::Geometry::paper_baseline
/// [`Geometry::enlarged_8ch`]: sim_core::addr::Geometry::enlarged_8ch
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SystemOptions {
    /// Canonical geometry preset name (`paper-baseline` / `enlarged-8ch`).
    pub geometry: Option<String>,
}

/// The geometry preset names `[system] geometry = "..."` accepts.
pub const KNOWN_GEOMETRIES: [&str; 2] = ["paper-baseline", "enlarged-8ch"];

impl Section for SystemOptions {
    const KEYS: &'static [Key<Self>] = &[Key {
        name: "geometry",
        // Aliases resolve to the canonical spelling at parse time.
        read: |s, v| {
            let name = String::from_toml(v)?;
            let canonical = match normalize_key(&name).as_str() {
                "paperbaseline" | "baseline" => KNOWN_GEOMETRIES[0],
                "enlarged8ch" | "eightchannel" | "8ch" => KNOWN_GEOMETRIES[1],
                _ => {
                    return Err(DecodeError::new(format!(
                        "unknown geometry '{name}'; known: {}",
                        KNOWN_GEOMETRIES.join(", ")
                    )))
                }
            };
            s.geometry = Some(canonical.to_string());
            Ok(())
        },
        write: |s| s.geometry.write(),
    }];
}

impl SystemOptions {
    fn apply(&self, mut e: Experiment) -> Experiment {
        if self.geometry.as_deref() == Some(KNOWN_GEOMETRIES[1]) {
            // Baseline per-core LLC share (2 MiB x 4 cores = the 8 MiB
            // baseline): geometry changes the memory system only.
            e = e.eight_channel(2);
        }
        e
    }
}

/// The `[attacker]` spec section: the attacker-realism axis run by the
/// `redteam` attacker pipeline (recon → hammer → victim adjudication).
///
/// ```toml
/// [attacker]
/// knowledge = ["omniscient", "timing-recon", "blind"]  # or one string
/// recon_budget = 4096    # probe accesses for timing-recon
/// seed = 0xA77AC4        # attacker-side RNG (hex string past i64::MAX)
/// ```
///
/// The section multiplies the cross product: one cell per knowledge
/// level. Omitting `knowledge` sweeps all three levels (the Fig-9-style
/// leaderboard).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AttackerOptions {
    /// Knowledge levels to run, in spec order (a repeated level expands to
    /// the same cell and runs once); empty means "all levels"
    /// ([`AttackerKnowledge::ALL`]).
    pub knowledge: Vec<AttackerKnowledge>,
    /// Recon budget in probe accesses
    /// ([`AttackerConfig::DEFAULT_RECON_BUDGET`] when absent).
    pub recon_budget: Option<u64>,
    /// Attacker-side RNG seed ([`AttackerConfig::DEFAULT_SEED`] when
    /// absent).
    pub seed: Option<u64>,
}

impl Section for AttackerOptions {
    const KEYS: &'static [Key<Self>] = &[
        key!(knowledge),
        key!(recon_budget, |budget: &Option<u64>| match budget {
            Some(0) => Err("must be at least one probe access".to_string()),
            _ => Ok(()),
        }),
        key!(seed),
    ];
}

impl AttackerOptions {
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
}

/// Expands a workload list, resolving the `@quick` (9-workload subset) and
/// `@all` (full 57-workload catalog) tokens and validating every name.
pub fn expand_workloads(names: &[String]) -> Result<Vec<String>, SpecError> {
    let mut out = Vec::new();
    for name in names {
        match name.as_str() {
            "@quick" => out.extend(workloads::quick_subset().iter().map(|w| w.name.to_string())),
            "@all" => out.extend(workloads::catalog().iter().map(|w| w.name.to_string())),
            known if workloads::spec_by_name(known).is_some() => out.push(known.to_string()),
            unknown => return Err(SpecError::UnknownWorkload { name: unknown.to_string() }),
        }
    }
    if out.is_empty() {
        return Err(field_err("workloads", "must name at least one workload"));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// SweepSpec
// ---------------------------------------------------------------------------

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
    /// Profile section (`[profile]`): route through the `redteam`
    /// profile → evaluate → attack workflow.
    pub profile: Option<ProfileOptions>,
}

/// Specs are equal when their wire forms are. JSON cannot distinguish
/// `5` from `5.0`, so a parameter that round-trips through it may come back
/// an int where a float went in; the tracker schema coerces the two
/// identically at build time, and comparing wire forms does too.
impl PartialEq for SweepSpec {
    fn eq(&self, other: &Self) -> bool {
        self.to_json() == other.to_json()
    }
}

impl Default for SweepSpec {
    fn default() -> Self {
        Self::new("sweep")
    }
}

impl Section for SweepSpec {
    const KEYS: &'static [Key<Self>] = &[
        key!(name),
        key!(workloads),
        key!(trackers),
        key!(attacks),
        key!(nrh => options.nrh),
        key!(window_us => options.window_us),
        key!(seed => options.seed),
        key!(isolate => options.isolate),
        key!(telemetry),
        key!(system),
        key!(cache),
        key!(attacker),
        key!(profile),
        key!(params),
    ];

    /// Every `params.<tracker>` table must resolve to a tracker named in
    /// `trackers` (so a typo'd section errors instead of being silently
    /// ignored). Checked as the spec is read, so an empty table — which
    /// the JSON form drops — is refused by every reader alike.
    fn check(&self) -> Result<(), DecodeError> {
        for param_key in self.params.keys() {
            let at = |message: String| DecodeError::new(message).at(param_key).at("params");
            let wanted = crate::registry::resolve(param_key).map_err(|e| at(e.to_string()))?.key;
            let mut listed = self.trackers.iter().filter_map(|t| crate::registry::resolve(t).ok());
            if !listed.any(|t| t.key == wanted) {
                return Err(at("does not match any tracker in 'trackers'".to_string()));
            }
        }
        Ok(())
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

    /// Parses a TOML spec.
    pub fn from_toml_str(input: &str) -> Result<Self, SpecError> {
        Ok(read_table(&toml::parse(input)?)?)
    }

    /// Renders the spec as TOML (parses back to an equal spec).
    pub fn to_toml(&self) -> String {
        toml::render(&write_table(self))
    }

    /// Parses a JSON spec.
    pub fn from_json_str(input: &str) -> Result<Self, SpecError> {
        Self::from_json(&Json::parse(input)?)
    }

    /// Decodes an already-parsed JSON spec (what [`SweepSpec::to_json`]
    /// builds).
    pub fn from_json(j: &Json) -> Result<Self, SpecError> {
        Ok(Self::from_toml(&json_to_toml(j, "spec")?)?)
    }

    /// Renders the spec as JSON (parses back to an equal spec).
    pub fn to_json(&self) -> Json {
        toml_to_json(&TomlValue::Table(write_table(self)))
    }

    /// The resolved tracker selections, with per-tracker overrides
    /// attached. (The reader refuses a `params.<tracker>` table that
    /// matches no tracker in `trackers`.)
    pub fn resolve_trackers(&self) -> Result<Vec<TrackerSel>, SpecError> {
        let mut sels = Vec::new();
        for name in &self.trackers {
            let mut sel = TrackerSel::by_key(name)?;
            // Overrides may be keyed by any accepted spelling of the
            // tracker's name; match on the canonical key.
            for (param_key, overrides) in &self.params {
                if crate::registry::resolve(param_key)?.key == sel.key() {
                    sel = sel.with_params(overrides.clone())?;
                }
            }
            sels.push(sel);
        }
        Ok(sels)
    }

    /// Expands the full workload × tracker × attack cross product into
    /// runnable experiments (attacks vary fastest, then trackers), after
    /// validating every name and parameter — including each tracker's
    /// [check](sim_core::registry::TrackerSpec::validate) on the paper
    /// geometry, so parameter *combinations* the flat schema cannot express
    /// (e.g. an RCC entry count that is not a multiple of the way count)
    /// fail here instead of panicking inside every sweep worker. The check
    /// builds no tracker.
    pub fn expand(&self) -> Result<Vec<Experiment>, SpecError> {
        Ok(self.expand_keyed()?.into_iter().map(|(e, _)| e).collect())
    }

    /// [`SweepSpec::expand`] with each cell's canonical
    /// [`CellKey`](crate::cache::CellKey) attached (`None` for an
    /// uncacheable cell): the descriptor expansion dedupes on is rendered
    /// and hashed once, here, and every cache-aware caller takes the key
    /// from this pair.
    pub fn expand_keyed(&self) -> Result<Vec<KeyedCell>, SpecError> {
        let workloads = expand_workloads(&self.workloads)?;
        let trackers = self.resolve_trackers()?;
        if trackers.is_empty() {
            return Err(field_err("trackers", "must name at least one tracker"));
        }
        let probe_cfg = sim_core::config::SystemConfig::paper_baseline();
        let nrh = self.options.nrh.unwrap_or(probe_cfg.nrh);
        for tracker in &trackers {
            let probe = sim_core::tracker::TrackerParams::new(nrh, probe_cfg.geometry, 0, 0);
            tracker.spec().validate(probe, tracker.params())?;
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
        let mut keys = CellKeys::default();
        let mut first = HashMap::new();
        for workload in &workloads {
            for tracker in &trackers {
                for attack in &attacks {
                    for cfg in &attacker_cfgs {
                        let mut e =
                            Experiment::new(workload).tracker(tracker.clone()).attack(*attack);
                        if let Some(telemetry) = &self.telemetry {
                            e = e.with_telemetry(telemetry.spec);
                        }
                        if let Some(system) = &self.system {
                            e = system.apply(e);
                        }
                        if let Some(cfg) = cfg {
                            e = e.attacker(*cfg);
                        }
                        let e = self.options.apply(e);
                        let key = keys.key(&e, None);
                        push_unique(&mut out, &mut first, (e, key));
                    }
                }
            }
        }
        Ok(out)
    }

    /// Expands and runs the sweep in parallel. Individual cell failures
    /// are collected, not fatal.
    pub fn run(&self) -> Result<SweepReport, SpecError> {
        Ok(self.run_expanded(self.expand_keyed()?, None, None, &RunnerConfig::default()).0)
    }
}

/// Appends `cell` to an expansion unless it repeats an earlier cell.
/// Cells that canonicalize identically (an alias tracker name next to its
/// primary key, `tailored` next to the pattern it resolves to) are one
/// cell and run once; the first occurrence wins. `first` maps a content
/// key to the first cell under it, and only an equal descriptor makes a
/// repeat: a hash collision never merges two different cells. Uncacheable
/// cells are never deduped: two opaque custom attacks cannot be proven
/// equal.
fn push_unique(out: &mut Vec<KeyedCell>, first: &mut HashMap<String, usize>, cell: KeyedCell) {
    if let Some(key) = &cell.1 {
        match first.get(&key.key) {
            Some(&i) if out[i..].iter().any(|(_, other)| other.as_ref() == Some(key)) => return,
            Some(_) => {}
            None => {
                first.insert(key.key.clone(), out.len());
            }
        }
    }
    out.push(cell);
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
            ("failures", self.failures.encode()),
        ])
    }

    /// [`SweepReport::to_json`]'s rendered bytes, written by
    /// [`write_report`] without building the report's tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        write_report(
            &mut out,
            &self.name,
            &self.spec.to_json().render(),
            &self.results,
            &self.failures,
        );
        out
    }
}

/// Appends a sweep report to `out`: exactly the bytes
/// [`SweepReport::to_json`]`().render()` gives for a report of that name,
/// spec, results and failures, written straight from its parts with no
/// tree for the report or its rows. `spec_json` is the spec's canonical
/// text, `spec.to_json().render()`, so a caller that renders it anyway (a
/// journal checkpoint hashes it) renders it once. Strings go through
/// [`sim_core::json::write_str`] and numbers through [`Json`]'s own
/// rendering; a failure row, rare, renders through its codec.
pub fn write_report<'r>(
    out: &mut String,
    name: &str,
    spec_json: &str,
    results: impl IntoIterator<Item = &'r ExperimentResult>,
    failures: &[SweepError],
) {
    out.push_str("{\"name\":");
    write_str(name, out);
    out.push_str(",\"spec\":");
    out.push_str(spec_json);
    out.push_str(",\"results\":[");
    for (i, r) in results.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_result(r, out);
    }
    out.push_str("],\"failures\":[");
    for (i, f) in failures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        f.encode().render_into(out);
    }
    out.push_str("]}");
}

/// Appends [`result_to_json`]`(r).render()`'s bytes to `out`.
fn write_result(r: &ExperimentResult, out: &mut String) {
    out.push_str("{\"workload\":");
    write_str(&r.workload, out);
    out.push_str(",\"tracker\":");
    write_str(&r.tracker_name, out);
    out.push_str(",\"attack\":");
    write_str(&r.attack_name, out);
    for (key, value) in result_numbers(r) {
        out.push_str(",\"");
        out.push_str(key);
        out.push_str("\":");
        value.render_into(out);
    }
    out.push('}');
}

/// Serializes one experiment result as a JSON row (the sweep export
/// format: identity, the paper's metric, and the headline counters).
pub fn result_to_json(r: &ExperimentResult) -> Json {
    let names = [
        ("workload", Json::str(&r.workload)),
        ("tracker", Json::str(&r.tracker_name)),
        ("attack", Json::str(&r.attack_name)),
    ];
    Json::obj(names.into_iter().chain(result_numbers(r)))
}

/// A result row's numeric columns, in order; none of them allocates.
fn result_numbers(r: &ExperimentResult) -> [(&'static str, Json); 8] {
    let mem = &r.run.mem;
    [
        ("normalized_performance", Json::num(r.normalized_performance)),
        ("cycles", Json::count(r.run.cycles)),
        ("activations", Json::count(mem.activations)),
        ("mitigations", Json::count(mem.vrr_commands + mem.rfm_commands)),
        ("counter_ops", Json::count(mem.counter_reads + mem.counter_writes)),
        ("reset_sweeps", Json::count(mem.reset_sweeps)),
        ("llc_hit_rate", Json::num(r.run.llc_hit_rate)),
        ("energy_mj", Json::num(r.run.energy_mj)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RunStats;
    use sim_core::rng::Xoshiro256;

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
        // `tailored` next to the pattern it resolves to for the tracker is
        // one cell too; the first spelling wins.
        let doc = "name = \"dedupe\"\nworkloads = [\"mcf_like\"]\ntrackers = [\"hydra\"]\n\
                   attacks = [\"tailored\", \"hydra-rcc\", \"streaming\"]\n";
        let spec = SweepSpec::from_toml_str(doc).unwrap();
        let cells = spec.expand_keyed().unwrap();
        assert_eq!(cells.len(), 2, "tailored == hydra-rcc under hydra");
        assert_eq!(cells[0].0.attack, AttackChoice::Tailored);
        assert_eq!(cells[1].0.attack, AttackChoice::Specific(Attack::Streaming));
        // The attached key is the surviving cell's own, rendered once.
        for (experiment, key) in &cells {
            assert_eq!(key, &crate::cache::cell_key(experiment));
        }
        assert_eq!(cells.len(), spec.expand().unwrap().len(), "expand() is the projection");
    }

    #[test]
    fn expansion_dedupes_on_descriptors_not_on_keys_alone() {
        // A forged collision: four cells under one content key, two
        // descriptors. Each descriptor runs once, and uncacheable cells
        // always run.
        let cell = |descriptor: Option<&str>| {
            let key =
                descriptor.map(|d| crate::cache::CellKey { key: "k".into(), descriptor: d.into() });
            (Experiment::new("mcf_like"), key)
        };
        let (mut out, mut first) = (Vec::new(), HashMap::new());
        for descriptor in [Some("a"), Some("b"), None, Some("a"), Some("b"), None] {
            push_unique(&mut out, &mut first, cell(descriptor));
        }
        let kept: Vec<_> = out.iter().map(|(_, k)| k.as_ref().map(|k| &k.descriptor[..])).collect();
        assert_eq!(kept, [Some("a"), Some("b"), None, None]);
    }

    #[test]
    fn cache_section_round_trips_and_resolves() {
        let doc = "name = \"cached\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"none\"]\n\
                   [cache]\ndir = \"run_cache\"\n";
        let spec = SweepSpec::from_toml_str(doc).unwrap();
        assert_eq!(spec.cache.as_ref().unwrap().dir.as_deref(), Some("run_cache"));
        assert_eq!(SweepSpec::from_toml_str(&spec.to_toml()).unwrap(), spec);
    }

    #[test]
    fn profile_section_round_trips_and_validates() {
        let doc = "name = \"profiled\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"hydra\"]\n\
                   [profile]\nbank_groups = 2\nrow_groups = 3\nprobe_window_us = 40.0\n\
                   families = [\"hammer\", \"sweep\"]\ntop_k = 4\nbudget = 24\n";
        let profile = SweepSpec::from_toml_str(doc).unwrap().profile.expect("section present");
        assert_eq!((profile.bank_groups, profile.row_groups), (Some(2), Some(3)));
        assert_eq!(profile.families, vec!["hammer", "sweep"]);
        // An empty section is valid (all defaults) and survives round-trips.
        let bare = SweepSpec::from_toml_str(
            "name = \"p\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"none\"]\n[profile]\n",
        )
        .unwrap();
        assert_eq!(bare.profile, Some(ProfileOptions::default()));
        assert_eq!(SweepSpec::from_toml_str(&bare.to_toml()).unwrap(), bare);
        // Unknown families, degenerate grids and windows are rejected by name.
        for (good, bad, named) in [
            ("\"sweep\"", "\"warp\"", "warp"),
            ("bank_groups = 2", "bank_groups = 0", "profile.bank_groups"),
            ("probe_window_us = 40.0", "probe_window_us = 0.0", "profile.probe_window_us"),
        ] {
            let err = SweepSpec::from_toml_str(&doc.replace(good, bad)).unwrap_err();
            assert!(err.to_string().contains(named), "{err}");
        }
    }

    #[test]
    fn system_section_round_trips_and_applies() {
        let doc = "name = \"eight\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"none\"]\n\
                   [system]\ngeometry = \"enlarged-8ch\"\n";
        let spec = SweepSpec::from_toml_str(doc).unwrap();
        let system = spec.system.as_ref().expect("[system] section present");
        assert_eq!(system.geometry.as_deref(), Some("enlarged-8ch"));
        let cells = spec.expand().unwrap();
        assert_eq!(cells[0].cfg.geometry.channels, 8, "preset reaches the cell config");

        // Alias geometry spellings parse.
        let cell = "workloads = \"gcc_like\"\ntrackers = \"none\"\n";
        let spec =
            SweepSpec::from_toml_str(&format!("{cell}[system]\ngeometry = \"8ch\"\n")).unwrap();
        let system = spec.system.as_ref().unwrap();
        assert_eq!(system.geometry.as_deref(), Some("enlarged-8ch"), "canonical spelling");
        assert_eq!(spec.expand().unwrap()[0].cfg.geometry.channels, 8);

        // Bad values are rejected with the key named.
        let err = SweepSpec::from_toml_str(&format!("{cell}[system]\ngeometry = \"16ch\"\n"))
            .unwrap_err();
        assert!(err.to_string().contains("enlarged-8ch"), "must list known presets: {err}");
        // The lane knob is gone: its key is unknown like any other.
        let err = SweepSpec::from_toml_str(&format!("{cell}[system]\nthreads = 4\n")).unwrap_err();
        assert!(err.to_string().contains("system.threads"), "{err}");
        assert!(err.to_string().contains("allowed: geometry"), "{err}");
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

        // A string works where a one-element list would: a one-cell sweep.
        let doc = "workloads = \"gcc_like\"\ntrackers = \"dapper-s\"\nattacks = \"streaming\"\n\
                   [attacker]\nknowledge = \"timing-recon\"\n";
        let cells = SweepSpec::from_toml_str(doc).unwrap().expand().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].attacker.unwrap().knowledge, AttackerKnowledge::TimingRecon);
        // A repeated level is the same cell, run once.
        let doc = doc.replace("\"timing-recon\"", "[\"blind\", \"BLIND\"]");
        assert_eq!(SweepSpec::from_toml_str(&doc).unwrap().expand().unwrap().len(), 1);
    }

    #[test]
    fn attacker_section_rejects_bad_fields() {
        // Unknown knowledge levels and a zero budget are named in the error.
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

    /// A valid spec with every key of every section set to a seeded
    /// random value.
    fn random_spec(rng: &mut Xoshiro256) -> SweepSpec {
        fn pick<T: Copy>(rng: &mut Xoshiro256, items: &[T]) -> T {
            items[rng.gen_range(items.len() as u64) as usize]
        }
        let us = |rng: &mut Xoshiro256| Some(rng.gen_f64() * 1e3 + 1e-3);
        let small = |rng: &mut Xoshiro256| Some(rng.gen_range(64) as u32 + 1);
        let overrides = [
            ("rcc_entries".to_string(), ParamValue::Int(256 << rng.gen_range(3))),
            ("flag".to_string(), ParamValue::Bool(rng.gen_bool(0.5))),
            ("tax_ns".to_string(), ParamValue::Float(rng.gen_f64() * 10.0)),
            ("mode".to_string(), ParamValue::Str(format!("m{}", rng.gen_range(9)))),
        ];
        SweepSpec {
            name: format!("sweep-{}", rng.gen_range(1000)),
            workloads: vec![pick(rng, &["gcc_like", "mcf_like", "@quick"]).into()],
            trackers: vec!["hydra".into(), pick(rng, &["none", "para", "dapper-s"]).into()],
            params: [("hydra".to_string(), overrides.into())].into(),
            attacks: vec![pick(rng, &["none", "tailored", "streaming"]).into()],
            options: SpecOptions {
                nrh: small(rng),
                window_us: us(rng),
                seed: Some(rng.next_u64() >> rng.gen_range(64)),
                isolate: Some(rng.gen_bool(0.5)),
            },
            telemetry: Some(TelemetryOptions {
                spec: TelemetrySpec {
                    oracle: rng.gen_bool(0.5),
                    time_series: rng.gen_bool(0.5),
                    slowdown: rng.gen_bool(0.5),
                    mitigation_log: rng.gen_bool(0.5),
                    window_us: us(rng),
                },
                out: Some(format!("stem{}", rng.gen_range(9))),
            }),
            system: Some(SystemOptions { geometry: Some(pick(rng, &KNOWN_GEOMETRIES).into()) }),
            cache: Some(CacheOptions { dir: Some(format!("dir{}", rng.gen_range(9))) }),
            attacker: Some(AttackerOptions {
                knowledge: AttackerKnowledge::ALL[rng.gen_range(3) as usize..].to_vec(),
                recon_budget: Some(rng.next_u64() >> rng.gen_range(64) | 1),
                seed: Some(rng.next_u64() >> rng.gen_range(64)),
            }),
            profile: Some(ProfileOptions {
                bank_groups: small(rng),
                row_groups: small(rng),
                probe_window_us: us(rng),
                families: KNOWN_PROFILE_FAMILIES[rng.gen_range(4) as usize..]
                    .iter()
                    .map(|f| f.to_string())
                    .collect(),
                top_k: small(rng),
                budget: small(rng),
            }),
        }
    }

    #[test]
    fn sweep_round_trips_through_toml_and_json() {
        // TOML → spec → JSON → spec is the identity, and so is each leg,
        // for every section at once and `u64`s of every width.
        let mut rng = Xoshiro256::seed_from(0x5BEC);
        for _ in 0..200 {
            let spec = random_spec(&mut rng);
            let toml_text = spec.to_toml();
            let from_toml = SweepSpec::from_toml_str(&toml_text)
                .unwrap_or_else(|e| panic!("{e}\n---\n{toml_text}"));
            let json_text = from_toml.to_json().render();
            let from_json = SweepSpec::from_json_str(&json_text).unwrap();
            // `==` compares wire forms; field for field is stronger.
            assert_eq!(format!("{from_toml:?}"), format!("{spec:?}"), "{toml_text}");
            assert_eq!(format!("{from_json:?}"), format!("{spec:?}"), "{json_text}");
            assert_eq!(from_toml.to_toml(), toml_text, "rendering is a fixed point");
            assert_eq!(from_json.to_json().render(), json_text);
        }
    }

    /// Every shipped spec: `examples/specs/*.toml`, then the benchmark's
    /// pinned sweep.
    fn shipped_spec_files() -> Vec<std::path::PathBuf> {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files: Vec<_> = std::fs::read_dir(root.join("examples/specs"))
            .expect("examples/specs")
            .map(|entry| entry.expect("spec dir entry").path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
            .collect();
        files.sort();
        files.push(root.join("benchmark/specs/campaign.toml"));
        files
    }

    #[test]
    fn an_empty_params_table_writes_no_params_key() {
        // An empty `[params.dapper-s]` used to write `"params":{}`, which
        // reads back as no params at all: the TOML and the JSON leg were two
        // specs, echoed and hashed differently.
        let bare = "name = \"p\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"dapper-s\"]\n";
        let spec = SweepSpec::from_toml_str(&format!("{bare}[params.dapper-s]\n")).unwrap();
        assert_eq!(spec.params.len(), 1, "the table is read");
        let json = spec.to_json().render();
        assert_eq!(json, SweepSpec::from_toml_str(bare).unwrap().to_json().render());
        let from_json = SweepSpec::from_json_str(&json).unwrap();
        assert_eq!(from_json.to_json().render(), json);
        assert_eq!(SweepSpec::from_toml_str(&spec.to_toml()).unwrap(), spec);
    }

    /// `rounds` seeded mutants of the shipped specs, each one to five byte
    /// flips, inserts, deletes or truncations. The TOML reader and the
    /// expansion return or refuse, never panic, and every spec the reader
    /// accepts is canonical: its TOML and its JSON each read back to it and
    /// render the same text again. Returns how many were accepted.
    fn fuzz_specs(seed: u64, rounds: usize) -> usize {
        let texts: Vec<Vec<u8>> =
            shipped_spec_files().iter().map(|f| std::fs::read(f).expect("read spec")).collect();
        let mut rng = Xoshiro256::seed_from(seed);
        let mut accepted = 0;
        for _ in 0..rounds {
            let mut bytes = texts[rng.gen_range(texts.len() as u64) as usize].clone();
            for _ in 0..=rng.gen_range(5) {
                if bytes.is_empty() {
                    break;
                }
                let at = rng.gen_range(bytes.len() as u64) as usize;
                match rng.gen_range(4) {
                    0 => bytes[at] ^= 1 << rng.gen_range(8),
                    1 => bytes.insert(at, rng.next_u64() as u8),
                    2 => drop(bytes.remove(at)),
                    _ => bytes.truncate(at),
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            let _ = toml::parse(&text);
            let Ok(spec) = SweepSpec::from_toml_str(&text) else { continue };
            accepted += 1;
            let _ = spec.expand_keyed();
            let toml_text = spec.to_toml();
            let from_toml = SweepSpec::from_toml_str(&toml_text)
                .unwrap_or_else(|e| panic!("{e}: {text:?} rendered as {toml_text:?}"));
            assert_eq!(from_toml, spec, "{text:?} rendered as {toml_text:?}");
            assert_eq!(from_toml.to_toml(), toml_text, "{text:?}");
            let json = spec.to_json().render();
            let from_json = SweepSpec::from_json_str(&json)
                .unwrap_or_else(|e| panic!("{e}: {text:?} rendered as {json:?}"));
            assert_eq!(from_json.to_json().render(), json, "{text:?}");
        }
        accepted
    }

    #[test]
    fn mutated_specs_parse_or_refuse_and_round_trip() {
        for seed in [1, 2, 3, 0x5BEC] {
            assert!(fuzz_specs(seed, 250) > 0, "seed {seed}: no mutant parsed");
        }
    }

    #[test]
    #[ignore = "long spec reader fuzz; run with --ignored (CI campaignd-smoke)"]
    fn mutated_specs_parse_or_refuse_and_round_trip_long_sweep() {
        for seed in 0..100 {
            fuzz_specs(seed, 2_000);
        }
    }

    /// A fully populated table writes exactly its declared keys and reads
    /// them back; one undeclared key is rejected by name with the
    /// allow-list spelled out.
    fn check_keys<S: Section + PartialEq + std::fmt::Debug>(full: &S) {
        let written = write_table(full);
        let mut declared: Vec<&str> = S::KEYS.iter().map(|key| key.name).collect();
        declared.sort_unstable();
        assert_eq!(written.keys().map(String::as_str).collect::<Vec<_>>(), declared);
        assert_eq!(&read_table::<S>(&written).unwrap(), full);
        let mut extra = written;
        extra.insert("zz_undeclared".to_string(), TomlValue::Bool(true));
        let err = read_table::<S>(&extra).unwrap_err();
        assert_eq!(err.path, "zz_undeclared");
        for key in declared {
            assert!(err.message.contains(key), "allow-list must name '{key}': {err}");
        }
    }

    #[test]
    fn every_table_accepts_its_declared_keys_and_rejects_others() {
        let mut rng = Xoshiro256::seed_from(0x5EC7);
        for _ in 0..20 {
            let mut spec = random_spec(&mut rng);
            // Keys that are written only when set.
            let telemetry = spec.telemetry.as_mut().unwrap();
            telemetry.spec.oracle = true;
            telemetry.spec.slowdown = true;
            check_keys(&spec);
            check_keys(spec.telemetry.as_ref().unwrap());
            check_keys(spec.system.as_ref().unwrap());
            check_keys(spec.cache.as_ref().unwrap());
            check_keys(spec.attacker.as_ref().unwrap());
            check_keys(spec.profile.as_ref().unwrap());
        }
    }

    #[test]
    fn experiment_spec_round_trips_and_resolves() {
        // A single experiment is a sweep that expands to one cell.
        let mut spec = SweepSpec::new("one-cell");
        spec.workloads = vec!["gcc_like".to_string()];
        spec.trackers = vec!["hydra".to_string()];
        spec.attacks = vec!["tailored".to_string()];
        let overrides = [("rcc_entries".to_string(), ParamValue::Int(512))];
        spec.params.insert("hydra".into(), overrides.into());
        spec.options.nrh = Some(250);
        spec.options.window_us = Some(100.0);
        spec.options.seed = Some(0xDA99E5);
        assert_eq!(SweepSpec::from_toml_str(&spec.to_toml()).unwrap(), spec);
        assert_eq!(SweepSpec::from_json_str(&spec.to_json().render()).unwrap(), spec);
        let cells = spec.expand().unwrap();
        assert_eq!(cells.len(), 1);
        let e = &cells[0];
        assert_eq!(e.tracker.key(), "hydra");
        assert_eq!(e.tracker.params()["rcc_entries"], ParamValue::Int(512));
        assert_eq!(e.cfg.nrh, 250);
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
    fn expansion_rejects_what_the_probe_build_rejected() {
        // One invalid parameter choice per tracker. Where the schema lets
        // a bad combination through (Hydra, START, DAPPER) it is one only
        // the tracker's check can reject; elsewhere every value the check
        // would reject is outside the schema's range. Expansion runs the
        // check and builds nothing, and must fail exactly as the probe
        // build it replaced did.
        let table = [
            ("none", "entries", ParamValue::Int(1)),
            ("hydra", "rcc_entries", ParamValue::Int(1000)),
            ("start", "region_lines", ParamValue::Int(100)),
            ("comet", "cms_width", ParamValue::Int(0)),
            ("abacus", "entries", ParamValue::Int(-1)),
            ("blockhammer", "cbf_hashes", ParamValue::Int(0)),
            ("para", "exponent", ParamValue::Float(0.0)),
            ("pride", "queue_depth", ParamValue::Int(0)),
            ("prac", "rmw_tax_ns", ParamValue::Float(-1.0)),
            ("dapper-s", "group_size", ParamValue::Int(100)),
            ("dapper-h", "group_size", ParamValue::Int(3)),
        ];
        let covered: Vec<&str> = table.iter().map(|(tracker, ..)| *tracker).collect();
        assert_eq!(covered, crate::registry::tracker_keys().collect::<Vec<_>>());
        let probe = sim_core::tracker::TrackerParams::new(
            500,
            sim_core::config::SystemConfig::paper_baseline().geometry,
            0,
            0,
        );
        for (tracker, key, value) in table {
            let entry = crate::registry::resolve(tracker).unwrap();
            let overrides = BTreeMap::from([(key.to_string(), value)]);
            let built = entry.build(probe, &overrides).map(drop).unwrap_err();
            assert_eq!(entry.validate(probe, &overrides), Err(built.clone()), "{tracker}");
            let mut spec = SweepSpec::new("bad-params");
            spec.workloads = vec!["gcc_like".into()];
            spec.trackers = vec![tracker.into()];
            spec.params.insert(tracker.into(), overrides);
            spec.options.nrh = Some(500);
            let err = spec.expand_keyed().map(drop).unwrap_err();
            assert_eq!(err, SpecError::Registry(built), "{tracker}");
        }
        // The defaults pass the check wherever they build.
        for entry in &crate::registry::TRACKERS {
            assert_eq!(entry.validate(probe, &BTreeMap::new()), Ok(()), "{}", entry.key);
        }
    }

    #[test]
    fn integral_float_params_survive_the_json_round_trip() {
        // JSON cannot distinguish 5 from 5.0; the round-tripped spec must
        // still compare equal (schema coercion makes them build-identical).
        let mut spec = SweepSpec::new("coerced");
        spec.workloads = vec!["gcc_like".to_string()];
        spec.trackers = vec!["prac".to_string()];
        let tax = |ns| [("rmw_tax_ns".to_string(), ParamValue::Float(ns))].into();
        spec.params.insert("prac".into(), tax(5.0));
        let back = SweepSpec::from_json_str(&spec.to_json().render()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.expand().unwrap()[0].tracker.key(), "prac");
        // A different value is a different spec.
        spec.params.insert("prac".into(), tax(5.5));
        assert_ne!(back, spec);
    }

    #[test]
    fn full_width_seeds_round_trip() {
        // Every u64 key shares one rule: past i64::MAX, which a TOML integer
        // cannot hold, it travels as a hex string (regression:
        // `recon_budget` used to wrap negative and fail to parse back).
        let mut spec = SweepSpec::new("seeds");
        spec.workloads = vec!["gcc_like".to_string()];
        spec.trackers = vec!["none".to_string()];
        spec.options.seed = Some(u64::MAX);
        spec.attacker = Some(AttackerOptions {
            knowledge: Vec::new(),
            recon_budget: Some(u64::MAX - 1),
            seed: Some(u64::MAX - 2),
        });
        assert_eq!(SweepSpec::from_toml_str(&spec.to_toml()).unwrap(), spec);
        let json_back = SweepSpec::from_json_str(&spec.to_json().render()).unwrap();
        assert_eq!(json_back, spec);
        assert_eq!(json_back.attacker.unwrap().recon_budget, Some(u64::MAX - 1));
    }

    #[test]
    fn params_for_absent_tracker_error() {
        // Refused by the reader, TOML and JSON alike, with or without
        // entries: an empty table leaves nothing in the JSON form, so a
        // check at expansion never saw it there.
        let doc = "name = \"x\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"hydra\"]\n";
        let message = "spec field 'params.comet': does not match any tracker in 'trackers'";
        for table in ["[params.comet]\n", "[params.comet]\nrat_entries = 64\n"] {
            let err = SweepSpec::from_toml_str(&format!("{doc}{table}")).unwrap_err();
            assert_eq!(err.to_string(), message);
        }
        let json = r#"{"name":"x","workloads":"gcc_like","trackers":"hydra","params":{"comet":{"rat_entries":64}}}"#;
        assert_eq!(SweepSpec::from_json_str(json).unwrap_err().to_string(), message);
        // A section naming no tracker at all is refused with the known
        // names.
        let err = SweepSpec::from_toml_str(&format!("{doc}[params.hydrra]\n")).unwrap_err();
        assert!(
            err.to_string().starts_with("spec field 'params.hydrra': unknown tracker"),
            "{err}"
        );
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
    fn the_simulation_loop_is_not_a_spec_key() {
        // The simulation loop is not a setting: `engine` is an unknown key
        // whatever it names, and the error lists the keys there are.
        let cell = "name = \"x\"\nworkloads = [\"gcc_like\"]\ntrackers = [\"none\"]\n";
        for engine in ["dense", "event-driven"] {
            let err = SweepSpec::from_toml_str(&format!("{cell}engine = \"{engine}\"\n"));
            let err = err.unwrap_err().to_string();
            assert!(err.contains("'engine'") && err.contains("unknown spec field"), "{err}");
            assert!(err.contains("allowed: name, workloads, trackers, attacks, nrh"), "{err}");
        }
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
        let err = SweepSpec::from_toml_str(&doc.replace("recorders", "recoders")).unwrap_err();
        assert!(err.to_string().contains("telemetry.recoders"), "{err}");
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

    /// A result row under the given names, every number drawn from
    /// `rng`: a third of them from the values a renderer is most likely
    /// to get wrong (non-finite floats render `null`, `-0.0`, subnormals,
    /// counts at and above 2^53).
    fn seeded_result(rng: &mut Xoshiro256, names: [&str; 3]) -> ExperimentResult {
        const FLOATS: [f64; 10] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            5e-324,
            f64::MAX,
            0.1,
            -1.5,
            1e21,
        ];
        const COUNTS: [u64; 6] = [0, 1, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX >> 2];
        let mut float = || match rng.gen_range(3) {
            0 => FLOATS[rng.gen_range(FLOATS.len() as u64) as usize],
            1 => f64::from_bits(rng.next_u64()),
            _ => rng.gen_f64(),
        };
        let (f0, f1, f2) = (float(), float(), float());
        // Pairs of counters are summed into one column, so each stays
        // below 2^62.
        let mut count = || match rng.gen_range(3) {
            0 => COUNTS[rng.gen_range(COUNTS.len() as u64) as usize],
            _ => rng.next_u64() >> rng.gen_range(64).max(2),
        };
        let mut run = RunStats {
            tracker: names[1].to_string(),
            cycles: count(),
            retired: vec![],
            core_cycles: vec![],
            mem: Default::default(),
            llc_hit_rate: f1,
            energy_mj: f2,
            oracle: None,
        };
        let mem = &mut run.mem;
        [mem.activations, mem.vrr_commands, mem.rfm_commands] = [count(), count(), count()];
        [mem.counter_reads, mem.counter_writes, mem.reset_sweeps] = [count(), count(), count()];
        ExperimentResult {
            workload: names[0].to_string(),
            tracker_name: names[1].to_string(),
            attack_name: names[2].to_string(),
            normalized_performance: f0,
            reference: run.clone(),
            run,
            telemetry: None,
        }
    }

    /// The report writer against the tree it replaced, byte for byte.
    fn assert_renders_as_its_tree(report: &SweepReport, what: &str) {
        let tree = report.to_json().render();
        assert_eq!(report.render(), tree, "{what}");
        let mut appended = String::from("prefix");
        let spec_json = report.spec.to_json().render();
        write_report(&mut appended, &report.name, &spec_json, &report.results, &report.failures);
        assert_eq!(appended, format!("prefix{tree}"), "{what}: appends");
    }

    #[test]
    fn report_writer_matches_the_tree_render_on_every_shipped_spec() {
        let mut rng = Xoshiro256::seed_from(0x2E_9027);
        let mut cells = 0;
        for file in &shipped_spec_files() {
            let text = std::fs::read_to_string(file).expect("read spec");
            let spec = SweepSpec::from_toml_str(&text).expect("spec parses");
            let results: Vec<ExperimentResult> = spec
                .expand()
                .expect("spec expands")
                .iter()
                .map(|e| {
                    let attack = format!("{:?}", e.attack);
                    seeded_result(&mut rng, [&e.workload, e.tracker.spec().name, &attack])
                })
                .collect();
            cells += results.len();
            let report = SweepReport { name: spec.name.clone(), spec, results, failures: vec![] };
            assert_renders_as_its_tree(&report, &file.display().to_string());
        }
        assert_eq!(cells, 74, "every shipped cell");
    }

    #[test]
    fn report_writer_matches_the_tree_render_on_a_seeded_matrix() {
        // Names that need every kind of escape, multi-byte text, and
        // failure rows; the spec is a seeded one with every section set.
        const NAMES: [&str; 7] =
            ["mcf_like", "quote\"d", "back\\slash", "ctl\u{1}\n\t\r", "\u{7f}é", "😀", ""];
        let mut rng = Xoshiro256::seed_from(0xB17E5);
        for round in 0..200 {
            let pick = |rng: &mut Xoshiro256| NAMES[rng.gen_range(NAMES.len() as u64) as usize];
            let mut spec = random_spec(&mut rng);
            spec.name = format!("{}-{round}", pick(&mut rng));
            let results = (0..rng.gen_range(6))
                .map(|_| {
                    let names = [pick(&mut rng), pick(&mut rng), pick(&mut rng)];
                    seeded_result(&mut rng, names)
                })
                .collect();
            let failures = (0..rng.gen_range(3))
                .map(|_| SweepError {
                    index: rng.gen_range(1 << 20) as usize,
                    cell: pick(&mut rng).to_string(),
                    message: format!("panicked: {}", pick(&mut rng)),
                })
                .collect();
            let report = SweepReport { name: spec.name.clone(), spec, results, failures };
            assert_renders_as_its_tree(&report, &format!("round {round}"));
        }
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
