//! The open tracker registry: string-keyed tracker descriptors with a
//! tunable parameter schema and a build factory.
//!
//! The paper's evaluation is comparative — DAPPER against Hydra, START,
//! CoMeT, ABACuS, BlockHammer, PARA, PrIDE, and PRAC — and the design space
//! around each of those points is wide (structure sizes, probabilities,
//! reset policies). A [`TrackerRegistry`] makes every tracker constructible
//! from a **string key plus a parameter map**, so experiment sweeps,
//! declarative spec files, and third-party trackers all go through one
//! door:
//!
//! * each tracker publishes a [`TrackerSpec`]: canonical key, display name,
//!   aliases, whether it reserves LLC capacity, a
//!   [`ParamSpec`] schema with paper-baseline defaults, and a `build`
//!   factory from resolved [`TrackerParams`];
//! * lookups normalize case and separators (`DAPPER_H`, `dapper-h`, and
//!   `DapperH` resolve identically) and honour the spec's alias table;
//! * parameter maps are validated against the schema **before** the factory
//!   runs — unknown keys, type mismatches, and out-of-range values all fail
//!   with the offending key in the message.
//!
//! The registry itself lives here in `sim_core` so tracker crates can
//! register into it without depending on the simulator; `sim` assembles the
//! default instance from the built-in trackers and exposes it globally.

use crate::addr::Geometry;
use crate::tracker::{NullTracker, RowHammerTracker, StorageOverhead};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// One tunable parameter value.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// An integer (entries, ways, sizes, ...).
    Int(i64),
    /// A floating-point value (probabilities, thresholds, periods, ...).
    Float(f64),
    /// A flag.
    Bool(bool),
    /// A named choice (e.g. a reset strategy).
    Str(String),
}

impl ParamValue {
    /// The kind name used in error messages ("int", "float", ...).
    pub fn kind(&self) -> &'static str {
        match self {
            ParamValue::Int(_) => "int",
            ParamValue::Float(_) => "float",
            ParamValue::Bool(_) => "bool",
            ParamValue::Str(_) => "str",
        }
    }

    /// Numeric view (ints coerce to floats) for range checks.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ParamValue::Int(i) => Some(*i as f64),
            ParamValue::Float(f) => Some(*f),
            _ => None,
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Int(i) => write!(f, "{i}"),
            ParamValue::Float(x) => write!(f, "{x}"),
            ParamValue::Bool(b) => write!(f, "{b}"),
            ParamValue::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<i64> for ParamValue {
    fn from(v: i64) -> Self {
        ParamValue::Int(v)
    }
}
impl From<i32> for ParamValue {
    fn from(v: i32) -> Self {
        ParamValue::Int(v as i64)
    }
}
impl From<u32> for ParamValue {
    fn from(v: u32) -> Self {
        ParamValue::Int(v as i64)
    }
}
impl From<usize> for ParamValue {
    fn from(v: usize) -> Self {
        ParamValue::Int(v as i64)
    }
}
impl From<f64> for ParamValue {
    fn from(v: f64) -> Self {
        ParamValue::Float(v)
    }
}
impl From<bool> for ParamValue {
    fn from(v: bool) -> Self {
        ParamValue::Bool(v)
    }
}
impl From<&str> for ParamValue {
    fn from(v: &str) -> Self {
        ParamValue::Str(v.to_string())
    }
}
impl From<String> for ParamValue {
    fn from(v: String) -> Self {
        ParamValue::Str(v)
    }
}

/// Schema entry for one tunable parameter.
#[derive(Debug, Clone)]
pub struct ParamSpec {
    /// Parameter key (`rcc_entries`, `exponent`, ...).
    pub key: String,
    /// One-line description shown by introspection tools.
    pub doc: String,
    /// Paper-baseline default.
    pub default: ParamValue,
    /// Inclusive lower bound (numeric parameters).
    pub min: Option<f64>,
    /// Inclusive upper bound (numeric parameters).
    pub max: Option<f64>,
    /// Allowed values (string parameters); empty = unrestricted.
    pub choices: Vec<String>,
}

impl ParamSpec {
    /// An integer parameter with a paper-baseline default.
    pub fn int(key: &str, doc: &str, default: i64) -> Self {
        Self::new(key, doc, ParamValue::Int(default))
    }

    /// A float parameter with a paper-baseline default.
    pub fn float(key: &str, doc: &str, default: f64) -> Self {
        Self::new(key, doc, ParamValue::Float(default))
    }

    /// A boolean parameter with a paper-baseline default.
    pub fn flag(key: &str, doc: &str, default: bool) -> Self {
        Self::new(key, doc, ParamValue::Bool(default))
    }

    /// A string-choice parameter with a paper-baseline default.
    pub fn choice(key: &str, doc: &str, default: &str, choices: &[&str]) -> Self {
        let mut s = Self::new(key, doc, ParamValue::Str(default.to_string()));
        s.choices = choices.iter().map(|c| c.to_string()).collect();
        s
    }

    fn new(key: &str, doc: &str, default: ParamValue) -> Self {
        Self {
            key: key.to_string(),
            doc: doc.to_string(),
            default,
            min: None,
            max: None,
            choices: Vec::new(),
        }
    }

    /// Builder-style inclusive numeric range.
    pub fn range(mut self, min: f64, max: f64) -> Self {
        self.min = Some(min);
        self.max = Some(max);
        self
    }

    fn check(&self, tracker: &str, value: &ParamValue) -> Result<(), RegistryError> {
        let compatible = matches!(
            (&self.default, value),
            (ParamValue::Int(_), ParamValue::Int(_))
                | (ParamValue::Float(_), ParamValue::Float(_))
                | (ParamValue::Float(_), ParamValue::Int(_))
                | (ParamValue::Bool(_), ParamValue::Bool(_))
                | (ParamValue::Str(_), ParamValue::Str(_))
        );
        if !compatible {
            return Err(RegistryError::WrongType {
                tracker: tracker.to_string(),
                key: self.key.clone(),
                expected: self.default.kind(),
                got: value.kind(),
            });
        }
        if let Some(v) = value.as_f64() {
            let below = self.min.is_some_and(|m| v < m);
            let above = self.max.is_some_and(|m| v > m);
            if below || above {
                return Err(RegistryError::OutOfRange {
                    tracker: tracker.to_string(),
                    key: self.key.clone(),
                    value: value.clone(),
                    min: self.min,
                    max: self.max,
                });
            }
        }
        if let ParamValue::Str(s) = value {
            if !self.choices.is_empty() && !self.choices.contains(s) {
                return Err(RegistryError::InvalidParam {
                    tracker: tracker.to_string(),
                    key: self.key.clone(),
                    message: format!("{s:?} is not one of {:?}", self.choices),
                });
            }
        }
        Ok(())
    }

    /// Coerces a compatible value to the schema's kind (int → float).
    fn coerce(&self, value: ParamValue) -> ParamValue {
        match (&self.default, value) {
            (ParamValue::Float(_), ParamValue::Int(i)) => ParamValue::Float(i as f64),
            (_, v) => v,
        }
    }
}

/// Resolved build-time inputs a [`TrackerSpec`] factory receives: the
/// system-level knobs every tracker needs plus the full parameter map
/// (schema defaults merged with validated overrides).
#[derive(Debug, Clone)]
pub struct TrackerParams {
    /// RowHammer threshold N_RH.
    pub nrh: u32,
    /// DRAM organisation.
    pub geometry: Geometry,
    /// The channel this instance covers.
    pub channel: u8,
    /// Seed for all randomised internals.
    pub seed: u64,
    values: BTreeMap<String, ParamValue>,
}

impl TrackerParams {
    /// Build-time inputs with an empty parameter map (the registry merges
    /// schema defaults in before the factory ever sees it).
    pub fn new(nrh: u32, geometry: Geometry, channel: u8, seed: u64) -> Self {
        Self { nrh, geometry, channel, seed, values: BTreeMap::new() }
    }

    /// Attaches raw overrides (validated against the schema at build time).
    pub fn with_values(mut self, values: BTreeMap<String, ParamValue>) -> Self {
        self.values = values;
        self
    }

    /// The raw parameter map.
    pub fn values(&self) -> &BTreeMap<String, ParamValue> {
        &self.values
    }

    /// Looks a parameter up without panicking.
    pub fn value(&self, key: &str) -> Option<&ParamValue> {
        self.values.get(key)
    }

    fn required(&self, key: &str) -> &ParamValue {
        self.values.get(key).unwrap_or_else(|| {
            panic!("parameter '{key}' missing: factories must be called through the registry")
        })
    }

    /// An integer parameter (panics if absent or non-integer — the registry
    /// validates before the factory runs, so this indicates a schema bug).
    pub fn int(&self, key: &str) -> i64 {
        match self.required(key) {
            ParamValue::Int(i) => *i,
            v => panic!("parameter '{key}' is {} ({v}), expected int", v.kind()),
        }
    }

    /// An integer parameter as `usize`.
    pub fn count(&self, key: &str) -> usize {
        let v = self.int(key);
        usize::try_from(v).unwrap_or_else(|_| panic!("parameter '{key}' = {v} must be >= 0"))
    }

    /// A float parameter (ints coerce).
    pub fn float(&self, key: &str) -> f64 {
        match self.required(key) {
            ParamValue::Float(f) => *f,
            ParamValue::Int(i) => *i as f64,
            v => panic!("parameter '{key}' is {} ({v}), expected float", v.kind()),
        }
    }

    /// A boolean parameter.
    pub fn flag(&self, key: &str) -> bool {
        match self.required(key) {
            ParamValue::Bool(b) => *b,
            v => panic!("parameter '{key}' is {} ({v}), expected bool", v.kind()),
        }
    }

    /// A string parameter.
    pub fn text(&self, key: &str) -> &str {
        match self.required(key) {
            ParamValue::Str(s) => s,
            v => panic!("parameter '{key}' is {} ({v}), expected str", v.kind()),
        }
    }
}

/// Factory signature: resolved params in, tracker out. Factories may reject
/// parameter *combinations* the flat schema cannot express (e.g. a group
/// size that must divide the rows per rank).
pub type BuildFn =
    Box<dyn Fn(&TrackerParams) -> Result<Box<dyn RowHammerTracker>, RegistryError> + Send + Sync>;

/// Everything the registry knows about one tracker.
pub struct TrackerSpec {
    key: String,
    display_name: String,
    aliases: Vec<String>,
    reserves_llc: bool,
    params: Vec<ParamSpec>,
    build: BuildFn,
}

impl fmt::Debug for TrackerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrackerSpec")
            .field("key", &self.key)
            .field("display_name", &self.display_name)
            .field("aliases", &self.aliases)
            .field("reserves_llc", &self.reserves_llc)
            .field("params", &self.params.iter().map(|p| p.key.as_str()).collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

impl TrackerSpec {
    /// A new descriptor under a canonical key, display name, and factory.
    pub fn new<F>(key: &str, display_name: &str, build: F) -> Self
    where
        F: Fn(&TrackerParams) -> Result<Box<dyn RowHammerTracker>, RegistryError>
            + Send
            + Sync
            + 'static,
    {
        Self {
            key: key.to_string(),
            display_name: display_name.to_string(),
            aliases: Vec::new(),
            reserves_llc: false,
            params: Vec::new(),
            build: Box::new(build),
        }
    }

    /// Adds a lookup alias (normalized like any other name).
    pub fn alias(mut self, alias: &str) -> Self {
        self.aliases.push(alias.to_string());
        self
    }

    /// Marks the tracker as reserving half the LLC (START-style); the
    /// simulator mirrors the reservation on the demand side.
    pub fn reserves_llc(mut self, yes: bool) -> Self {
        self.reserves_llc = yes;
        self
    }

    /// Declares one tunable parameter.
    pub fn param(mut self, p: ParamSpec) -> Self {
        self.params.push(p);
        self
    }

    /// Canonical registry key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Display name matching the paper's figures.
    pub fn display_name(&self) -> &str {
        &self.display_name
    }

    /// Lookup aliases.
    pub fn aliases(&self) -> &[String] {
        &self.aliases
    }

    /// Whether the tracker reserves half the LLC.
    pub fn llc_reserved(&self) -> bool {
        self.reserves_llc
    }

    /// The tunable parameter schema.
    pub fn param_schema(&self) -> &[ParamSpec] {
        &self.params
    }

    /// Validates `overrides` against the schema and merges them over the
    /// defaults. Errors name the offending key.
    pub fn resolve_params(
        &self,
        overrides: &BTreeMap<String, ParamValue>,
    ) -> Result<BTreeMap<String, ParamValue>, RegistryError> {
        for (key, value) in overrides {
            let Some(spec) = self.params.iter().find(|p| &p.key == key) else {
                return Err(RegistryError::UnknownParam {
                    tracker: self.key.clone(),
                    key: key.clone(),
                    known: self.params.iter().map(|p| p.key.clone()).collect(),
                });
            };
            spec.check(&self.key, value)?;
        }
        let mut merged = BTreeMap::new();
        for p in &self.params {
            let v = overrides.get(&p.key).cloned().unwrap_or_else(|| p.default.clone());
            merged.insert(p.key.clone(), p.coerce(v));
        }
        Ok(merged)
    }

    /// Validates + merges the params carried by `base` and runs the factory.
    pub fn build(&self, base: &TrackerParams) -> Result<Box<dyn RowHammerTracker>, RegistryError> {
        let merged = self.resolve_params(&base.values)?;
        let resolved = TrackerParams {
            nrh: base.nrh,
            geometry: base.geometry,
            channel: base.channel,
            seed: base.seed,
            values: merged,
        };
        (self.build)(&resolved)
    }

    /// Storage cost for the given parameters (Table III): builds the
    /// tracker and asks it ([`RowHammerTracker::storage_overhead`] is the
    /// one storage model); parameters that do not build cost nothing.
    pub fn storage_overhead(&self, base: &TrackerParams) -> StorageOverhead {
        self.build(base).map(|t| t.storage_overhead()).unwrap_or_default()
    }
}

/// What went wrong resolving a tracker or its parameters. Every variant
/// carries the offending name/key so spec files and CLIs can point at the
/// exact line the user must fix.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// No tracker under that name or alias.
    UnknownTracker {
        /// The name that failed to resolve.
        name: String,
        /// Canonical keys the registry does know.
        known: Vec<String>,
    },
    /// A registration collided with an existing key or alias.
    DuplicateKey {
        /// The colliding (normalized) name.
        key: String,
    },
    /// A parameter key the tracker's schema does not declare.
    UnknownParam {
        /// Tracker key.
        tracker: String,
        /// The offending parameter key.
        key: String,
        /// Keys the schema does declare.
        known: Vec<String>,
    },
    /// A parameter value outside the schema's range.
    OutOfRange {
        /// Tracker key.
        tracker: String,
        /// The offending parameter key.
        key: String,
        /// The rejected value.
        value: ParamValue,
        /// Inclusive lower bound, if any.
        min: Option<f64>,
        /// Inclusive upper bound, if any.
        max: Option<f64>,
    },
    /// A parameter value of the wrong kind.
    WrongType {
        /// Tracker key.
        tracker: String,
        /// The offending parameter key.
        key: String,
        /// Kind the schema declares.
        expected: &'static str,
        /// Kind that was supplied.
        got: &'static str,
    },
    /// A value the factory rejected (bad combination, invalid choice, ...).
    InvalidParam {
        /// Tracker key.
        tracker: String,
        /// The offending parameter key.
        key: String,
        /// Why it was rejected.
        message: String,
    },
}

impl RegistryError {
    /// Shorthand for factory-side rejections.
    pub fn invalid(tracker: &str, key: &str, message: impl Into<String>) -> Self {
        RegistryError::InvalidParam {
            tracker: tracker.to_string(),
            key: key.to_string(),
            message: message.into(),
        }
    }
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownTracker { name, known } => {
                write!(f, "unknown tracker '{name}'; known: {}", known.join(", "))
            }
            RegistryError::DuplicateKey { key } => {
                write!(f, "tracker key or alias '{key}' is already registered")
            }
            RegistryError::UnknownParam { tracker, key, known } => {
                write!(
                    f,
                    "tracker '{tracker}' has no parameter '{key}'; known: {}",
                    if known.is_empty() { "(none)".to_string() } else { known.join(", ") }
                )
            }
            RegistryError::OutOfRange { tracker, key, value, min, max } => {
                write!(f, "parameter '{tracker}.{key}' = {value} out of range [")?;
                match min {
                    Some(m) => write!(f, "{m}")?,
                    None => write!(f, "-inf")?,
                }
                write!(f, ", ")?;
                match max {
                    Some(m) => write!(f, "{m}")?,
                    None => write!(f, "+inf")?,
                }
                write!(f, "]")
            }
            RegistryError::WrongType { tracker, key, expected, got } => {
                write!(f, "parameter '{tracker}.{key}' must be {expected}, got {got}")
            }
            RegistryError::InvalidParam { tracker, key, message } => {
                write!(f, "parameter '{tracker}.{key}': {message}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// Normalizes a tracker name for lookup: lowercase, alphanumerics only, so
/// `DAPPER-H`, `dapper_h`, and `DapperH` collapse to one key.
pub fn normalize_key(s: &str) -> String {
    s.chars().filter(|c| c.is_ascii_alphanumeric()).map(|c| c.to_ascii_lowercase()).collect()
}

/// An open, string-keyed collection of [`TrackerSpec`]s.
#[derive(Debug, Default)]
pub struct TrackerRegistry {
    specs: Vec<Arc<TrackerSpec>>,
    index: HashMap<String, usize>,
}

impl TrackerRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a spec, indexing its key, display name, and aliases
    /// (normalized). Fails on any collision.
    pub fn register(&mut self, spec: TrackerSpec) -> Result<(), RegistryError> {
        let mut names = vec![spec.key.clone(), spec.display_name.clone()];
        names.extend(spec.aliases.iter().cloned());
        let mut normalized: Vec<String> = names.iter().map(|n| normalize_key(n)).collect();
        normalized.sort();
        normalized.dedup();
        for n in &normalized {
            if self.index.contains_key(n) {
                return Err(RegistryError::DuplicateKey { key: n.clone() });
            }
        }
        let slot = self.specs.len();
        self.specs.push(Arc::new(spec));
        for n in normalized {
            self.index.insert(n, slot);
        }
        Ok(())
    }

    /// Looks up a spec by key, display name, or alias (case/separator
    /// insensitive).
    pub fn get(&self, name: &str) -> Option<&Arc<TrackerSpec>> {
        self.index.get(&normalize_key(name)).map(|&i| &self.specs[i])
    }

    /// [`TrackerRegistry::get`], with an error listing the known keys.
    pub fn resolve(&self, name: &str) -> Result<&Arc<TrackerSpec>, RegistryError> {
        self.get(name).ok_or_else(|| RegistryError::UnknownTracker {
            name: name.to_string(),
            known: self.keys().map(str::to_string).collect(),
        })
    }

    /// Every spec, in registration order.
    pub fn specs(&self) -> impl Iterator<Item = &Arc<TrackerSpec>> {
        self.specs.iter()
    }

    /// Canonical keys, in registration order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.specs.iter().map(|s| s.key())
    }

    /// Number of registered trackers.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Resolves `name` and builds an instance from `params` (overrides are
    /// validated against the schema first).
    pub fn build(
        &self,
        name: &str,
        params: &TrackerParams,
    ) -> Result<Box<dyn RowHammerTracker>, RegistryError> {
        self.resolve(name)?.build(params)
    }
}

/// The descriptor for the insecure baseline ([`NullTracker`]): key `none`,
/// no parameters, zero storage.
pub fn null_spec() -> TrackerSpec {
    TrackerSpec::new("none", "none", |_p| Ok(Box::new(NullTracker)))
        .alias("null")
        .alias("insecure")
        .alias("baseline")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracker that does nothing but own a table of `entries` words.
    struct Toy {
        entries: u64,
    }

    impl RowHammerTracker for Toy {
        fn name(&self) -> &'static str {
            "Toy"
        }

        fn on_activation(
            &mut self,
            _act: crate::tracker::Activation,
            _actions: &mut Vec<crate::tracker::TrackerAction>,
        ) {
        }

        fn storage_overhead(&self) -> StorageOverhead {
            StorageOverhead::new(self.entries * 4, 0)
        }
    }

    fn toy_registry() -> TrackerRegistry {
        let mut reg = TrackerRegistry::new();
        reg.register(null_spec()).unwrap();
        reg.register(
            TrackerSpec::new("toy", "Toy", |p| {
                if p.count("entries") % 2 != 0 {
                    return Err(RegistryError::invalid("toy", "entries", "must be even"));
                }
                Ok(Box::new(Toy { entries: p.count("entries") as u64 }))
            })
            .alias("toy-tracker")
            .param(ParamSpec::int("entries", "table entries", 64).range(2.0, 1024.0))
            .param(ParamSpec::float("prob", "sampling probability", 0.5).range(0.0, 1.0))
            .param(ParamSpec::choice("mode", "reset mode", "soft", &["soft", "hard"])),
        )
        .unwrap();
        reg
    }

    fn base() -> TrackerParams {
        TrackerParams::new(500, Geometry::paper_baseline(), 0, 1)
    }

    #[test]
    fn lookup_normalizes_case_and_separators() {
        let reg = toy_registry();
        for name in ["toy", "TOY", "Toy_Tracker", "toy-tracker", "NONE", "Null", "insecure"] {
            assert!(reg.get(name).is_some(), "{name} must resolve");
        }
        assert!(reg.get("unknown").is_none());
        let err = reg.resolve("unknown").unwrap_err();
        assert!(err.to_string().contains("unknown tracker 'unknown'"), "{err}");
        assert!(err.to_string().contains("toy"), "error must list known keys: {err}");
    }

    #[test]
    fn defaults_merge_and_overrides_validate() {
        let reg = toy_registry();
        let spec = reg.get("toy").unwrap();
        let merged = spec.resolve_params(&BTreeMap::new()).unwrap();
        assert_eq!(merged["entries"], ParamValue::Int(64));
        assert_eq!(merged["mode"], ParamValue::Str("soft".into()));

        let mut ov = BTreeMap::new();
        ov.insert("entries".to_string(), ParamValue::Int(128));
        let merged = spec.resolve_params(&ov).unwrap();
        assert_eq!(merged["entries"], ParamValue::Int(128));
    }

    #[test]
    fn unknown_param_errors_name_the_key() {
        let reg = toy_registry();
        let mut ov = BTreeMap::new();
        ov.insert("entriez".to_string(), ParamValue::Int(128));
        let err = reg.get("toy").unwrap().resolve_params(&ov).unwrap_err();
        assert!(err.to_string().contains("'entriez'"), "{err}");
        assert!(err.to_string().contains("entries"), "must list known params: {err}");
    }

    #[test]
    fn out_of_range_param_errors_name_the_key() {
        let reg = toy_registry();
        let mut ov = BTreeMap::new();
        ov.insert("prob".to_string(), ParamValue::Float(1.5));
        let err = reg.get("toy").unwrap().resolve_params(&ov).unwrap_err();
        assert!(err.to_string().contains("'toy.prob'"), "{err}");
        assert!(err.to_string().contains("1.5"), "{err}");
    }

    #[test]
    fn wrong_type_and_bad_choice_are_rejected() {
        let reg = toy_registry();
        let spec = reg.get("toy").unwrap();
        let mut ov = BTreeMap::new();
        ov.insert("entries".to_string(), ParamValue::Bool(true));
        let err = spec.resolve_params(&ov).unwrap_err();
        assert!(err.to_string().contains("must be int"), "{err}");
        let mut ov = BTreeMap::new();
        ov.insert("mode".to_string(), ParamValue::Str("medium".into()));
        let err = spec.resolve_params(&ov).unwrap_err();
        assert!(err.to_string().contains("'toy.mode'"), "{err}");
    }

    #[test]
    fn ints_coerce_into_float_params() {
        let reg = toy_registry();
        let mut ov = BTreeMap::new();
        ov.insert("prob".to_string(), ParamValue::Int(1));
        let merged = reg.get("toy").unwrap().resolve_params(&ov).unwrap();
        assert_eq!(merged["prob"], ParamValue::Float(1.0));
    }

    #[test]
    fn factory_rejections_surface_as_invalid_param() {
        let reg = toy_registry();
        let mut ov = BTreeMap::new();
        ov.insert("entries".to_string(), ParamValue::Int(3));
        let err = match reg.build("toy", &base().with_values(ov)) {
            Err(e) => e,
            Ok(_) => panic!("odd entry count must be rejected"),
        };
        assert!(err.to_string().contains("'toy.entries'"), "{err}");
        assert!(err.to_string().contains("even"), "{err}");
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut reg = toy_registry();
        let err = reg.register(TrackerSpec::new("TOY", "Other", |_p| Ok(Box::new(NullTracker))));
        assert_eq!(err, Err(RegistryError::DuplicateKey { key: "toy".into() }));
    }

    #[test]
    fn storage_model_sees_resolved_params() {
        let reg = toy_registry();
        let spec = reg.get("toy").unwrap();
        assert_eq!(spec.storage_overhead(&base()).sram_bytes, 256);
        let mut ov = BTreeMap::new();
        ov.insert("entries".to_string(), ParamValue::Int(100));
        assert_eq!(spec.storage_overhead(&base().with_values(ov)).sram_bytes, 400);
    }

    #[test]
    fn null_spec_builds_the_insecure_baseline() {
        let reg = toy_registry();
        let t = reg.build("none", &base()).unwrap();
        assert_eq!(t.name(), "none");
        assert_eq!(t.storage_overhead().sram_bytes, 0);
    }
}
