//! The tracker table's vocabulary: what one entry says about its tracker,
//! and how the tracker's tunable parameters are declared, validated and
//! read.
//!
//! The paper's evaluation is comparative — DAPPER against Hydra, START,
//! CoMeT, ABACuS, BlockHammer, PARA, PrIDE, and PRAC — and the design space
//! around each of those points is wide (structure sizes, probabilities,
//! reset policies). Every tracker is therefore one `const` [`TrackerSpec`]
//! kept next to its implementation: canonical key, display name, aliases,
//! whether it reserves LLC capacity, a [`ParamSpec`] schema with
//! paper-baseline defaults, a check of the parameter combinations the
//! schema cannot express, and a build function from the shared
//! [`TrackerParams`] plus its resolved [`ParamValues`]. Parameter maps are
//! validated against the schema **before** the build function runs —
//! unknown keys, type mismatches, and out-of-range values all fail with the
//! offending key in the message. The build function runs the check first,
//! so [`TrackerSpec::validate`] (schema plus check, nothing built) rejects
//! exactly what [`TrackerSpec::build`] rejects.
//!
//! `sim::registry::TRACKERS` lists every entry in the order the paper's
//! tables do; it is fixed at compile time and is the one place a tracker
//! name resolves (case and separators ignored, see [`normalize_key`]).

use crate::tracker::{RowHammerTracker, TrackerParams};
use std::collections::BTreeMap;
use std::fmt;

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

/// A parameter's kind together with its paper-baseline default.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Int(i64),
    Float(f64),
    Bool(bool),
    Str(&'static str),
}

/// Schema entry for one tunable parameter.
#[derive(Debug, Clone, Copy)]
pub struct ParamSpec {
    /// Parameter key (`rcc_entries`, `exponent`, ...).
    pub key: &'static str,
    /// One-line description.
    pub doc: &'static str,
    /// Inclusive bounds (numeric parameters).
    min: Option<f64>,
    max: Option<f64>,
    /// Allowed values (string parameters); empty = unrestricted.
    choices: &'static [&'static str],
    default: Kind,
}

impl ParamSpec {
    /// An integer parameter with a paper-baseline default.
    pub const fn int(key: &'static str, doc: &'static str, default: i64) -> Self {
        Self::new(key, doc, Kind::Int(default))
    }

    /// A float parameter with a paper-baseline default.
    pub const fn float(key: &'static str, doc: &'static str, default: f64) -> Self {
        Self::new(key, doc, Kind::Float(default))
    }

    /// A boolean parameter with a paper-baseline default.
    pub const fn flag(key: &'static str, doc: &'static str, default: bool) -> Self {
        Self::new(key, doc, Kind::Bool(default))
    }

    /// A string-choice parameter with a paper-baseline default.
    pub const fn choice(
        key: &'static str,
        doc: &'static str,
        default: &'static str,
        choices: &'static [&'static str],
    ) -> Self {
        Self { choices, ..Self::new(key, doc, Kind::Str(default)) }
    }

    const fn new(key: &'static str, doc: &'static str, default: Kind) -> Self {
        Self { key, doc, min: None, max: None, choices: &[], default }
    }

    /// Builder-style inclusive numeric range.
    pub const fn range(self, min: f64, max: f64) -> Self {
        Self { min: Some(min), max: Some(max), ..self }
    }

    /// The paper-baseline default.
    pub fn default_value(&self) -> ParamValue {
        match self.default {
            Kind::Int(i) => ParamValue::Int(i),
            Kind::Float(f) => ParamValue::Float(f),
            Kind::Bool(b) => ParamValue::Bool(b),
            Kind::Str(s) => ParamValue::Str(s.to_string()),
        }
    }

    fn check(&self, tracker: &str, value: &ParamValue) -> Result<(), RegistryError> {
        let compatible = matches!(
            (self.default, value),
            (Kind::Int(_), ParamValue::Int(_))
                | (Kind::Float(_), ParamValue::Float(_))
                | (Kind::Float(_), ParamValue::Int(_))
                | (Kind::Bool(_), ParamValue::Bool(_))
                | (Kind::Str(_), ParamValue::Str(_))
        );
        if !compatible {
            return Err(RegistryError::WrongType {
                tracker: tracker.to_string(),
                key: self.key.to_string(),
                expected: self.default_value().kind(),
                got: value.kind(),
            });
        }
        if let Some(v) = value.as_f64() {
            let below = self.min.is_some_and(|m| v < m);
            let above = self.max.is_some_and(|m| v > m);
            if below || above {
                return Err(RegistryError::OutOfRange {
                    tracker: tracker.to_string(),
                    key: self.key.to_string(),
                    value: value.clone(),
                    min: self.min,
                    max: self.max,
                });
            }
        }
        if let ParamValue::Str(s) = value {
            if !self.choices.is_empty() && !self.choices.contains(&s.as_str()) {
                return Err(RegistryError::InvalidParam {
                    tracker: tracker.to_string(),
                    key: self.key.to_string(),
                    message: format!("{s:?} is not one of {:?}", self.choices),
                });
            }
        }
        Ok(())
    }

    /// Coerces a compatible value to the schema's kind (int → float).
    fn coerce(&self, value: ParamValue) -> ParamValue {
        match (self.default, value) {
            (Kind::Float(_), ParamValue::Int(i)) => ParamValue::Float(i as f64),
            (_, v) => v,
        }
    }
}

/// A tracker's resolved parameters — schema defaults merged with validated
/// overrides — as its build function reads them. Only
/// [`TrackerSpec::build`] makes one, so every key of the schema is present
/// with the schema's kind.
#[derive(Debug)]
pub struct ParamValues(BTreeMap<String, ParamValue>);

impl ParamValues {
    fn get(&self, key: &str) -> &ParamValue {
        self.0.get(key).unwrap_or_else(|| panic!("parameter '{key}' is not in the schema"))
    }

    /// An integer parameter (panics if absent or non-integer — the schema
    /// was validated before the build function runs, so this indicates a
    /// schema bug).
    pub fn int(&self, key: &str) -> i64 {
        match self.get(key) {
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
        match self.get(key) {
            ParamValue::Float(f) => *f,
            ParamValue::Int(i) => *i as f64,
            v => panic!("parameter '{key}' is {} ({v}), expected float", v.kind()),
        }
    }

    /// A boolean parameter.
    pub fn flag(&self, key: &str) -> bool {
        match self.get(key) {
            ParamValue::Bool(b) => *b,
            v => panic!("parameter '{key}' is {} ({v}), expected bool", v.kind()),
        }
    }

    /// A string parameter.
    pub fn text(&self, key: &str) -> &str {
        match self.get(key) {
            ParamValue::Str(s) => s,
            v => panic!("parameter '{key}' is {} ({v}), expected str", v.kind()),
        }
    }
}

/// A tracker's build function: the shared build inputs and its resolved
/// parameters in, the tracker out. It may reject parameter *combinations*
/// the flat schema cannot express (e.g. a group size that must divide the
/// rows per rank).
pub type BuildFn =
    fn(TrackerParams, &ParamValues) -> Result<Box<dyn RowHammerTracker>, RegistryError>;

/// A tracker's parameter check: the combination rules its build function
/// applies, run without building anything. The build function runs the
/// same check before it allocates, so the two reject exactly the same
/// parameters with the same error.
pub type CheckFn = fn(TrackerParams, &ParamValues) -> Result<(), RegistryError>;

/// One entry of the tracker table: everything the simulator knows about a
/// tracker before it builds one.
#[derive(Debug)]
pub struct TrackerSpec {
    /// Canonical key (`hydra`, `dapper-h`, ...), the name cache keys,
    /// reports and heatmaps record.
    pub key: &'static str,
    /// Display name matching the paper's figures.
    pub name: &'static str,
    /// Further spellings the lookup accepts.
    pub aliases: &'static [&'static str],
    /// Whether the tracker reserves half the LLC (START-style); the
    /// simulator mirrors the reservation on the demand side.
    pub reserves_llc: bool,
    /// The tunable parameter schema.
    pub params: &'static [ParamSpec],
    /// Rejects the parameter combinations `factory` rejects, without
    /// building (what validating a sweep needs).
    pub check: CheckFn,
    /// Builds one instance from validated parameters.
    pub factory: BuildFn,
}

impl TrackerSpec {
    /// Every spelling that names this tracker: key, display name, aliases.
    pub fn names(&self) -> impl Iterator<Item = &'static str> {
        let aliases = self.aliases;
        [self.key, self.name].into_iter().chain(aliases.iter().copied())
    }

    /// Validates `overrides` against the schema and merges them over the
    /// defaults. Errors name the offending key.
    pub fn resolve_params(
        &self,
        overrides: &BTreeMap<String, ParamValue>,
    ) -> Result<BTreeMap<String, ParamValue>, RegistryError> {
        for (key, value) in overrides {
            let Some(spec) = self.params.iter().find(|p| p.key == key) else {
                return Err(RegistryError::UnknownParam {
                    tracker: self.key.to_string(),
                    key: key.clone(),
                    known: self.params.iter().map(|p| p.key.to_string()).collect(),
                });
            };
            spec.check(self.key, value)?;
        }
        let mut merged = BTreeMap::new();
        for p in self.params {
            let v = overrides.get(p.key).cloned().unwrap_or_else(|| p.default_value());
            merged.insert(p.key.to_string(), p.coerce(v));
        }
        Ok(merged)
    }

    /// Validates + merges `overrides` and runs the tracker's check: every
    /// error [`TrackerSpec::build`] returns for these inputs, at the cost
    /// of a few comparisons instead of a full-size tracker.
    pub fn validate(
        &self,
        params: TrackerParams,
        overrides: &BTreeMap<String, ParamValue>,
    ) -> Result<(), RegistryError> {
        let values = ParamValues(self.resolve_params(overrides)?);
        (self.check)(params, &values)
    }

    /// Validates + merges `overrides` and runs the build function.
    pub fn build(
        &self,
        params: TrackerParams,
        overrides: &BTreeMap<String, ParamValue>,
    ) -> Result<Box<dyn RowHammerTracker>, RegistryError> {
        let values = ParamValues(self.resolve_params(overrides)?);
        (self.factory)(params, &values)
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
        /// Canonical keys the table does know.
        known: Vec<String>,
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
    /// A value the build function rejected (bad combination, invalid
    /// choice, ...).
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
    /// Shorthand for build-function rejections.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::{Activation, StorageOverhead, TrackerAction};

    /// A tracker that does nothing but own a table of `entries` words.
    struct Toy {
        entries: u64,
    }

    impl RowHammerTracker for Toy {
        fn name(&self) -> &'static str {
            "Toy"
        }

        fn on_activation(&mut self, _act: Activation, _actions: &mut Vec<TrackerAction>) {}

        fn storage_overhead(&self) -> StorageOverhead {
            StorageOverhead::new(self.entries * 4, 0)
        }
    }

    const TOY: TrackerSpec = TrackerSpec {
        key: "toy",
        name: "Toy",
        aliases: &["toy-tracker"],
        reserves_llc: false,
        params: &[
            ParamSpec::int("entries", "table entries", 64).range(2.0, 1024.0),
            ParamSpec::float("prob", "sampling probability", 0.5).range(0.0, 1.0),
            ParamSpec::choice("mode", "reset mode", "soft", &["soft", "hard"]),
        ],
        check: |_p, v| {
            if v.count("entries") % 2 != 0 {
                return Err(RegistryError::invalid("toy", "entries", "must be even"));
            }
            Ok(())
        },
        factory: |p, v| {
            (TOY.check)(p, v)?;
            Ok(Box::new(Toy { entries: v.count("entries") as u64 }))
        },
    };

    fn base() -> TrackerParams {
        TrackerParams::baseline(500, 0, 1)
    }

    fn one(key: &str, value: ParamValue) -> BTreeMap<String, ParamValue> {
        BTreeMap::from([(key.to_string(), value)])
    }

    #[test]
    fn defaults_merge_and_overrides_validate() {
        let merged = TOY.resolve_params(&BTreeMap::new()).unwrap();
        assert_eq!(merged["entries"], ParamValue::Int(64));
        assert_eq!(merged["mode"], ParamValue::Str("soft".into()));

        let merged = TOY.resolve_params(&one("entries", ParamValue::Int(128))).unwrap();
        assert_eq!(merged["entries"], ParamValue::Int(128));
    }

    #[test]
    fn unknown_param_errors_name_the_key() {
        let err = TOY.resolve_params(&one("entriez", ParamValue::Int(128))).unwrap_err();
        assert!(err.to_string().contains("'entriez'"), "{err}");
        assert!(err.to_string().contains("entries"), "must list known params: {err}");
    }

    #[test]
    fn out_of_range_param_errors_name_the_key() {
        let err = TOY.resolve_params(&one("prob", ParamValue::Float(1.5))).unwrap_err();
        assert!(err.to_string().contains("'toy.prob'"), "{err}");
        assert!(err.to_string().contains("1.5"), "{err}");
    }

    #[test]
    fn wrong_type_and_bad_choice_are_rejected() {
        let err = TOY.resolve_params(&one("entries", ParamValue::Bool(true))).unwrap_err();
        assert!(err.to_string().contains("must be int"), "{err}");
        let err = TOY.resolve_params(&one("mode", ParamValue::Str("medium".into()))).unwrap_err();
        assert!(err.to_string().contains("'toy.mode'"), "{err}");
    }

    #[test]
    fn ints_coerce_into_float_params() {
        let merged = TOY.resolve_params(&one("prob", ParamValue::Int(1))).unwrap();
        assert_eq!(merged["prob"], ParamValue::Float(1.0));
    }

    #[test]
    fn factory_rejections_surface_as_invalid_param() {
        let err = match TOY.build(base(), &one("entries", ParamValue::Int(3))) {
            Err(e) => e,
            Ok(_) => panic!("odd entry count must be rejected"),
        };
        assert!(err.to_string().contains("'toy.entries'"), "{err}");
        assert!(err.to_string().contains("even"), "{err}");
        // The check alone rejects the same combination, building nothing.
        assert_eq!(TOY.validate(base(), &one("entries", ParamValue::Int(3))), Err(err));
        assert_eq!(TOY.validate(base(), &one("entries", ParamValue::Int(4))), Ok(()));
    }

    #[test]
    fn storage_model_sees_resolved_params() {
        let sram = |ov| TOY.build(base(), &ov).unwrap().storage_overhead().sram_bytes;
        assert_eq!(sram(BTreeMap::new()), 256);
        assert_eq!(sram(one("entries", ParamValue::Int(100))), 400);
    }
}
