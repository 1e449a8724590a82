//! A minimal TOML reader/writer for experiment spec files.
//!
//! The workspace builds offline with no serialization framework, so the
//! declarative spec layer parses its own config format. This module covers
//! the TOML subset spec files need — and rejects everything else loudly:
//!
//! * `key = value` pairs with dotted keys (`hydra.rcc_entries = 512`),
//! * `[table]` / `[nested.table]` headers and `[[array-of-tables]]`,
//! * strings (basic, with escapes), integers (decimal, `0x` hex, `_`
//!   separators), floats, booleans,
//! * arrays of values, which may span lines,
//! * `#` comments and blank lines.
//!
//! Errors carry the 1-based line number and a message naming the offending
//! token.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// A string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<TomlValue>),
    /// A (sub-)table.
    Table(BTreeMap<String, TomlValue>),
}

impl TomlValue {
    /// Member lookup on tables.
    pub fn get(&self, key: &str) -> Option<&TomlValue> {
        match self {
            TomlValue::Table(t) => t.get(key),
            _ => None,
        }
    }

    /// The kind name used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            TomlValue::Str(_) => "string",
            TomlValue::Int(_) => "integer",
            TomlValue::Float(_) => "float",
            TomlValue::Bool(_) => "boolean",
            TomlValue::Arr(_) => "array",
            TomlValue::Table(_) => "table",
        }
    }
}

/// A TOML parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct TomlError {
    /// 1-based line of the failure.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TOML error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

fn err(line: usize, message: impl Into<String>) -> TomlError {
    TomlError { line, message: message.into() }
}

/// Parses a TOML document into its root table.
pub fn parse(input: &str) -> Result<BTreeMap<String, TomlValue>, TomlError> {
    let mut root: BTreeMap<String, TomlValue> = BTreeMap::new();
    // Path of the table the current section writes into; empty = root.
    let mut section: Vec<String> = Vec::new();
    let mut section_is_array = false;

    let lines: Vec<&str> = input.lines().collect();
    let mut i = 0usize;
    while i < lines.len() {
        let lineno = i + 1;
        let line = strip_comment(lines[i]);
        let trimmed = line.trim();
        i += 1;
        if trimmed.is_empty() {
            continue;
        }
        if let Some(header) = trimmed.strip_prefix("[[") {
            let Some(name) = header.strip_suffix("]]") else {
                return Err(err(lineno, "unterminated [[header]]"));
            };
            section = parse_key_path(name.trim(), lineno)?;
            section_is_array = true;
            push_array_table(&mut root, &section, lineno)?;
            continue;
        }
        if let Some(header) = trimmed.strip_prefix('[') {
            let Some(name) = header.strip_suffix(']') else {
                return Err(err(lineno, "unterminated [header]"));
            };
            section = parse_key_path(name.trim(), lineno)?;
            section_is_array = false;
            ensure_table(&mut root, &section, lineno)?;
            continue;
        }
        let Some(eq) = find_unquoted(trimmed, '=') else {
            return Err(err(lineno, format!("expected 'key = value', got '{trimmed}'")));
        };
        let key_text = trimmed[..eq].trim();
        let mut value_text = trimmed[eq + 1..].trim().to_string();
        if value_text.is_empty() {
            return Err(err(lineno, format!("missing value for key '{key_text}'")));
        }
        // Multi-line arrays: keep consuming lines until brackets balance.
        while bracket_balance(&value_text) > 0 {
            if i >= lines.len() {
                return Err(err(lineno, format!("unterminated array for key '{key_text}'")));
            }
            value_text.push(' ');
            value_text.push_str(strip_comment(lines[i]).trim());
            i += 1;
        }
        let key_path = parse_key_path(key_text, lineno)?;
        let value = parse_value(value_text.trim(), lineno)?;
        let target = if section_is_array {
            current_array_table(&mut root, &section, lineno)?
        } else {
            walk_tables(&mut root, &section, lineno)?
        };
        insert_dotted(target, &key_path, value, lineno)?;
    }
    Ok(root)
}

/// String-state tracker shared by the line scanners: a `"` toggles string
/// mode unless it is escaped (`\"` inside a string stays part of it).
#[derive(Default)]
struct StrState {
    in_str: bool,
    escaped: bool,
}

impl StrState {
    /// Feeds one character; returns true when it is *outside* any string
    /// (and thus structurally meaningful: comment start, `=`, brackets).
    fn structural(&mut self, c: char) -> bool {
        if self.escaped {
            self.escaped = false;
            return false;
        }
        match c {
            '\\' if self.in_str => {
                self.escaped = true;
                false
            }
            '"' => {
                self.in_str = !self.in_str;
                false
            }
            _ => !self.in_str,
        }
    }
}

fn strip_comment(line: &str) -> &str {
    let mut st = StrState::default();
    for (idx, c) in line.char_indices() {
        if st.structural(c) && c == '#' {
            return &line[..idx];
        }
    }
    line
}

fn find_unquoted(s: &str, needle: char) -> Option<usize> {
    let mut st = StrState::default();
    for (idx, c) in s.char_indices() {
        if st.structural(c) && c == needle {
            return Some(idx);
        }
    }
    None
}

fn bracket_balance(s: &str) -> i64 {
    let mut depth = 0i64;
    let mut st = StrState::default();
    for c in s.chars() {
        if st.structural(c) {
            match c {
                '[' => depth += 1,
                ']' => depth -= 1,
                _ => {}
            }
        }
    }
    depth
}

fn parse_key_path(text: &str, lineno: usize) -> Result<Vec<String>, TomlError> {
    let parts: Vec<String> = text.split('.').map(|p| p.trim().to_string()).collect();
    if parts.iter().any(|p| {
        p.is_empty() || !p.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    }) {
        return Err(err(lineno, format!("invalid key '{text}' (bare keys only)")));
    }
    Ok(parts)
}

fn ensure_table<'t>(
    root: &'t mut BTreeMap<String, TomlValue>,
    path: &[String],
    lineno: usize,
) -> Result<&'t mut BTreeMap<String, TomlValue>, TomlError> {
    walk_tables(root, path, lineno)
}

fn walk_tables<'t>(
    root: &'t mut BTreeMap<String, TomlValue>,
    path: &[String],
    lineno: usize,
) -> Result<&'t mut BTreeMap<String, TomlValue>, TomlError> {
    let mut current = root;
    for part in path {
        let entry =
            current.entry(part.clone()).or_insert_with(|| TomlValue::Table(BTreeMap::new()));
        current = match entry {
            TomlValue::Table(t) => t,
            TomlValue::Arr(items) => match items.last_mut() {
                Some(TomlValue::Table(t)) => t,
                _ => return Err(err(lineno, format!("'{part}' is not a table"))),
            },
            other => {
                return Err(err(
                    lineno,
                    format!("'{part}' is already a {}, not a table", other.kind()),
                ))
            }
        };
    }
    Ok(current)
}

fn push_array_table(
    root: &mut BTreeMap<String, TomlValue>,
    path: &[String],
    lineno: usize,
) -> Result<(), TomlError> {
    let (last, prefix) = path.split_last().ok_or_else(|| err(lineno, "empty [[header]]"))?;
    let parent = walk_tables(root, prefix, lineno)?;
    let entry = parent.entry(last.clone()).or_insert_with(|| TomlValue::Arr(Vec::new()));
    match entry {
        TomlValue::Arr(items) => {
            items.push(TomlValue::Table(BTreeMap::new()));
            Ok(())
        }
        other => Err(err(lineno, format!("'{last}' is already a {}, not an array", other.kind()))),
    }
}

fn current_array_table<'t>(
    root: &'t mut BTreeMap<String, TomlValue>,
    path: &[String],
    lineno: usize,
) -> Result<&'t mut BTreeMap<String, TomlValue>, TomlError> {
    let (last, prefix) = path.split_last().ok_or_else(|| err(lineno, "empty [[header]]"))?;
    let parent = walk_tables(root, prefix, lineno)?;
    match parent.get_mut(last) {
        Some(TomlValue::Arr(items)) => match items.last_mut() {
            Some(TomlValue::Table(t)) => Ok(t),
            _ => Err(err(lineno, format!("'{last}' has no open table"))),
        },
        _ => Err(err(lineno, format!("'{last}' is not an array of tables"))),
    }
}

fn insert_dotted(
    table: &mut BTreeMap<String, TomlValue>,
    path: &[String],
    value: TomlValue,
    lineno: usize,
) -> Result<(), TomlError> {
    let (last, prefix) = path.split_last().expect("nonempty key path");
    let target = walk_tables(table, prefix, lineno)?;
    if target.insert(last.clone(), value).is_some() {
        return Err(err(lineno, format!("duplicate key '{last}'")));
    }
    Ok(())
}

fn parse_value(text: &str, lineno: usize) -> Result<TomlValue, TomlError> {
    let mut cursor = Cursor { text, pos: 0, lineno };
    cursor.skip_ws();
    let v = cursor.value()?;
    cursor.skip_ws();
    if cursor.pos != text.len() {
        return Err(err(
            lineno,
            format!("trailing characters after value: '{}'", &text[cursor.pos..]),
        ));
    }
    Ok(v)
}

struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    lineno: usize,
}

impl<'a> Cursor<'a> {
    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    fn skip_ws(&mut self) {
        while self.rest().starts_with([' ', '\t']) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<TomlValue, TomlError> {
        let rest = self.rest();
        if rest.starts_with('"') {
            return self.string();
        }
        if rest.starts_with('[') {
            return self.array();
        }
        if let Some(word) = rest.strip_prefix("true") {
            if !word.starts_with(|c: char| c.is_ascii_alphanumeric()) {
                self.pos += 4;
                return Ok(TomlValue::Bool(true));
            }
        }
        if let Some(word) = rest.strip_prefix("false") {
            if !word.starts_with(|c: char| c.is_ascii_alphanumeric()) {
                self.pos += 5;
                return Ok(TomlValue::Bool(false));
            }
        }
        self.number()
    }

    fn string(&mut self) -> Result<TomlValue, TomlError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        let mut chars = self.rest().char_indices();
        while let Some((idx, c)) = chars.next() {
            match c {
                '"' => {
                    self.pos += idx + 1;
                    return Ok(TomlValue::Str(out));
                }
                '\\' => match chars.next() {
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    other => {
                        return Err(err(
                            self.lineno,
                            format!("unsupported escape '\\{}'", other.map(|o| o.1).unwrap_or(' ')),
                        ))
                    }
                },
                c => out.push(c),
            }
        }
        Err(err(self.lineno, "unterminated string"))
    }

    fn array(&mut self) -> Result<TomlValue, TomlError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if self.rest().starts_with(']') {
                self.pos += 1;
                return Ok(TomlValue::Arr(items));
            }
            items.push(self.value()?);
            self.skip_ws();
            if self.rest().starts_with(',') {
                self.pos += 1;
            } else if !self.rest().starts_with(']') {
                return Err(err(self.lineno, "expected ',' or ']' in array"));
            }
        }
    }

    fn number(&mut self) -> Result<TomlValue, TomlError> {
        let end = self
            .rest()
            .find(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '+' | '-' | '.' | '_')))
            .map(|e| self.pos + e)
            .unwrap_or(self.text.len());
        let raw = &self.text[self.pos..end];
        if raw.is_empty() {
            return Err(err(self.lineno, format!("expected a value at '{}'", self.rest())));
        }
        let clean: String = raw.chars().filter(|&c| c != '_').collect();
        self.pos = end;
        if let Some(hex) = clean.strip_prefix("0x").or_else(|| clean.strip_prefix("0X")) {
            return i64::from_str_radix(hex, 16)
                .map(TomlValue::Int)
                .map_err(|_| err(self.lineno, format!("bad hex integer '{raw}'")));
        }
        if !clean.contains(['.', 'e', 'E']) {
            if let Ok(i) = clean.parse::<i64>() {
                return Ok(TomlValue::Int(i));
            }
        }
        clean
            .parse::<f64>()
            .map(TomlValue::Float)
            .map_err(|_| err(self.lineno, format!("bad number '{raw}'")))
    }
}

/// Renders a root table as TOML: scalar and array keys first, then
/// sub-tables as `[section]` headers and arrays of tables as `[[section]]`.
/// Output parses back to an identical tree (floats always carry a decimal
/// point or exponent so they stay floats).
pub fn render(root: &BTreeMap<String, TomlValue>) -> String {
    let mut out = String::new();
    render_table(root, &mut Vec::new(), &mut out);
    out
}

fn render_table(table: &BTreeMap<String, TomlValue>, path: &mut Vec<String>, out: &mut String) {
    for (k, v) in table {
        match v {
            TomlValue::Table(_) => {}
            TomlValue::Arr(items) if items.iter().any(|i| matches!(i, TomlValue::Table(_))) => {}
            _ => {
                out.push_str(k);
                out.push_str(" = ");
                render_value(v, out);
                out.push('\n');
            }
        }
    }
    for (k, v) in table {
        match v {
            TomlValue::Table(sub) => {
                path.push(k.clone());
                out.push_str(&format!("\n[{}]\n", path.join(".")));
                render_table(sub, path, out);
                path.pop();
            }
            TomlValue::Arr(items) if items.iter().any(|i| matches!(i, TomlValue::Table(_))) => {
                path.push(k.clone());
                for item in items {
                    if let TomlValue::Table(sub) = item {
                        out.push_str(&format!("\n[[{}]]\n", path.join(".")));
                        render_table(sub, path, out);
                    }
                }
                path.pop();
            }
            _ => {}
        }
    }
}

fn render_value(v: &TomlValue, out: &mut String) {
    match v {
        TomlValue::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        TomlValue::Int(i) => out.push_str(&i.to_string()),
        TomlValue::Float(f) => {
            let s = format!("{f}");
            out.push_str(&s);
            if !s.contains(['.', 'e', 'E', 'n', 'i']) {
                out.push_str(".0");
            }
        }
        TomlValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        TomlValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_value(item, out);
            }
            out.push(']');
        }
        TomlValue::Table(_) => unreachable!("tables render as sections"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_tables_and_dotted_keys() {
        let doc = r#"
# a spec
name = "fig09"          # trailing comment
nrh = 500
seed = 0xDA_99E5
window_us = 250.5
isolate = true
hydra.rcc_entries = 512

[params.comet]
rat_entries = 64
"#;
        let t = parse(doc).unwrap();
        assert_eq!(t["name"], TomlValue::Str("fig09".into()));
        assert_eq!(t["nrh"], TomlValue::Int(500));
        assert_eq!(t["seed"], TomlValue::Int(0xDA99E5));
        assert_eq!(t["window_us"], TomlValue::Float(250.5));
        assert_eq!(t["isolate"], TomlValue::Bool(true));
        assert_eq!(t["hydra"].get("rcc_entries"), Some(&TomlValue::Int(512)));
        assert_eq!(
            t["params"].get("comet").and_then(|c| c.get("rat_entries")),
            Some(&TomlValue::Int(64))
        );
    }

    #[test]
    fn parses_multiline_arrays_and_array_tables() {
        let doc = r#"
workloads = [
    "gcc_like",   # one per line
    "mcf_like",
]

[[trackers]]
key = "hydra"

[[trackers]]
key = "comet"
params = { }
"#;
        // Inline tables are not supported: the spec layer never emits them.
        assert!(parse(doc).is_err());
        let doc = doc.replace("params = { }\n", "");
        let t = parse(&doc).unwrap();
        assert_eq!(
            t["workloads"],
            TomlValue::Arr(vec![
                TomlValue::Str("gcc_like".into()),
                TomlValue::Str("mcf_like".into())
            ])
        );
        match &t["trackers"] {
            TomlValue::Arr(items) => {
                assert_eq!(items.len(), 2);
                assert_eq!(items[1].get("key"), Some(&TomlValue::Str("comet".into())));
            }
            other => panic!("expected array of tables, got {other:?}"),
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("a = 1\nb = \n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("'b'"), "{e}");
        let e = parse("[unclosed\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e = parse("a = 1\na = 2\n").unwrap_err();
        assert!(e.to_string().contains("duplicate key 'a'"), "{e}");
        let e = parse("k = [1, 2\n").unwrap_err();
        assert!(e.to_string().contains("unterminated array"), "{e}");
    }

    #[test]
    fn render_round_trips() {
        let doc = r#"
name = "sweep"
nrh = 500
ratio = 2.0
flags = [true, false]
words = ["a b", "c#d"]

[params.hydra]
rcc_entries = 512

[[trackers]]
key = "hydra"
weight = 1.5
"#;
        let t = parse(doc).unwrap();
        let rendered = render(&t);
        let back = parse(&rendered).unwrap_or_else(|e| panic!("{e}\n---\n{rendered}"));
        assert_eq!(back, t, "---\n{rendered}");
    }

    #[test]
    fn floats_survive_render_as_floats() {
        let mut t = BTreeMap::new();
        t.insert("x".to_string(), TomlValue::Float(4.0));
        let back = parse(&render(&t)).unwrap();
        assert_eq!(back["x"], TomlValue::Float(4.0));
    }

    #[test]
    fn hash_inside_strings_is_not_a_comment() {
        let t = parse("s = \"a#b\" # real comment\n").unwrap();
        assert_eq!(t["s"], TomlValue::Str("a#b".into()));
    }

    #[test]
    fn escaped_quotes_do_not_end_the_string() {
        // `\"` inside a string must not toggle string state: the `#`, `=`,
        // and `]` that follow are still string content.
        let t = parse("s = \"a\\\"#b\"\n").unwrap();
        assert_eq!(t["s"], TomlValue::Str("a\"#b".into()));
        let t = parse("s = \"x\\\"=y\"\n").unwrap();
        assert_eq!(t["s"], TomlValue::Str("x\"=y".into()));
        let t = parse("arr = [\"\\\"]\", \"b\"]\n").unwrap();
        assert_eq!(
            t["arr"],
            TomlValue::Arr(vec![TomlValue::Str("\"]".into()), TomlValue::Str("b".into())])
        );
        // And the renderer emits a form that parses back identically.
        let mut doc = BTreeMap::new();
        doc.insert("s".to_string(), TomlValue::Str("a\"#b\\c".into()));
        let rendered = render(&doc);
        assert_eq!(parse(&rendered).unwrap_or_else(|e| panic!("{e}\n---\n{rendered}")), doc);
    }
}
