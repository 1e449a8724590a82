//! Strict `--flag value` / `--switch` command-line parsing, shared by every
//! flag-driven binary (`redteam` and its subcommands, the figure
//! and table harnesses): a typo'd flag, a forgotten value or an
//! unparsable number fails fast instead of silently running a
//! multi-minute campaign with defaults.

use crate::json::parse_u64;
use crate::time::is_positive_us;

/// Flag/value pairs plus boolean switches, strictly parsed: unknown
/// flags and missing values fail instead of silently defaulting.
pub struct Parsed<'a> {
    pairs: Vec<(&'static str, &'a String)>,
    switches: Vec<&'static str>,
}

impl<'a> Parsed<'a> {
    /// The value of `flag`; the last occurrence of a repeated flag wins.
    pub fn get(&self, flag: &str) -> Option<&'a String> {
        self.pairs.iter().rev().find(|(f, _)| *f == flag).map(|(_, v)| *v)
    }

    /// Whether `switch` was given.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    /// The numeric value of `flag`, or `default` when absent.
    pub fn num(&self, flag: &str, default: f64) -> Result<f64, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot parse '{v}'")),
        }
    }

    /// The window length `flag` names in microseconds, or `default` when
    /// absent. It must pass [`is_positive_us`], the rule spec files apply
    /// to their `window_us` keys.
    pub fn positive_us(&self, flag: &str, default: f64) -> Result<f64, String> {
        match self.num(flag, default)? {
            us if is_positive_us(us) => Ok(us),
            us => Err(format!("{flag}: must be a positive number of microseconds, got {us}")),
        }
    }

    /// The integer value of `flag`, or `default` when absent, read by the
    /// [`parse_u64`] rule (decimal or `0x` hex). Anything else — a sign,
    /// a fraction, an exponent — and any value that does not fit `T` is
    /// an error naming the flag, never a truncation.
    pub fn int<T: TryFrom<u64>>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => parse_u64(v).and_then(|n| T::try_from(n).ok()).ok_or_else(|| {
                format!(
                    "{flag}: '{v}' is not a non-negative integer of {} bits",
                    8 * size_of::<T>()
                )
            }),
        }
    }

    /// The `--nrh` RowHammer threshold, or `default` when absent; zero is
    /// rejected (every row would flip on its first activation).
    pub fn nrh(&self, default: u32) -> Result<u32, String> {
        match self.int("--nrh", default)? {
            0 => Err("--nrh: the RowHammer threshold must be at least 1".to_string()),
            nrh => Ok(nrh),
        }
    }

    /// The `--seed` value (decimal or `0x` hex), or `default` when absent.
    pub fn seed(&self, default: u64) -> Result<u64, String> {
        self.int("--seed", default)
    }
}

/// Parses `args` against the known value-taking `flags` and boolean
/// `switches`. `--help`/`-h` anywhere yields `Err(usage)`; any other
/// `Err` is a one-line diagnostic naming the offending argument.
pub fn parse<'a>(
    args: &'a [String],
    flags: &'static [&'static str],
    switches: &'static [&'static str],
    usage: &str,
) -> Result<Parsed<'a>, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Err(usage.to_string());
    }
    let mut parsed = Parsed { pairs: Vec::new(), switches: Vec::new() };
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if let Some(&known) = switches.iter().find(|&&s| s == arg) {
            parsed.switches.push(known);
            i += 1;
            continue;
        }
        let Some(&known) = flags.iter().find(|&&f| f == arg) else {
            return Err(format!("unknown argument '{arg}' (try --help)"));
        };
        let Some(value) = args.get(i + 1) else {
            return Err(format!("{arg} requires a value"));
        };
        parsed.pairs.push((known, value));
        i += 2;
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        let hex = argv("--seed 0xDA99E5");
        let parsed = parse(&hex, &["--seed"], &[], "").unwrap();
        assert_eq!(parsed.seed(0).unwrap(), 0xDA99E5);
        let dec = argv("--seed 12345");
        let parsed = parse(&dec, &["--seed"], &[], "").unwrap();
        assert_eq!(parsed.seed(0).unwrap(), 12345);
    }

    #[test]
    fn integers_are_range_checked_not_cast() {
        let int = |value: &str| {
            let args = vec!["--n".to_string(), value.to_string()];
            parse(&args, &["--n"], &[], "").unwrap().int::<u32>("--n", 7)
        };
        assert_eq!(int("500"), Ok(500));
        assert_eq!(int("0x10"), Ok(16));
        assert_eq!(int("4294967295"), Ok(u32::MAX));
        // Each of these used to run: -7 and 1e12 saturated, 2.9 truncated.
        for bad in ["-7", "2.9", "1e12", "4294967296", "many", ""] {
            let err = int(bad).expect_err(bad);
            assert!(err.contains("--n") && err.contains(bad), "{bad}: {err}");
        }
        assert_eq!(parse(&[], &["--n"], &[], "").unwrap().int::<u32>("--n", 7), Ok(7));
        let zero = vec!["--nrh".to_string(), "0".to_string()];
        let err = parse(&zero, &["--nrh"], &[], "").unwrap().nrh(500).expect_err("zero N_RH");
        assert!(err.contains("--nrh"), "{err}");
    }
}
