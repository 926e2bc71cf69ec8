//! A small dependency-free flag parser: `--name value` pairs plus a leading
//! subcommand.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command line: a subcommand and its `--flag value` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    command: Option<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Error raised while parsing or reading arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// A `--flag` appeared at the end without a value and is not a known
    /// boolean flag.
    MissingValue(String),
    /// A value could not be parsed as the requested type.
    BadValue {
        /// The flag name.
        flag: String,
        /// The raw value.
        value: String,
    },
    /// An unexpected free-standing token.
    Unexpected(String),
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::MissingValue(flag) => write!(f, "flag --{flag} needs a value"),
            ArgsError::BadValue { flag, value } => {
                write!(f, "cannot parse --{flag} value {value:?}")
            }
            ArgsError::Unexpected(tok) => write!(f, "unexpected argument {tok:?}"),
        }
    }
}

impl std::error::Error for ArgsError {}

/// Flags that take no value.
const BOOLEAN_FLAGS: &[&str] = &["json", "help", "stdio"];

impl Args {
    /// Parses a token stream (excluding the program name).
    ///
    /// # Errors
    ///
    /// [`ArgsError`] on malformed input.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Args, ArgsError> {
        let mut out = Args::default();
        let mut it = tokens.into_iter().peekable();
        if let Some(first) = it.peek() {
            if !first.starts_with("--") {
                out.command = it.next();
            }
        }
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(ArgsError::Unexpected(tok));
            };
            if BOOLEAN_FLAGS.contains(&name) {
                out.flags.push(name.to_string());
                continue;
            }
            match it.next() {
                Some(v) if !v.starts_with("--") => {
                    out.options.insert(name.to_string(), v);
                }
                _ => return Err(ArgsError::MissingValue(name.to_string())),
            }
        }
        Ok(out)
    }

    /// The subcommand, if any.
    pub fn command(&self) -> Option<&str> {
        self.command.as_deref()
    }

    /// Whether a boolean flag was present.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// A string option.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.options.get(flag).map(String::as_str)
    }

    /// A parsed option with a default.
    ///
    /// # Errors
    ///
    /// [`ArgsError::BadValue`] when present but unparsable.
    pub fn get_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, ArgsError> {
        match self.options.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgsError::BadValue {
                flag: flag.to_string(),
                value: v.clone(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(toks: &[&str]) -> Result<Args, ArgsError> {
        Args::parse(toks.iter().map(|s| s.to_string()))
    }

    #[test]
    fn command_and_options() {
        let a = parse(&["admission", "--flows", "8", "--metric", "e2eTD", "--json"]).unwrap();
        assert_eq!(a.command(), Some("admission"));
        assert_eq!(a.get_or("flows", 0usize).unwrap(), 8);
        assert_eq!(a.get("metric"), Some("e2eTD"));
        assert!(a.has("json"));
        assert!(!a.has("help"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse(&["topology"]).unwrap();
        assert_eq!(a.get_or("nodes", 30usize).unwrap(), 30);
        assert_eq!(a.get_or("width", 400.0f64).unwrap(), 400.0);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(matches!(
            parse(&["x", "--seed"]),
            Err(ArgsError::MissingValue(f)) if f == "seed"
        ));
        assert!(matches!(
            parse(&["x", "--seed", "--json"]),
            Err(ArgsError::MissingValue(_))
        ));
    }

    #[test]
    fn bad_value_is_an_error() {
        let a = parse(&["x", "--seed", "abc"]).unwrap();
        assert!(matches!(
            a.get_or("seed", 0u64),
            Err(ArgsError::BadValue { .. })
        ));
    }

    #[test]
    fn unexpected_positional_is_an_error() {
        assert!(matches!(
            parse(&["cmd", "stray"]),
            Err(ArgsError::Unexpected(_))
        ));
    }

    #[test]
    fn no_command_means_none() {
        let a = parse(&["--json"]).unwrap();
        assert_eq!(a.command(), None);
        assert!(a.has("json"));
    }
}
