//! Minimal `--flag value` argument parsing (no external dependency).

/// Parsed command line: a subcommand plus `--key value` options and
/// bare `--flag` switches, in the order given.
#[derive(Debug, Clone)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    /// `(key, Some(value))` per option, `(key, None)` per switch.
    given: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parse from an iterator of arguments (excluding `argv[0]`).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut iter = args.into_iter().peekable();
        let command = iter.next().unwrap_or_else(|| "help".to_string());
        let mut given = Vec::new();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {arg:?}"));
            };
            let value = iter.next_if(|v| !v.starts_with("--"));
            given.push((key.to_string(), value));
        }
        Ok(Args { command, given })
    }

    /// The names of every option and switch given, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.given.iter().map(|(k, _)| k.as_str())
    }

    /// A required option.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// An optional option; the last one given wins.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.given
            .iter()
            .rev()
            .find(|(k, v)| k == key && v.is_some())
            .and_then(|(_, v)| v.as_deref())
    }

    /// An optional option parsed to a type.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|e| format!("--{key} {v:?}: {e}")),
        }
    }

    /// True when `--flag` was passed without a value.
    pub fn has_switch(&self, key: &str) -> bool {
        self.given.iter().any(|(k, v)| k == key && v.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Args {
        Args::parse(args.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn parses_command_and_options() {
        let a = parse(&["simulate", "--chain", "bitcoin", "--days", "7", "--verbose"]);
        assert_eq!(a.command, "simulate");
        assert_eq!(a.required("chain").unwrap(), "bitcoin");
        assert_eq!(a.get_parsed::<u32>("days").unwrap(), Some(7));
        assert!(a.has_switch("verbose"));
        assert!(!a.has_switch("quiet"));
        assert!(a.get("missing").is_none());
    }

    #[test]
    fn missing_required_errors() {
        let a = parse(&["measure"]);
        assert!(a.required("store").is_err());
    }

    #[test]
    fn bad_parse_errors() {
        let a = parse(&["x", "--days", "seven"]);
        assert!(a.get_parsed::<u32>("days").is_err());
    }

    #[test]
    fn rejects_positionals() {
        assert!(Args::parse(["x".to_string(), "oops".to_string()]).is_err());
    }

    #[test]
    fn empty_is_help() {
        let a = Args::parse(Vec::<String>::new()).unwrap();
        assert_eq!(a.command, "help");
    }

    #[test]
    fn trailing_switch_then_option() {
        let a = parse(&["x", "--flag", "--key", "v"]);
        assert!(a.has_switch("flag"));
        assert_eq!(a.get("key"), Some("v"));
    }

    #[test]
    fn names_in_order_and_last_value_wins() {
        let a = parse(&["x", "--b", "1", "--a", "--b", "2"]);
        assert_eq!(a.names().collect::<Vec<_>>(), ["b", "a", "b"]);
        assert_eq!(a.get("b"), Some("2"));
    }
}
