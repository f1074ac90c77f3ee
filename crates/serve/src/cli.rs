//! Command-line flags for the service binaries and the bench gates.
//!
//! Every binary parses the same way: walk the arguments, take a typed
//! value after each flag that needs one, and exit 2 after printing the
//! binary's usage line on anything it cannot accept.

use std::fmt::Display;
use std::str::FromStr;

/// A binary's remaining arguments plus the usage text its errors print.
pub struct Args {
    usage: &'static str,
    rest: std::vec::IntoIter<String>,
}

impl Args {
    /// The process arguments after the program name.
    pub fn from_env(usage: &'static str) -> Self {
        Self::new(usage, std::env::args().skip(1).collect())
    }

    /// Explicit arguments (the program name already stripped).
    fn new(usage: &'static str, args: Vec<String>) -> Self {
        Self {
            usage,
            rest: args.into_iter(),
        }
    }

    /// Take and parse the value following `flag`.
    fn try_value<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let raw = self
            .rest
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        raw.parse()
            .map_err(|_| format!("{flag}: cannot parse `{raw}`"))
    }

    /// Take and parse the value following `flag`; a missing or
    /// unparsable value exits through [`Args::fail`].
    pub fn value<T: FromStr>(&mut self, flag: &str) -> T {
        self.try_value(flag).unwrap_or_else(|e| self.fail(e))
    }

    /// Print the usage line and exit 2.
    fn usage(&self) -> ! {
        eprintln!("{}", self.usage);
        std::process::exit(2);
    }

    /// Print `message`, then the usage line, and exit 2.
    pub fn fail(&self, message: impl Display) -> ! {
        eprintln!("{message}");
        self.usage();
    }

    /// The catch-all arm of a flag match: `--help`/`-h` print the usage,
    /// anything else is reported as an unknown flag first. Exits 2.
    pub fn unknown(&self, flag: &str) -> ! {
        match flag {
            "--help" | "-h" => self.usage(),
            other => self.fail(format!("unknown flag `{other}`")),
        }
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.rest.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::new("usage: test", v.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn values_parse_in_order() {
        let mut a = args(&["--items", "12", "--alpha", "1.5", "--strict"]);
        assert_eq!(a.next().as_deref(), Some("--items"));
        assert_eq!(a.try_value::<u64>("--items"), Ok(12));
        assert_eq!(a.next().as_deref(), Some("--alpha"));
        assert_eq!(a.try_value::<f64>("--alpha"), Ok(1.5));
        assert_eq!(a.next().as_deref(), Some("--strict"));
        assert_eq!(a.next(), None);
    }

    #[test]
    fn missing_value_is_rejected() {
        let mut a = args(&["--items"]);
        a.next();
        assert_eq!(
            a.try_value::<u64>("--items"),
            Err("--items needs a value".to_string())
        );
    }

    #[test]
    fn unparsable_value_is_rejected() {
        let mut a = args(&["--items", "ten"]);
        a.next();
        assert_eq!(
            a.try_value::<u64>("--items"),
            Err("--items: cannot parse `ten`".to_string())
        );
    }
}
