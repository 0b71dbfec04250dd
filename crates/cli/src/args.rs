//! A minimal `--key value` / `--flag` argument parser, shared by `aggclust`
//! and the experiment binaries (keeps the dependency surface at zero).

use std::collections::HashMap;

/// Parsed command-line options.
#[derive(Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parse from `std::env::args` (skipping the program name).
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (used by tests).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                match iter.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let value = iter.next().unwrap_or_default();
                        out.values.insert(key.to_string(), value);
                    }
                    _ => out.flags.push(key.to_string()),
                }
            }
        }
        out
    }

    /// `true` if `--name` was given without a value.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The value of `--name value`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Every `--key` given (flag or valued) that is not in `known`, sorted
    /// and listed once each so a report naming them is stable.
    pub fn unknown_keys(&self, known: &[&str]) -> Vec<&str> {
        let mut unknown: Vec<&str> = self
            .values
            .keys()
            .map(String::as_str)
            .chain(self.flags.iter().map(String::as_str))
            .filter(|key| !known.contains(key))
            .collect();
        unknown.sort_unstable();
        unknown.dedup();
        unknown
    }

    /// Parse `--name value` as a type, falling back to a default.
    ///
    /// An unparsable value prints a one-line usage error and exits with the
    /// usage code (2) — a typo never backtraces.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("error: could not parse --{name} value {v:?}"); // lint:allow-eprintln
                std::process::exit(2);
            }),
            None => default,
        }
    }

    /// Build a [`RunBudget`](aggclust_core::RunBudget) from the shared
    /// `--deadline-ms`, `--max-iters` and `--mem-budget-mb` options
    /// (unlimited when none is given).
    pub fn run_budget(&self) -> aggclust_core::RunBudget {
        let mut budget = aggclust_core::RunBudget::unlimited();
        if let Some(ms) = self.get("deadline-ms") {
            let ms: u64 = ms.parse().unwrap_or_else(|_| {
                eprintln!("error: could not parse --deadline-ms value {ms:?}"); // lint:allow-eprintln
                std::process::exit(2);
            });
            budget = budget.with_deadline_ms(ms);
        }
        if let Some(iters) = self.get("max-iters") {
            let iters: u64 = iters.parse().unwrap_or_else(|_| {
                eprintln!("error: could not parse --max-iters value {iters:?}"); // lint:allow-eprintln
                std::process::exit(2);
            });
            budget = budget.with_max_iters(iters);
        }
        if let Some(mb) = self.get("mem-budget-mb") {
            let mb: u64 = mb.parse().unwrap_or_else(|_| {
                eprintln!("error: could not parse --mem-budget-mb value {mb:?}"); // lint:allow-eprintln
                std::process::exit(2);
            });
            budget = budget.with_mem_limit_mb(mb);
        }
        budget
    }

    /// The shared `--threads N` override (0 or absent = automatic). Callers
    /// wrap their work in
    /// [`parallel::with_num_threads`](aggclust_core::parallel::with_num_threads)
    /// when this returns `Some`.
    pub fn threads(&self) -> Option<usize> {
        match self.get_or("threads", 0usize) {
            0 => None,
            t => Some(t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn values_and_flags() {
        let a = args(&["--seed", "42", "--full", "--scale", "0.5"]);
        assert_eq!(a.get("seed"), Some("42"));
        assert_eq!(a.get_or("seed", 0u64), 42);
        assert!(a.flag("full"));
        assert!(!a.flag("quick"));
        assert_eq!(a.get_or("scale", 1.0f64), 0.5);
    }

    #[test]
    fn unknown_keys_lists_flags_and_values_outside_the_known_set() {
        let a = args(&["--seed", "4", "--zeta", "1", "--full", "--alpha"]);
        assert_eq!(a.unknown_keys(&["seed", "full"]), vec!["alpha", "zeta"]);
        assert!(a
            .unknown_keys(&["alpha", "full", "seed", "zeta"])
            .is_empty());
    }

    #[test]
    fn unknown_keys_names_a_repeated_key_once() {
        let a = args(&["--zeta", "--zeta", "--alpha", "1", "--zeta"]);
        assert_eq!(a.unknown_keys(&[]), vec!["alpha", "zeta"]);
    }

    #[test]
    fn defaults() {
        let a = args(&[]);
        assert_eq!(a.get_or("seed", 7u64), 7);
        assert!(!a.flag("full"));
    }

    #[test]
    fn run_budget_defaults_to_unlimited() {
        let a = args(&[]);
        assert!(a.run_budget().is_unlimited());
    }

    #[test]
    fn run_budget_parses_shared_flags() {
        let a = args(&["--deadline-ms", "250", "--max-iters", "1000"]);
        let budget = a.run_budget();
        assert!(!budget.is_unlimited());
        assert!(budget.poll().is_ok());
    }

    #[test]
    fn run_budget_parses_memory_cap() {
        let a = args(&["--mem-budget-mb", "64"]);
        let budget = a.run_budget();
        assert_eq!(budget.mem_limit_bytes(), Some(64 << 20));
        // A memory cap alone leaves the run limits (time/iterations)
        // unlimited.
        assert!(budget.no_run_limits());
    }

    #[test]
    fn threads_zero_or_absent_means_automatic() {
        assert_eq!(args(&[]).threads(), None);
        assert_eq!(args(&["--threads", "0"]).threads(), None);
        assert_eq!(args(&["--threads", "3"]).threads(), Some(3));
    }
}
