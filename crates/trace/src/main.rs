//! `aggclust-trace` — make an aggclust run's time explainable.
//!
//! ```text
//! aggclust-trace tree --trace run.jsonl          # span tree, self/total
//! aggclust-trace fold --trace run.jsonl          # flamegraph folded stacks
//! aggclust-trace report --report run.json        # timings/faults summary
//! aggclust-trace diff --before a.json --after b.json [--fail-on-regression]
//! aggclust-trace check --report run.json [--trace run.jsonl]  # schema check
//! ```
//!
//! Inputs are the main binary's `--trace-out` JSONL stream and
//! `--metrics-out` run reports. The tool is dependency-free (including on
//! the rest of the workspace) so it keeps working on traces from any build.

mod check;
mod json;
mod report;
mod spans;

use report::{DiffOptions, RunReport};
use std::process::ExitCode;

const HELP: &str = "\
aggclust-trace — trace analysis and perf-regression diffs for aggclust runs

USAGE:
    aggclust-trace <command> [options]

COMMANDS:
    tree      Aggregated span tree with per-path count, total and self time
    fold      Flamegraph-compatible folded stacks ('path;to;span self_ns')
    report    Summarize one run report: timings table, counters, faults
    diff      Compare two run reports under a perf-gate policy
    check     Validate a run report (and its trace) against the schema,
              then print the report as one 'path value' line per leaf
    help      Show this message

TREE / FOLD OPTIONS:
    --trace PATH          JSONL trace written by 'aggclust ... --trace-out'

REPORT OPTIONS:
    --report PATH         run report written by 'aggclust ... --metrics-out'

CHECK OPTIONS:
    --report PATH         run report to validate and flatten
    --trace PATH          JSONL trace of the same run to validate too

DIFF OPTIONS:
    --before PATH         baseline run report
    --after PATH          current run report
    --counter-tolerance-pct P
                          allowed counter drift, percent (default 0: exact —
                          counters are deterministic for a pinned workload)
    --gate-counters A,B   gate only these counters (default: all); a gated
                          counter or a baseline span missing from the
                          other report fails
    --share-tolerance-pts P
                          allowed growth of a span's self-time share, in
                          percentage points (default 15; shares transfer
                          across machines, absolute times do not)
    --time-tolerance-pct P
                          also gate absolute total_ns growth over P percent
                          (off by default; same-machine comparisons only)
    --min-ns N            ignore spans with self time below N ns on both
                          sides (default 1000000)
    --fail-on-regression  exit 1 when any gated quantity is out of tolerance

EXIT CODES:
    0   success / gate passed
    1   --fail-on-regression found regressions, or check found a schema
        violation
    2   usage error
    3   I/O or parse error
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = argv.first().map(String::as_str).unwrap_or("help");
    let args = Args::parse(&argv[argv.len().min(1)..]);
    let outcome = match command {
        "tree" => cmd_tree(&args, false),
        "fold" => cmd_tree(&args, true),
        "report" => cmd_report(&args),
        "diff" => cmd_diff(&args),
        "check" => cmd_check(&args),
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(TraceError::Usage(format!(
            "unknown command {other:?}; try `aggclust-trace help`"
        ))),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {}", e.message()); // lint:allow-eprintln
            ExitCode::from(e.exit_code())
        }
    }
}

enum TraceError {
    Usage(String),
    Io(String),
    Check(String),
}

impl TraceError {
    fn exit_code(&self) -> u8 {
        match self {
            TraceError::Usage(_) => 2,
            TraceError::Io(_) => 3,
            TraceError::Check(_) => 1,
        }
    }

    fn message(&self) -> &str {
        match self {
            TraceError::Usage(m) | TraceError::Io(m) | TraceError::Check(m) => m,
        }
    }
}

/// Minimal `--flag value` / `--flag` argument store.
struct Args {
    pairs: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(argv: &[String]) -> Args {
        let mut pairs = Vec::new();
        let mut iter = argv.iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(next) if !next.starts_with("--") => iter.next().cloned(),
                    _ => None,
                };
                pairs.push((name.to_string(), value));
            }
        }
        Args { pairs }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn flag(&self, name: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == name)
    }

    fn get_f64(&self, name: &str, default: f64) -> Result<f64, TraceError> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| TraceError::Usage(format!("--{name} needs a number, got {raw:?}"))),
        }
    }

    fn get_u64(&self, name: &str, default: u64) -> Result<u64, TraceError> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| TraceError::Usage(format!("--{name} needs an integer, got {raw:?}"))),
        }
    }

    fn require(&self, name: &str) -> Result<&str, TraceError> {
        self.get(name)
            .ok_or_else(|| TraceError::Usage(format!("--{name} PATH is required")))
    }
}

fn read(path: &str) -> Result<String, TraceError> {
    std::fs::read_to_string(path).map_err(|e| TraceError::Io(format!("reading {path}: {e}")))
}

fn load_report(path: &str) -> Result<RunReport, TraceError> {
    RunReport::parse(&read(path)?).map_err(|e| TraceError::Io(format!("parsing {path}: {e}")))
}

/// Write `text` to stdout, treating a broken pipe (`... | head`) as a
/// normal end of output rather than an error.
fn emit(text: &str) -> Result<(), TraceError> {
    use std::io::Write;
    match std::io::stdout().write_all(text.as_bytes()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(TraceError::Io(format!("writing stdout: {e}"))),
    }
}

fn cmd_tree(args: &Args, folded: bool) -> Result<ExitCode, TraceError> {
    let path = args.require("trace")?;
    let stats = spans::analyze(&read(path)?);
    let mut out = String::new();
    if folded {
        out.push_str(&spans::render_folded(&stats));
    } else {
        out.push_str(&spans::render_tree(&stats));
        let mut notes = Vec::new();
        if stats.malformed_lines > 0 {
            notes.push(format!("{} malformed lines", stats.malformed_lines));
        }
        if stats.unmatched_ends > 0 {
            notes.push(format!("{} unmatched span ends", stats.unmatched_ends));
        }
        if stats.unclosed_spans > 0 {
            notes.push(format!("{} spans never closed", stats.unclosed_spans));
        }
        out.push_str(&format!(
            "{} records, {} events{}\n",
            stats.records,
            stats.events,
            if notes.is_empty() {
                String::new()
            } else {
                format!(" ({})", notes.join(", "))
            }
        ));
    }
    emit(&out)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_report(args: &Args) -> Result<ExitCode, TraceError> {
    let report = load_report(args.require("report")?)?;
    let denom = report.total_self_ns().max(1);
    let mut rows: Vec<(&String, &report::Timing)> = report.timings.iter().collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    let mut out = String::from("timings (by self time):\n");
    for (name, t) in rows {
        out.push_str(&format!(
            "  {name:<24} count {:>8}  total {:>12}  self {:>12}  max {:>12}  ({:>5.1}% self)\n",
            t.count,
            spans::human_ns(t.total_ns),
            spans::human_ns(t.self_ns),
            spans::human_ns(t.max_ns),
            100.0 * t.self_ns as f64 / denom as f64,
        ));
    }
    out.push_str("\ncounters (nonzero):\n");
    for (name, value) in report.counters.iter().filter(|(_, v)| **v > 0) {
        out.push_str(&format!("  {name:<32} {value}\n"));
    }
    if report.faults.is_empty() {
        out.push_str("\nfaults: none\n");
    } else {
        out.push_str("\nfaults injected:\n");
        for fault in &report.faults {
            out.push_str(&format!("  {fault}\n"));
        }
    }
    emit(&out)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(args: &Args) -> Result<ExitCode, TraceError> {
    let before = load_report(args.require("before")?)?;
    let after = load_report(args.require("after")?)?;
    let opts = DiffOptions {
        counter_tolerance_pct: args.get_f64("counter-tolerance-pct", 0.0)?,
        share_tolerance_pts: args.get_f64("share-tolerance-pts", 15.0)?,
        time_tolerance_pct: match args.get("time-tolerance-pct") {
            Some(_) => Some(args.get_f64("time-tolerance-pct", 0.0)?),
            None => None,
        },
        min_ns: args.get_u64("min-ns", 1_000_000)?,
        gate_counters: args
            .get("gate-counters")
            .map(|list| list.split(',').map(str::to_string).collect()),
    };
    let result = report::diff(&before, &after, &opts);
    let mut out = String::new();
    if result.lines.is_empty() {
        out.push_str("no differences\n");
    }
    for line in &result.lines {
        out.push_str(line);
        out.push('\n');
    }
    if result.regressions.is_empty() {
        out.push_str("gate: PASS\n");
        emit(&out)?;
        Ok(ExitCode::SUCCESS)
    } else {
        for regression in &result.regressions {
            out.push_str(&format!("REGRESSION: {regression}\n"));
        }
        out.push_str(&format!(
            "gate: FAIL ({} regressions)\n",
            result.regressions.len()
        ));
        emit(&out)?;
        if args.flag("fail-on-regression") {
            Ok(ExitCode::from(1))
        } else {
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn cmd_check(args: &Args) -> Result<ExitCode, TraceError> {
    let doc = check::check_report(&read(args.require("report")?)?).map_err(TraceError::Check)?;
    let mut out = check::flatten(&doc);
    if args.flag("trace") {
        let trace =
            check::check_trace(&read(args.require("trace")?)?).map_err(TraceError::Check)?;
        out.push_str(&format!(
            "trace.spans {}\ntrace.events {}\n",
            trace.spans, trace.events
        ));
    }
    emit(&out)?;
    Ok(ExitCode::SUCCESS)
}
