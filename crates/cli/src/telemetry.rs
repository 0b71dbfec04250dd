//! Telemetry bootstrap shared by `aggclust` and the experiment binaries.
//!
//! Every binary reads the same observability options: `--log-level LEVEL`
//! (default `info`; the `AGGCLUST_LOG` environment variable sets the
//! default, the flag wins), `--trace-out PATH` (JSONL span/event trace),
//! `--progress` (single-line heartbeats on stderr) and `--metrics-out PATH`
//! (the JSON run report). [`init`] installs the sinks and returns a guard
//! that writes the run report when it drops:
//!
//! ```no_run
//! let args = aggclust_cli::args::Args::from_env();
//! let _telemetry = aggclust_cli::telemetry::init(&args).unwrap_or_else(|e| e.exit());
//! ```

use crate::args::Args;
use crate::error::CliError;
use aggclust_core::{iofs, obs};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Writes the `--metrics-out` run report when dropped. The report covers
/// the whole process, so it is written even when the run tripped its
/// budget — the counters then describe the partial work, which is exactly
/// what a post-mortem wants. A path that exits through
/// [`CliError::exit`] skips it.
pub struct Telemetry {
    metrics_out: Option<PathBuf>,
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        if let Some(path) = self.metrics_out.take() {
            write_run_report(&path);
        }
    }
}

/// Install the stderr logger (and the optional JSONL trace and progress
/// sinks) and switch the metrics registry on when a machine-readable output
/// was requested. A bad `--log-level` is a usage error; a trace file that
/// cannot be created is an I/O error.
pub fn init(args: &Args) -> Result<Telemetry, CliError> {
    let level = match args.get("log-level") {
        Some(spec) => obs::Level::parse(spec).ok_or_else(|| {
            CliError::Usage(format!(
                "--log-level must be error, warn, info, debug or trace, got {spec:?}"
            ))
        })?,
        None => obs::Level::from_env().unwrap_or(obs::Level::Info),
    };
    let stderr_sink: Arc<dyn obs::Collector> = Arc::new(obs::StderrSink::new(level));
    let mut extra_sinks: Vec<Arc<dyn obs::Collector>> = Vec::new();
    if let Some(path) = args.get("trace-out") {
        let trace = obs::JsonlSink::to_file(Path::new(path), obs::Level::Trace)
            .map_err(|e| CliError::Io(format!("creating trace file {path}: {e}")))?;
        extra_sinks.push(Arc::new(trace));
    }
    // The heartbeat renderer rides next to the human logger: it only
    // reacts to `progress` events, so the stderr log stays at `level`.
    if args.flag("progress") {
        extra_sinks.push(Arc::new(obs::ProgressSink::new()));
    }
    if extra_sinks.is_empty() {
        obs::install_collector(stderr_sink);
    } else {
        let mut tee = obs::TeeCollector::new();
        tee.push(stderr_sink);
        for sink in extra_sinks {
            tee.push(sink);
        }
        obs::install_collector(Arc::new(tee));
    }
    let metrics_out = args.get("metrics-out").map(PathBuf::from);
    if metrics_out.is_some() || args.get("trace-out").is_some() {
        obs::set_metrics_enabled(true);
    }
    Ok(Telemetry { metrics_out })
}

/// Write the final run report: host metadata (arch, CPU count, SIMD
/// features and selected kernel tier) plus every counter, gauge, and
/// histogram in the metrics registry as one stable JSON object. Failures
/// are reported but never change the exit code — the labels are the
/// contract, the report is advisory.
fn write_run_report(path: &Path) {
    let mut json = obs::run_report_json();
    json.push('\n');
    if let Err(e) = iofs::write("cli.metrics", path, json) {
        obs::warn!(format!(
            "could not write metrics report {}: {e}",
            path.display()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    // Both refusals happen before any sink is installed, so these tests
    // leave the process-wide collector alone.

    #[test]
    fn a_bad_log_level_is_a_usage_error() {
        let err = init(&args(&["--log-level", "loud"])).err();
        assert!(matches!(err, Some(CliError::Usage(_))), "{err:?}");
        assert_eq!(err.map(|e| e.exit_code()), Some(2));
    }

    #[test]
    fn an_uncreatable_trace_file_is_an_io_error() {
        let path = std::env::temp_dir().join("aggclust-no-such-dir/trace.jsonl");
        let path = path.to_string_lossy();
        let err = init(&args(&["--trace-out", &path])).err();
        assert!(matches!(err, Some(CliError::Io(_))), "{err:?}");
        assert_eq!(err.map(|e| e.exit_code()), Some(3));
    }
}
