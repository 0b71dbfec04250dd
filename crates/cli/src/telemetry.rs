//! Telemetry bootstrap shared by `aggclust` and the experiment binaries.
//!
//! Every binary reads the same observability options: `--log-level LEVEL`
//! (default `info`; the `AGGCLUST_LOG` environment variable sets the
//! default, the flag wins), `--trace-out PATH` (JSONL span/event trace),
//! `--progress` (single-line heartbeats on stderr) and `--metrics-out PATH`
//! (the JSON run report). [`init`] installs one collector, `CliCollector`,
//! that renders the stderr log, the trace and the progress lines, and
//! returns a guard that writes the run report when it drops:
//!
//! ```no_run
//! let args = aggclust_cli::args::Args::from_env();
//! let _telemetry = aggclust_cli::telemetry::init(&args).unwrap_or_else(|e| e.exit());
//! ```

use crate::args::Args;
use crate::error::CliError;
use aggclust_core::iofs;
use aggclust_core::obs::{self, Event, Level, SpanData, Value};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

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

/// Install the `CliCollector` and switch the metrics registry on when a
/// machine-readable output was requested. A bad `--log-level` (or, without
/// the flag, a bad `AGGCLUST_LOG`) is a usage error; a trace file that
/// cannot be created is an I/O error.
pub fn init(args: &Args) -> Result<Telemetry, CliError> {
    let level = match args.get("log-level") {
        Some(spec) => parse_level("--log-level", spec)?,
        None => match std::env::var_os("AGGCLUST_LOG") {
            Some(spec) => parse_level("AGGCLUST_LOG", &spec.to_string_lossy())?,
            None => Level::Info,
        },
    };
    let trace = match args.get("trace-out") {
        Some(path) => {
            let file = iofs::create("trace.create", Path::new(path))
                .map_err(|e| CliError::Io(format!("creating trace file {path}: {e}")))?;
            Some(Box::new(std::io::BufWriter::new(file)) as Box<dyn Write + Send>)
        }
        None => None,
    };
    obs::install_collector(Arc::new(CliCollector::new(
        level,
        args.flag("progress"),
        trace,
    )));
    let metrics_out = args.get("metrics-out").map(PathBuf::from);
    if metrics_out.is_some() || args.get("trace-out").is_some() {
        obs::set_metrics_enabled(true);
    }
    Ok(Telemetry { metrics_out })
}

fn parse_level(source: &str, spec: &str) -> Result<Level, CliError> {
    Level::parse(spec).ok_or_else(|| {
        CliError::Usage(format!(
            "{source} must be error, warn, info, debug or trace, got {spec:?}"
        ))
    })
}

/// The collector every binary installs. Each span and event goes, in this
/// order, to:
///
/// 1. **the stderr log**, at the `--log-level` threshold. Lines follow CLI
///    conventions, so a message routed through the log is byte-identical
///    to an `eprintln!`: errors are prefixed `error: `, warnings
///    `warning: `, info lines are bare, and `[debug] ` / `[trace] ` mark
///    the chattier levels. Span closes log at debug, span opens at trace.
///    Structured fields are appended as ` [k=v …]` only when the threshold
///    is debug or chattier — the machine-readable home for fields is the
///    trace.
/// 2. **the `--trace-out` JSONL trace**, at every level: one JSON object
///    per event, span start and span end. `tid` is
///    [`obs::current_tid`], the key for rebuilding per-thread span stacks
///    offline:
///
///    ```json
///    {"type":"event","ts_ns":123,"tid":1,"level":"info","message":"...","fields":{...}}
///    {"type":"span_start","ts_ns":123,"tid":1,"span":"balls","id":7,"fields":{...}}
///    {"type":"span_end","ts_ns":456,"tid":1,"span":"balls","id":7,"elapsed_ns":333,"fields":{...}}
///    ```
/// 3. **the `--progress` lines**: only the debug-level `progress`
///    heartbeats ([`obs::Heartbeat`]), one stderr line each, whatever the
///    log level:
///
///    ```text
///    progress: local_search 2500/5000 (50.0%) elapsed 1.2s eta 1.3s mem 12.4 MB deadline 3.0s
///    ```
pub(crate) struct CliCollector {
    level: Level,
    progress: bool,
    trace: Option<Mutex<Box<dyn Write + Send>>>,
    clock: obs::Clock,
}

impl CliCollector {
    /// Log to stderr at `level` and below, render heartbeats when
    /// `progress` is set, and write the JSONL trace into `trace` if given.
    pub(crate) fn new(level: Level, progress: bool, trace: Option<Box<dyn Write + Send>>) -> Self {
        CliCollector {
            level,
            progress,
            trace: trace.map(Mutex::new),
            clock: obs::Clock::system(),
        }
    }

    fn write_trace(&self, record: impl FnOnce() -> String) {
        if let Some(out) = &self.trace {
            let line = record();
            if let Ok(mut out) = out.lock() {
                // A full disk should not take the algorithm down with it.
                let _ = writeln!(out, "{line}");
                let _ = out.flush();
            }
        }
    }
}

impl obs::Collector for CliCollector {
    fn enabled(&self, level: Level) -> bool {
        level <= self.level || self.trace.is_some() || (self.progress && level <= Level::Debug)
    }

    fn event(&self, event: &Event<'_>) {
        if event.level <= self.level {
            let prefix = match event.level {
                Level::Error => "error: ",
                Level::Warn => "warning: ",
                Level::Info => "",
                Level::Debug => "[debug] ",
                Level::Trace => "[trace] ",
            };
            let fields = if self.level >= Level::Debug {
                fields_human(event.fields)
            } else {
                String::new()
            };
            // The stderr log IS the error-reporting path for telemetry.
            eprintln!("{prefix}{}{fields}", event.message); // lint:allow-eprintln
        }
        self.write_trace(|| {
            format!(
                "{{\"type\":\"event\",\"ts_ns\":{},\"tid\":{},\"level\":{},\"message\":{},\"fields\":{}}}",
                self.clock.now_ns(),
                obs::current_tid(),
                obs::json_string(event.level.as_str()),
                obs::json_string(event.message),
                fields_json(event.fields),
            )
        });
        if self.progress && event.level <= Level::Debug && event.message == "progress" {
            eprintln!("{}", progress_line(event.fields)); // lint:allow-eprintln
        }
    }

    fn span_start(&self, span: &SpanData) {
        if self.level >= Level::Trace {
            eprintln!(
                "[trace] span {} opened{}",
                span.name,
                fields_human(&span.fields)
            ); // lint:allow-eprintln
        }
        self.write_trace(|| {
            format!(
                "{{\"type\":\"span_start\",\"ts_ns\":{},\"tid\":{},\"span\":{},\"id\":{},\"fields\":{}}}",
                self.clock.now_ns(),
                obs::current_tid(),
                obs::json_string(span.name),
                span.id,
                fields_json(&span.fields),
            )
        });
    }

    fn span_end(&self, span: &SpanData, elapsed: Duration) {
        if self.level >= Level::Debug {
            eprintln!(
                "[debug] span {} closed in {:.3} ms{}",
                span.name,
                elapsed.as_secs_f64() * 1e3,
                fields_human(&span.fields)
            ); // lint:allow-eprintln
        }
        self.write_trace(|| {
            format!(
                "{{\"type\":\"span_end\",\"ts_ns\":{},\"tid\":{},\"span\":{},\"id\":{},\"elapsed_ns\":{},\"fields\":{}}}",
                self.clock.now_ns(),
                obs::current_tid(),
                obs::json_string(span.name),
                span.id,
                u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
                fields_json(&span.fields),
            )
        });
    }
}

fn fields_human(fields: &[(&'static str, Value)]) -> String {
    if fields.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!(" [{}]", parts.join(" "))
}

fn fields_json(fields: &[(&'static str, Value)]) -> String {
    let parts: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{}", obs::json_string(k), v.to_json()))
        .collect();
    format!("{{{}}}", parts.join(","))
}

/// One `progress:` line from a heartbeat's fields; each optional part
/// appears when the heartbeat carried it.
fn progress_line(fields: &[(&'static str, Value)]) -> String {
    let find = |key: &str| fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
    let num = |key: &str| match find(key) {
        Some(Value::U64(x)) => Some(*x),
        _ => None,
    };
    let secs = |ms: u64| format!("{:.1}s", ms as f64 / 1e3);
    let phase = match find("phase") {
        Some(Value::Str(s)) => s.as_str(),
        _ => "?",
    };
    let done = num("done").unwrap_or(0);
    let total = num("total").unwrap_or(0);
    let mut line = format!("progress: {phase} {done}/{total}");
    if total > 0 {
        line.push_str(&format!(" ({:.1}%)", 100.0 * done as f64 / total as f64));
    }
    if let Some(ms) = num("elapsed_ms") {
        line.push_str(&format!(" elapsed {}", secs(ms)));
    }
    if let Some(ms) = num("eta_ms") {
        line.push_str(&format!(" eta {}", secs(ms)));
    }
    if let Some(bytes) = num("mem_bytes") {
        line.push_str(&format!(" mem {:.1} MB", bytes as f64 / (1 << 20) as f64));
    }
    if let Some(ms) = num("deadline_remaining_ms") {
        line.push_str(&format!(" deadline {}", secs(ms)));
    }
    line
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
    use aggclust_core::obs::Collector;

    fn args(list: &[&str]) -> Args {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    // Both refusals happen before the collector is installed, so these
    // tests leave the process-wide collector alone.

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

    #[test]
    fn jsonl_sink_emits_valid_lines() {
        #[derive(Clone, Default)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Shared::default();
        // At `error` the stderr log stays silent; the trace takes every level.
        let sink = CliCollector::new(Level::Error, false, Some(Box::new(buf.clone())));
        assert!(sink.enabled(Level::Trace));
        sink.event(&Event {
            level: Level::Info,
            message: "m\"sg",
            fields: &[("k", Value::F64(0.5))],
        });
        let span = SpanData {
            name: "s",
            id: 42,
            fields: vec![("n", Value::U64(9))],
        };
        sink.span_start(&span);
        sink.span_end(&span, Duration::from_nanos(77));
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"type\":\"event\""));
        assert!(lines[0].contains("\"message\":\"m\\\"sg\""));
        assert!(lines[0].contains("\"fields\":{\"k\":0.5}"));
        assert!(lines[1].contains("\"type\":\"span_start\""));
        assert!(lines[1].contains("\"id\":42"));
        assert!(lines[2].contains("\"elapsed_ns\":77"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn outputs_filter_by_level() {
        let quiet = CliCollector::new(Level::Warn, false, None);
        assert!(quiet.enabled(Level::Warn) && !quiet.enabled(Level::Info));
        let progress = CliCollector::new(Level::Warn, true, None);
        assert!(progress.enabled(Level::Debug) && !progress.enabled(Level::Trace));
    }

    #[test]
    fn progress_line_renders_the_heartbeat_fields() {
        let fields = [
            ("phase", Value::Str("local_search".into())),
            ("done", Value::U64(2500)),
            ("total", Value::U64(5000)),
            ("elapsed_ms", Value::U64(1200)),
            ("eta_ms", Value::U64(1300)),
            ("mem_bytes", Value::U64(13 << 20)),
            ("deadline_remaining_ms", Value::U64(3000)),
        ];
        assert_eq!(
            progress_line(&fields),
            "progress: local_search 2500/5000 (50.0%) elapsed 1.2s eta 1.3s mem 13.0 MB deadline 3.0s"
        );
        assert_eq!(progress_line(&[]), "progress: ? 0/0");
    }
}
