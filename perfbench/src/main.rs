//! Consensus benchmark for the aggclust workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ls-5k --seed 1 --seconds 38 --trace 0
//! ```
//!
//! `--trace 0` times whole jobs and prints the end-to-end metrics;
//! `--trace 1` replays the job as separate library calls and prints the
//! per-layer metrics (see `perfbench/README.md`). Every job is checked;
//! the last line of standard output is the JSON result, and the process
//! exits non-zero if any job or check failed.

mod host;
mod job;
mod trace;
mod workload;

use aggclust_core::obs;
use aggclust_core::parallel::with_num_threads;
use aggclust_core::telemetry::json_string;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Metric, Value};
use workload::Spec;

/// Timed jobs per run, at least.
const MIN_JOBS: usize = 5;
/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_trace";

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("missing {key}"))
    };
    let workload = get("--workload")?;
    let spec = Spec::by_name(workload).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {workload:?}; one of {}", names.join(", "))
    })?;
    let number = |key: &str| get(key)?.parse::<u64>().map_err(|e| format!("{key}: {e}"));
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        spec,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1) as f64,
        trace,
    })
}

/// The run's inputs.
struct Setup {
    columns: Vec<Vec<Option<u32>>>,
    csv: String,
}

/// Generate and render the inputs; also the seconds it took.
fn setup(spec: &Spec, seed: u64) -> (Setup, f64) {
    let t = Instant::now();
    let columns = workload::generate(spec, seed);
    let csv = black_box(workload::render_csv(&columns));
    (Setup { columns, csv }, t.elapsed().as_secs_f64())
}

/// Everything a run prints.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    context: Vec<(&'static str, String)>,
}

impl Report {
    fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|Metric { name, unit, value }| {
                let v = match value {
                    Value::Real(x) if x.is_finite() => format!("{x:?}"),
                    Value::Real(_) => "null".to_string(),
                    Value::Count(c) => c.to_string(),
                };
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json_string(name),
                    json_string(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn context_json(&self) -> String {
        let fields: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_string(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The untraced run: one warm-up job, then timed jobs for `seconds`, each
/// preceded by a timed setup whose inputs must equal the run's.
///
/// Other tenants of the host slow jobs and setups down by up to 2.4× in
/// bursts of several seconds to over a minute, and never speed them up, so
/// `job_s` and `setup_s` are the fastest of the run's: a median moves with
/// the share of the run that fell in a burst.
fn timed_run(args: &Args, s: &Setup, first_setup_s: f64, report: &mut Report) {
    let spec = &args.spec;
    let run = || with_num_threads(spec.threads, || job::run_job(spec, &s.csv));
    let first = run();
    let ratio = first.as_ref().map_or(f64::NAN, |out| {
        job::cost_ratio(spec, args.seed, &s.columns, &out.result)
    });
    let reference = first.as_ref().ok().map(|out| out.rendered.clone());
    let mut failures = Vec::new();
    let mut record = |outcome: Result<(), String>| {
        if let Err(e) = outcome {
            failures.push(e);
        }
    };
    record(job::check_job(spec.n, &first, None, ratio));
    drop(first);

    let mut times = Vec::new();
    let mut setup_times = vec![first_setup_s];
    let start = Instant::now();
    while times.len() < MIN_JOBS || start.elapsed().as_secs_f64() < args.seconds {
        let (again, secs) = setup(spec, args.seed);
        setup_times.push(secs);
        if again.csv != s.csv {
            record(Err(format!(
                "seed {} generated different inputs",
                args.seed
            )));
        }
        drop(again);
        let t = Instant::now();
        let out = black_box(run());
        times.push(t.elapsed().as_secs_f64());
        let job_ratio = match &out {
            Ok(o) if !o.result.sampled => job::cost_ratio(spec, args.seed, &s.columns, &o.result),
            _ => ratio,
        };
        record(job::check_job(
            spec.n,
            &out,
            reference.as_deref(),
            job_ratio,
        ));
    }

    report.attempted = times.len() + 1;
    report.failed = failures.len();
    for f in failures.iter().take(3) {
        eprintln!("job failed: {f}");
    }
    let fail_ratio = report.failed as f64 / report.attempted as f64;
    let jobs: Vec<String> = times.iter().map(|t| format!("{t:?}")).collect();
    report
        .context
        .push(("job_fail_ratio", format!("{fail_ratio:?}")));
    report
        .context
        .push(("job_median_s", format!("{:?}", host::median(&times))));
    report
        .context
        .push(("job_times_s", format!("[{}]", jobs.join(","))));
    report.context.push((
        "setup_median_s",
        format!("{:?}", host::median(&setup_times)),
    ));
    match host::proc_status_mb("VmHWM") {
        Ok(peak) => {
            report.metrics = vec![
                Metric::real("job_s", "s", host::fastest(&times)),
                Metric::real("cost_ratio", "ratio", ratio),
                Metric::real("peak_rss_mb", "MB", peak),
                Metric::real("setup_s", "s", host::fastest(&setup_times)),
            ];
            report.correct = report.failed == 0;
        }
        Err(e) => eprintln!("error: {e}"),
    }
}

/// The traced run: per-layer metrics, spans written to [`TRACE_DIR`].
fn traced(args: &Args, s: &Setup, epoch: Instant, report: &mut Report) {
    let spec = &args.spec;
    let first = with_num_threads(spec.threads, || job::run_job(spec, &s.csv));
    report.attempted = 1;
    let checked = first.as_ref().map_or(f64::NAN, |out| {
        job::cost_ratio(spec, args.seed, &s.columns, &out.result)
    });
    let outcome = job::check_job(spec.n, &first, None, checked)
        .and_then(|()| {
            let reference = first.as_ref().map_err(String::clone)?;
            // Half the run alternates jobs; probes and count passes take
            // about the rest.
            let rounds_s = args.seconds / 2.0;
            trace::traced_run(
                spec, args.seed, rounds_s, &s.columns, &s.csv, reference, epoch,
            )
        })
        .and_then(|t| {
            if t.counts.cost_ratio == checked {
                Ok(t)
            } else {
                Err(format!(
                    "count pass cost ratio {} differs from the job's {checked}",
                    t.counts.cost_ratio
                ))
            }
        });
    match outcome {
        Ok(t) => {
            let path = format!("{TRACE_DIR}/{}-seed{}.json", spec.name, args.seed);
            let body = format!(
                "{{\"workload\":{},\"seed\":{},\"host\":{},\"spans\":{},\"count_spans\":{}}}\n",
                json_string(spec.name),
                args.seed,
                obs::host_report_json(),
                t.tracer.to_json(),
                t.count_tracer.to_json()
            );
            if let Err(e) =
                std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, body))
            {
                eprintln!("warning: could not write {path}: {e}");
            } else {
                report.context.push(("trace_file", json_string(&path)));
            }
            report.metrics = t.metrics;
            report.correct = true;
        }
        Err(e) => {
            eprintln!("traced run failed: {e}");
            report.failed = 1;
        }
    }
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n{e}");
            return ExitCode::from(2);
        }
    };
    let spec = args.spec;
    let spin_start = host::spin_ms();
    let (s, first_setup_s) = setup(&spec, args.seed);
    let mut report = Report {
        correct: false,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        context: vec![
            ("workload", json_string(spec.name)),
            ("seed", args.seed.to_string()),
            ("n", spec.n.to_string()),
            ("threads", spec.threads.to_string()),
            ("trace", args.trace.to_string()),
            ("host", obs::host_report_json()),
        ],
    };
    if args.trace {
        traced(&args, &s, epoch, &mut report);
    } else {
        timed_run(&args, &s, first_setup_s, &mut report);
    }
    let spin_end = host::spin_ms();
    if args.trace && report.correct {
        report
            .metrics
            .push(Metric::real("host.spin_start_ms", "ms", spin_start));
        report
            .metrics
            .push(Metric::real("host.spin_end_ms", "ms", spin_end));
    }
    report
        .context
        .push(("canary_spin_ms", format!("[{spin_start:?},{spin_end:?}]")));
    report
        .context
        .push(("run_s", format!("{:?}", epoch.elapsed().as_secs_f64())));

    for Metric { name, unit, value } in &report.metrics {
        match value {
            Value::Real(x) => eprintln!("{:<28} {x:>14.6} {unit}", name),
            Value::Count(c) => eprintln!("{:<28} {c:>14} {unit}", name),
        }
    }
    for (key, value) in &report.context {
        if *key != "host" && *key != "job_times_s" {
            eprintln!("{key:<28} {value}");
        }
    }
    println!("{}", report.context_json());
    println!("{}", report.result_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
