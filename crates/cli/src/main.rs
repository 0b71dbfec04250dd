//! `aggclust` — clustering aggregation from the command line.
//!
//! ```text
//! aggclust aggregate --input clusterings.csv [options]   # find consensus
//! aggclust eval --input clusterings.csv --candidate labels.txt
//! aggclust diagnose --input clusterings.csv              # consensus health
//! aggclust demo                                          # paper Figure 1
//! ```
//!
//! The input is a label matrix: one row per object, one column per input
//! clustering, `?` or empty for a missing label. See `aggclust help`.

use aggclust_cli::args::Args;
use aggclust_cli::error::CliError;
use aggclust_cli::{csv, telemetry};
use aggclust_core::algorithms::{
    AgglomerativeParams, Algorithm, AnnealingParams, BallsParams, FurthestParams,
    LocalSearchParams, PivotParams,
};
use aggclust_core::clustering::PartialClustering;
use aggclust_core::consensus::ConsensusBuilder;
use aggclust_core::failpoint::{self, FaultPlan};
use aggclust_core::instance::MissingPolicy;
use aggclust_core::iofs;
use aggclust_core::obs;
use aggclust_core::snapshot::{load_snapshot, RetryPolicy, SnapshotLoad};
use aggclust_core::{CancelToken, RunBudget, RunStatus};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const HELP: &str = "\
aggclust — clustering aggregation (Gionis, Mannila, Tsaparas; ICDE 2005)

USAGE:
    aggclust <command> [options]

COMMANDS:
    aggregate   Aggregate the input clusterings into a consensus clustering
    eval        Evaluate a candidate clustering against the inputs
    diagnose    Report consensus health and likely outliers
    demo        Run the paper's Figure-1 worked example
    help        Show this message

COMMON OPTIONS:
    --input PATH          label-matrix file (rows = objects, columns =
                          clusterings, '?' or empty = missing label)
    --separator CHAR      field separator (default ',')
    --header              skip the first line
    --missing POLICY      coin (default, p = 0.5) | coin:P | ignore
    --threads N           worker threads for the O(n^2) kernels
                          (overrides RAYON_NUM_THREADS; default: auto)
    --log-level LEVEL     stderr verbosity: error | warn | info (default) |
                          debug | trace; the AGGCLUST_LOG environment
                          variable sets the default (same names), the
                          flag wins
    --trace-out PATH      write a machine-readable JSONL trace (one JSON
                          object per span/event) alongside the run
    --progress            render rate-limited progress heartbeats (phase,
                          done/total, ETA, tracked memory, remaining
                          deadline) as single stderr lines, without the
                          debug-level firehose
    --metrics-out PATH    write a JSON run report of the algorithm counters
                          (oracle evaluations, moves, merges, checkpoints)
    --fault-plan SPEC     arm deterministic fault injection for this run
                          (robustness testing): comma-separated clauses
                          like snapshot.rename=io_error:nth=3 or
                          snapshot.write=torn:prob=0.25:seed=7; see DESIGN.md
                          section 6i for the site catalog and grammar. The
                          AGGCLUST_FAULTS environment variable sets the
                          default, the flag wins

AGGREGATE OPTIONS:
    --algorithm NAME      agglomerative (default) | balls | furthest |
                          local-search | pivot | annealing
    --alpha X             Balls threshold (default 0.4)
    --no-refine           skip the LocalSearch refinement pass
    --exact               prefer exact branch-and-bound when n <= 24
                          (degrades to Balls with a warning when larger)
    --sample N            force SAMPLING with this sample size
    --sampling-threshold N
                          switch to SAMPLING above this many objects
                          (default 6000); raise it to keep large instances
                          on the dense or lazy path
    --seed N              RNG seed (default 0)
    --deadline-ms N       wall-clock run budget; on expiry the best
                          clustering found so far is still written
    --max-iters N         iteration budget (same anytime semantics)
    --mem-budget-mb N     tracked-memory cap; runs that would exceed it
                          degrade (dense matrix -> lazy oracle, same
                          labels; agglomerative -> sampling) instead of
                          allocating past the cap
    --checkpoint PATH     crash-safe checkpoint file, written atomically
                          while the run is in flight and deleted on
                          converged success; SIGINT also flushes a final
                          checkpoint before the anytime exit
    --checkpoint-every-ms N
                          minimum interval between checkpoints (default 250)
    --resume              resume from --checkpoint PATH if it holds a valid
                          snapshot (corrupt or missing: start fresh with a
                          warning); a resumed run produces bit-identical
                          labels to an uninterrupted one
    --output PATH         write one label per line (default: stdout)

EVAL OPTIONS:
    --candidate PATH      single-column label file to evaluate

EXIT CODES:
    0   success
    2   usage error (unknown command, a flag the command does not
        take, or a bad parameter value)
    3   I/O error reading or writing a file
    4   parse error in an input file (reported with line and column)
    5   invalid instance (e.g. inputs disagree on the object count)
    6   degenerate input (nothing to aggregate)
    7   run budget exceeded (anytime: best-so-far labels were written)
    8   cancelled (Ctrl-C: best-so-far labels and a final checkpoint
        were written)
    9   memory budget exceeded with no degraded mode available
";

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_else(|| "help".to_string());
    let args = Args::parse(argv);
    if let Err(e) = check_options(&command, &args) {
        eprintln!("error: {}", e.message()); // lint:allow-eprintln
        return ExitCode::from(e.exit_code());
    }
    // Armed for the whole process, before the trace file is created, so
    // every site the run touches is in scope (`trace.create` included);
    // dropping the guard at exit disarms them again.
    let _fault_guard = match arm_fault_plan(&args) {
        Ok(guard) => guard,
        Err(e) => {
            eprintln!("error: {}", e.message()); // lint:allow-eprintln
            return ExitCode::from(e.exit_code());
        }
    };
    let telemetry = match telemetry::init(&args) {
        Ok(telemetry) => telemetry,
        Err(e) => {
            eprintln!("error: {}", e.message()); // lint:allow-eprintln
            return ExitCode::from(e.exit_code());
        }
    };
    let run = || match command.as_str() {
        "aggregate" => cmd_aggregate(&args),
        "eval" => cmd_eval(&args),
        "diagnose" => cmd_diagnose(&args),
        "demo" => cmd_demo(),
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}; try `aggclust help`"
        ))),
    };
    // --threads takes precedence over RAYON_NUM_THREADS, which in turn
    // beats the detected core count (see aggclust_core::parallel).
    let result = match args.threads() {
        Some(t) => aggclust_core::parallel::with_num_threads(t, run),
        None => run(),
    };
    // Writes the run report (one run per invocation) before the error line.
    drop(telemetry);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message()); // lint:allow-eprintln
            ExitCode::from(e.exit_code())
        }
    }
}

/// Options every command reads: telemetry, fault injection, threads.
const GLOBAL_OPTIONS: &[&str] = &[
    "threads",
    "log-level",
    "trace-out",
    "progress",
    "metrics-out",
    "fault-plan",
];
/// Options every command that loads a label matrix reads.
const INPUT_OPTIONS: &[&str] = &[
    "input",
    "separator",
    "header",
    "missing",
    "deadline-ms",
    "max-iters",
    "mem-budget-mb",
];
const AGGREGATE_OPTIONS: &[&str] = &[
    "algorithm",
    "alpha",
    "no-refine",
    "exact",
    "sample",
    "sampling-threshold",
    "seed",
    "checkpoint",
    "checkpoint-every-ms",
    "resume",
    "output",
];

/// Refuse any `--flag` that `command` does not read, so a typo or a
/// retired option is a usage error instead of being silently ignored.
/// Unknown commands and `help` are left to the dispatcher.
fn check_options(command: &str, args: &Args) -> Result<(), CliError> {
    let (input_options, command_options): (&[&str], &[&str]) = match command {
        "aggregate" => (INPUT_OPTIONS, AGGREGATE_OPTIONS),
        "eval" => (INPUT_OPTIONS, &["candidate"]),
        "diagnose" => (INPUT_OPTIONS, &[]),
        "demo" => (&[], &[]),
        _ => return Ok(()),
    };
    let unknown = args.unknown_keys(&[GLOBAL_OPTIONS, input_options, command_options].concat());
    match unknown.first() {
        None => Ok(()),
        Some(key) => Err(CliError::Usage(format!(
            "`aggclust {command}` does not take --{key}; try `aggclust help`"
        ))),
    }
}

/// Parse the fault plan from `--fault-plan` (the flag wins) or the
/// `AGGCLUST_FAULTS` environment variable and arm it. `None` when neither
/// is set; a malformed spec is a usage error, never a silent no-op.
fn arm_fault_plan(args: &Args) -> Result<Option<failpoint::ArmedGuard>, CliError> {
    let plan = match args.get("fault-plan") {
        Some(spec) => Some(FaultPlan::parse(spec)?),
        None => FaultPlan::from_env()?,
    };
    Ok(plan.map(failpoint::arm))
}

/// Install a SIGINT handler that flips `token`, so Ctrl-C turns into a
/// cooperative cancellation: the algorithms stop at the next budget poll,
/// write a final checkpoint if one is configured, and the CLI still emits
/// the best-so-far labels before exiting 8.
///
/// The handler itself only stores to an atomic (the only thing that is
/// async-signal-safe); a small watcher thread translates the flag into the
/// `CancelToken` from normal code.
#[cfg(unix)]
fn install_sigint_cancel(token: CancelToken) {
    use std::sync::atomic::{AtomicBool, Ordering};
    static SIGINT_SEEN: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_sigint(_signum: i32) {
        SIGINT_SEEN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    // SAFETY: `signal(2)` is declared with the signature libc gives it and
    // `on_sigint` is an `extern "C" fn(i32)` that only stores to an atomic,
    // which is async-signal-safe. Installing a handler has no memory-safety
    // preconditions beyond a valid function pointer.
    unsafe {
        signal(SIGINT, on_sigint as *const () as usize);
    }
    std::thread::spawn(move || loop {
        if SIGINT_SEEN.load(Ordering::SeqCst) {
            token.cancel();
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    });
}

#[cfg(not(unix))]
fn install_sigint_cancel(_token: CancelToken) {}

/// Attempts and backoff base for transient-I/O retries (dataset reads;
/// checkpoint writes use the same policy inside `Checkpointer`).
const IO_RETRY_ATTEMPTS: u32 = 3;
const IO_RETRY_BASE: Duration = Duration::from_millis(10);

fn load_inputs(
    args: &Args,
    budget: Option<&RunBudget>,
) -> Result<Vec<PartialClustering>, CliError> {
    let path = args
        .get("input")
        .ok_or_else(|| CliError::Usage("--input PATH is required".to_string()))?;
    let policy = RetryPolicy {
        attempts: IO_RETRY_ATTEMPTS,
        base: IO_RETRY_BASE,
        jitter: true,
    };
    let text = policy
        .run_supervised(0x5eed_da7a, budget, || {
            iofs::read_to_string("cli.input", Path::new(path))
        })
        .map_err(|e| CliError::Io(format!("reading {path}: {e}")))?;
    let separator = parse_separator(args)?;
    csv::parse_label_matrix(&text, separator, args.flag("header"))
        .map_err(|e| CliError::Parse(format!("parsing {path}: {e}")))
}

fn parse_separator(args: &Args) -> Result<char, CliError> {
    match args.get("separator") {
        None => Ok(','),
        Some("\\t") | Some("tab") => Ok('\t'),
        Some(s) => {
            let mut chars = s.chars();
            match (chars.next(), chars.next()) {
                (Some(c), None) => Ok(c),
                _ => Err(CliError::Usage(format!(
                    "--separator must be one character, got {s:?}"
                ))),
            }
        }
    }
}

fn parse_policy(args: &Args) -> Result<MissingPolicy, CliError> {
    let spec = args.get("missing").unwrap_or("coin");
    match spec {
        "coin" => Ok(MissingPolicy::Coin(0.5)),
        "ignore" => Ok(MissingPolicy::Ignore),
        _ => match spec.strip_prefix("coin:") {
            Some(p) => {
                let p: f64 = p.parse().map_err(|_| {
                    CliError::Usage(format!("--missing coin:P needs a number, got {spec:?}"))
                })?;
                // try_coin rejects NaN and p outside [0, 1] as a typed error.
                Ok(MissingPolicy::try_coin(p)?)
            }
            None => Err(CliError::Usage(format!(
                "--missing must be coin, coin:P or ignore, got {spec:?}"
            ))),
        },
    }
}

fn parse_algorithm(args: &Args) -> Result<Algorithm, CliError> {
    let seed = args.get_or("seed", 0u64);
    Ok(match args.get("algorithm").unwrap_or("agglomerative") {
        "agglomerative" => Algorithm::Agglomerative(AgglomerativeParams::default()),
        "balls" => {
            let params = BallsParams::with_alpha(args.get_or("alpha", 0.4));
            params.validate()?;
            Algorithm::Balls(params)
        }
        "furthest" => Algorithm::Furthest(FurthestParams::default()),
        "local-search" => Algorithm::LocalSearch(LocalSearchParams::default()),
        "pivot" => Algorithm::Pivot(PivotParams::randomized(seed, 9)),
        "annealing" => Algorithm::Annealing(AnnealingParams {
            seed,
            ..Default::default()
        }),
        other => return Err(CliError::Usage(format!("unknown --algorithm {other:?}"))),
    })
}

fn cmd_aggregate(args: &Args) -> Result<(), CliError> {
    let cancel = CancelToken::new();
    install_sigint_cancel(cancel.clone());
    // One budget for the whole run: dataset-read retries, checkpoint-write
    // retries, and the solve itself all draw down the same deadline.
    let budget = args.run_budget().with_cancel_token(cancel);
    // Flag errors exit before the input is read and its matrix built.
    let algorithm = parse_algorithm(args)?;
    let policy = parse_policy(args)?;
    let inputs = load_inputs(args, Some(&budget))?;
    let n = inputs[0].len();
    let mut builder = ConsensusBuilder::new()
        .algorithm(algorithm)
        .missing_policy(policy)
        .refine(!args.flag("no-refine"))
        .prefer_exact(args.flag("exact"))
        .budget(budget)
        .seed(args.get_or("seed", 0u64));
    if let Some(sample) = args.get("sample") {
        let sample: usize = sample
            .parse()
            .map_err(|_| CliError::Usage("--sample must be an integer".to_string()))?;
        builder = builder.sampling_threshold(0).sample_size(sample);
    }
    if let Some(threshold) = args.get("sampling-threshold") {
        let threshold: usize = threshold
            .parse()
            .map_err(|_| CliError::Usage("--sampling-threshold must be an integer".to_string()))?;
        builder = builder.sampling_threshold(threshold);
    }
    let checkpoint_path = args.get("checkpoint").map(PathBuf::from);
    if let Some(path) = &checkpoint_path {
        let every = Duration::from_millis(args.get_or("checkpoint-every-ms", 250u64));
        builder = builder.checkpoint(path, every);
        if args.flag("resume") {
            match load_snapshot(path) {
                SnapshotLoad::Loaded(snapshot) => {
                    obs::info!(format!("resuming from checkpoint {}", path.display()));
                    builder = builder.resume_from(snapshot);
                }
                SnapshotLoad::Missing => {
                    obs::warn!(format!(
                        "no checkpoint at {}; starting fresh",
                        path.display()
                    ));
                }
                SnapshotLoad::Corrupt(reason) => {
                    obs::warn!(format!(
                        "checkpoint {} is unusable ({reason}); starting fresh",
                        path.display()
                    ));
                }
            }
        }
    } else if args.flag("resume") {
        return Err(CliError::Usage(
            "--resume requires --checkpoint PATH".to_string(),
        ));
    }
    let result = builder.try_aggregate_partial(inputs)?;
    // Degradation warnings surface through the telemetry layer: the core
    // emits each `Warning` as a warn-level event the moment it is recorded,
    // and the stderr sink renders it as the same `warning: ...` line this
    // loop used to print.
    obs::info!(format!(
        "aggregated {} objects into {} clusters{}",
        n,
        result.clustering.num_clusters(),
        if result.sampled || !result.cost.is_finite() {
            if result.sampled {
                " (sampled)".to_string()
            } else {
                String::new()
            }
        } else {
            format!(
                " (cost {:.3}, lower bound {:.3})",
                result.cost,
                result.lower_bound.unwrap_or(f64::NAN)
            )
        }
    ));
    let rendered = csv::render_labels(&result.clustering);
    match args.get("output") {
        Some(path) => {
            iofs::write("cli.output", Path::new(path), rendered)
                .map_err(|e| CliError::Io(format!("writing {path}: {e}")))?;
            obs::info!(format!("labels written to {path}"));
        }
        None => print!("{rendered}"),
    }
    match result.status {
        RunStatus::Converged => {
            // The run finished; the checkpoint has nothing left to resume.
            if let Some(path) = &checkpoint_path {
                if let Err(e) = iofs::remove_file("cli.cleanup", path) {
                    if e.kind() != std::io::ErrorKind::NotFound {
                        obs::warn!(format!(
                            "could not remove checkpoint {}: {e}",
                            path.display()
                        ));
                    }
                }
            }
            Ok(())
        }
        RunStatus::BudgetExceeded => Err(CliError::BudgetExceeded(
            "run budget exceeded; the labels above are the best found so far".to_string(),
        )),
        RunStatus::Cancelled => Err(CliError::Cancelled(
            "run cancelled; the labels above are the best found so far".to_string(),
        )),
    }
}

fn cmd_eval(args: &Args) -> Result<(), CliError> {
    let budget = args.run_budget();
    let inputs = load_inputs(args, Some(&budget))?;
    let candidate_path = args
        .get("candidate")
        .ok_or_else(|| CliError::Usage("--candidate PATH is required".to_string()))?;
    let text = iofs::read_to_string("cli.candidate", Path::new(candidate_path))
        .map_err(|e| CliError::Io(format!("{candidate_path}: {e}")))?;
    let candidate =
        csv::parse_single_clustering(&text, parse_separator(args)?, args.flag("header"))
            .map_err(|e| CliError::Parse(format!("parsing {candidate_path}: {e}")))?;
    if candidate.len() != inputs[0].len() {
        return Err(CliError::InvalidInstance(format!(
            "candidate covers {} objects, inputs cover {}",
            candidate.len(),
            inputs[0].len()
        )));
    }
    let instance = aggclust_core::instance::CorrelationInstance::try_from_partial(
        inputs,
        parse_policy(args)?,
    )?;
    // Priced on the lazy oracle: the dense matrix's bits, without its n².
    let (cost, lb) = aggclust_core::cost::cost_and_bound(&instance.lazy_oracle(), &candidate);
    println!("objects:          {}", candidate.len());
    println!("clusters:         {}", candidate.num_clusters());
    println!("cost d(C):        {cost:.4}");
    println!("lower bound:      {lb:.4}");
    println!(
        "gap to bound:     {:.2}%",
        if lb > 0.0 {
            100.0 * (cost - lb) / lb
        } else {
            0.0
        }
    );
    println!(
        "E_D = m·d(C):     {:.1}",
        cost * instance.num_clusterings() as f64
    );
    Ok(())
}

fn cmd_diagnose(args: &Args) -> Result<(), CliError> {
    let budget = args.run_budget();
    let inputs = load_inputs(args, Some(&budget))?;
    let instance = aggclust_core::instance::CorrelationInstance::try_from_partial(
        inputs,
        parse_policy(args)?,
    )?;
    let oracle = instance.dense_oracle();
    let hist = aggclust_metrics::stability::agreement_histogram(&oracle, 10);
    let total: u64 = hist.iter().sum();
    println!("pairwise distance histogram (10 bins over [0,1]):");
    for (b, &count) in hist.iter().enumerate() {
        let share = if total > 0 {
            100.0 * count as f64 / total as f64
        } else {
            0.0
        };
        let bar = "#".repeat((share / 2.0).round() as usize);
        println!(
            "  [{:.1},{:.1}) {:>7} {:>5.1}% {}",
            b as f64 / 10.0,
            (b + 1) as f64 / 10.0,
            count,
            share,
            bar
        );
    }
    let ambiguous = aggclust_metrics::stability::ambiguous_pair_fraction(&oracle, 0.25, 0.75);
    println!(
        "\nambiguous pairs (X in (0.25, 0.75)): {:.1}%",
        100.0 * ambiguous
    );
    let outliers = aggclust_metrics::stability::top_outliers(&oracle, 10.min(oracle_len(&oracle)));
    println!("top outlier candidates (object indices): {outliers:?}");
    Ok(())
}

fn oracle_len(o: &impl aggclust_core::instance::DistanceOracle) -> usize {
    o.len()
}

fn cmd_demo() -> Result<(), CliError> {
    use aggclust_core::clustering::Clustering;
    let inputs = vec![
        Clustering::from_labels(vec![0, 0, 1, 1, 2, 2]),
        Clustering::from_labels(vec![0, 1, 0, 1, 2, 3]),
        Clustering::from_labels(vec![0, 1, 0, 1, 2, 2]),
    ];
    let result = aggclust_core::consensus::aggregate(&inputs)?;
    println!("Figure 1 of the paper: 6 objects, 3 input clusterings.");
    println!(
        "consensus: {:?} with {} total disagreements (paper: 5)",
        result.clustering.labels(),
        result.disagreements
    );
    Ok(())
}
