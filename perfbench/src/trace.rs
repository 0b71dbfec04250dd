//! The traced run: one job replayed as separate calls into the public API
//! of `aggclust-core` and `aggclust-cli`, each call recorded as a span.
//!
//! Spans are taken from outside the program, around each call, and kept
//! in memory until the run writes them out. Timings come from passes with
//! the program's metrics registry off; counts come from separate passes
//! with it on, because the registry adds an atomic add per distance read.

use crate::host;
use crate::job::{self, JobOutput};
use crate::workload::{self, Pipeline, Spec};
use aggclust_cli::csv;
use aggclust_core::algorithms::local_search::{local_search_budgeted, local_search_from_budgeted};
use aggclust_core::algorithms::sampling::{sampling_with_details, SamplingParams};
use aggclust_core::algorithms::{AgglomerativeParams, Algorithm, LocalSearchParams};
use aggclust_core::clustering::Clustering;
use aggclust_core::cost::{correlation_cost, lower_bound};
use aggclust_core::instance::{CorrelationInstance, DenseOracle, MissingPolicy};
use aggclust_core::kernels::LabelMatrix;
use aggclust_core::linkage::{linkage, CondensedMatrix, LinkageMethod};
use aggclust_core::obs;
use aggclust_core::parallel::with_num_threads;
use aggclust_core::telemetry::json_string;
use aggclust_core::{MetricsSnapshot, RunBudget, RunOutcome};
use std::hint::black_box;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index in the tracer's span list.
    pub id: usize,
    /// Which call (`csv.parse`, `instance.build`, …).
    pub name: &'static str,
    /// The span that made the call, if any.
    pub parent: Option<usize>,
    /// Which replayed job the span belongs to (shared by all its spans).
    pub job: usize,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Registry counts made inside the span (count passes only).
    pub counts: Option<MetricsSnapshot>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    job: usize,
    counting: bool,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            job: 0,
            counting: false,
        }
    }

    /// A recorder that also attributes the metrics registry's counts to
    /// each span; only meaningful while the registry is on.
    pub fn counting(epoch: Instant) -> Self {
        Tracer {
            counting: true,
            ..Tracer::new(epoch)
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let counts = self.counting.then(MetricsSnapshot::capture);
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            name,
            parent,
            job: self.job,
            start_ns: now,
            end_ns: now,
            counts,
        });
        id
    }

    /// Close span `id`.
    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        if let Some(start) = &span.counts {
            span.counts = Some(MetricsSnapshot::capture().diff(start));
        }
    }

    /// Registry counts inside every span named `name`, summed by `field`.
    pub fn count(&self, name: &str, field: fn(&MetricsSnapshot) -> u64) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.counts.as_ref())
            .map(field)
            .sum()
    }

    /// Run `f` under a span named `name`.
    pub fn timed<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, Some(parent));
        let out = black_box(f());
        self.close(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans whose parent is `id`.
    pub fn children(&self, id: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Spans as a JSON array.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let counts = s.counts.as_ref().map_or(String::new(), |c| {
                    format!(
                        ",\"counts\":{{\"lazy_evals\":{},\"packed_evals\":{},\"ls_nodes_visited\":{},\"ls_moves\":{},\"linkage_merges\":{},\"sampling_assigned\":{}}}",
                        c.oracle_lazy_evals,
                        c.oracle_packed_evals,
                        c.ls_nodes_visited,
                        c.ls_moves,
                        c.linkage_merges,
                        c.sampling_assigned
                    )
                });
                format!(
                    "{{\"id\":{},\"name\":{},\"parent\":{},\"job\":{},\"start_ns\":{},\"end_ns\":{}{counts}}}",
                    s.id,
                    json_string(s.name),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.job,
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!("[{}]", items.join(","))
    }
}

/// What a replayed job produced besides its spans.
pub struct Replay {
    /// The rendered label file; must equal the real job's byte for byte.
    pub rendered: String,
    /// The consensus labels.
    pub clustering: Clustering,
    /// `d(C) / lower bound` on dense runs.
    pub dense_cost_ratio: Option<f64>,
    /// SAMPLING's phase report on sampled runs.
    pub sampling: Option<SamplingPhases>,
    /// VmRSS growth across the dense build, in MiB.
    pub build_rss_mb: f64,
    /// The span covering the whole job.
    pub job_span: usize,
}

/// The parts of `SamplingDetails` the benchmark reports.
#[derive(Clone, Copy, Debug)]
pub struct SamplingPhases {
    /// Seconds clustering the sample.
    pub cluster_s: f64,
    /// Seconds assigning the other objects.
    pub assign_s: f64,
    /// Seconds re-clustering the singletons.
    pub recluster_s: f64,
    /// Singletons before the recluster pass.
    pub singletons: usize,
    /// Objects in the sample.
    pub sample: usize,
}

/// AGGLOMERATIVE's merge-and-cut step on a working copy of the matrix.
fn agglomerate(matrix: CondensedMatrix) -> Clustering {
    linkage(matrix, LinkageMethod::Average).cut_height(AgglomerativeParams::default().threshold)
}

fn converged(outcome: Result<RunOutcome, aggclust_core::AggError>) -> Result<Clustering, String> {
    let outcome = outcome.map_err(|e| e.to_string())?;
    if outcome.status.is_converged() {
        Ok(outcome.clustering)
    } else {
        Err(format!("replayed call ended {:?}", outcome.status))
    }
}

/// The job as separate public calls, mirroring
/// `ConsensusBuilder::try_aggregate_partial` for the workload's pipeline,
/// at the workload's thread count.
pub fn replay(spec: &Spec, csv_text: &str, tracer: &mut Tracer) -> Result<Replay, String> {
    with_num_threads(spec.threads, || {
        let job = tracer.open("job", None);
        let inputs = tracer
            .timed("csv.parse", job, || {
                csv::parse_label_matrix(csv_text, ',', false)
            })
            .map_err(|e| e.to_string())?;
        let instance = tracer
            .timed("instance.new", job, || {
                CorrelationInstance::try_from_partial(inputs, MissingPolicy::default())
            })
            .map_err(|e| e.to_string())?;
        let budget = RunBudget::unlimited();
        let mut dense_cost_ratio = None;
        let mut sampling = None;
        let mut build_rss_mb = 0.0;
        let clustering = if spec.samples() {
            let lazy = tracer.timed("instance.lazy_oracle", job, || instance.lazy_oracle());
            let params = SamplingParams::new(
                workload::SAMPLE_SIZE,
                Algorithm::Agglomerative(AgglomerativeParams::default()),
                0,
            );
            let details = tracer.timed("sampling", job, || sampling_with_details(&lazy, &params));
            sampling = Some(SamplingPhases {
                cluster_s: details.cluster_time.as_secs_f64(),
                assign_s: details.assign_time.as_secs_f64(),
                recluster_s: details.recluster_time.as_secs_f64(),
                singletons: details.singletons_before_recluster,
                sample: details.sample.len(),
            });
            details.clustering
        } else {
            let rss_before = host::proc_status_mb("VmRSS")?;
            let dense: DenseOracle = tracer
                .timed("instance.build", job, || instance.try_dense_oracle(&budget))
                .map_err(|i| format!("dense build interrupted: {i:?}"))?;
            build_rss_mb = host::proc_status_mb("VmRSS")? - rss_before;
            let clustering = match spec.pipeline {
                Pipeline::LocalSearch => converged(tracer.timed("local_search", job, || {
                    local_search_budgeted(&dense, workload::local_search_params(), &budget)
                }))?,
                Pipeline::Agglomerative => {
                    let matrix =
                        tracer.timed("linkage.copy", job, || CondensedMatrix::from_oracle(&dense));
                    tracer.timed("linkage.merge", job, || agglomerate(matrix))
                }
                Pipeline::Sampling => {
                    return Err("the replay covers SAMPLING above its threshold only".into())
                }
            };
            let cost = tracer.timed("cost.eval", job, || correlation_cost(&dense, &clustering));
            let lb = tracer.timed("cost.lower_bound", job, || lower_bound(&dense));
            dense_cost_ratio = Some(cost / lb);
            clustering
        };
        let rendered = tracer.timed("csv.render", job, || csv::render_labels(&clustering));
        tracer.close(job);
        Ok(Replay {
            rendered,
            clustering,
            dense_cost_ratio,
            sampling,
            build_rss_mb,
            job_span: job,
        })
    })
}

/// A per-layer metric value: a measured quantity or an exact count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// A measured number.
    Real(f64),
    /// An exact count.
    Count(u64),
}

/// One named metric.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value.
    pub value: Value,
}

impl Metric {
    /// A measured metric.
    pub fn real(name: &'static str, unit: &'static str, v: f64) -> Metric {
        Metric {
            name,
            unit,
            value: Value::Real(v),
        }
    }

    /// An exact count.
    pub fn count(name: &'static str, v: u64) -> Metric {
        Metric {
            name,
            unit: "count",
            value: Value::Count(v),
        }
    }
}

/// Counts from one metrics-on pass, each taken inside the span of the
/// layer it belongs to; every field must repeat exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct Counts {
    /// The pass's labels.
    pub rendered: String,
    /// `d(C) / lower bound`, dense or on the subsample.
    pub cost_ratio: f64,
    /// Lazy-oracle lookups in the whole job.
    pub lazy_evals: u64,
    /// Pair evaluations by the packed kernels in the whole job.
    pub packed_evals: u64,
    /// Passes inside `local_search`.
    pub ls_passes: u64,
    /// Node visits inside `local_search`.
    pub ls_visits: u64,
    /// Accepted moves inside `local_search`.
    pub ls_moves: u64,
    /// NN-chain merges inside `linkage.merge`.
    pub merges: u64,
    /// NN-chain re-seeds inside `linkage.merge`.
    pub chain_rebuilds: u64,
    /// Objects placed by the assignment loop inside `sampling`.
    pub sampling_assigned: u64,
}

/// Replay once with the metrics registry on and return the counts.
pub fn count_pass(
    spec: &Spec,
    seed: u64,
    columns: &[Vec<Option<u32>>],
    csv_text: &str,
) -> Result<(Counts, Tracer), String> {
    let mut tracer = Tracer::counting(Instant::now());
    obs::set_metrics_enabled(true);
    let replayed = replay(spec, csv_text, &mut tracer);
    obs::set_metrics_enabled(false);
    let r = replayed?;
    let cost_ratio = match r.dense_cost_ratio {
        Some(ratio) => ratio,
        None => job::subsample_cost_ratio(spec, seed, columns, &r.clustering),
    };
    let counts = Counts {
        rendered: r.rendered,
        cost_ratio,
        lazy_evals: tracer.count("job", |c| c.oracle_lazy_evals),
        packed_evals: tracer.count("job", |c| c.oracle_packed_evals),
        ls_passes: tracer.count("local_search", |c| c.ls_passes),
        ls_visits: tracer.count("local_search", |c| c.ls_nodes_visited),
        ls_moves: tracer.count("local_search", |c| c.ls_moves),
        merges: tracer.count("linkage.merge", |c| c.linkage_merges),
        chain_rebuilds: tracer.count("linkage.merge", |c| c.linkage_chain_rebuilds),
        sampling_assigned: tracer.count("sampling", |c| c.sampling_assigned),
    };
    Ok((counts, tracer))
}

/// Median seconds of `f` over `reps` calls at `threads` worker threads.
fn probe<R>(reps: usize, threads: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            with_num_threads(threads, || {
                let t = Instant::now();
                black_box(f());
                t.elapsed().as_secs_f64()
            })
        })
        .collect();
    host::median(&times)
}

/// Repetitions of each probe call.
const PROBE_REPS: usize = 3;
/// Alternating untraced/replayed rounds, at least.
const MIN_ROUNDS: usize = 3;

/// The traced run's outputs.
pub struct Traced {
    /// Per-layer metrics in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Every span of the timing passes.
    pub tracer: Tracer,
    /// The spans of the first count pass, with their counts.
    pub count_tracer: Tracer,
    /// Counts of the first count pass.
    pub counts: Counts,
}

/// Alternate untraced jobs and replayed jobs for `seconds` (at least
/// [`MIN_ROUNDS`] of each), then probe single calls and make two count
/// passes. `reference` is the run's first job; every replay must
/// reproduce its labels exactly, or nothing is reported.
pub fn traced_run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    columns: &[Vec<Option<u32>>],
    csv_text: &str,
    reference: &JobOutput,
    epoch: Instant,
) -> Result<Traced, String> {
    let mut tracer = Tracer::new(epoch);
    let mut untraced = Vec::new();
    let mut replays: Vec<Replay> = Vec::new();
    let start = Instant::now();
    while replays.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let out = with_num_threads(spec.threads, || job::run_job(spec, csv_text))?;
        untraced.push(t.elapsed().as_secs_f64());
        job::check_labels(spec.n, &out.rendered, Some(&reference.rendered))?;
        tracer.job = replays.len();
        let r = replay(spec, csv_text, &mut tracer)?;
        if r.rendered != reference.rendered {
            return Err("the replayed job's labels differ from the real job's".to_string());
        }
        replays.push(r);
    }

    // Median over replayed jobs of one span's duration (0 if never called).
    let span_s = |name: &str| {
        let per_job: Vec<f64> = replays
            .iter()
            .map(|r| {
                tracer
                    .children(r.job_span)
                    .filter(|s| s.name == name)
                    .fold(0.0, |acc, s| acc + s.secs())
            })
            .collect();
        host::median(&per_job)
    };
    let job_wall: Vec<f64> = replays
        .iter()
        .map(|r| tracer.spans()[r.job_span].secs())
        .collect();
    let unattributed: Vec<f64> = replays
        .iter()
        .map(|r| {
            let named: f64 = tracer.children(r.job_span).map(Span::secs).sum();
            tracer.spans()[r.job_span].secs() - named
        })
        .collect();
    let phases: Vec<SamplingPhases> = replays.iter().filter_map(|r| r.sampling).collect();
    let phase_s =
        |f: fn(&SamplingPhases) -> f64| host::median(&phases.iter().map(f).collect::<Vec<_>>());
    let build_rss_mb = host::median(&replays.iter().map(|r| r.build_rss_mb).collect::<Vec<_>>());

    // Single-call probes, metrics still off.
    let inputs = csv::parse_label_matrix(csv_text, ',', false).map_err(|e| e.to_string())?;
    let pack_s = probe(PROBE_REPS, spec.threads, || {
        LabelMatrix::from_partial(&inputs)
    });
    let (build_speedup, refine_speedup) = if spec.samples() {
        (0.0, 0.0)
    } else {
        let instance = CorrelationInstance::try_from_partial(inputs, MissingPolicy::default())
            .map_err(|e| e.to_string())?;
        let budget = RunBudget::unlimited();
        let build = |threads| probe(PROBE_REPS, threads, || instance.try_dense_oracle(&budget));
        let build_speedup = build(1) / build(2);
        let dense = instance
            .try_dense_oracle(&budget)
            .map_err(|i| format!("dense build interrupted: {i:?}"))?;
        // LOCALSEARCH as ls-5k runs it, or as the default pipeline's
        // refinement of the AGGLOMERATIVE result.
        let (start, passes) = match spec.pipeline {
            Pipeline::LocalSearch => (Clustering::singletons(spec.n), workload::LS_MAX_PASSES),
            _ => (
                with_num_threads(spec.threads, || {
                    agglomerate(CondensedMatrix::from_oracle(&dense))
                }),
                LocalSearchParams::default().max_passes,
            ),
        };
        let refine = |threads| {
            probe(1, threads, || {
                local_search_from_budgeted(&dense, &start, passes, 1e-9, &budget)
            })
        };
        (build_speedup, refine(1) / refine(2))
    };

    // Two count passes: the second on inputs regenerated from the seed.
    let (counts, count_tracer) = count_pass(spec, seed, columns, csv_text)?;
    let columns_again = workload::generate(spec, seed);
    let csv_again = workload::render_csv(&columns_again);
    let (again, _) = count_pass(spec, seed, &columns_again, &csv_again)?;
    if counts != again {
        return Err(format!(
            "counts differ between two passes over seed {seed}: {counts:?} vs {again:?}"
        ));
    }
    if counts.rendered != reference.rendered {
        return Err("the count pass's labels differ from the real job's".to_string());
    }

    let job_s = host::median(&job_wall);
    let ls_time = span_s("local_search");
    let pairs = (spec.n * (spec.n - 1) / 2) as f64;
    let build_s = span_s("instance.build");
    let assign_s = phase_s(|p| p.assign_s);
    let sample = phases.first().map_or(0, |p| p.sample);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let real = Metric::real;
    let count = Metric::count;
    let metrics = vec![
        real("csv.parse_s", "s", span_s("csv.parse")),
        real("csv.render_s", "s", span_s("csv.render")),
        real("kernels.pack_s", "s", pack_s),
        count("kernels.lazy_evals", counts.lazy_evals),
        count("kernels.packed_evals", counts.packed_evals),
        real(
            "kernels.ns_per_lazy_eval",
            "ns",
            ratio(assign_s * 1e9, counts.lazy_evals as f64),
        ),
        real("instance.build_s", "s", build_s),
        real(
            "instance.ns_per_pair",
            "ns",
            ratio(build_s * 1e9, if spec.samples() { 0.0 } else { pairs }),
        ),
        real("instance.build_rss_mb", "MB", build_rss_mb),
        real("linkage.copy_s", "s", span_s("linkage.copy")),
        real("linkage.merge_s", "s", span_s("linkage.merge")),
        count("linkage.merges", counts.merges),
        count("linkage.chain_rebuilds", counts.chain_rebuilds),
        real("local_search.time_s", "s", ls_time),
        count("local_search.passes", counts.ls_passes),
        count("local_search.nodes_visited", counts.ls_visits),
        count("local_search.moves", counts.ls_moves),
        real(
            "local_search.ns_per_read",
            "ns",
            ratio(ls_time * 1e9, counts.ls_visits as f64 * (spec.n - 1) as f64),
        ),
        real(
            "local_search.move_ratio",
            "ratio",
            ratio(counts.ls_moves as f64, counts.ls_visits as f64),
        ),
        real("sampling.cluster_s", "s", phase_s(|p| p.cluster_s)),
        real("sampling.assign_s", "s", assign_s),
        count("sampling.assigned", counts.sampling_assigned),
        real("sampling.recluster_s", "s", phase_s(|p| p.recluster_s)),
        real(
            "sampling.singleton_ratio",
            "ratio",
            ratio(
                phase_s(|p| p.singletons as f64),
                spec.n.saturating_sub(sample) as f64,
            ),
        ),
        real("cost.eval_s", "s", span_s("cost.eval")),
        real("cost.lower_bound_s", "s", span_s("cost.lower_bound")),
        real("cost.ratio", "ratio", counts.cost_ratio),
        real("parallel.build_speedup", "ratio", build_speedup),
        real("parallel.refine_speedup", "ratio", refine_speedup),
        real("consensus.traced_job_s", "s", job_s),
        real("consensus.unattributed_s", "s", host::median(&unattributed)),
        real(
            "trace.overhead_ratio",
            "ratio",
            ratio(job_s, host::median(&untraced)),
        ),
    ];
    Ok(Traced {
        metrics,
        tracer,
        count_tracer,
        counts,
    })
}
