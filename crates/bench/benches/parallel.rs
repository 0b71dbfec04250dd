//! Benchmarks for the `aggclust_core::parallel` layer: dense-oracle
//! construction, `correlation_cost`, and a single LOCALSEARCH pass at
//! n ∈ {1 000, 5 000, 20 000}, each under a 1-thread and a 4-thread
//! override so the speedup is measured in-process on the same inputs.
//!
//! The n = 20 000 sizes use the lazy [`ClusteringsOracle`] (O(n·m) memory)
//! instead of the dense matrix, whose `u16` codes alone would take
//! 800 MB; the parallel layer is oracle-agnostic, so the scaling story is
//! the same. On a single-CPU host the 4-thread rows are expected to match
//! (or slightly trail) the 1-thread rows — the numbers are recorded
//! honestly either way via `CRITERION_SHIM_JSON` (see `BENCH_parallel.json`
//! at the repo root).

use aggclust_bench::run;
use aggclust_core::algorithms::{Algorithm, LocalSearchParams};
use aggclust_core::clustering::Clustering;
use aggclust_core::cost::correlation_cost;
use aggclust_core::instance::{ClusteringsOracle, DenseOracle, DistanceOracle};
use aggclust_core::obs;
use aggclust_core::parallel::with_num_threads;
use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const THREAD_COUNTS: [usize; 2] = [1, 4];

fn inputs(n: usize, m: usize, seed: u64) -> Vec<Clustering> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| Clustering::from_labels((0..n).map(|_| rng.gen_range(0..16u32)).collect()))
        .collect()
}

/// Dense for n ≤ 5 000, lazy above (memory), behind one trait object-free
/// enum so each size benches the oracle it would realistically use.
enum Oracle {
    Dense(DenseOracle),
    Lazy(ClusteringsOracle),
}

impl Oracle {
    fn build(cs: &[Clustering], n: usize) -> Self {
        if n <= 5_000 {
            Oracle::Dense(DenseOracle::from_clusterings(cs))
        } else {
            Oracle::Lazy(ClusteringsOracle::from_total(cs))
        }
    }
}

impl DistanceOracle for Oracle {
    fn len(&self) -> usize {
        match self {
            Oracle::Dense(o) => o.len(),
            Oracle::Lazy(o) => o.len(),
        }
    }
    fn dist(&self, u: usize, v: usize) -> f64 {
        match self {
            Oracle::Dense(o) => o.dist(u, v),
            Oracle::Lazy(o) => o.dist(u, v),
        }
    }
}

fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel");
    for &n in &[1_000usize, 5_000, 20_000] {
        // Fewer samples at the big sizes: one 20k cost sweep is 200M pairs.
        group.sample_size(if n >= 20_000 { 3 } else { 10 });
        let cs = inputs(n, 8, 7);
        for &threads in &THREAD_COUNTS {
            let id = |name: &str| BenchmarkId::new(format!("{name}/t{threads}"), n);
            if n <= 5_000 {
                group.bench_with_input(id("oracle_build"), &n, |b, _| {
                    b.iter(|| {
                        with_num_threads(threads, || DenseOracle::from_clusterings(black_box(&cs)))
                    })
                });
            }
            let oracle = Oracle::build(&cs, n);
            let candidate = cs[0].clone();
            group.bench_with_input(id("correlation_cost"), &n, |b, _| {
                b.iter(|| {
                    with_num_threads(threads, || {
                        correlation_cost(black_box(&oracle), black_box(&candidate))
                    })
                })
            });
            let pass = Algorithm::LocalSearch(LocalSearchParams {
                max_passes: 1,
                ..Default::default()
            });
            group.bench_with_input(id("local_search_pass"), &n, |b, _| {
                b.iter(|| with_num_threads(threads, || run(&pass, black_box(&oracle))))
            });
        }
    }
    group.finish();
}

/// The telemetry layer's zero-cost contract, measured rather than
/// asserted: with no collector installed a `span!`/`event!` pair is one
/// relaxed atomic load and an untaken branch, and with metrics disabled a
/// guarded counter bump is the same. Expect single-digit nanoseconds for
/// the "off" rows; the "on" row shows the real cost of a live counter.
fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    obs::clear_collector();
    let was_enabled = obs::metrics_enabled();
    // Spans also time themselves into the metrics registry now, so the
    // "off" row must switch metrics off for the measurement — main()
    // enables them for the kernel benches above.
    obs::set_metrics_enabled(false);
    group.bench_function("span_event_collector_off", |b| {
        b.iter(|| {
            let _span = aggclust_core::span!("bench_noop", n = black_box(1usize));
            aggclust_core::event!(obs::Level::Debug, "noop");
        })
    });
    obs::set_metrics_enabled(true);
    // The live per-span timing path: clock read, child-time stack frame,
    // and the per-name count/total/self/max/histogram updates.
    group.bench_function("span_timed_metrics_on", |b| {
        b.iter(|| {
            let _span = aggclust_core::span!("bench_timed", n = black_box(1usize));
        })
    });
    obs::set_metrics_enabled(false);
    group.bench_function("counter_metrics_off", |b| {
        b.iter(|| obs::metrics().ls_moves.add_if_enabled(black_box(1)))
    });
    obs::set_metrics_enabled(true);
    group.bench_function("counter_metrics_on", |b| {
        // add(0): exercise the live atomic without skewing the run report.
        b.iter(|| obs::metrics().ls_moves.add_if_enabled(black_box(0)))
    });
    obs::set_metrics_enabled(was_enabled);
    // Same contract for fault injection: with no plan armed, a failpoint
    // check is one relaxed load and an untaken branch, so routing every
    // fs touch through the facade costs nothing in production runs.
    group.bench_function("failpoint_disarmed", |b| {
        b.iter(|| aggclust_core::fp!(black_box("snapshot.rename"), black_box(4096)))
    });
    group.finish();
}

criterion_group!(benches, bench_parallel, bench_telemetry_overhead);

fn main() {
    // Count the kernels' work while they are timed, then append the
    // standard run report to the same JSONL stream as the timing records,
    // so `BENCH_parallel.json` carries counters alongside wall-clock.
    obs::set_metrics_enabled(true);
    benches();
    if let Ok(path) = std::env::var("CRITERION_SHIM_JSON") {
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            use std::io::Write as _;
            let report = obs::run_report_json();
            let _ = writeln!(f, "{{\"id\":\"run_report\",{}", &report[1..]);
        }
    }
}
