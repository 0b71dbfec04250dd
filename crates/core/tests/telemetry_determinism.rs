//! Counter-determinism properties of the telemetry layer.
//!
//! Two contracts from the observability design:
//!
//! 1. **Thread invariance** — for the deterministic kernels, every counter
//!    total is bit-identical across `--threads` settings. The parallel
//!    layer partitions work but never changes *what* work is done, so
//!    oracle evaluations, node visits, moves, and merges must all agree
//!    across 1/2/4 threads (and the serially-accumulated improvement sum
//!    must agree to the bit).
//! 2. **Resume invariance** — an interrupt-at-k + resume run performs the
//!    same counted work as the uninterrupted run: resumption is replay
//!    from the snapshot, not repetition, so oracle-evaluation and move
//!    counters match exactly.
//!
//! The metrics registry is process-global, so every test serializes on one
//! mutex and measures with before/after snapshot diffs.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use aggclust_core::algorithms::local_search::LocalSearchInit;
use aggclust_core::algorithms::{
    AgglomerativeParams, Algorithm, BallsParams, FurthestParams, LocalSearchParams,
};
use aggclust_core::clustering::{Clustering, PartialClustering};
use aggclust_core::consensus::ConsensusBuilder;
use aggclust_core::cost::{cost_and_bound, exact_cost, lower_bound};
use aggclust_core::instance::{CorrelationInstance, DenseOracle, DistanceOracle, MissingPolicy};
use aggclust_core::parallel::with_num_threads;
use aggclust_core::snapshot::{load_snapshot, Checkpointer, SnapshotLoad};
use aggclust_core::telemetry::{metrics, set_metrics_enabled, MetricsSnapshot};
use aggclust_core::{RunBudget, RunCtx};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `algorithm` on `oracle` under an unlimited budget.
fn run<O: DistanceOracle + Sync>(algorithm: &Algorithm, oracle: &O) -> Clustering {
    algorithm
        .run(oracle, &mut RunCtx::new(&RunBudget::unlimited()))
        .unwrap()
        .clustering
}

/// All counter-measuring tests share the process-global registry; this
/// lock keeps their before/after windows from interleaving.
fn metrics_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Run `f` with metrics enabled and return its counter delta.
///
/// `ls_improvement` is a process-global float sum, so its delta is exact
/// only from a fixed starting value: `after − before` rounds differently
/// depending on what earlier tests added. It is zeroed first
/// (`x + (−x)` is exactly `0.0`), which makes the delta the serially
/// accumulated sum of this window alone.
fn measured<T>(f: impl FnOnce() -> T) -> (T, MetricsSnapshot) {
    let improvement = &metrics().ls_improvement;
    improvement.add(-improvement.get());
    set_metrics_enabled(true);
    let before = MetricsSnapshot::capture();
    let out = f();
    let delta = MetricsSnapshot::capture().diff(&before);
    set_metrics_enabled(false);
    (out, delta)
}

/// Counter deltas with the high-water gauge masked out: `diff` keeps the
/// gauge's absolute value, which legitimately depends on what ran earlier
/// in the process, so equality claims exclude it.
fn masked(mut s: MetricsSnapshot) -> MetricsSnapshot {
    s.mem_high_water_bytes = 0;
    s
}

fn noisy_inputs(n: usize, m: usize, k: u32, noise: f64, seed: u64) -> Vec<Clustering> {
    let mut rng = StdRng::seed_from_u64(seed);
    let truth: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k)).collect();
    (0..m)
        .map(|_| {
            Clustering::from_labels(
                truth
                    .iter()
                    .map(|&t| {
                        if rng.gen_bool(noise) {
                            rng.gen_range(0..k)
                        } else {
                            t
                        }
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Every algorithm once, under one thread override; the counter delta is
/// the quantity under test.
fn run_all(oracle: &DenseOracle, threads: usize) -> MetricsSnapshot {
    let (_, delta) = measured(|| {
        with_num_threads(threads, || {
            (
                run(&Algorithm::Balls(BallsParams::practical()), oracle),
                run(
                    &Algorithm::Agglomerative(AgglomerativeParams::paper()),
                    oracle,
                ),
                run(&Algorithm::Furthest(FurthestParams::default()), oracle),
                run(
                    &Algorithm::LocalSearch(LocalSearchParams {
                        init: LocalSearchInit::Random { k: 8, seed: 99 },
                        max_passes: 3,
                    }),
                    oracle,
                ),
            )
        })
    });
    masked(delta)
}

#[test]
fn counters_are_thread_invariant_across_chunking_gates() {
    let _guard = metrics_lock();
    // n = 2200 crosses MIN_CHUNK_PAIRS, so the multi-chunk code paths
    // execute with real workers.
    let inputs = noisy_inputs(2200, 4, 10, 0.3, 7);
    let oracle = DenseOracle::from_clusterings(&inputs);
    let t1 = run_all(&oracle, 1);
    let t2 = run_all(&oracle, 2);
    let t4 = run_all(&oracle, 4);
    assert!(t1.oracle_dense_evals > 0, "instrumentation not firing");
    assert!(t1.ls_nodes_visited > 0);
    assert_eq!(t1, t2, "1-thread vs 2-thread counters differ");
    assert_eq!(t1, t4, "1-thread vs 4-thread counters differ");
}

#[test]
fn capped_runs_count_lazy_evaluations_identically_at_every_thread_count() {
    let _guard = metrics_lock();
    // n = 300: the dense matrix needs 2·300² bytes plus its code table,
    // over the 64 KiB cap, so every evaluation goes through the lazy oracle.
    let inputs = noisy_inputs(300, 5, 6, 0.2, 11);
    let run = |threads: usize, budget: RunBudget| {
        let (result, delta) = measured(|| {
            with_num_threads(threads, || {
                ConsensusBuilder::new()
                    .algorithm(Algorithm::Balls(BallsParams::practical()))
                    .budget(budget)
                    .try_aggregate(&inputs)
                    .expect("valid instance")
            })
        });
        (result, masked(delta))
    };
    let (dense, dense_delta) = run(1, RunBudget::unlimited());
    assert_eq!(dense_delta.oracle_lazy_evals, 0);
    assert!(dense_delta.oracle_dense_evals > 0);
    let cap = || RunBudget::unlimited().with_mem_limit_bytes(64 * 1024);
    let (capped, t1) = run(1, cap());
    assert_eq!(capped.clustering, dense.clustering);
    assert!(
        t1.oracle_lazy_evals > 0,
        "capped run never read the lazy oracle"
    );
    assert_eq!(t1.oracle_dense_evals, 0, "capped run read a dense matrix");
    for threads in [2, 4] {
        let (again, delta) = run(threads, cap());
        assert_eq!(again.clustering, dense.clustering, "{threads} threads");
        assert_eq!(delta, t1, "1-thread vs {threads}-thread counters differ");
    }
}

/// AGGLOMERATIVE in the consensus pipeline evaluates each pair once, in
/// its triangle's fill from the packed labels, and reads none when it
/// prices the result: the cost comes from the merges and the lower bound
/// from the fill's totals.
#[test]
fn agglomerative_prices_its_result_without_reading_a_pair() {
    let _guard = metrics_lock();
    let n = 300;
    let total = noisy_inputs(n, 5, 6, 0.2, 13);
    let with_missing: Vec<PartialClustering> = total
        .iter()
        .map(|c| {
            let labels = (0..n).map(|v| (v % 7 != 3).then_some(c.label(v)));
            PartialClustering::from_labels(labels.collect())
        })
        .collect();
    let pairs = (n * (n - 1) / 2) as u64;
    let cases = [
        (total.iter().map(PartialClustering::from_total).collect(), 0),
        (with_missing, pairs),
    ];
    for (inputs, lazy_evals) in cases {
        let (result, delta) = measured(|| {
            ConsensusBuilder::new()
                .refine(false)
                .try_aggregate_partial(inputs)
                .expect("valid instance")
        });
        assert!(result.lower_bound.is_some() && result.cost.is_finite());
        assert_eq!(delta.oracle_dense_evals, 0);
        assert_eq!(delta.oracle_packed_evals, pairs);
        assert_eq!(delta.oracle_lazy_evals, lazy_evals);
        assert_eq!(delta.linkage_merges, n as u64 - 1);
    }
}

/// On total inputs the lazy oracle prices exactly from its packed rows: its
/// lower bound streams each of the n(n−1)/2 pairs once through the batched
/// kernel, with no lazy evaluation, and the cost adds one lazy read per
/// within-cluster pair. A restricted sample is filled by the same kernel.
/// Where no scale exists (`Ignore` with missing labels) the cost and the
/// bound share one `f64` pass: one lazy read per pair.
#[test]
fn lazy_pricing_of_total_inputs_makes_packed_evaluations_only() {
    let _guard = metrics_lock();
    let n = 300;
    let total = noisy_inputs(n, 5, 6, 0.2, 17);
    let pairs = (n * (n - 1) / 2) as u64;
    let lazy = CorrelationInstance::from_clusterings(&total);
    let (_, delta) = measured(|| lower_bound(&lazy));
    assert_eq!(delta.oracle_packed_evals, pairs);
    assert_eq!(delta.oracle_lazy_evals, 0);
    assert_eq!(delta.oracle_dense_evals, 0);
    assert!(delta.kernels_row_batches > 0);

    let c = &total[0];
    let within: u64 = c
        .clusters()
        .iter()
        .map(|m| (m.len() * (m.len() - 1) / 2) as u64)
        .sum();
    let (cost, delta) = measured(|| exact_cost(&lazy, c));
    assert!(cost.is_some());
    assert_eq!(delta.oracle_packed_evals, pairs + within);
    assert_eq!(delta.oracle_lazy_evals, within);

    let subset: Vec<usize> = (0..n).step_by(2).collect();
    let s = subset.len() as u64;
    let (sample, delta) = measured(|| lazy.restrict(&subset));
    assert!(sample.pair_totals().is_some());
    assert_eq!(delta.oracle_packed_evals, s * (s - 1) / 2);
    assert_eq!(delta.oracle_lazy_evals, 0);
    assert!(delta.kernels_row_batches > 0);

    let with_missing: Vec<PartialClustering> = total
        .iter()
        .map(|c| {
            PartialClustering::from_labels(
                (0..n).map(|v| (v % 7 != 3).then_some(c.label(v))).collect(),
            )
        })
        .collect();
    let ignore = CorrelationInstance::from_partial(with_missing, MissingPolicy::Ignore);
    assert_eq!(ignore.exact_scale(), None);
    let (_, delta) = measured(|| cost_and_bound(&ignore, c));
    assert_eq!(delta.oracle_lazy_evals, pairs);
}

/// Interrupt a LOCALSEARCH run at the iteration cap (checkpointing every
/// node), resume it from the on-disk snapshot, and return the *combined*
/// counter delta of both halves.
fn interrupted_run(
    algorithm: &Algorithm,
    oracle: &DenseOracle,
    cap: u64,
    dir: &std::path::Path,
) -> MetricsSnapshot {
    let path = dir.join("run.ckpt");
    std::fs::remove_file(&path).ok();
    let (_, delta) = measured(|| {
        let mut ckpt = Checkpointer::new(path.clone(), Duration::ZERO);
        let capped = algorithm
            .run(
                oracle,
                &mut RunCtx {
                    budget: &RunBudget::unlimited().with_max_iters(cap),
                    resume: None,
                    ckpt: Some(&mut ckpt),
                },
            )
            .expect("capped run");
        if capped.status.is_converged() {
            return;
        }
        let snapshot = match load_snapshot(&path) {
            SnapshotLoad::Loaded(s) => Some(s),
            SnapshotLoad::Missing => None,
            SnapshotLoad::Corrupt(reason) => panic!("checkpoint corrupt: {reason}"),
        };
        algorithm
            .run(
                oracle,
                &mut RunCtx {
                    budget: &RunBudget::unlimited(),
                    resume: snapshot.as_ref().map(|s| &s.state),
                    ckpt: None,
                },
            )
            .expect("resumed run");
    });
    masked(delta)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Small random instances: the full counter delta (not just labels)
    /// agrees across 1/2/4 threads.
    #[test]
    fn counters_thread_invariant_on_random_instances(
        labels in prop::collection::vec(
            prop::collection::vec(0u32..6, 40), 2..5
        )
    ) {
        let _guard = metrics_lock();
        let inputs: Vec<Clustering> =
            labels.into_iter().map(Clustering::from_labels).collect();
        let oracle = DenseOracle::from_clusterings(&inputs);
        let t1 = run_all(&oracle, 1);
        let t2 = run_all(&oracle, 2);
        let t4 = run_all(&oracle, 4);
        prop_assert_eq!(&t1, &t2);
        prop_assert_eq!(&t1, &t4);
    }

    /// Interrupt-at-k + resume performs exactly the counted work of the
    /// uninterrupted run: identical oracle evaluations, node visits,
    /// passes, and accepted moves.
    #[test]
    fn localsearch_counters_survive_interrupt_and_resume(
        labels in prop::collection::vec(
            prop::collection::vec(0u32..4, 24), 2..5
        ),
        cap in 0u64..120,
        seed in 0u64..50,
    ) {
        let _guard = metrics_lock();
        let inputs: Vec<Clustering> =
            labels.into_iter().map(Clustering::from_labels).collect();
        let oracle = DenseOracle::from_clusterings(&inputs);
        let algorithm = Algorithm::LocalSearch(LocalSearchParams {
            init: LocalSearchInit::Random { k: 3, seed },
            ..Default::default()
        });
        let (_, reference) = measured(|| {
            algorithm
                .run(&oracle, &mut RunCtx::new(&RunBudget::unlimited()))
                .expect("reference run")
        });
        let reference = masked(reference);
        let dir = std::env::temp_dir().join(format!(
            "aggclust_telemetry_{:?}",
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let combined = interrupted_run(&algorithm, &oracle, cap, &dir);
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(
            combined.oracle_dense_evals, reference.oracle_dense_evals,
            "oracle evaluations differ (cap {})", cap
        );
        prop_assert_eq!(combined.oracle_lazy_evals, reference.oracle_lazy_evals);
        prop_assert_eq!(
            combined.ls_moves, reference.ls_moves,
            "accepted moves differ (cap {})", cap
        );
        prop_assert_eq!(combined.ls_nodes_visited, reference.ls_nodes_visited);
        prop_assert_eq!(combined.ls_passes, reference.ls_passes);
    }
}
