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
    agglomerative::agglomerative, balls::balls, furthest::furthest, local_search::local_search,
    AgglomerativeParams, Algorithm, BallsParams, FurthestParams, LocalSearchParams,
};
use aggclust_core::clustering::Clustering;
use aggclust_core::instance::DenseOracle;
use aggclust_core::parallel::with_num_threads;
use aggclust_core::snapshot::{load_snapshot, Checkpointer, SnapshotLoad};
use aggclust_core::telemetry::{metrics, set_metrics_enabled, MetricsSnapshot};
use aggclust_core::RunBudget;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
                balls(oracle, BallsParams::practical()),
                agglomerative(oracle, AgglomerativeParams::paper()),
                furthest(oracle, FurthestParams::default()),
                local_search(
                    oracle,
                    LocalSearchParams {
                        init: LocalSearchInit::Random { k: 8, seed: 99 },
                        max_passes: 3,
                        epsilon: 1e-9,
                    },
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
            .run_resumable(
                oracle,
                &RunBudget::unlimited().with_max_iters(cap),
                None,
                Some(&mut ckpt),
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
            .run_resumable(
                oracle,
                &RunBudget::unlimited(),
                snapshot.as_ref().map(|s| &s.state),
                None,
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
                .run_budgeted(&oracle, &RunBudget::unlimited())
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
