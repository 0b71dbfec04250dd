//! Thread-count equivalence tests for the `parallel` layer.
//!
//! The contract (see `aggclust_core::parallel`) is that every parallel
//! kernel is *bit-identical* at any thread count: chunk boundaries depend
//! only on problem size, floating-point partials are combined in a fixed
//! order, and tie-breaks mirror the serial scans. These tests pin that
//! contract by running the oracle construction, the cost functions, and all
//! four O(n²) algorithms under an in-process 1-thread vs 4-thread override
//! and demanding identical bits / identical labels.
//!
//! Instance sizes are chosen to cross the internal chunking thresholds
//! (`MIN_CHUNK_ITEMS = 1024` rows, `MIN_CHUNK_PAIRS = 8192` pairs, the
//! BALLS scan gate at 4096) so the multi-chunk code paths actually execute
//! with several worker threads.

use aggclust_core::algorithms::{
    AgglomerativeParams, Algorithm, BallsParams, FurthestParams, LocalSearchInit, LocalSearchParams,
};
use aggclust_core::clustering::Clustering;
use aggclust_core::cost::{correlation_cost, lower_bound, split_everything_cost, within_cost};
use aggclust_core::instance::{DenseOracle, DistanceOracle};
use aggclust_core::parallel::with_num_threads;
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

/// `m` noisy copies of a planted `k`-clustering over `n` objects: each
/// label survives with probability 1 − noise, otherwise resamples.
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

#[test]
fn oracle_construction_is_thread_invariant() {
    // n = 1500 → ~1.1M pairs → well past MIN_CHUNK_PAIRS, so the condensed
    // fill runs multi-chunk under 4 threads.
    let inputs = noisy_inputs(1500, 6, 8, 0.2, 7);
    let serial = with_num_threads(1, || DenseOracle::from_clusterings(&inputs));
    let threaded = with_num_threads(4, || DenseOracle::from_clusterings(&inputs));
    let n = serial.len();
    assert_eq!(n, threaded.len());
    for u in 0..n {
        for v in (u + 1)..n {
            assert_eq!(
                serial.dist(u, v).to_bits(),
                threaded.dist(u, v).to_bits(),
                "dist({u},{v}) differs across thread counts"
            );
        }
    }
}

#[test]
fn cost_functions_are_thread_invariant() {
    let inputs = noisy_inputs(1500, 5, 6, 0.25, 11);
    let oracle = DenseOracle::from_clusterings(&inputs);
    let candidate = inputs[0].clone();
    let serial = with_num_threads(1, || {
        [
            correlation_cost(&oracle, &candidate),
            split_everything_cost(&oracle),
            within_cost(&oracle, &candidate),
            lower_bound(&oracle),
        ]
    });
    let threaded = with_num_threads(4, || {
        [
            correlation_cost(&oracle, &candidate),
            split_everything_cost(&oracle),
            within_cost(&oracle, &candidate),
            lower_bound(&oracle),
        ]
    });
    for (name, (s, t)) in ["correlation", "split", "within", "lower_bound"]
        .iter()
        .zip(serial.iter().zip(threaded.iter()))
    {
        assert_eq!(s.to_bits(), t.to_bits(), "{name} cost differs");
        assert!((s - t).abs() <= 1e-9); // the ISSUE-level tolerance, implied
    }
}

#[test]
fn local_search_is_thread_invariant_across_prefetch_gate() {
    // LOCALSEARCH reads each node's row serially through `accumulate_row`,
    // at every n; the dense build behind it is split into many chunks at
    // n = 2200 and few at n = 300. Both must produce identical labels at
    // 1 vs 4 threads.
    for (n, seed) in [(2200usize, 3u64), (300, 4)] {
        let inputs = noisy_inputs(n, 4, 10, 0.3, seed);
        let oracle = DenseOracle::from_clusterings(&inputs);
        let params = LocalSearchParams {
            init: LocalSearchInit::Random { k: 12, seed: 99 },
            max_passes: 3,
        };
        let serial = with_num_threads(1, || run(&Algorithm::LocalSearch(params.clone()), &oracle));
        let threaded =
            with_num_threads(4, || run(&Algorithm::LocalSearch(params.clone()), &oracle));
        assert_eq!(serial, threaded, "n = {n}");
        let cs = with_num_threads(1, || correlation_cost(&oracle, &serial));
        let ct = with_num_threads(4, || correlation_cost(&oracle, &threaded));
        assert_eq!(cs.to_bits(), ct.to_bits());
    }
}

#[test]
fn balls_is_thread_invariant_across_scan_gate() {
    // First ball scan sees n − 1 = 4399 ≥ 4096 candidates → parallel row
    // buffer; later scans shrink below the gate → serial path. Identical
    // labels either way.
    let inputs = noisy_inputs(4400, 3, 5, 0.15, 21);
    let oracle = DenseOracle::from_clusterings(&inputs);
    let serial = with_num_threads(1, || {
        run(&Algorithm::Balls(BallsParams::practical()), &oracle)
    });
    let threaded = with_num_threads(4, || {
        run(&Algorithm::Balls(BallsParams::practical()), &oracle)
    });
    assert_eq!(serial, threaded);
}

#[test]
fn agglomerative_is_thread_invariant() {
    let inputs = noisy_inputs(900, 4, 7, 0.25, 31);
    let oracle = DenseOracle::from_clusterings(&inputs);
    let params = AgglomerativeParams::paper();
    let serial = with_num_threads(1, || run(&Algorithm::Agglomerative(params), &oracle));
    let threaded = with_num_threads(4, || run(&Algorithm::Agglomerative(params), &oracle));
    assert_eq!(serial, threaded);
}

#[test]
fn furthest_is_thread_invariant() {
    let inputs = noisy_inputs(1300, 4, 9, 0.3, 41);
    let oracle = DenseOracle::from_clusterings(&inputs);
    let serial = with_num_threads(1, || {
        run(&Algorithm::Furthest(FurthestParams::default()), &oracle)
    });
    let threaded = with_num_threads(4, || {
        run(&Algorithm::Furthest(FurthestParams::default()), &oracle)
    });
    assert_eq!(serial, threaded);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized small instances: every algorithm and every cost agrees
    /// bit-for-bit between 1 and 4 threads.
    #[test]
    fn algorithms_thread_invariant_on_random_instances(
        labels in prop::collection::vec(
            prop::collection::vec(0u32..6, 40), 2..5
        )
    ) {
        let inputs: Vec<Clustering> =
            labels.into_iter().map(Clustering::from_labels).collect();
        let oracle = DenseOracle::from_clusterings(&inputs);
        let run = |threads: usize| {
            with_num_threads(threads, || {
                (
                    run(&Algorithm::Balls(BallsParams::practical()), &oracle),
                    run(&Algorithm::Agglomerative(AgglomerativeParams::paper()), &oracle),
                    run(&Algorithm::Furthest(FurthestParams::default()), &oracle),
                    run(&Algorithm::LocalSearch(LocalSearchParams::default()), &oracle),
                    lower_bound(&oracle).to_bits(),
                )
            })
        };
        prop_assert_eq!(run(1), run(4));
    }
}
