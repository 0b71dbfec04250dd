//! Property-based tests for the core invariants of clustering aggregation.

use aggclust_core::algorithms::{
    best::best_clustering, AgglomerativeParams, Algorithm, BallsParams, FurthestParams,
    LocalSearchInit, LocalSearchParams,
};
use aggclust_core::clustering::Clustering;
use aggclust_core::cost::{correlation_cost, lower_bound};
use aggclust_core::distance::{
    disagreement_distance, disagreement_distance_naive, total_disagreement,
};
use aggclust_core::exact::optimal_clustering;
use aggclust_core::instance::{DenseOracle, DistanceOracle};
use aggclust_core::{RunBudget, RunCtx};
use proptest::prelude::*;

/// `algorithm` on `oracle` under an unlimited budget.
fn run<O: DistanceOracle + Sync>(algorithm: &Algorithm, oracle: &O) -> Clustering {
    algorithm
        .run(oracle, &mut RunCtx::new(&RunBudget::unlimited()))
        .unwrap()
        .clustering
}

/// Strategy: a clustering of `n` objects with at most `kmax` clusters.
fn clustering_strategy(n: usize, kmax: u32) -> impl Strategy<Value = Clustering> {
    prop::collection::vec(0..kmax, n).prop_map(Clustering::from_labels)
}

/// Strategy: a set of `m` clusterings over the same `n` objects.
fn clusterings_strategy(
    n: usize,
    m: std::ops::Range<usize>,
    kmax: u32,
) -> impl Strategy<Value = Vec<Clustering>> {
    prop::collection::vec(clustering_strategy(n, kmax), m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn contingency_distance_matches_naive(
        (a, b) in (2usize..20).prop_flat_map(|n| {
            (clustering_strategy(n, 5), clustering_strategy(n, 5))
        })
    ) {
        prop_assert_eq!(
            disagreement_distance(&a, &b),
            disagreement_distance_naive(&a, &b)
        );
    }

    #[test]
    fn disagreement_distance_is_a_metric(
        (a, b, c) in (2usize..14).prop_flat_map(|n| {
            (
                clustering_strategy(n, 4),
                clustering_strategy(n, 4),
                clustering_strategy(n, 4),
            )
        })
    ) {
        // Identity of indiscernibles (one direction), symmetry, triangle.
        prop_assert_eq!(disagreement_distance(&a, &a), 0);
        prop_assert_eq!(disagreement_distance(&a, &b), disagreement_distance(&b, &a));
        prop_assert!(
            disagreement_distance(&a, &c)
                <= disagreement_distance(&a, &b) + disagreement_distance(&b, &c)
        );
    }

    #[test]
    fn xuv_satisfies_triangle_inequality(
        inputs in (3usize..10).prop_flat_map(|n| clusterings_strategy(n, 1..6, 4))
    ) {
        let oracle = DenseOracle::from_clusterings(&inputs);
        let n = oracle.len();
        for u in 0..n {
            for v in 0..n {
                for w in 0..n {
                    prop_assert!(
                        oracle.dist(u, w) <= oracle.dist(u, v) + oracle.dist(v, w) + 1e-9
                    );
                }
            }
        }
    }

    #[test]
    fn aggregation_cost_is_m_times_correlation_cost(
        (inputs, candidate) in (3usize..12).prop_flat_map(|n| {
            (clusterings_strategy(n, 1..5, 4), clustering_strategy(n, 4))
        })
    ) {
        let oracle = DenseOracle::from_clusterings(&inputs);
        let d = total_disagreement(&inputs, &candidate) as f64;
        let m_dc = inputs.len() as f64 * correlation_cost(&oracle, &candidate);
        prop_assert!((d - m_dc).abs() < 1e-6, "D = {}, m·d(C) = {}", d, m_dc);
    }

    #[test]
    fn lower_bound_is_below_the_exact_optimum(
        inputs in (2usize..8).prop_flat_map(|n| clusterings_strategy(n, 1..5, 3))
    ) {
        let oracle = DenseOracle::from_clusterings(&inputs);
        let opt = optimal_clustering(&oracle);
        prop_assert!(lower_bound(&oracle) <= opt.cost + 1e-9);
    }

    #[test]
    fn best_clustering_respects_its_guarantee(
        inputs in (2usize..8).prop_flat_map(|n| clusterings_strategy(n, 2..6, 3))
    ) {
        // D(best input) ≤ 2(1 − 1/m) · D(optimum).
        let m = inputs.len() as f64;
        let best = best_clustering(&inputs);
        let oracle = DenseOracle::from_clusterings(&inputs);
        let opt_cost = optimal_clustering(&oracle).cost * m; // D-scale
        let ratio_bound = 2.0 * (1.0 - 1.0 / m);
        prop_assert!(
            best.cost as f64 <= ratio_bound * opt_cost + 1e-6,
            "best {} vs bound {} (opt {})",
            best.cost,
            ratio_bound * opt_cost,
            opt_cost
        );
    }

    #[test]
    fn algorithms_never_beat_the_exact_optimum(
        inputs in (2usize..8).prop_flat_map(|n| clusterings_strategy(n, 1..5, 3))
    ) {
        let oracle = DenseOracle::from_clusterings(&inputs);
        let opt = optimal_clustering(&oracle);
        let candidates = [
            run(&Algorithm::Balls(BallsParams::default()), &oracle),
            run(&Algorithm::Agglomerative(AgglomerativeParams::default()), &oracle),
            run(&Algorithm::Furthest(FurthestParams::default()), &oracle),
        ];
        for c in &candidates {
            let cost = correlation_cost(&oracle, c);
            prop_assert!(cost >= opt.cost - 1e-9, "cost {} below optimum {}", cost, opt.cost);
        }
    }

    #[test]
    fn local_search_never_increases_cost(
        (inputs, start) in (2usize..10).prop_flat_map(|n| {
            (clusterings_strategy(n, 1..5, 4), clustering_strategy(n, 4))
        })
    ) {
        let oracle = DenseOracle::from_clusterings(&inputs);
        let refine = Algorithm::LocalSearch(LocalSearchParams {
            init: LocalSearchInit::Given(start.clone()),
            max_passes: 50,
        });
        let refined = run(&refine, &oracle);
        prop_assert!(
            correlation_cost(&oracle, &refined) <= correlation_cost(&oracle, &start) + 1e-9
        );
    }

    #[test]
    fn local_search_result_is_a_local_optimum(
        inputs in (2usize..8).prop_flat_map(|n| clusterings_strategy(n, 2..5, 3))
    ) {
        // After convergence, no single-node move can improve the cost.
        let oracle = DenseOracle::from_clusterings(&inputs);
        let result = run(&Algorithm::LocalSearch(LocalSearchParams::default()), &oracle);
        let base_cost = correlation_cost(&oracle, &result);
        let n = oracle.len();
        let k = result.num_clusters();
        for v in 0..n {
            // Try moving v to every other cluster and to a fresh singleton.
            for target in 0..=k {
                let mut labels = result.labels().to_vec();
                if target == result.label(v) as usize {
                    continue;
                }
                labels[v] = target as u32;
                let moved = Clustering::from_labels(labels);
                prop_assert!(
                    correlation_cost(&oracle, &moved) >= base_cost - 1e-6,
                    "move of {} to {} improves cost", v, target
                );
            }
        }
    }

    #[test]
    fn relabeling_invariance(
        (labels, perm_seed) in (2usize..15).prop_flat_map(|n| {
            (prop::collection::vec(0u32..6, n), any::<u64>())
        })
    ) {
        // Applying any injective relabeling yields an equal Clustering.
        let c1 = Clustering::from_labels(labels.clone());
        let shift = (perm_seed % 100) as u32;
        let relabeled: Vec<u32> = labels.iter().map(|&l| (l * 7 + shift) % 1000 + 1000).collect();
        let c2 = Clustering::from_labels(relabeled);
        prop_assert_eq!(c1, c2);
    }

    #[test]
    fn restrict_preserves_co_membership(
        labels in prop::collection::vec(0u32..4, 4..20)
    ) {
        let c = Clustering::from_labels(labels);
        let n = c.len();
        let subset: Vec<usize> = (0..n).step_by(2).collect();
        let r = c.restrict(&subset);
        for (i, &u) in subset.iter().enumerate() {
            for (j, &v) in subset.iter().enumerate() {
                prop_assert_eq!(r.same_cluster(i, j), c.same_cluster(u, v));
            }
        }
    }

    #[test]
    fn agglomerative_clusters_have_average_distance_at_most_half(
        inputs in (3usize..12).prop_flat_map(|n| clusterings_strategy(n, 2..6, 4))
    ) {
        let oracle = DenseOracle::from_clusterings(&inputs);
        let result = run(&Algorithm::Agglomerative(AgglomerativeParams::default()), &oracle);
        for members in result.clusters() {
            if members.len() < 2 { continue; }
            let mut total = 0.0;
            let mut pairs = 0;
            for (i, &u) in members.iter().enumerate() {
                for &v in &members[i + 1..] {
                    total += oracle.dist(u, v);
                    pairs += 1;
                }
            }
            prop_assert!(total / pairs as f64 <= 0.5 + 1e-9);
        }
    }

    #[test]
    fn balls_theoretical_alpha_is_within_3x_of_optimum(
        inputs in (2usize..8).prop_flat_map(|n| clusterings_strategy(n, 2..6, 3))
    ) {
        // Theorem 1: cost(BALLS, α=¼) ≤ 3 · OPT. The proof requires the
        // triangle inequality, which instances from clusterings satisfy.
        let oracle = DenseOracle::from_clusterings(&inputs);
        let opt = optimal_clustering(&oracle);
        let result = run(&Algorithm::Balls(BallsParams::theoretical()), &oracle);
        let cost = correlation_cost(&oracle, &result);
        prop_assert!(
            cost <= 3.0 * opt.cost + 1e-6,
            "BALLS cost {} vs 3·OPT {}",
            cost,
            3.0 * opt.cost
        );
    }
}
