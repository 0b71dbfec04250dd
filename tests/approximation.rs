//! Approximation-quality tests against the exhaustive optimum on a corpus
//! of small seeded instances — the paper's theoretical guarantees, checked
//! empirically where they are checkable.

use aggclust_core::algorithms::{
    best::best_clustering, AgglomerativeParams, Algorithm, BallsParams, FurthestParams,
    LocalSearchParams,
};
use aggclust_core::clustering::Clustering;
use aggclust_core::cost::correlation_cost;
use aggclust_core::exact::optimal_clustering;
use aggclust_core::instance::{DenseOracle, DistanceOracle};
use aggclust_core::{RunBudget, RunCtx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `algorithm` on `oracle` under an unlimited budget.
fn run<O: DistanceOracle + Sync>(algorithm: &Algorithm, oracle: &O) -> Clustering {
    algorithm
        .run(oracle, &mut RunCtx::new(&RunBudget::unlimited()))
        .unwrap()
        .clustering
}

/// Random set of m clusterings of n objects with ≤ kmax clusters.
fn random_instance(n: usize, m: usize, kmax: u32, seed: u64) -> Vec<Clustering> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| Clustering::from_labels((0..n).map(|_| rng.gen_range(0..kmax)).collect()))
        .collect()
}

/// Correlated instance: a hidden ground truth plus per-clustering noise —
/// closer to real aggregation workloads than uniform noise.
fn correlated_instance(n: usize, m: usize, k: u32, flips: usize, seed: u64) -> Vec<Clustering> {
    let mut rng = StdRng::seed_from_u64(seed);
    let truth: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k)).collect();
    (0..m)
        .map(|_| {
            let mut labels = truth.clone();
            for _ in 0..flips {
                let v = rng.gen_range(0..n);
                labels[v] = rng.gen_range(0..k);
            }
            Clustering::from_labels(labels)
        })
        .collect()
}

#[test]
fn balls_quarter_alpha_is_3_approximate() {
    // Theorem 1 of the paper, over 40 instances of both flavors.
    for seed in 0..20u64 {
        for inputs in [
            random_instance(7, 4, 3, seed),
            correlated_instance(7, 5, 3, 2, seed),
        ] {
            let oracle = DenseOracle::from_clusterings(&inputs);
            let opt = optimal_clustering(&oracle).cost;
            let cost = correlation_cost(
                &oracle,
                &run(&Algorithm::Balls(BallsParams::theoretical()), &oracle),
            );
            assert!(
                cost <= 3.0 * opt + 1e-9,
                "seed {seed}: BALLS {cost} vs 3·OPT {}",
                3.0 * opt
            );
        }
    }
}

#[test]
fn best_clustering_bound_holds_and_is_not_vacuous() {
    let mut worst_ratio: f64 = 0.0;
    for seed in 0..30u64 {
        let inputs = random_instance(6, 3, 3, seed);
        let m = inputs.len() as f64;
        let oracle = DenseOracle::from_clusterings(&inputs);
        let opt = optimal_clustering(&oracle).cost * m;
        if opt < 1e-9 {
            continue;
        }
        let best = best_clustering(&inputs).cost as f64;
        let ratio = best / opt;
        worst_ratio = worst_ratio.max(ratio);
        assert!(
            ratio <= 2.0 * (1.0 - 1.0 / m) + 1e-9,
            "seed {seed}: {ratio}"
        );
    }
    // The bound is not trivially loose on this corpus: some instance gets
    // within 10% of it or at least above 1 (BestClustering is not optimal).
    assert!(worst_ratio > 1.0, "BestClustering was optimal everywhere");
}

#[test]
fn agglomerative_is_2_approximate_for_three_clusterings() {
    // The paper's m = 3 guarantee for AGGLOMERATIVE.
    for seed in 0..25u64 {
        let inputs = random_instance(7, 3, 3, seed);
        let oracle = DenseOracle::from_clusterings(&inputs);
        let opt = optimal_clustering(&oracle).cost;
        let cost = correlation_cost(
            &oracle,
            &run(
                &Algorithm::Agglomerative(AgglomerativeParams::paper()),
                &oracle,
            ),
        );
        assert!(
            cost <= 2.0 * opt + 1e-9,
            "seed {seed}: AGGLOMERATIVE {cost} vs 2·OPT {}",
            2.0 * opt
        );
    }
}

#[test]
fn balls_m3_is_2_approximate() {
    // "For the case that m = 3 it is easy to show that the cost of the
    // BALLS algorithm is at most 2 times that of the optimal solution."
    for seed in 0..25u64 {
        let inputs = random_instance(7, 3, 3, seed);
        let oracle = DenseOracle::from_clusterings(&inputs);
        let opt = optimal_clustering(&oracle).cost;
        let cost = correlation_cost(
            &oracle,
            &run(&Algorithm::Balls(BallsParams::theoretical()), &oracle),
        );
        assert!(
            cost <= 2.0 * opt + 1e-9,
            "seed {seed}: BALLS(m=3) {cost} vs 2·OPT {}",
            2.0 * opt
        );
    }
}

#[test]
fn all_algorithms_are_near_optimal_on_correlated_instances() {
    // On realistic (correlated) aggregation inputs every algorithm should
    // land within 1.5× of the optimum — the regime the paper's experiments
    // live in.
    for seed in 0..15u64 {
        let inputs = correlated_instance(8, 5, 3, 2, 1000 + seed);
        let oracle = DenseOracle::from_clusterings(&inputs);
        let opt = optimal_clustering(&oracle).cost;
        let results = [
            (
                "agglomerative",
                correlation_cost(
                    &oracle,
                    &run(
                        &Algorithm::Agglomerative(AgglomerativeParams::paper()),
                        &oracle,
                    ),
                ),
            ),
            (
                "furthest",
                correlation_cost(
                    &oracle,
                    &run(&Algorithm::Furthest(FurthestParams::default()), &oracle),
                ),
            ),
            (
                "balls-0.4",
                correlation_cost(
                    &oracle,
                    &run(&Algorithm::Balls(BallsParams::practical()), &oracle),
                ),
            ),
            (
                "local-search",
                correlation_cost(
                    &oracle,
                    &run(
                        &Algorithm::LocalSearch(LocalSearchParams::default()),
                        &oracle,
                    ),
                ),
            ),
        ];
        for (name, cost) in results {
            assert!(
                cost <= 1.5 * opt + 1e-6,
                "seed {seed}: {name} cost {cost} vs opt {opt}"
            );
        }
    }
}

#[test]
fn local_search_matches_optimum_on_most_small_instances() {
    let mut optimal_hits = 0;
    let total = 20;
    for seed in 0..total {
        let inputs = correlated_instance(8, 4, 3, 2, 2000 + seed);
        let oracle = DenseOracle::from_clusterings(&inputs);
        let opt = optimal_clustering(&oracle).cost;
        let cost = correlation_cost(
            &oracle,
            &run(
                &Algorithm::LocalSearch(LocalSearchParams::default()),
                &oracle,
            ),
        );
        if (cost - opt).abs() < 1e-9 {
            optimal_hits += 1;
        }
    }
    assert!(
        optimal_hits >= (0.7 * total as f64) as usize,
        "LocalSearch optimal on only {optimal_hits}/{total}"
    );
}
