//! The worked example of Figures 1–2, verified end to end through every
//! public entry point: this is the one instance whose numbers the paper
//! states exactly, so everything must agree with it.

use aggclust_core::algorithms::sampling::{sampling, SamplingDetails};
use aggclust_core::algorithms::{
    best::best_clustering, AgglomerativeParams, Algorithm, BallsParams, FurthestParams,
    LocalSearchParams, SamplingParams,
};
use aggclust_core::clustering::Clustering;
use aggclust_core::cost::{correlation_cost, lower_bound};
use aggclust_core::distance::{disagreement_distance, total_disagreement};
use aggclust_core::exact::optimal_clustering;
use aggclust_core::instance::{CorrelationInstance, DenseOracle, DistanceOracle};
use aggclust_core::{RunBudget, RunCtx};
use aggclust_metrics::disagreement::{disagreement_error, expected_disagreement_error};

/// `algorithm` on `oracle` under an unlimited budget.
fn run<O: DistanceOracle + Sync>(algorithm: &Algorithm, oracle: &O) -> Clustering {
    algorithm
        .run(oracle, &mut RunCtx::new(&RunBudget::unlimited()))
        .unwrap()
        .clustering
}

/// SAMPLING on `oracle` under an unlimited budget.
fn run_sampling<O: DistanceOracle + Sync>(oracle: &O, params: &SamplingParams) -> SamplingDetails {
    sampling(oracle, params, &mut RunCtx::new(&RunBudget::unlimited())).unwrap()
}

fn figure1_inputs() -> Vec<Clustering> {
    vec![
        Clustering::from_labels(vec![0, 0, 1, 1, 2, 2]),
        Clustering::from_labels(vec![0, 1, 0, 1, 2, 3]),
        Clustering::from_labels(vec![0, 1, 0, 1, 2, 2]),
    ]
}

fn optimum() -> Clustering {
    Clustering::from_labels(vec![0, 1, 0, 1, 2, 2])
}

#[test]
fn figure1_has_five_disagreements_at_the_optimum() {
    let inputs = figure1_inputs();
    assert_eq!(total_disagreement(&inputs, &optimum()), 5);
    // Broken down as in the paper: 4 vs C1, 1 vs C2, 0 vs C3.
    assert_eq!(disagreement_distance(&inputs[0], &optimum()), 4);
    assert_eq!(disagreement_distance(&inputs[1], &optimum()), 1);
    assert_eq!(disagreement_distance(&inputs[2], &optimum()), 0);
}

#[test]
fn figure2_edge_weights() {
    let oracle = DenseOracle::from_clusterings(&figure1_inputs());
    let third = 1.0 / 3.0;
    let solid = [(0, 2), (1, 3), (4, 5)];
    let dashed = [(0, 1), (2, 3)];
    for (u, v) in solid {
        assert!((oracle.dist(u, v) - third).abs() < 1e-12);
    }
    for (u, v) in dashed {
        assert!((oracle.dist(u, v) - 2.0 * third).abs() < 1e-12);
    }
    // v5 is separated from v1..v4 by every clustering.
    for v in 0..4 {
        assert_eq!(oracle.dist(4, v), 1.0);
    }
}

#[test]
fn exhaustive_search_confirms_the_paper_optimum() {
    let oracle = DenseOracle::from_clusterings(&figure1_inputs());
    let exact = optimal_clustering(&oracle);
    assert_eq!(exact.clustering, optimum());
    assert!((exact.cost - 5.0 / 3.0).abs() < 1e-9);
    assert_eq!(exact.partitions_examined, 203); // Bell(6)
}

#[test]
fn all_five_algorithms_recover_the_optimum() {
    let inputs = figure1_inputs();
    let oracle = DenseOracle::from_clusterings(&inputs);

    assert_eq!(best_clustering(&inputs).clustering, optimum());
    for algorithm in [
        Algorithm::Balls(BallsParams::practical()),
        Algorithm::Agglomerative(AgglomerativeParams::paper()),
        Algorithm::Furthest(FurthestParams::default()),
        Algorithm::LocalSearch(LocalSearchParams::default()),
    ] {
        assert_eq!(run(&algorithm, &oracle), optimum(), "{}", algorithm.name());
    }
    // SAMPLING with the full set as the sample degenerates to the base
    // algorithm.
    let params = SamplingParams::new(
        6,
        Algorithm::Agglomerative(AgglomerativeParams::default()),
        0,
    );
    assert_eq!(run_sampling(&oracle, &params).clustering, optimum());
}

#[test]
fn metrics_agree_with_the_core() {
    let inputs = figure1_inputs();
    let oracle = DenseOracle::from_clusterings(&inputs);
    let opt = optimum();
    assert_eq!(disagreement_error(&inputs, &opt), 5);
    assert!((expected_disagreement_error(&oracle, &opt) - 5.0).abs() < 1e-9);
    assert!(lower_bound(&oracle) <= correlation_cost(&oracle, &opt) + 1e-12);
}

#[test]
fn lazy_and_dense_oracles_agree_on_the_example() {
    let inputs = figure1_inputs();
    let dense = DenseOracle::from_clusterings(&inputs);
    let instance = CorrelationInstance::from_clusterings(&inputs);
    let built = instance.dense_oracle();
    for u in 0..6 {
        for v in 0..6 {
            let d = dense.dist(u, v);
            assert!((d - instance.dist(u, v)).abs() < 1e-12);
            assert!((d - built.dist(u, v)).abs() < 1e-12);
        }
    }
}
