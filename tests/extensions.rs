//! Integration tests for the extension surface: the consensus builder on
//! realistic presets, weighted aggregation, the incremental assigner, and
//! the extension algorithms.

use aggclust_core::algorithms::sampling::{sampling, SamplingDetails, SamplingParams};
use aggclust_core::algorithms::{AgglomerativeParams, Algorithm, AnnealingParams, PivotParams};
use aggclust_core::assign::ClusterAssigner;
use aggclust_core::clustering::Clustering;
use aggclust_core::consensus::ConsensusBuilder;
use aggclust_core::cost::correlation_cost;
use aggclust_core::exact::branch_and_bound;
use aggclust_core::instance::{CorrelationInstance, DenseOracle, DistanceOracle, MissingPolicy};
use aggclust_core::{RunBudget, RunCtx};
use aggclust_data::presets::votes_like;
use aggclust_data::to_clusterings::attribute_clusterings;
use aggclust_metrics::classification_error;

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

#[test]
fn consensus_builder_on_votes_preset() {
    let (dataset, _) = votes_like(3);
    let inputs = attribute_clusterings(&dataset);
    let result = ConsensusBuilder::new()
        .missing_policy(MissingPolicy::Coin(0.5))
        .try_aggregate_partial(inputs)
        .unwrap();
    assert!(!result.sampled);
    assert!(result.clustering.num_clusters() <= 4);
    let ec = classification_error(&result.clustering, dataset.class_labels());
    assert!(ec < 0.2, "E_C = {ec}");
    // Refined result sits close to the lower bound.
    let lb = result.lower_bound.unwrap();
    assert!(result.cost <= lb * 1.15, "cost {} vs lb {lb}", result.cost);
}

#[test]
fn weighted_aggregation_shifts_the_consensus() {
    // Two clusterings that disagree; weights decide the winner.
    let a = Clustering::from_labels(vec![0, 0, 0, 1, 1, 1]);
    let b = Clustering::from_labels(vec![0, 0, 1, 1, 2, 2]);
    let favor_a = DenseOracle::from_weighted_clusterings(&[a.clone(), b.clone()], &[5.0, 1.0]);
    let favor_b = DenseOracle::from_weighted_clusterings(&[a.clone(), b.clone()], &[1.0, 5.0]);
    let algo = Algorithm::Agglomerative(AgglomerativeParams::default());
    assert_eq!(run(&algo, &favor_a), a);
    assert_eq!(run(&algo, &favor_b), b);
}

#[test]
fn assigner_agrees_with_sampling_assignment_phase() {
    // Build a block instance, sample it, and check that ClusterAssigner
    // reproduces the assignment SAMPLING made for non-sampled nodes that
    // did not go through the re-aggregation pass.
    let n = 300;
    let truth: Vec<u32> = (0..n as u32).map(|v| v % 3).collect();
    let inputs = vec![Clustering::from_labels(truth.clone()); 4];
    let oracle = DenseOracle::from_clusterings(&inputs);
    let params = SamplingParams::new(
        45,
        Algorithm::Agglomerative(AgglomerativeParams::default()),
        5,
    );
    let details = run_sampling(&oracle, &params);

    // Reference = the sample clustering restricted to sampled nodes.
    let sample = &details.sample;
    let reference = details.clustering.restrict(sample);
    let assigner = ClusterAssigner::new(reference.clone());
    for v in 0..n {
        if sample.contains(&v) {
            continue;
        }
        let decision = assigner.assign(|si| oracle.dist(v, sample[si]));
        if let Some(label) = decision {
            // The assigner's target cluster contains exactly the sampled
            // nodes sharing v's final cluster.
            let expected = details
                .clustering
                .label(sample[reference.labels().iter().position(|&l| l == label).unwrap()]);
            assert_eq!(details.clustering.label(v), expected, "node {v}");
        }
    }
}

#[test]
fn extension_algorithms_run_through_the_enum() {
    let inputs = vec![
        Clustering::from_labels(vec![0, 0, 1, 1, 2, 2, 0]),
        Clustering::from_labels(vec![0, 0, 1, 1, 2, 2, 1]),
        Clustering::from_labels(vec![0, 0, 1, 1, 2, 2, 2]),
    ];
    let oracle = DenseOracle::from_clusterings(&inputs);
    let algos = [
        Algorithm::Pivot(PivotParams::randomized(3, 5)),
        Algorithm::Annealing(AnnealingParams {
            sweeps: 40,
            ..Default::default()
        }),
    ];
    for algo in &algos {
        let c = run(algo, &oracle);
        assert_eq!(c.len(), 7);
        // Core blocks must survive any reasonable aggregator.
        assert!(c.same_cluster(0, 1), "{}", algo.name());
        assert!(c.same_cluster(2, 3), "{}", algo.name());
        assert!(c.same_cluster(4, 5), "{}", algo.name());
    }
}

#[test]
fn branch_and_bound_confirms_local_search_on_presets() {
    // On a small votes subsample, LOCALSEARCH lands on the true optimum —
    // verified by branch-and-bound (infeasible for plain enumeration at
    // n = 20).
    let (dataset, _) = votes_like(7);
    let dataset = dataset.subsample_random(20, 1);
    let instance = CorrelationInstance::from_partial(
        attribute_clusterings(&dataset),
        MissingPolicy::Coin(0.5),
    );
    let oracle = instance.dense_oracle();
    let (exact, _) = branch_and_bound(&oracle, &mut RunCtx::new(&RunBudget::unlimited())).unwrap();
    let ls = run(&Algorithm::LocalSearch(Default::default()), &oracle);
    let ls_cost = correlation_cost(&oracle, &ls);
    assert!(
        ls_cost <= exact.cost * 1.02 + 1e-9,
        "LocalSearch {ls_cost} vs optimum {}",
        exact.cost
    );
    assert!(exact.cost <= ls_cost + 1e-9);
}
