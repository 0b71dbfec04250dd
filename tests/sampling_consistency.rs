//! SAMPLING correctness and oracle-consistency tests at moderate scale —
//! the properties §4.1 of the paper relies on.

use aggclust_core::algorithms::sampling::{sampling, SampleSize, SamplingDetails, SamplingParams};
use aggclust_core::algorithms::{AgglomerativeParams, Algorithm, BallsParams};
use aggclust_core::clustering::Clustering;
use aggclust_core::cost::correlation_cost;
use aggclust_core::instance::{CorrelationInstance, DistanceOracle, MissingPolicy};
use aggclust_core::{RunBudget, RunCtx};
use aggclust_data::presets::votes_like;
use aggclust_data::to_clusterings::attribute_clusterings;
use aggclust_metrics::classification_error;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Clusterings with a hidden block structure of `k` blocks over `n` nodes.
fn block_inputs(n: usize, m: usize, k: u32, seed: u64) -> Vec<Clustering> {
    let mut rng = StdRng::seed_from_u64(seed);
    let truth: Vec<u32> = (0..n).map(|v| (v as u32) % k).collect();
    (0..m)
        .map(|_| {
            let mut labels = truth.clone();
            for _ in 0..(n / 20) {
                let v = rng.gen_range(0..n);
                labels[v] = rng.gen_range(0..k);
            }
            Clustering::from_labels(labels)
        })
        .collect()
}

#[test]
fn lazy_oracle_scales_where_dense_would_not_be_needed() {
    // 20k nodes: the dense matrix would be 1.6 GB; the lazy oracle runs
    // SAMPLING in O(n·s) lookups.
    let n = 20_000;
    let inputs = block_inputs(n, 6, 5, 1);
    let oracle = CorrelationInstance::from_clusterings(&inputs);
    let params = SamplingParams::new(
        120,
        Algorithm::Agglomerative(AgglomerativeParams::default()),
        7,
    );
    let c = run_sampling(&oracle, &params).clustering;
    assert_eq!(c.len(), n);
    // The five blocks dominate the result.
    let mut sizes = c.cluster_sizes();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    assert!(sizes[4] > n / 10, "block structure lost: {:?}", &sizes[..5]);
}

#[test]
fn sample_size_log_policy() {
    let n = 10_000;
    let inputs = block_inputs(n, 4, 4, 3);
    let oracle = CorrelationInstance::from_clusterings(&inputs);
    let params = SamplingParams {
        size: SampleSize::LogFactor(12.0),
        base: Algorithm::Agglomerative(AgglomerativeParams::default()),
        seed: 5,
        recluster_singletons: true,
    };
    let details = run_sampling(&oracle, &params);
    let expected = (12.0 * (n as f64).ln()).ceil() as usize;
    assert_eq!(details.sample.len(), expected);
    assert!(details.clustering.num_clusters() >= 4);
}

#[test]
fn sampling_quality_improves_with_sample_size() {
    let (dataset, _) = votes_like(11);
    let instance = CorrelationInstance::from_partial(
        attribute_clusterings(&dataset),
        MissingPolicy::Coin(0.5),
    );
    let oracle = instance.dense_oracle();
    let base = Algorithm::Agglomerative(AgglomerativeParams::default());
    let full = run(&base, &oracle);
    let full_cost = correlation_cost(&oracle, &full);

    let mut costs = Vec::new();
    for sample in [20usize, 80, 300] {
        let params = SamplingParams::new(sample, base.clone(), 3);
        let c = run_sampling(&oracle, &params).clustering;
        costs.push(correlation_cost(&oracle, &c));
    }
    // Largest sample must land within 5% of the non-sampling cost; the
    // smallest is allowed to be worse (but bounded).
    assert!(
        costs[2] <= full_cost * 1.05,
        "sample 300 cost {} vs full {}",
        costs[2],
        full_cost
    );
    assert!(costs[0] <= full_cost * 1.6);
}

#[test]
fn sampling_classification_error_converges() {
    // The Figure-5-middle property at test size.
    let (dataset, _) = votes_like(13);
    let instance = CorrelationInstance::from_partial(
        attribute_clusterings(&dataset),
        MissingPolicy::Coin(0.5),
    );
    let oracle = instance.dense_oracle();
    let base = Algorithm::Agglomerative(AgglomerativeParams::default());
    let full_ec = classification_error(&run(&base, &oracle), dataset.class_labels());
    let params = SamplingParams::new(250, base, 17);
    let sampled_ec = classification_error(
        &run_sampling(&oracle, &params).clustering,
        dataset.class_labels(),
    );
    assert!(
        (sampled_ec - full_ec).abs() < 0.08,
        "sampled {sampled_ec} vs full {full_ec}"
    );
}

#[test]
fn deterministic_and_seed_sensitive() {
    let inputs = block_inputs(2_000, 5, 4, 9);
    let oracle = CorrelationInstance::from_clusterings(&inputs);
    let mk = |seed| SamplingParams::new(60, Algorithm::Balls(BallsParams::practical()), seed);
    assert_eq!(
        run_sampling(&oracle, &mk(1)).clustering,
        run_sampling(&oracle, &mk(1)).clustering
    );
    let a = run_sampling(&oracle, &mk(1)).clustering;
    let b = run_sampling(&oracle, &mk(2)).clustering;
    // Different seeds sample different nodes; results may coincide on easy
    // data but the samples must differ.
    let da = run_sampling(&oracle, &mk(1)).sample;
    let db = run_sampling(&oracle, &mk(2)).sample;
    assert_ne!(da, db);
    // Both recover the 4 blocks.
    assert!(a.num_clusters() >= 4 && b.num_clusters() >= 4);
}

#[test]
fn restricted_oracle_matches_parent() {
    let inputs = block_inputs(500, 4, 3, 21);
    let dense = CorrelationInstance::from_clusterings(&inputs).dense_oracle();
    let lazy = CorrelationInstance::from_clusterings(&inputs);
    let subset: Vec<usize> = (0..500).step_by(7).collect();
    let rd = dense.restrict(&subset);
    let rl = lazy.restrict(&subset);
    for i in 0..subset.len() {
        for j in 0..subset.len() {
            assert!((rd.dist(i, j) - dense.dist(subset[i], subset[j])).abs() < 1e-12);
            assert!((rd.dist(i, j) - rl.dist(i, j)).abs() < 1e-12);
        }
    }
}
