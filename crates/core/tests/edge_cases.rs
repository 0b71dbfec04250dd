//! Edge-case and stress tests for the core: degenerate instances, extreme
//! distances, label-space boundaries, and cross-algorithm consistency on
//! adversarial inputs.

use aggclust_core::algorithms::sampling::{sampling, SamplingDetails};
use aggclust_core::algorithms::{
    AgglomerativeParams, Algorithm, BallsParams, FurthestParams, LocalSearchParams, PivotParams,
    SamplingParams,
};
use aggclust_core::clustering::Clustering;
use aggclust_core::cost::{correlation_cost, lower_bound, split_everything_cost};
use aggclust_core::instance::{DenseOracle, DistanceOracle};
use aggclust_core::{RunBudget, RunCtx};

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

fn agglomerative() -> Algorithm {
    Algorithm::Agglomerative(AgglomerativeParams::paper())
}

fn local_search() -> Algorithm {
    Algorithm::LocalSearch(LocalSearchParams::default())
}

/// Every algorithm must handle the all-zeros instance (everyone together).
#[test]
fn all_zero_distances() {
    let n = 12;
    let oracle = DenseOracle::from_fn(n, |_, _| 0.0);
    let one = Clustering::one_cluster(n);
    for algorithm in [
        agglomerative(),
        Algorithm::Furthest(FurthestParams::default()),
        local_search(),
        Algorithm::Balls(BallsParams::practical()),
        Algorithm::Pivot(PivotParams::majority(1)),
    ] {
        assert_eq!(run(&algorithm, &oracle), one, "{}", algorithm.name());
    }
    assert_eq!(lower_bound(&oracle), 0.0);
}

/// Every algorithm must handle the all-ones instance (everyone apart).
#[test]
fn all_one_distances() {
    let n = 12;
    let oracle = DenseOracle::from_fn(n, |_, _| 1.0);
    let singles = Clustering::singletons(n);
    for algorithm in [
        agglomerative(),
        local_search(),
        Algorithm::Balls(BallsParams::practical()),
        Algorithm::Pivot(PivotParams::majority(1)),
    ] {
        assert_eq!(run(&algorithm, &oracle), singles, "{}", algorithm.name());
    }
    assert_eq!(split_everything_cost(&oracle), 0.0);
}

/// The maximally ambiguous instance (X ≡ ½): every clustering costs the
/// same, the lower bound is tight everywhere, and nothing crashes.
#[test]
fn all_half_distances() {
    let n = 10;
    let pairs = (n * (n - 1) / 2) as f64;
    let oracle = DenseOracle::from_fn(n, |_, _| 0.5);
    let expected = 0.5 * pairs;
    for c in [
        Clustering::one_cluster(n),
        Clustering::singletons(n),
        Clustering::from_labels((0..n as u32).map(|v| v % 3).collect()),
    ] {
        assert!((correlation_cost(&oracle, &c) - expected).abs() < 1e-9);
    }
    assert!((lower_bound(&oracle) - expected).abs() < 1e-9);
    // Algorithms return *some* valid clustering.
    assert_eq!(run(&agglomerative(), &oracle).len(), n);
    assert_eq!(run(&local_search(), &oracle).len(), n);
}

/// Two-object instances exercise every boundary branch.
#[test]
fn two_object_instances() {
    for (d, together) in [(0.0, true), (0.49, true), (0.51, false), (1.0, false)] {
        let oracle = DenseOracle::from_fn(2, |_, _| d);
        let c = run(&agglomerative(), &oracle);
        assert_eq!(c.same_cluster(0, 1), together, "d = {d}");
        let ls = run(&local_search(), &oracle);
        assert_eq!(ls.same_cluster(0, 1), together, "d = {d} (local search)");
    }
    // Exactly ½: both answers cost the same; just require validity.
    let oracle = DenseOracle::from_fn(2, |_, _| 0.5);
    assert_eq!(run(&agglomerative(), &oracle).len(), 2);
}

/// Labels far above u32 ranges used in practice normalize correctly.
#[test]
fn huge_label_values_normalize() {
    let c = Clustering::from_labels(vec![u32::MAX, 0, u32::MAX, 4_000_000]);
    assert_eq!(c.labels(), &[0, 1, 0, 2]);
    assert_eq!(c.num_clusters(), 3);
}

/// A clustering with every object in its own cluster at large n keeps all
/// invariants (num_clusters, pairs_together, restrict).
#[test]
fn large_singleton_clustering() {
    let n = 50_000;
    let c = Clustering::singletons(n);
    assert_eq!(c.num_clusters(), n);
    assert_eq!(c.pairs_together(), 0);
    let sub = c.restrict(&[0, 777, 49_999]);
    assert_eq!(sub.num_clusters(), 3);
}

/// SAMPLING with sample size 1: the single sampled node forms one cluster,
/// the rest get assigned or become singletons; must not panic and must
/// cover all nodes.
#[test]
fn sampling_with_sample_of_one() {
    let inputs = vec![Clustering::from_labels((0..30u32).map(|v| v % 3).collect()); 3];
    let oracle = DenseOracle::from_clusterings(&inputs);
    let params = SamplingParams::new(
        1,
        Algorithm::Agglomerative(AgglomerativeParams::default()),
        9,
    );
    let c = run_sampling(&oracle, &params).clustering;
    assert_eq!(c.len(), 30);
}

/// Distances exactly at the ½ threshold: BALLS includes them in the ball
/// (the paper's "at most ½"), AGGLOMERATIVE does not merge at exactly ½
/// (strictly less). Both conventions are fixed behavior, pinned here.
#[test]
fn threshold_boundary_conventions() {
    let oracle = DenseOracle::from_fn(2, |_, _| 0.5);
    // Ball of node 0 contains node 1 (d ≤ ½); avg = ½ > α = 0.4 → singleton.
    let b = run(&Algorithm::Balls(BallsParams::practical()), &oracle);
    assert_eq!(b.num_clusters(), 2);
    // But with α = ½ the ball is accepted.
    let b2 = run(&Algorithm::Balls(BallsParams::with_alpha(0.5)), &oracle);
    assert_eq!(b2.num_clusters(), 1);
    // Agglomerative: merge requires avg < ½ strictly.
    let a = run(&agglomerative(), &oracle);
    assert_eq!(a.num_clusters(), 2);
}

/// A block instance large enough to exercise the NN-chain and LOCALSEARCH
/// bookkeeping at scale, with a known optimum.
#[test]
fn medium_scale_block_instance() {
    let n = 600;
    let truth = Clustering::from_labels((0..n as u32).map(|v| v % 4).collect());
    let inputs = vec![truth.clone(); 5];
    let oracle = DenseOracle::from_clusterings(&inputs);
    for algo in [
        Algorithm::Agglomerative(AgglomerativeParams::default()),
        Algorithm::Balls(BallsParams::practical()),
        Algorithm::LocalSearch(LocalSearchParams::default()),
        Algorithm::Furthest(FurthestParams::default()),
    ] {
        assert_eq!(run(&algo, &oracle), truth, "{}", algo.name());
    }
    assert_eq!(lower_bound(&oracle), 0.0);
}
