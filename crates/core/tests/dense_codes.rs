//! The dense matrix stores one `u16` code per pair and a code → `X_uv`
//! table. These tests pin that the coding is invisible to every reader:
//!
//! * `DenseOracle::dist` returns the bits `ClusteringsOracle::dist`
//!   computes, for total inputs, every coin probability and `Ignore`
//!   (including pairs no input can judge), at several input counts;
//! * the dense `restrict` / `to_dense` overrides return the same bits;
//! * `accumulate_row` leaves the same bits as the per-element loop on
//!   every oracle kind;
//! * a caller's oracle with more distinct distances than codes still
//!   restricts, densifies and samples.

use aggclust_core::algorithms::balls::BallsParams;
use aggclust_core::algorithms::sampling::{sampling, SamplingParams};
use aggclust_core::algorithms::Algorithm;
use aggclust_core::clustering::{Clustering, PartialClustering};
use aggclust_core::instance::{
    ClusteringsOracle, CorrelationInstance, DenseOracle, DistanceOracle,
};
use aggclust_core::{MissingPolicy, RunBudget, RunCtx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 60;

/// `m` random clusterings over `n` objects with a fifth of the labels
/// missing. Object 0 is missing in every input, so each pair `(0, v)` is
/// one that no input can judge.
fn partial_inputs(n: usize, m: usize, seed: u64) -> Vec<PartialClustering> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| {
            PartialClustering::from_labels(
                (0..n)
                    .map(|v| (v > 0 && !rng.gen_bool(0.2)).then(|| rng.gen_range(0..4)))
                    .collect(),
            )
        })
        .collect()
}

fn total_inputs(n: usize, m: usize, seed: u64) -> Vec<PartialClustering> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| {
            let labels = (0..n).map(|_| rng.gen_range(0..5)).collect();
            PartialClustering::from_total(&Clustering::from_labels(labels))
        })
        .collect()
}

const POLICIES: [MissingPolicy; 5] = [
    MissingPolicy::Ignore,
    MissingPolicy::Coin(0.0),
    MissingPolicy::Coin(0.3),
    MissingPolicy::Coin(0.5),
    MissingPolicy::Coin(1.0),
];

fn assert_same_bits(a: &impl DistanceOracle, b: &impl DistanceOracle, at: &str) {
    assert_eq!(a.len(), b.len(), "{at}");
    for u in 0..a.len() {
        for v in 0..a.len() {
            assert_eq!(
                a.dist(u, v).to_bits(),
                b.dist(u, v).to_bits(),
                "{at}: X[{u},{v}]"
            );
        }
    }
}

#[test]
fn dense_dist_is_bit_identical_to_the_lazy_oracle() {
    let subset: Vec<usize> = (0..N).rev().step_by(3).collect();
    for m in [1usize, 3, 10, 40] {
        for (kind, inputs) in [
            ("partial", partial_inputs(N, m, m as u64)),
            ("total", total_inputs(N, m, m as u64)),
        ] {
            for policy in POLICIES {
                let at = format!("m={m} {kind} {policy:?}");
                let instance = CorrelationInstance::from_partial(inputs.clone(), policy);
                let lazy = instance.lazy_oracle();
                let dense = instance.dense_oracle();
                assert_same_bits(&dense, &lazy, &at);
                assert_same_bits(&lazy.to_dense(), &lazy, &at);
                let budgeted = instance.try_dense_oracle(&RunBudget::unlimited());
                assert_same_bits(&budgeted.expect("unlimited"), &lazy, &at);
                let expected =
                    DenseOracle::from_fn(subset.len(), |i, j| lazy.dist(subset[i], subset[j]));
                assert_same_bits(&lazy.restrict(&subset), &expected, &at);
                assert_same_bits(&dense.restrict(&subset), &expected, &at);
            }
        }
    }
    // The pairs with object 0 carry no information: ½ under `Ignore`.
    let instance =
        CorrelationInstance::from_partial(partial_inputs(N, 3, 3), MissingPolicy::Ignore);
    assert_eq!(instance.dense_oracle().dist(0, 7), 0.5);
}

/// `accumulate_row` against the per-element loop it must reproduce, for
/// every row and a label vector with a few dozen clusters.
fn assert_accumulates_like_the_loop(oracle: &dyn DistanceOracle, at: &str) {
    let n = oracle.len();
    let mut rng = StdRng::seed_from_u64(11);
    let labels: Vec<u32> = (0..n)
        .map(|_| rng.gen_range(0..(n as u32 / 3).max(1)))
        .collect();
    let k = labels.iter().copied().max().unwrap_or(0) as usize + 1;
    for v in 0..n {
        let mut expected = vec![0.0f64; k];
        let mut expected_total = 0.0f64;
        for (u, &label) in labels.iter().enumerate() {
            if u != v {
                let x = oracle.dist(v, u);
                expected[label as usize] += x;
                expected_total += x;
            }
        }
        let mut sums = vec![0.0f64; k];
        let total = oracle.accumulate_row(v, &labels, &mut sums);
        assert_eq!(total.to_bits(), expected_total.to_bits(), "{at}: T_{v}");
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&sums), bits(&expected), "{at}: M({v}, ·)");
    }
}

#[test]
fn accumulate_row_matches_the_per_element_loop_on_every_oracle() {
    for (kind, inputs) in [
        ("partial", partial_inputs(N, 10, 21)),
        ("total", total_inputs(N, 10, 21)),
    ] {
        let instance = CorrelationInstance::from_partial(inputs.clone(), MissingPolicy::Coin(0.3));
        assert_accumulates_like_the_loop(&instance.dense_oracle(), &format!("dense {kind}"));
        let lazy = ClusteringsOracle::new(inputs, MissingPolicy::Coin(0.3));
        assert_accumulates_like_the_loop(&lazy, &format!("lazy {kind}"));
    }
    let values = DenseOracle::from_fn(N, |u, v| ((u * 7 + v * 13) % 11) as f64 / 11.0);
    assert_accumulates_like_the_loop(&values, "from_fn");
}

/// A caller's oracle with a distinct distance on every pair.
struct Continuous(usize);

impl DistanceOracle for Continuous {
    fn len(&self) -> usize {
        self.0
    }

    fn dist(&self, u: usize, v: usize) -> f64 {
        if u == v {
            return 0.0;
        }
        (u.min(v) * self.0 + u.max(v)) as f64 / (self.0 * self.0) as f64
    }
}

#[test]
fn sampling_runs_on_a_caller_oracle_with_continuous_distances() {
    // A 400-object sample has 79 800 distinct distances, more than a
    // coded matrix holds: the sample keeps its values.
    let oracle = Continuous(600);
    let subset: Vec<usize> = (0..400).map(|i| i * 7 % 600).collect();
    let sample = oracle.restrict(&subset);
    for (i, &a) in subset.iter().enumerate() {
        for (j, &b) in subset.iter().enumerate() {
            assert_eq!(sample.dist(i, j).to_bits(), oracle.dist(a, b).to_bits());
        }
    }
    assert_same_bits(&oracle.to_dense(), &oracle, "to_dense");
    let params = SamplingParams::new(400, Algorithm::Balls(BallsParams::default()), 1);
    let details = sampling(&oracle, &params, &mut RunCtx::new(&RunBudget::unlimited())).unwrap();
    assert_eq!(details.clustering.len(), 600);
}
