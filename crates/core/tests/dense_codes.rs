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
//!   restricts, densifies and samples;
//! * the cost, lower bound and `E_D` of total or `Coin(½)` inputs, exact
//!   integers over the scale, equal the pair sums at any thread count, and
//!   are the same on the coded matrix, the lazy oracle and an edited
//!   matrix that keeps its scale; a matrix that loses it goes back to the
//!   pair pass.

use aggclust_core::algorithms::balls::BallsParams;
use aggclust_core::algorithms::sampling::{sampling, SamplingParams};
use aggclust_core::algorithms::Algorithm;
use aggclust_core::clustering::{Clustering, PartialClustering};
use aggclust_core::cost::{correlation_cost, exact_cost, lower_bound};
use aggclust_core::distance::total_disagreement;
use aggclust_core::instance::{
    ClusteringsOracle, CorrelationInstance, DenseOracle, DistanceOracle,
};
use aggclust_core::parallel::with_num_threads;
use aggclust_core::{ConsensusBuilder, MissingPolicy, RunBudget, RunCtx};
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

/// `(d(C), lower bound)` by a serial per-pair `f64` sum, and the same two
/// as exact numerators `Σ round(den·X)` over `den`.
fn pair_sums(oracle: &impl DistanceOracle, c: &Clustering, den: u32) -> ((f64, f64), (u64, u64)) {
    let (mut cost, mut bound) = (0.0, 0.0);
    let (mut cost_num, mut bound_num) = (0u64, 0u64);
    for u in 0..oracle.len() {
        for v in u + 1..oracle.len() {
            let x = oracle.dist(u, v);
            let num = (x * f64::from(den)).round() as u64;
            let den = u64::from(den);
            bound += x.min(1.0 - x);
            bound_num += num.min(den - num);
            if c.same_cluster(u, v) {
                cost += x;
                cost_num += num;
            } else {
                cost += 1.0 - x;
                cost_num += den - num;
            }
        }
    }
    ((cost, bound), (cost_num, bound_num))
}

/// Random total and `Coin(½)` instances with a candidate clustering each.
fn exact_cases() -> Vec<(String, CorrelationInstance, Clustering)> {
    let mut cases = Vec::new();
    for seed in 0..6u64 {
        let n = 20 + 13 * seed as usize;
        let m = 2 + seed as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let candidate = Clustering::from_labels((0..n).map(|_| rng.gen_range(0..4)).collect());
        let total =
            CorrelationInstance::from_partial(total_inputs(n, m, seed), MissingPolicy::Coin(0.5));
        let coin =
            CorrelationInstance::from_partial(partial_inputs(n, m, seed), MissingPolicy::Coin(0.5));
        cases.push((format!("total n={n} m={m}"), total, candidate.clone()));
        cases.push((format!("coin(1/2) n={n} m={m}"), coin, candidate));
    }
    cases
}

#[test]
fn exact_cost_and_bound_equal_the_pair_sums() {
    for (at, instance, c) in exact_cases() {
        let dense = instance.dense_oracle();
        let den = dense.exact_scale().expect("a proven scale");
        assert!(dense.pair_totals().is_some(), "{at}: pair totals");
        let ((cost_f64, bound_f64), (cost_num, bound_num)) = pair_sums(&dense, &c, den);
        let cost = correlation_cost(&dense, &c);
        let bound = lower_bound(&dense);
        assert!(
            (cost - cost_f64).abs() <= 1e-9 * cost_f64,
            "{at}: {cost} vs {cost_f64}"
        );
        assert!(
            (bound - bound_f64).abs() <= 1e-9 * bound_f64,
            "{at}: {bound} vs {bound_f64}"
        );
        // The one rounding of the independently summed numerators.
        let exact = exact_cost(&dense, &c).expect("exact cost");
        assert_eq!((exact.num, exact.den), (cost_num, den), "{at}");
        assert_eq!(
            cost.to_bits(),
            (cost_num as f64 / f64::from(den)).to_bits(),
            "{at}"
        );
        assert_eq!(
            bound.to_bits(),
            (bound_num as f64 / f64::from(den)).to_bits(),
            "{at}"
        );
        // The lazy oracle streams the same totals and prices the same
        // integers.
        let lazy = instance.lazy_oracle();
        assert_eq!(lazy.pair_totals(), dense.pair_totals(), "{at}");
        assert_eq!(exact_cost(&lazy, &c), Some(exact), "{at}");
        assert_eq!(
            correlation_cost(&lazy, &c).to_bits(),
            cost.to_bits(),
            "{at}"
        );
        assert_eq!(lower_bound(&lazy).to_bits(), bound.to_bits(), "{at}");
    }
}

#[test]
fn exact_disagreements_count_the_total_inputs_exactly() {
    for seed in 0..4u64 {
        let (n, m) = (30 + 11 * seed as usize, 3 + seed as usize);
        let inputs: Vec<Clustering> = total_inputs(n, m, seed)
            .iter()
            .map(PartialClustering::complete_with_singletons)
            .collect();
        let dense = DenseOracle::from_clusterings(&inputs);
        let mut rng = StdRng::seed_from_u64(seed + 100);
        for _ in 0..5 {
            let c = Clustering::from_labels((0..n).map(|_| rng.gen_range(0..5)).collect());
            let exact = exact_cost(&dense, &c).expect("exact cost");
            assert_eq!(exact.disagreements(m), total_disagreement(&inputs, &c));
        }
        // The pipeline that does not recount reports the same integer.
        let partial = inputs.iter().map(PartialClustering::from_total).collect();
        let result = ConsensusBuilder::new()
            .try_aggregate_partial(partial)
            .unwrap();
        assert_eq!(
            result.disagreements,
            total_disagreement(&inputs, &result.clustering),
            "seed {seed}"
        );
    }
}

#[test]
fn exact_totals_are_the_same_at_any_thread_count() {
    for (at, instance, c) in exact_cases() {
        let read = |threads| {
            with_num_threads(threads, || {
                let (dense, lazy) = (instance.dense_oracle(), instance.lazy_oracle());
                (
                    dense.pair_totals().expect("pair totals"),
                    lazy.pair_totals(),
                    exact_cost(&dense, &c),
                    exact_cost(&lazy, &c),
                )
            })
        };
        assert_eq!(read(1), read(4), "{at}");
    }
}

#[test]
fn an_edited_matrix_streams_its_totals_while_it_keeps_its_scale() {
    let (_, instance, c) = exact_cases().swap_remove(0);
    let mut dense = instance.dense_oracle();
    let den = dense.exact_scale().expect("a proven scale");
    // A value the matrix already codes keeps the scale; the fill's totals
    // no longer describe the matrix, so they are streamed again.
    let x = dense.dist(0, 2);
    dense.set(0, 1, x);
    assert_eq!(dense.exact_scale(), Some(den));
    let ((cost_f64, bound_f64), (cost_num, bound_num)) = pair_sums(&dense, &c, den);
    assert_eq!(dense.pair_totals().map(|t| t.bound), Some(bound_num));
    let exact = exact_cost(&dense, &c).expect("exact cost");
    assert_eq!((exact.num, exact.den), (cost_num, den));
    // A value that is no `k/den` drops the scale: back to the pair pass.
    dense.set(0, 1, 0.1);
    assert_eq!(dense.exact_scale(), None);
    assert!(dense.pair_totals().is_none());
    assert!(exact_cost(&dense, &c).is_none());
    let ((cost_f64_after, bound_f64_after), _) = pair_sums(&dense, &c, den);
    assert!((correlation_cost(&dense, &c) - cost_f64_after).abs() <= 1e-9 * cost_f64);
    assert!((lower_bound(&dense) - bound_f64_after).abs() <= 1e-9 * bound_f64);
    // A restricted matrix streams the totals of its own pairs; caller-built
    // matrices have no scale.
    let subset = [0, 1, 2, 7, 11];
    assert_eq!(
        instance.dense_oracle().restrict(&subset).pair_totals(),
        instance.lazy_oracle().restrict(&subset).pair_totals()
    );
    assert!(DenseOracle::from_fn(5, |_, _| 0.5).pair_totals().is_none());
}
