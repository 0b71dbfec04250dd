//! Objective functions: the correlation-clustering cost `d(C)`, the
//! aggregation objective `D(C)`, and the per-pair lower bound.
//!
//! For an instance with distances `X_uv` and a candidate clustering `C`,
//!
//! ```text
//! d(C) = Σ_{u<v, C(u)=C(v)} X_uv + Σ_{u<v, C(u)≠C(v)} (1 − X_uv)
//! ```
//!
//! When the instance is built from `m` total clusterings,
//! `D(C) = Σ_i d_V(C_i, C) = m · d(C)` — a relationship tested against
//! [`crate::distance::total_disagreement`], which counts `D(C)` exactly.
//! Because every pair independently costs at least
//! `min(X_uv, 1 − X_uv)`, summing that quantity yields the instance-wide
//! lower bound reported in Tables 2–3 of the paper.
//!
//! All `O(n²)` sums here run as deterministic chunked reductions over
//! [`crate::parallel`]: fixed chunk boundaries, partials combined in chunk
//! order, so the value is bit-identical at any thread count.
//!
//! On an oracle with an [`DistanceOracle::exact_scale`] `den` — every
//! oracle built from total or `Coin(½)` inputs, dense, lazy or restricted
//! — the cost and the bound are integers over `den` instead, with `num =
//! den·X_uv`: the bound `Σ_{u<v} min(num, den − num)` and the all-split
//! cost `Σ_{u<v} (den − num)` come from [`DistanceOracle::pair_totals`],
//! and the cost adds `Σ_{same-cluster pairs} (2·num − den)`, reading only
//! the within-cluster pairs through `dist`, which the scale makes exact.
//! Each `f64` is then the one rounding of `num/den`, whichever oracle
//! served it. Without a scale (`Ignore` with missing labels, weighted
//! inputs, caller distances) both are `f64` pair sums, which
//! [`cost_and_bound`] takes in one pass.

use std::ops::Range;

use crate::clustering::Clustering;
use crate::instance::{DistanceOracle, PairTotals};
use crate::parallel::{self, Sum2};

/// `d(C)` as the exact fraction `num/den`, from [`exact_cost`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExactCost {
    /// `den·d(C)`.
    pub num: u64,
    /// The oracle's [`DistanceOracle::exact_scale`].
    pub den: u32,
}

impl ExactCost {
    /// The `f64` nearest to `num/den`.
    pub fn value(self) -> f64 {
        self.num as f64 / f64::from(self.den)
    }

    /// `m·d(C)` rounded half up, for an instance of `m` input clusterings:
    /// for total inputs (`den = m`) exactly `num`, the number of
    /// disagreements `D(C)`; for `Coin(½)` (`den = 2m`) the expected number.
    pub fn disagreements(self, m: usize) -> u64 {
        let den = u128::from(self.den);
        ((u128::from(self.num) * m as u128 + den / 2) / den) as u64
    }
}

/// An oracle's scale and pair totals: everything an exact price needs
/// besides the within-cluster pairs. `None` without a scale.
pub(crate) fn exact_totals<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
) -> Option<(u32, PairTotals)> {
    Some((oracle.exact_scale()?, oracle.pair_totals()?))
}

/// The correlation-clustering cost `d(C)` (Problem 2): [`exact_cost`]'s
/// value where the oracle has an exact scale, else `O(n²)` oracle lookups,
/// parallelized over pair chunks.
pub fn correlation_cost<O: DistanceOracle + Sync + ?Sized>(oracle: &O, c: &Clustering) -> f64 {
    cost_and_bound(oracle, c).0
}

/// `d(C)` as an exact fraction, or `None` when the oracle has no
/// [`DistanceOracle::exact_scale`]. Reads the within-cluster pairs, `O(n +
/// Σ|C_i|²)`, next to [`DistanceOracle::pair_totals`].
pub fn exact_cost<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    c: &Clustering,
) -> Option<ExactCost> {
    let (den, totals) = exact_totals(oracle)?;
    Some(exact_cost_with(oracle, c, den, totals))
}

/// [`exact_cost`] from the oracle's scale `den` and pair `totals`: the
/// all-split numerator plus `Σ (2·round(den·X_uv) − den)` over the
/// within-cluster pairs.
pub(crate) fn exact_cost_with<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    c: &Clustering,
    den: u32,
    totals: PairTotals,
) -> ExactCost {
    assert_eq!(oracle.len(), c.len(), "oracle and clustering sizes differ");
    let clusters = c.clusters();
    let scale = f64::from(den);
    let within: i64 = parallel::sum_jobs(member_row_jobs(&clusters), |(members, rows)| {
        let (mut sum, mut pairs) = (0u64, 0u64);
        for i in rows {
            let (u, rest) = (members[i], &members[i + 1..]);
            pairs += rest.len() as u64;
            for &v in rest {
                // `den·X_uv` is within an ulp of its integer numerator, so
                // truncating it plus ½ rounds it (`round` is a libm call
                // without SSE4.1, several times slower).
                sum += (oracle.dist(u, v) * scale + 0.5) as u64;
            }
        }
        2 * sum as i64 - i64::from(den) * pairs as i64
    });
    let num = totals.split_numerator(c.len(), den) as i64 + within;
    ExactCost {
        num: num as u64,
        den,
    }
}

/// Jobs over the pairs inside each cluster: (cluster members, a range of
/// member rows), split so one huge cluster still spreads across workers.
/// Boundaries depend only on the clustering, keeping any partial-sum order
/// deterministic.
fn member_row_jobs(clusters: &[Vec<usize>]) -> Vec<(&[usize], Range<usize>)> {
    let mut jobs = Vec::new();
    for members in clusters {
        let len = members.len();
        for rows in parallel::balanced_ranges(len, 8192, |i| len - 1 - i) {
            jobs.push((members.as_slice(), rows));
        }
    }
    jobs
}

/// The cost of the all-singletons clustering: `B = Σ_{u<v} (1 − X_uv)`.
///
/// [`correlation_cost`] decomposes as `d(C) = B + W(C)` with `W` the
/// [`within_cost`]; `B` does not depend on `C`, so callers comparing
/// candidate solutions work with the cheap `W` term alone.
pub fn split_everything_cost<O: DistanceOracle + Sync + ?Sized>(oracle: &O) -> f64 {
    parallel::sum_pairs(oracle.len(), |u, v| 1.0 - oracle.dist(u, v))
}

/// The `C`-dependent part of the cost: `Σ_{u<v in same cluster} (2·X_uv − 1)`.
///
/// Adding this to [`split_everything_cost`] gives [`correlation_cost`]; on
/// its own it ranks candidate clusterings identically and costs only
/// `O(Σ s_i²)` oracle lookups.
pub fn within_cost<O: DistanceOracle + Sync + ?Sized>(oracle: &O, c: &Clustering) -> f64 {
    assert_eq!(oracle.len(), c.len(), "oracle and clustering sizes differ");
    let clusters = c.clusters();
    parallel::sum_jobs(member_row_jobs(&clusters), |(members, rows)| {
        let mut w = 0.0;
        for i in rows {
            let u = members[i];
            for &v in &members[i + 1..] {
                w += 2.0 * oracle.dist(u, v) - 1.0;
            }
        }
        w
    })
}

/// Per-pair lower bound on the optimal correlation cost:
/// `Σ_{u<v} min(X_uv, 1 − X_uv)`.
///
/// Every clustering pays at least `min(X, 1 − X)` on each pair, so no
/// solution — including the optimum — can cost less. The "Lower bound" rows
/// of Tables 2 and 3 are `m` times this value. With an
/// [`DistanceOracle::exact_scale`] it is the exact `Σ min(den·X, den −
/// den·X) / den` of [`DistanceOracle::pair_totals`].
pub fn lower_bound<O: DistanceOracle + Sync + ?Sized>(oracle: &O) -> f64 {
    match exact_totals(oracle) {
        Some((den, totals)) => totals.bound as f64 / f64::from(den),
        None => parallel::sum_pairs(oracle.len(), |u, v| {
            let x = oracle.dist(u, v);
            x.min(1.0 - x)
        }),
    }
}

/// [`correlation_cost`] and [`lower_bound`] together, with the same bits
/// as the two calls: from one [`DistanceOracle::pair_totals`] where the
/// oracle has a scale, else one `f64` pair pass carrying both sums.
pub fn cost_and_bound<O: DistanceOracle + Sync + ?Sized>(oracle: &O, c: &Clustering) -> (f64, f64) {
    assert_eq!(oracle.len(), c.len(), "oracle and clustering sizes differ");
    if let Some((den, totals)) = exact_totals(oracle) {
        let cost = exact_cost_with(oracle, c, den, totals);
        return (cost.value(), totals.bound as f64 / f64::from(den));
    }
    let Sum2(cost, bound) = parallel::sum_pairs(c.len(), |u, v| {
        let x = oracle.dist(u, v);
        let cost = if c.same_cluster(u, v) { x } else { 1.0 - x };
        Sum2(cost, x.min(1.0 - x))
    });
    (cost, bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::total_disagreement;
    use crate::instance::DenseOracle;

    fn c(labels: &[u32]) -> Clustering {
        Clustering::from_labels(labels.to_vec())
    }

    fn figure1() -> Vec<Clustering> {
        vec![
            c(&[0, 0, 1, 1, 2, 2]),
            c(&[0, 1, 0, 1, 2, 3]),
            c(&[0, 1, 0, 1, 2, 2]),
        ]
    }

    #[test]
    fn paper_example_cost_is_five_thirds() {
        // The optimal aggregate has 5 disagreements over m = 3 clusterings,
        // so its correlation cost is 5/3.
        let oracle = DenseOracle::from_clusterings(&figure1());
        let agg = c(&[0, 1, 0, 1, 2, 2]);
        let cost = correlation_cost(&oracle, &agg);
        assert!((cost - 5.0 / 3.0).abs() < 1e-9, "cost = {cost}");
    }

    #[test]
    fn aggregation_cost_equals_m_times_correlation_cost() {
        let inputs = figure1();
        let oracle = DenseOracle::from_clusterings(&inputs);
        let candidates = [
            c(&[0, 1, 0, 1, 2, 2]),
            c(&[0, 0, 0, 0, 0, 0]),
            c(&[0, 1, 2, 3, 4, 5]),
            c(&[0, 0, 1, 1, 2, 2]),
        ];
        for cand in &candidates {
            let d = total_disagreement(&inputs, cand) as f64;
            let m_dc = 3.0 * correlation_cost(&oracle, cand);
            assert!((d - m_dc).abs() < 1e-9, "D = {d}, m·d(C) = {m_dc}");
        }
    }

    #[test]
    fn decomposition_matches_direct_cost() {
        // FURTHEST, annealing and the exact solvers rank candidates by
        // `within_cost` alone, relying on d(C) = B + W(C).
        let oracle = DenseOracle::from_clusterings(&figure1());
        let base = split_everything_cost(&oracle);
        for cand in [
            c(&[0, 1, 0, 1, 2, 2]),
            c(&[0, 0, 1, 1, 2, 2]),
            c(&[0, 0, 0, 1, 1, 1]),
        ] {
            let direct = correlation_cost(&oracle, &cand);
            assert!((base + within_cost(&oracle, &cand) - direct).abs() < 1e-9);
        }
    }

    #[test]
    fn lower_bound_below_all_candidates() {
        let oracle = DenseOracle::from_clusterings(&figure1());
        let lb = lower_bound(&oracle);
        for cand in [
            c(&[0, 1, 0, 1, 2, 2]),
            c(&[0, 0, 0, 0, 0, 0]),
            c(&[0, 1, 2, 3, 4, 5]),
        ] {
            assert!(lb <= correlation_cost(&oracle, &cand) + 1e-12);
        }
        // The paper's example: optimum achieves 5/3, lower bound is the sum
        // of min(X, 1−X) which here is 5·(1/3) + ... compute: edges at 1/3
        // (3 of them), 2/3 (2), 1 (the rest of the 15 pairs at various
        // values). Just sanity-check it is positive and ≤ 5/3.
        assert!(lb > 0.0 && lb <= 5.0 / 3.0 + 1e-12);
    }

    #[test]
    fn the_fused_pass_has_the_bits_of_the_two_passes() {
        use crate::clustering::PartialClustering;
        use crate::instance::{CorrelationInstance, MissingPolicy};
        use crate::parallel::with_num_threads;
        // 400 objects: 79 800 pairs, several chunks of at least 8192.
        let n = 400;
        let inputs: Vec<PartialClustering> = (0..5u32)
            .map(|j| {
                let label = |v: u32| (v % (3 + j) != 1).then_some((v * (j + 1) / 7) % 6);
                PartialClustering::from_labels((0..n as u32).map(label).collect())
            })
            .collect();
        let ignore = CorrelationInstance::from_partial(inputs, MissingPolicy::Ignore).lazy_oracle();
        assert_eq!(ignore.exact_scale(), None);
        let from_fn =
            DenseOracle::from_fn(n, |u, v| ((u * 7919 + v * 104_729) % 1000) as f64 / 999.0);
        assert_eq!(from_fn.exact_scale(), None);
        let candidate = Clustering::from_labels((0..n as u32).map(|v| v % 9).collect());
        // Each sum in its own single-lane pass, as the cost and the bound
        // were summed before the passes were fused.
        fn apart<O: DistanceOracle + Sync>(oracle: &O, c: &Clustering) -> (f64, f64) {
            let cost = parallel::sum_pairs(c.len(), |u, v| {
                let x = oracle.dist(u, v);
                if c.same_cluster(u, v) {
                    x
                } else {
                    1.0 - x
                }
            });
            let bound = parallel::sum_pairs(c.len(), |u, v| {
                let x = oracle.dist(u, v);
                x.min(1.0 - x)
            });
            (cost, bound)
        }
        let bits = |(cost, bound): (f64, f64)| (cost.to_bits(), bound.to_bits());
        for threads in [1, 2, 4] {
            with_num_threads(threads, || {
                for (fused, two) in [
                    (
                        cost_and_bound(&ignore, &candidate),
                        apart(&ignore, &candidate),
                    ),
                    (
                        cost_and_bound(&from_fn, &candidate),
                        apart(&from_fn, &candidate),
                    ),
                ] {
                    assert_eq!(bits(fused), bits(two), "{threads} threads");
                }
                let cost = correlation_cost(&ignore, &candidate);
                let bound = lower_bound(&ignore);
                assert_eq!(bits((cost, bound)), bits(apart(&ignore, &candidate)));
            });
        }
    }

    #[test]
    fn singleton_cost_equals_split_everything() {
        let oracle = DenseOracle::from_clusterings(&figure1());
        let singles = Clustering::singletons(6);
        assert!(
            (correlation_cost(&oracle, &singles) - split_everything_cost(&oracle)).abs() < 1e-12
        );
        assert_eq!(within_cost(&oracle, &singles), 0.0);
    }
}
