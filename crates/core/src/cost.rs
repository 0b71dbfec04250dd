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

use crate::clustering::Clustering;
use crate::instance::DistanceOracle;
use crate::parallel;

/// The correlation-clustering cost `d(C)` (Problem 2). `O(n²)` oracle
/// lookups, parallelized over pair chunks.
pub fn correlation_cost<O: DistanceOracle + Sync + ?Sized>(oracle: &O, c: &Clustering) -> f64 {
    assert_eq!(oracle.len(), c.len(), "oracle and clustering sizes differ");
    parallel::sum_pairs(c.len(), |u, v| {
        let x = oracle.dist(u, v);
        if c.same_cluster(u, v) {
            x
        } else {
            1.0 - x
        }
    })
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
    // Job list: (cluster, row range of its member list), split so one huge
    // cluster still spreads across workers. Boundaries depend only on the
    // clustering, keeping the partial-sum order deterministic.
    let mut jobs: Vec<(&[usize], std::ops::Range<usize>)> = Vec::new();
    for members in &clusters {
        let len = members.len();
        for rows in parallel::balanced_ranges(len, 8192, |i| len - 1 - i) {
            jobs.push((members.as_slice(), rows));
        }
    }
    parallel::sum_jobs(jobs, |(members, rows)| {
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
/// of Tables 2 and 3 are `m` times this value.
pub fn lower_bound<O: DistanceOracle + Sync + ?Sized>(oracle: &O) -> f64 {
    parallel::sum_pairs(oracle.len(), |u, v| {
        let x = oracle.dist(u, v);
        x.min(1.0 - x)
    })
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
    fn singleton_cost_equals_split_everything() {
        let oracle = DenseOracle::from_clusterings(&figure1());
        let singles = Clustering::singletons(6);
        assert!(
            (correlation_cost(&oracle, &singles) - split_everything_cost(&oracle)).abs() < 1e-12
        );
        assert_eq!(within_cost(&oracle, &singles), 0.0);
    }
}
