//! The disagreement distance `d_V` between clusterings (paper §3).
//!
//! For clusterings `C₁`, `C₂` of the same objects, `d_V(C₁, C₂)` is the
//! number of unordered object pairs `{u, v}` such that one clustering puts
//! `u` and `v` in the same cluster and the other separates them. This is the
//! (unnormalized) *Mirkin metric*; it satisfies the triangle inequality on
//! the space of clusterings (Observation 1 in the paper), which is what
//! makes the `2(1 − 1/m)` guarantee of
//! [`crate::algorithms::best::best_clustering`] work.
//!
//! Two implementations are provided: a quadratic reference
//! ([`disagreement_distance_naive`]) and an `O(n + k₁·k₂)` contingency-table
//! version ([`disagreement_distance`]) used everywhere else.

use crate::clustering::Clustering;

/// Cell-count ceiling for the dense contingency table in
/// [`pairs_together_both`]. `k₁·k₂` at or below this (4M cells, 32 MiB)
/// uses a flat `Vec` — one multiply-add per object instead of a hash —
/// while pathological `k₁·k₂` blowups fall back to the sparse map.
const DENSE_TABLE_MAX_CELLS: usize = 1 << 22;

/// Number of unordered pairs co-clustered by *both* clusterings,
/// `Σ_{ij} n_ij (n_ij − 1) / 2` over the contingency table `n_ij`.
///
/// Labels are normalized to `0..k` by [`Clustering::from_labels`], so the
/// table is stored densely as a `k₁ × k₂` vector indexed by
/// `label₁ · k₂ + label₂` whenever it fits; the rare huge-`k₁·k₂` case
/// packs each object's label pair into one `u64` key and sorts — an
/// `O(n log n)` run-length count with no hashing and `O(n)` memory.
pub fn pairs_together_both(c1: &Clustering, c2: &Clustering) -> u64 {
    assert_eq!(
        c1.len(),
        c2.len(),
        "clusterings must cover the same objects"
    );
    let (k1, k2) = (c1.num_clusters(), c2.num_clusters());
    if let Some(cells) = k1.checked_mul(k2).filter(|&c| c <= DENSE_TABLE_MAX_CELLS) {
        let mut table = vec![0u64; cells];
        for v in 0..c1.len() {
            table[c1.label(v) as usize * k2 + c2.label(v) as usize] += 1;
        }
        // Unlike the sparse map, the dense table has empty cells: guard the
        // c·(c−1)/2 term against u64 underflow at c = 0.
        table.iter().map(|&c| c * c.saturating_sub(1) / 2).sum()
    } else {
        let mut keys: Vec<u64> = (0..c1.len())
            .map(|v| (u64::from(c1.label(v)) << 32) | u64::from(c2.label(v)))
            .collect();
        keys.sort_unstable();
        let mut total = 0u64;
        let mut i = 0usize;
        while i < keys.len() {
            let mut j = i + 1;
            while j < keys.len() && keys[j] == keys[i] {
                j += 1;
            }
            let run = (j - i) as u64;
            total += run * (run - 1) / 2;
            i = j;
        }
        total
    }
}

/// Disagreement distance `d_V(C₁, C₂)`: the number of unordered pairs on
/// which the clusterings disagree.
///
/// Computed as `P₁ + P₂ − 2·P₁₂` where `Pᵢ` counts pairs co-clustered by
/// `Cᵢ` and `P₁₂` counts pairs co-clustered by both. Runs in
/// `O(n + k₁·k₂)`.
///
/// ```
/// use aggclust_core::clustering::Clustering;
/// use aggclust_core::distance::disagreement_distance;
/// let c1 = Clustering::from_labels(vec![0, 0, 1, 1]);
/// let c2 = Clustering::from_labels(vec![0, 1, 1, 1]);
/// // Disagreeing pairs: {0,1}, {0,2}, {0,3} ... let's count: c1 groups
/// // {0,1},{2,3}; c2 groups {1,2},{1,3},{2,3}. Disagreements: {0,1},{1,2},{1,3}.
/// assert_eq!(disagreement_distance(&c1, &c2), 3);
/// ```
pub fn disagreement_distance(c1: &Clustering, c2: &Clustering) -> u64 {
    c1.pairs_together() + c2.pairs_together() - 2 * pairs_together_both(c1, c2)
}

/// Quadratic reference implementation of [`disagreement_distance`], used to
/// validate the contingency-table version in tests.
pub fn disagreement_distance_naive(c1: &Clustering, c2: &Clustering) -> u64 {
    assert_eq!(c1.len(), c2.len());
    let n = c1.len();
    let mut d = 0u64;
    for u in 0..n {
        for v in (u + 1)..n {
            if c1.same_cluster(u, v) != c2.same_cluster(u, v) {
                d += 1;
            }
        }
    }
    d
}

/// Total disagreement `D(C) = Σ_i d_V(C_i, C)` of a candidate against a set
/// of input clusterings — the objective of Problem 1 in the paper.
pub fn total_disagreement(inputs: &[Clustering], candidate: &Clustering) -> u64 {
    inputs
        .iter()
        .map(|c| disagreement_distance(c, candidate))
        .sum()
}

/// The *Rand distance* normalization of the disagreement distance:
/// `d_V / (n choose 2) ∈ [0, 1]`.
pub fn normalized_disagreement(c1: &Clustering, c2: &Clustering) -> f64 {
    let n = c1.len() as u64;
    if n < 2 {
        return 0.0;
    }
    disagreement_distance(c1, c2) as f64 / ((n * (n - 1) / 2) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(labels: &[u32]) -> Clustering {
        Clustering::from_labels(labels.to_vec())
    }

    #[test]
    fn identical_clusterings_have_zero_distance() {
        let a = c(&[0, 0, 1, 2, 2]);
        assert_eq!(disagreement_distance(&a, &a), 0);
    }

    #[test]
    fn singletons_vs_one_cluster() {
        // Every pair disagrees: n choose 2.
        let s = Clustering::singletons(5);
        let o = Clustering::one_cluster(5);
        assert_eq!(disagreement_distance(&s, &o), 10);
    }

    #[test]
    fn matches_naive_on_fixed_cases() {
        let cases = [
            (c(&[0, 0, 1, 1, 2, 2]), c(&[0, 1, 0, 1, 2, 3])),
            (c(&[0, 1, 2, 3]), c(&[0, 0, 0, 0])),
            (c(&[0, 0, 0, 1, 1]), c(&[0, 1, 0, 1, 0])),
        ];
        for (a, b) in &cases {
            assert_eq!(
                disagreement_distance(a, b),
                disagreement_distance_naive(a, b)
            );
        }
    }

    #[test]
    fn symmetric() {
        let a = c(&[0, 0, 1, 1, 2]);
        let b = c(&[0, 1, 1, 2, 2]);
        assert_eq!(disagreement_distance(&a, &b), disagreement_distance(&b, &a));
    }

    #[test]
    fn paper_figure_1_example() {
        // Figure 1: C = {{v1,v3},{v2,v4},{v5,v6}} has 5 total disagreements
        // with C1, C2, C3: four with C1 and one with C2.
        let c1 = c(&[0, 0, 1, 1, 2, 2]);
        let c2 = c(&[0, 1, 0, 1, 2, 3]);
        let c3 = c(&[0, 1, 0, 1, 2, 2]);
        let agg = c(&[0, 1, 0, 1, 2, 2]);
        assert_eq!(disagreement_distance(&c1, &agg), 4);
        assert_eq!(disagreement_distance(&c2, &agg), 1);
        assert_eq!(disagreement_distance(&c3, &agg), 0);
        assert_eq!(total_disagreement(&[c1, c2, c3], &agg), 5);
    }

    #[test]
    fn triangle_inequality_on_fixed_cases() {
        let xs = [
            c(&[0, 0, 1, 1, 2, 2]),
            c(&[0, 1, 0, 1, 2, 3]),
            c(&[0, 1, 0, 1, 2, 2]),
            c(&[0, 0, 0, 0, 0, 0]),
            c(&[0, 1, 2, 3, 4, 5]),
        ];
        for a in &xs {
            for b in &xs {
                for m in &xs {
                    assert!(
                        disagreement_distance(a, b)
                            <= disagreement_distance(a, m) + disagreement_distance(m, b)
                    );
                }
            }
        }
    }

    #[test]
    fn dense_and_sparse_tables_agree() {
        // k₁·k₂ = 2101² ≈ 4.4M exceeds DENSE_TABLE_MAX_CELLS, forcing the
        // HashMap fallback; the smaller copy of the same structure takes
        // the dense path. Both must count identically.
        let n = 2101usize;
        let big1 = c(&(0..2 * n).map(|v| (v / 2) as u32).collect::<Vec<_>>());
        let big2 = c(&(0..2 * n)
            .map(|v| (((v / 2) + (v % 2) * 7) % n) as u32)
            .collect::<Vec<_>>());
        assert!(big1.num_clusters() * big2.num_clusters() > DENSE_TABLE_MAX_CELLS);
        let expected: u64 = (0..2 * n as u64)
            .flat_map(|u| ((u + 1)..2 * n as u64).map(move |v| (u, v)))
            .filter(|&(u, v)| {
                big1.same_cluster(u as usize, v as usize)
                    && big2.same_cluster(u as usize, v as usize)
            })
            .count() as u64;
        assert_eq!(pairs_together_both(&big1, &big2), expected);

        let small1 = c(&[0, 0, 1, 1, 2, 2, 3]);
        let small2 = c(&[0, 1, 1, 1, 2, 0, 3]);
        assert!(small1.num_clusters() * small2.num_clusters() <= DENSE_TABLE_MAX_CELLS);
        // Only {2,3} is co-clustered by both: c1 pairs {0,1},{2,3},{4,5};
        // c2 separates 0|1 and 4|5.
        assert_eq!(pairs_together_both(&small1, &small2), 1);
    }

    #[test]
    fn normalized_bounds() {
        let a = c(&[0, 1, 2, 3]);
        let b = c(&[0, 0, 0, 0]);
        assert_eq!(normalized_disagreement(&a, &b), 1.0);
        assert_eq!(normalized_disagreement(&a, &a), 0.0);
        assert_eq!(normalized_disagreement(&c(&[0]), &c(&[0])), 0.0);
    }
}
