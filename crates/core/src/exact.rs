//! Exact (exponential-time) optimal correlation clustering for tiny
//! instances, by enumerating all set partitions.
//!
//! Clustering aggregation and correlation clustering are NP-complete, and
//! the paper's guarantees (2(1 − 1/m) for BESTCLUSTERING, 3 for BALLS,
//! 2 for AGGLOMERATIVE at m = 3) are stated against the optimum. This module
//! provides that optimum for `n ≤ MAX_EXACT_N` via restricted-growth-string
//! enumeration (Bell(12) ≈ 4.2M partitions), with incremental cost updates
//! so each partition costs `O(n)` rather than `O(n²)` to evaluate.
//!
//! Used by the test suite and the ablation harness; not part of any
//! algorithm.

use crate::algorithms::{Algorithm, LocalSearchParams};
use crate::clustering::Clustering;
use crate::error::{AggError, AggResult};
use crate::instance::DistanceOracle;
use crate::robust::{BudgetMeter, Interrupt, RunBudget, RunCtx, RunStatus};

/// Largest instance size accepted by [`optimal_clustering`].
pub const MAX_EXACT_N: usize = 14;

/// Result of the exhaustive search.
#[derive(Clone, Debug)]
pub struct ExactResult {
    /// An optimal clustering (the lexicographically first among optima, in
    /// restricted-growth-string order).
    pub clustering: Clustering,
    /// Its correlation cost `d(C)`.
    pub cost: f64,
    /// Number of partitions examined (the Bell number of `n`).
    pub partitions_examined: u64,
}

/// Find the optimal correlation clustering by exhaustive enumeration.
///
/// # Panics
/// Panics if `oracle.len() > MAX_EXACT_N`.
pub fn optimal_clustering<O: DistanceOracle + Sync + ?Sized>(oracle: &O) -> ExactResult {
    let n = oracle.len();
    assert!(
        n <= MAX_EXACT_N,
        "exact search limited to n ≤ {MAX_EXACT_N}, got {n}"
    );
    if n == 0 {
        return ExactResult {
            clustering: Clustering::from_labels(Vec::new()),
            cost: 0.0,
            partitions_examined: 1,
        };
    }

    // Cost decomposition: d(C) = B + Σ_{within pairs} (2X − 1), where
    // B = Σ(1 − X). We search over the within term.
    let base = crate::cost::split_everything_cost(oracle);
    // gain[u][v] = 2·X_uv − 1: the cost delta of co-clustering u and v.
    let gain: Vec<Vec<f64>> = (0..n)
        .map(|u| (0..n).map(|v| 2.0 * oracle.dist(u, v) - 1.0).collect())
        .collect();

    // Depth-first enumeration of restricted growth strings with incremental
    // within-cost: placing node `depth` into cluster `c` adds
    // Σ_{u already in c} gain[depth][u].
    let mut labels = vec![0u32; n];
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut best_labels = vec![0u32; n];
    let mut best_within = f64::INFINITY;
    let mut examined = 0u64;

    struct Search<'a> {
        n: usize,
        gain: &'a [Vec<f64>],
        labels: &'a mut [u32],
        members: &'a mut [Vec<usize>],
        best_labels: &'a mut [u32],
        best_within: &'a mut f64,
        examined: &'a mut u64,
    }

    fn dfs(s: &mut Search<'_>, depth: usize, used: usize, within: f64) {
        if depth == s.n {
            *s.examined += 1;
            if within < *s.best_within {
                *s.best_within = within;
                s.best_labels.copy_from_slice(s.labels);
            }
            return;
        }
        // Node `depth` may join any existing cluster or open cluster `used`.
        for c in 0..=used.min(s.n - 1) {
            let delta: f64 = s.members[c].iter().map(|&u| s.gain[depth][u]).sum();
            s.labels[depth] = c as u32;
            s.members[c].push(depth);
            let next_used = if c == used { used + 1 } else { used };
            dfs(s, depth + 1, next_used, within + delta);
            s.members[c].pop();
        }
    }

    dfs(
        &mut Search {
            n,
            gain: &gain,
            labels: &mut labels,
            members: &mut members,
            best_labels: &mut best_labels,
            best_within: &mut best_within,
            examined: &mut examined,
        },
        0,
        0,
        0.0,
    );

    ExactResult {
        clustering: Clustering::from_labels(best_labels),
        cost: base + best_within,
        partitions_examined: examined,
    }
}

/// Largest instance size accepted by [`branch_and_bound`]. The worst case
/// is still exponential, but the admissible bound prunes structured
/// instances (the kind aggregation produces) to a small fraction of the
/// Bell-number search space.
pub const MAX_BNB_N: usize = 24;

/// Exact optimal correlation clustering by branch-and-bound over restricted
/// growth strings, under `ctx.budget` (the search does not checkpoint).
///
/// Nodes are placed one at a time; a branch is cut when the accumulated
/// within-cost plus an *admissible* bound on the remaining pairs cannot
/// beat the incumbent. The bound is `Σ min(0, 2·X_uv − 1)` over all pairs
/// with at least one unplaced endpoint — every such pair contributes at
/// least that much, since the search may still separate it (contributing 0)
/// or join it (contributing `2X − 1`). The incumbent starts from a
/// LOCALSEARCH warm start, so strong instances prune immediately.
///
/// Returns the same optimum as [`optimal_clustering`] and additionally
/// reports the number of search nodes expanded. An instance beyond
/// [`MAX_BNB_N`] is an [`AggError::TooLarge`]. The search ticks its budget
/// once per expanded node; on a trip the incumbent — always a valid
/// clustering — is returned with [`RunStatus::BudgetExceeded`], and its
/// `cost` field is then an upper bound on the optimum rather than the
/// proven optimum.
pub fn branch_and_bound<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    ctx: &mut RunCtx<'_>,
) -> AggResult<(ExactResult, RunStatus)> {
    let n = oracle.len();
    if n > MAX_BNB_N {
        return Err(AggError::TooLarge {
            what: "branch-and-bound".into(),
            n,
            max: MAX_BNB_N,
        });
    }
    let _span = crate::span!("exact", n = n);
    if n == 0 {
        return Ok((
            ExactResult {
                clustering: Clustering::from_labels(Vec::new()),
                cost: 0.0,
                partitions_examined: 1,
            },
            RunStatus::Converged,
        ));
    }

    let base = crate::cost::split_everything_cost(oracle);
    let gain: Vec<Vec<f64>> = (0..n)
        .map(|u| (0..n).map(|v| 2.0 * oracle.dist(u, v) - 1.0).collect())
        .collect();

    // remaining_lb[d] = Σ_{v ≥ d} Σ_{u < v} min(0, gain[u][v]): an
    // admissible bound on the within-cost still to be paid once nodes
    // 0..d are placed.
    let mut remaining_lb = vec![0.0f64; n + 1];
    for d in (0..n).rev() {
        // Pairs (u, d) with u < d are decided exactly when node d is placed;
        // pairs (d, v) with v > d are accounted in remaining_lb[d + 1].
        let row: f64 = (0..d).map(|u| gain[d][u].min(0.0)).sum();
        remaining_lb[d] = remaining_lb[d + 1] + row;
    }

    // Warm start: LOCALSEARCH from singletons gives a strong incumbent.
    let warm = Algorithm::LocalSearch(LocalSearchParams::default())
        .run(oracle, &mut RunCtx::new(&RunBudget::unlimited()))?
        .clustering;
    let mut best_within = crate::cost::within_cost(oracle, &warm);
    let mut best_labels: Vec<u32> = warm.labels().to_vec();

    let mut labels = vec![0u32; n];
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut expanded = 0u64;
    let mut meter = ctx.budget.meter();

    struct Search<'a, 'b> {
        n: usize,
        gain: &'a [Vec<f64>],
        remaining_lb: &'a [f64],
        labels: &'a mut [u32],
        members: &'a mut [Vec<usize>],
        best_labels: &'a mut Vec<u32>,
        best_within: &'a mut f64,
        expanded: &'a mut u64,
        meter: &'a mut BudgetMeter<'b>,
    }

    fn dfs(
        s: &mut Search<'_, '_>,
        depth: usize,
        used: usize,
        within: f64,
    ) -> Result<(), Interrupt> {
        *s.expanded += 1;
        s.meter.tick()?;
        if depth == s.n {
            if within < *s.best_within - 1e-12 {
                *s.best_within = within;
                s.best_labels.copy_from_slice(s.labels);
            }
            return Ok(());
        }
        if within + s.remaining_lb[depth] >= *s.best_within - 1e-12 {
            return Ok(()); // admissible bound: no completion can win
        }
        for c in 0..=used.min(s.n - 1) {
            let delta: f64 = s.members[c].iter().map(|&u| s.gain[depth][u]).sum();
            s.labels[depth] = c as u32;
            s.members[c].push(depth);
            let next_used = if c == used { used + 1 } else { used };
            let descent = dfs(s, depth + 1, next_used, within + delta);
            s.members[c].pop();
            descent?;
        }
        Ok(())
    }

    let status = match dfs(
        &mut Search {
            n,
            gain: &gain,
            remaining_lb: &remaining_lb,
            labels: &mut labels,
            members: &mut members,
            best_labels: &mut best_labels,
            best_within: &mut best_within,
            expanded: &mut expanded,
            meter: &mut meter,
        },
        0,
        0,
        0.0,
    ) {
        Ok(()) => RunStatus::Converged,
        Err(interrupt) => interrupt.status(),
    };
    // Bulk-add after the search: one atomic op instead of one per node.
    crate::telemetry::metrics()
        .exact_nodes
        .add_if_enabled(expanded);

    Ok((
        ExactResult {
            clustering: Clustering::from_labels(best_labels),
            cost: base + best_within,
            partitions_examined: expanded,
        },
        status,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::correlation_cost;
    use crate::instance::DenseOracle;

    fn c(labels: &[u32]) -> Clustering {
        Clustering::from_labels(labels.to_vec())
    }

    fn bnb(oracle: &DenseOracle, budget: &RunBudget) -> AggResult<(ExactResult, RunStatus)> {
        branch_and_bound(oracle, &mut RunCtx::new(budget))
    }

    /// Branch-and-bound under an unlimited budget, which always converges.
    fn branch_and_bound_unlimited(oracle: &DenseOracle) -> ExactResult {
        let (result, status) = bnb(oracle, &RunBudget::unlimited()).unwrap();
        assert_eq!(status, RunStatus::Converged);
        result
    }

    #[test]
    fn bell_numbers_are_enumerated() {
        // Bell numbers: 1, 1, 2, 5, 15, 52, 203, 877.
        let bells = [1u64, 1, 2, 5, 15, 52, 203, 877];
        for (n, &b) in bells.iter().enumerate() {
            let oracle = DenseOracle::from_fn(n, |_, _| 0.5);
            assert_eq!(optimal_clustering(&oracle).partitions_examined, b, "n={n}");
        }
    }

    #[test]
    fn paper_example_optimum_is_five_thirds() {
        let oracle = DenseOracle::from_clusterings(&[
            c(&[0, 0, 1, 1, 2, 2]),
            c(&[0, 1, 0, 1, 2, 3]),
            c(&[0, 1, 0, 1, 2, 2]),
        ]);
        let res = optimal_clustering(&oracle);
        assert!((res.cost - 5.0 / 3.0).abs() < 1e-9);
        assert_eq!(res.clustering, c(&[0, 1, 0, 1, 2, 2]));
    }

    #[test]
    fn cost_field_matches_direct_evaluation() {
        let oracle = DenseOracle::from_clusterings(&[
            c(&[0, 1, 1, 0, 2]),
            c(&[0, 0, 1, 1, 2]),
            c(&[0, 1, 0, 1, 1]),
        ]);
        let res = optimal_clustering(&oracle);
        assert!((res.cost - correlation_cost(&oracle, &res.clustering)).abs() < 1e-9);
    }

    #[test]
    fn optimum_beats_every_input() {
        let inputs = vec![
            c(&[0, 1, 1, 0, 2]),
            c(&[0, 0, 1, 1, 2]),
            c(&[0, 1, 0, 1, 1]),
        ];
        // The aggregation objective is `m` times the correlation cost.
        let res = optimal_clustering(&DenseOracle::from_clusterings(&inputs));
        let cost = res.cost * inputs.len() as f64;
        for input in &inputs {
            let d = crate::distance::total_disagreement(&inputs, input) as f64;
            assert!(cost <= d + 1e-9);
        }
        assert_eq!(res.clustering.len(), 5);
    }

    #[test]
    fn zero_distance_instance_collapses() {
        let oracle = DenseOracle::from_fn(5, |_, _| 0.0);
        let res = optimal_clustering(&oracle);
        assert_eq!(res.clustering, Clustering::one_cluster(5));
        assert_eq!(res.cost, 0.0);
    }

    #[test]
    fn unit_distance_instance_shatters() {
        let oracle = DenseOracle::from_fn(5, |_, _| 1.0);
        let res = optimal_clustering(&oracle);
        assert_eq!(res.clustering, Clustering::singletons(5));
        assert_eq!(res.cost, 0.0);
    }

    #[test]
    fn optimum_at_least_lower_bound() {
        let oracle = DenseOracle::from_clusterings(&[
            c(&[0, 0, 1, 1, 2, 2]),
            c(&[0, 1, 0, 1, 2, 3]),
            c(&[0, 1, 0, 1, 2, 2]),
        ]);
        let res = optimal_clustering(&oracle);
        assert!(res.cost >= crate::cost::lower_bound(&oracle) - 1e-9);
    }

    #[test]
    #[should_panic(expected = "exact search limited")]
    fn too_large_rejected() {
        let oracle = DenseOracle::from_fn(MAX_EXACT_N + 1, |_, _| 0.5);
        let _ = optimal_clustering(&oracle);
    }

    /// Deterministic pseudo-random clusterings (no rand dependency needed).
    fn lcg_clusterings(n: usize, m: usize, k: u32, mut state: u64) -> Vec<Clustering> {
        (0..m)
            .map(|_| {
                let labels = (0..n)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((state >> 33) as u32) % k
                    })
                    .collect();
                Clustering::from_labels(labels)
            })
            .collect()
    }

    #[test]
    fn branch_and_bound_matches_enumeration() {
        for seed in 0..10u64 {
            let inputs = lcg_clusterings(8, 4, 3, seed + 1);
            let oracle = DenseOracle::from_clusterings(&inputs);
            let full = optimal_clustering(&oracle);
            let bnb = branch_and_bound_unlimited(&oracle);
            assert!((full.cost - bnb.cost).abs() < 1e-9, "seed {seed}");
            assert!(
                (correlation_cost(&oracle, &bnb.clustering) - bnb.cost).abs() < 1e-9,
                "seed {seed}: reported cost must match the returned clustering"
            );
        }
    }

    #[test]
    fn branch_and_bound_prunes() {
        // On a structured instance the search must expand far fewer nodes
        // than the full enumeration touches partitions.
        let truth = c(&[0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
        let oracle = DenseOracle::from_clusterings(&[truth.clone(), truth.clone(), truth]);
        let bnb = branch_and_bound_unlimited(&oracle);
        assert_eq!(bnb.cost, 0.0);
        // Bell(12) = 4_213_597; strong pruning must stay far below it.
        assert!(
            bnb.partitions_examined < 100_000,
            "expanded {}",
            bnb.partitions_examined
        );
    }

    #[test]
    fn branch_and_bound_handles_larger_structured_instances() {
        // n = 18 is beyond the enumerator but easy for the bound.
        let truth = Clustering::from_labels((0..18).map(|v| v / 6).collect());
        let oracle = DenseOracle::from_clusterings(&[truth.clone(), truth.clone(), truth.clone()]);
        let bnb = branch_and_bound_unlimited(&oracle);
        assert_eq!(bnb.clustering.num_clusters(), 3);
        assert_eq!(bnb.cost, 0.0);
    }

    #[test]
    fn branch_and_bound_empty() {
        let oracle = DenseOracle::from_fn(0, |_, _| 0.0);
        assert_eq!(branch_and_bound_unlimited(&oracle).cost, 0.0);
    }

    #[test]
    fn budgeted_bnb_too_large_is_a_typed_error() {
        let oracle = DenseOracle::from_fn(MAX_BNB_N + 1, |_, _| 0.5);
        let err = bnb(&oracle, &RunBudget::unlimited()).unwrap_err();
        assert!(matches!(err, AggError::TooLarge { max: MAX_BNB_N, .. }));
    }

    #[test]
    fn budgeted_bnb_trip_returns_warm_start_quality() {
        let inputs = lcg_clusterings(10, 4, 3, 99);
        let oracle = DenseOracle::from_clusterings(&inputs);
        // One expansion, then the cap trips: the incumbent is the
        // LOCALSEARCH warm start, whose reported cost matches its clustering.
        let tight = RunBudget::unlimited().with_max_iters(1);
        let (result, status) = bnb(&oracle, &tight).unwrap();
        assert_eq!(status, RunStatus::BudgetExceeded);
        assert!(
            (correlation_cost(&oracle, &result.clustering) - result.cost).abs() < 1e-9,
            "anytime cost must match the returned clustering"
        );
        let exact = optimal_clustering(&oracle);
        assert!(result.cost >= exact.cost - 1e-9, "still an upper bound");
    }
}
