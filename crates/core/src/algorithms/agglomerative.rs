//! The AGGLOMERATIVE algorithm: bottom-up average-linkage merging with the
//! ½ stopping rule.
//!
//! Start from singletons; repeatedly merge the pair of clusters with the
//! smallest *average* inter-cluster distance, stopping when that minimum
//! reaches ½ — at that point no merge can improve the correlation cost
//! `d(C)`. The produced clusters have the property that the average distance
//! between any pair of their nodes is at most ½ ("the opinion of the
//! majority is respected on average"), which yields a 2-approximation for
//! `m = 3` input clusterings.
//!
//! The implementation delegates to the shared nearest-neighbor-chain engine
//! in [`crate::linkage`] (`O(n²)` time after the `O(n²)` fill of its
//! condensed triangle), mathematically identical to the naive `O(n³)`
//! greedy procedure because average linkage is reducible. For total and
//! `Coin(½)` inputs the engine works on exact integer pair sums, so ties
//! and the ½ cut are decided without rounding.
//!
//! The triangle is the run's one `O(n²)` structure. The consensus pipeline
//! fills it straight from the packed labels of the
//! [`crate::instance::CorrelationInstance`], with no code matrix, and prices
//! the result without reading a pair: the fill counts `Σ num` and
//! `Σ min(num, den − num)` over all pairs (the all-split cost and the
//! lower bound), and the merges the cut applies add their exact sums
//! `S_AB`, each within-cluster pair once, at the merge that joined it.

use crate::clustering::Clustering;
use crate::cost::ExactCost;
use crate::error::{AggError, AggResult};
use crate::instance::DistanceOracle;
use crate::linkage::{linkage_with, CondensedMatrix, LinkageMethod};
use crate::robust::{Interrupt, RunCtx, RunOutcome};
use crate::snapshot::AlgorithmSnapshot;

/// Parameters for AGGLOMERATIVE.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AgglomerativeParams {
    /// Merge while the smallest average inter-cluster distance is strictly
    /// below this threshold. The paper's rule is ½.
    pub threshold: f64,
    /// If set, ignore the threshold and keep merging until exactly this many
    /// clusters remain — the paper's "user insists on a predefined number of
    /// clusters" variant.
    pub num_clusters: Option<usize>,
}

impl Default for AgglomerativeParams {
    fn default() -> Self {
        AgglomerativeParams {
            threshold: 0.5,
            num_clusters: None,
        }
    }
}

impl AgglomerativeParams {
    /// The paper's parameter-free rule (merge while average distance < ½).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Force a fixed number of output clusters.
    pub fn with_num_clusters(k: usize) -> Self {
        AgglomerativeParams {
            threshold: 0.5,
            num_clusters: Some(k),
        }
    }
}

/// Run AGGLOMERATIVE under `ctx`, the engine behind
/// [`Algorithm::Agglomerative`](super::Algorithm::Agglomerative):
/// [`run_priced`]'s outcome, with a trip during the triangle's fill
/// degraded to singletons (no partial matrix to salvage: the only valid
/// anytime answer before any merge is the all-singletons start).
pub(crate) fn run<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    params: AgglomerativeParams,
    ctx: &mut RunCtx<'_>,
) -> AggResult<RunOutcome> {
    Ok(match run_priced(oracle, params, ctx)? {
        Ok(priced) => priced.outcome,
        Err(interrupt) => RunOutcome {
            clustering: Clustering::singletons(oracle.len()),
            status: interrupt.status(),
            iterations: 0,
        },
    })
}

/// An AGGLOMERATIVE outcome and, when its triangle held exact sums, its
/// price.
#[derive(Debug)]
pub(crate) struct Priced {
    pub(crate) outcome: RunOutcome,
    /// `d(C)` of the outcome as an exact fraction, and `den` times the
    /// instance's per-pair lower bound: the same integers as
    /// [`crate::cost::exact_cost`] and [`crate::cost::lower_bound`] on the
    /// same oracle.
    pub(crate) exact: Option<(ExactCost, u64)>,
}

/// Run AGGLOMERATIVE under `ctx` and price its result from the fill and
/// the merges; `Err` when the budget trips during the triangle's fill.
///
/// One budget iteration per merge; the `O(n²)` fill polls the budget
/// between parallel row chunks. On a trip mid-merging the partial
/// dendrogram is cut as usual, yielding a valid (finer) clustering whose
/// applied merges each lowered the cost, and priced the same way.
///
/// The triangle is rebuilt on every (re)start — it is derived data — and
/// the merges of an AGGLOMERATIVE snapshot in `ctx.resume` are *replayed*
/// through the identical update sequence (exact sum additions, or
/// Lance–Williams in `f64`), which reproduces the matrix state bit-for-bit
/// before new merges continue (see [`linkage_with`]). A snapshot
/// inconsistent with this instance falls back to a fresh run.
pub(crate) fn run_priced<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    params: AgglomerativeParams,
    ctx: &mut RunCtx<'_>,
) -> AggResult<Result<Priced, Interrupt>> {
    if params.threshold.is_nan() {
        return Err(AggError::invalid_parameter("threshold", "must not be NaN"));
    }
    let n = oracle.len();
    let resuming = matches!(ctx.resume, Some(AlgorithmSnapshot::Agglomerative(_)));
    let _span = crate::span!("agglomerative", n = n, resuming = resuming);
    if n == 0 {
        return Ok(Ok(Priced {
            outcome: RunOutcome::converged(Clustering::from_labels(Vec::new())),
            exact: None,
        }));
    }
    let matrix = match CondensedMatrix::try_from_oracle(oracle, ctx.budget) {
        Ok(matrix) => matrix,
        Err(interrupt) => return Ok(Err(interrupt)),
    };
    let totals = matrix.exact_totals();
    let (dendrogram, status, iterations) = linkage_with(matrix, LinkageMethod::Average, ctx);
    let applied = match params.num_clusters {
        Some(k) => dendrogram.applied_for_num_clusters(k.clamp(1, n)),
        None => dendrogram.applied_below(params.threshold),
    };
    let exact = totals.and_then(|(den, totals)| {
        let within = dendrogram.within_numerator(&applied, den)?;
        let num = totals.split_numerator(n, den) as i64 + within;
        Some((
            ExactCost {
                num: num as u64,
                den,
            },
            totals.bound,
        ))
    });
    Ok(Ok(Priced {
        outcome: RunOutcome {
            clustering: dendrogram.replay(&applied),
            status,
            iterations,
        },
        exact,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{unlimited, Algorithm};
    use crate::cost::correlation_cost;
    use crate::instance::DenseOracle;
    use crate::robust::{RunBudget, RunStatus};

    fn c(labels: &[u32]) -> Clustering {
        Clustering::from_labels(labels.to_vec())
    }

    fn figure1_oracle() -> DenseOracle {
        DenseOracle::from_clusterings(&[
            c(&[0, 0, 1, 1, 2, 2]),
            c(&[0, 1, 0, 1, 2, 3]),
            c(&[0, 1, 0, 1, 2, 2]),
        ])
    }

    fn agglomerative(oracle: &DenseOracle, params: AgglomerativeParams) -> Clustering {
        unlimited(Algorithm::Agglomerative(params), oracle)
    }

    #[test]
    fn recovers_figure1_optimum() {
        let result = agglomerative(&figure1_oracle(), AgglomerativeParams::paper());
        assert_eq!(result, c(&[0, 1, 0, 1, 2, 2]));
    }

    #[test]
    fn perfect_consensus_is_reproduced() {
        let consensus = c(&[0, 0, 1, 1, 1, 2, 2]);
        let oracle = DenseOracle::from_clusterings(&[consensus.clone(), consensus.clone()]);
        assert_eq!(
            agglomerative(&oracle, AgglomerativeParams::paper()),
            consensus
        );
    }

    #[test]
    fn threshold_zero_gives_singletons() {
        let oracle = figure1_oracle();
        let result = agglomerative(
            &oracle,
            AgglomerativeParams {
                threshold: 0.0,
                num_clusters: None,
            },
        );
        assert_eq!(result, Clustering::singletons(6));
    }

    #[test]
    fn an_average_of_exactly_one_half_is_not_merged() {
        // {0, 1, 2} and {3, 4} are 9 separations over 3·2 pairs and 3
        // inputs apart: an average of exactly ½, which the strict rule
        // does not merge. Lance–Williams in f64 computes it one ulp below ½.
        let oracle = DenseOracle::from_clusterings(&[
            c(&[0, 1, 0, 1, 0, 1, 0]),
            c(&[0, 0, 0, 1, 1, 0, 0]),
            c(&[0, 0, 0, 0, 0, 1, 1]),
        ]);
        let result = agglomerative(&oracle, AgglomerativeParams::paper());
        assert_eq!(result, c(&[0, 0, 0, 1, 1, 2, 2]));
        let values = CondensedMatrix::from_fn(7, |u, v| oracle.dist(u, v));
        let rounded = crate::linkage::linkage(values, LinkageMethod::Average);
        assert!(rounded
            .merges()
            .iter()
            .any(|m| m.size == 5 && m.height < 0.5));
    }

    #[test]
    fn threshold_above_one_gives_one_cluster() {
        let oracle = figure1_oracle();
        let result = agglomerative(
            &oracle,
            AgglomerativeParams {
                threshold: 1.1,
                num_clusters: None,
            },
        );
        assert_eq!(result, Clustering::one_cluster(6));
    }

    #[test]
    fn fixed_k_variant() {
        let oracle = figure1_oracle();
        for k in 1..=6 {
            let result = agglomerative(&oracle, AgglomerativeParams::with_num_clusters(k));
            assert_eq!(result.num_clusters(), k);
        }
    }

    #[test]
    fn average_distance_within_clusters_at_most_half() {
        // The paper's desirable feature: every produced cluster has average
        // pairwise node distance ≤ ½ — check on a slightly larger instance.
        let inputs = vec![
            c(&[0, 0, 0, 1, 1, 1, 2, 2]),
            c(&[0, 0, 1, 1, 1, 2, 2, 2]),
            c(&[0, 0, 0, 0, 1, 1, 2, 2]),
        ];
        let oracle = DenseOracle::from_clusterings(&inputs);
        let result = agglomerative(&oracle, AgglomerativeParams::paper());
        for members in result.clusters() {
            if members.len() < 2 {
                continue;
            }
            let mut total = 0.0;
            let mut pairs = 0usize;
            for (i, &u) in members.iter().enumerate() {
                for &v in &members[i + 1..] {
                    total += oracle.dist(u, v);
                    pairs += 1;
                }
            }
            assert!(
                total / pairs as f64 <= 0.5 + 1e-9,
                "cluster {members:?} has average distance {}",
                total / pairs as f64
            );
        }
    }

    #[test]
    fn never_worse_than_singletons_or_one_cluster() {
        let oracle = figure1_oracle();
        let result = agglomerative(&oracle, AgglomerativeParams::paper());
        let cost = correlation_cost(&oracle, &result);
        assert!(cost <= correlation_cost(&oracle, &Clustering::singletons(6)) + 1e-9);
        assert!(cost <= correlation_cost(&oracle, &Clustering::one_cluster(6)) + 1e-9);
    }

    #[test]
    fn empty_instance() {
        let oracle = DenseOracle::from_fn(0, |_, _| 0.0);
        assert_eq!(
            agglomerative(&oracle, AgglomerativeParams::paper()).len(),
            0
        );
    }

    #[test]
    fn budget_trip_degrades_to_finer_clustering() {
        let oracle = figure1_oracle();
        // One merge allowed, then the cap trips: the cut of the partial
        // dendrogram is a complete clustering no coarser than the optimum.
        let tight = RunBudget::unlimited().with_max_iters(1);
        let outcome = Algorithm::Agglomerative(AgglomerativeParams::paper())
            .run(&oracle, &mut RunCtx::new(&tight))
            .unwrap();
        assert_eq!(outcome.status, RunStatus::BudgetExceeded);
        assert_eq!(outcome.clustering.len(), 6);
        assert!(outcome.clustering.num_clusters() >= 3);
        let cost = correlation_cost(&oracle, &outcome.clustering);
        assert!(cost <= correlation_cost(&oracle, &Clustering::singletons(6)) + 1e-9);
    }

    #[test]
    fn budgeted_unlimited_matches_unbudgeted() {
        // A cap that never binds meters every merge yet changes no label.
        let oracle = figure1_oracle();
        let loose = RunBudget::unlimited().with_max_iters(u64::MAX);
        let outcome = Algorithm::Agglomerative(AgglomerativeParams::paper())
            .run(&oracle, &mut RunCtx::new(&loose))
            .unwrap();
        assert_eq!(outcome.status, RunStatus::Converged);
        assert_eq!(
            outcome.clustering,
            agglomerative(&oracle, AgglomerativeParams::paper())
        );
    }

    #[test]
    fn nan_threshold_is_a_typed_error() {
        let oracle = figure1_oracle();
        let params = AgglomerativeParams {
            threshold: f64::NAN,
            num_clusters: None,
        };
        let err = Algorithm::Agglomerative(params)
            .run(&oracle, &mut RunCtx::new(&RunBudget::unlimited()))
            .unwrap_err();
        assert!(matches!(err, AggError::InvalidParameter { .. }));
    }
}
