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
//! in [`crate::linkage`] (`O(n²)` time after the `O(n²)` matrix build),
//! mathematically identical to the naive `O(n³)` greedy procedure because
//! average linkage is reducible.

use crate::clustering::Clustering;
use crate::error::AggResult;
use crate::instance::DistanceOracle;
use crate::linkage::{linkage_resumable, CondensedMatrix, LinkageMethod};
use crate::robust::{RunBudget, RunOutcome};
use crate::snapshot::{AgglomerativeSnapshot, Checkpointer};

/// Parameters for [`agglomerative`].
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

/// Run the AGGLOMERATIVE algorithm on a correlation-clustering instance:
/// [`agglomerative_budgeted`] under [`RunBudget::unlimited`].
///
/// # Panics
/// Panics if `params.threshold` is NaN.
pub fn agglomerative<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    params: AgglomerativeParams,
) -> Clustering {
    assert!(!params.threshold.is_nan(), "threshold must not be NaN");
    run(oracle, params, &RunBudget::unlimited(), None, None).clustering
}

/// Budgeted AGGLOMERATIVE with anytime semantics. One budget iteration per
/// merge; the `O(n²)` matrix build polls the budget between parallel row
/// chunks. On a trip during the build the result degrades to singletons; on
/// a trip mid-merging the partial dendrogram is cut as usual, yielding a
/// valid (finer) clustering whose applied merges each lowered the cost.
pub fn agglomerative_budgeted<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    params: AgglomerativeParams,
    budget: &RunBudget,
) -> AggResult<RunOutcome> {
    agglomerative_resumable(oracle, params, budget, None, None)
}

/// [`agglomerative_budgeted`] with crash-safe checkpoint/resume.
///
/// The distance matrix is rebuilt on every (re)start — it is derived data —
/// and the recorded merges are *replayed* through the identical
/// Lance–Williams update sequence, which reproduces the matrix state
/// bit-for-bit before new merges continue (see
/// [`crate::linkage::linkage_resumable`]). A snapshot inconsistent with
/// this instance falls back to a fresh run.
pub fn agglomerative_resumable<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    params: AgglomerativeParams,
    budget: &RunBudget,
    resume: Option<&AgglomerativeSnapshot>,
    ckpt: Option<&mut Checkpointer>,
) -> AggResult<RunOutcome> {
    if params.threshold.is_nan() {
        return Err(crate::error::AggError::invalid_parameter(
            "threshold",
            "must not be NaN",
        ));
    }
    Ok(run(oracle, params, budget, resume, ckpt))
}

/// The AGGLOMERATIVE run behind both entry points, for a threshold each has
/// already checked (the plain call asserts it, the budgeted one returns
/// [`crate::error::AggError::InvalidParameter`]).
fn run<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    params: AgglomerativeParams,
    budget: &RunBudget,
    resume: Option<&AgglomerativeSnapshot>,
    ckpt: Option<&mut Checkpointer>,
) -> RunOutcome {
    let n = oracle.len();
    let _span = crate::span!("agglomerative", n = n, resuming = resume.is_some());
    if n == 0 {
        return RunOutcome::converged(Clustering::from_labels(Vec::new()));
    }
    let matrix = match CondensedMatrix::try_from_oracle(oracle, budget) {
        Ok(matrix) => matrix,
        Err(interrupt) => {
            // No partial matrix to salvage: the only valid anytime answer
            // before any merge is the all-singletons start.
            return RunOutcome {
                clustering: Clustering::singletons(n),
                status: interrupt.status(),
                iterations: 0,
            };
        }
    };
    let (dendrogram, status, iterations) =
        linkage_resumable(matrix, LinkageMethod::Average, budget, resume, ckpt);
    let clustering = match params.num_clusters {
        Some(k) => dendrogram.cut_num_clusters(k.clamp(1, n)),
        None => dendrogram.cut_height(params.threshold),
    };
    RunOutcome {
        clustering,
        status,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::correlation_cost;
    use crate::instance::DenseOracle;
    use crate::robust::RunStatus;

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
    fn budgeted_unlimited_matches_unbudgeted() {
        let oracle = figure1_oracle();
        let outcome = agglomerative_budgeted(
            &oracle,
            AgglomerativeParams::paper(),
            &RunBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(outcome.status, RunStatus::Converged);
        assert_eq!(
            outcome.clustering,
            agglomerative(&oracle, AgglomerativeParams::paper())
        );
    }

    #[test]
    fn budget_trip_degrades_to_finer_clustering() {
        let oracle = figure1_oracle();
        // One merge allowed, then the cap trips: the cut of the partial
        // dendrogram is a complete clustering no coarser than the optimum.
        let tight = RunBudget::unlimited().with_max_iters(1);
        let outcome =
            agglomerative_budgeted(&oracle, AgglomerativeParams::paper(), &tight).unwrap();
        assert_eq!(outcome.status, RunStatus::BudgetExceeded);
        assert_eq!(outcome.clustering.len(), 6);
        assert!(outcome.clustering.num_clusters() >= 3);
        let cost = correlation_cost(&oracle, &outcome.clustering);
        assert!(cost <= correlation_cost(&oracle, &Clustering::singletons(6)) + 1e-9);
    }

    #[test]
    fn nan_threshold_is_a_typed_error() {
        let oracle = figure1_oracle();
        let params = AgglomerativeParams {
            threshold: f64::NAN,
            num_clusters: None,
        };
        let err = agglomerative_budgeted(&oracle, params, &RunBudget::unlimited()).unwrap_err();
        assert!(matches!(
            err,
            crate::error::AggError::InvalidParameter { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "threshold must not be NaN")]
    fn plain_run_panics_on_a_nan_threshold() {
        // The budgeted call returns a typed error for the same threshold;
        // the plain call panics rather than silently returning singletons.
        let params = AgglomerativeParams {
            threshold: f64::NAN,
            num_clusters: None,
        };
        let _ = agglomerative(&figure1_oracle(), params);
    }
}
