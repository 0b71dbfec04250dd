//! The BALLS algorithm — the paper's combinatorial 3-approximation for
//! correlation clustering with triangle-inequality distances (Theorem 1).
//!
//! The intuition: good clusters are ball-shaped, because the cost function
//! penalizes long uncut edges. The algorithm repeatedly picks an unclustered
//! vertex `u`, looks at the "ball" `S` of unclustered vertices within
//! distance ½ of `u`, and turns `S ∪ {u}` into a cluster if the *average*
//! distance from `u` to `S` is at most `α`; otherwise `u` becomes a
//! singleton. The triangle inequality guarantees members of a tight ball are
//! pairwise close.
//!
//! With `α = ¼` the cost is at most 3× optimal — an improvement over the
//! 9-approximation known before the paper. The paper observes `α = ¼`
//! produces many singletons on real data and recommends `α = ⅖`; both are
//! provided as constructors.

use crate::clustering::Clustering;
use crate::error::{AggError, AggResult};
use crate::instance::DistanceOracle;
use crate::parallel;
use crate::robust::{RunBudget, RunOutcome, RunStatus};
use crate::telemetry;

/// Minimum number of candidate vertices in a ball scan before the distance
/// lookups are farmed out to worker threads; below this the serial loop is
/// faster. The threshold cannot affect results — both paths compute the
/// same distances and accumulate them in the same order.
const SCAN_PAR_MIN: usize = 4096;

/// The order in which BALLS visits vertices. The paper sorts by increasing
/// total incident weight ("a heuristic that we observed to work well in
/// practice"); the alternatives exist to quantify that choice (see the
/// `ablations` binary).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BallsOrdering {
    /// Increasing total incident edge weight — the paper's heuristic.
    #[default]
    IncreasingWeight,
    /// Decreasing total incident edge weight (the adversarial flip).
    DecreasingWeight,
    /// Natural index order (no preprocessing pass).
    Index,
}

/// Parameters for BALLS. The only parameterized algorithm in the paper.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BallsParams {
    /// Average-distance threshold `α` for accepting a ball as a cluster.
    pub alpha: f64,
    /// Vertex visit order.
    pub ordering: BallsOrdering,
}

impl BallsParams {
    /// The theoretical setting `α = ¼` achieving the 3-approximation.
    pub fn theoretical() -> Self {
        Self::with_alpha(0.25)
    }

    /// The practical setting `α = ⅖` the paper recommends for real data.
    pub fn practical() -> Self {
        Self::with_alpha(0.4)
    }

    /// Custom `α` with the paper's ordering. A run rejects an `α` outside
    /// `[0, 1]` (or NaN) as [`AggError::InvalidParameter`]; see
    /// [`BallsParams::validate`].
    pub fn with_alpha(alpha: f64) -> Self {
        BallsParams {
            alpha,
            ordering: BallsOrdering::IncreasingWeight,
        }
    }

    /// The check every run applies first: `α` must lie in `[0, 1]` (NaN
    /// does not), else [`AggError::InvalidParameter`] naming `alpha`.
    pub fn validate(&self) -> AggResult<()> {
        if (0.0..=1.0).contains(&self.alpha) {
            Ok(())
        } else {
            Err(AggError::invalid_parameter(
                "alpha",
                format!("{} out of [0,1]", self.alpha),
            ))
        }
    }

    /// Override the vertex visit order.
    pub fn with_ordering(mut self, ordering: BallsOrdering) -> Self {
        self.ordering = ordering;
        self
    }
}

impl Default for BallsParams {
    /// Defaults to the practical `α = ⅖`.
    fn default() -> Self {
        BallsParams::practical()
    }
}

/// Run BALLS under `budget`, the engine behind
/// [`Algorithm::Balls`](super::Algorithm::Balls).
///
/// Vertices are visited in increasing order of total incident edge weight
/// (the heuristic the paper reports working well); each visit either carves
/// out the ball around the vertex or emits a singleton. `O(n²)` oracle
/// lookups after the `O(n²)` ordering pass. One budget iteration per vertex
/// visit (each is an `O(n)` ball scan); on a trip the vertices not yet
/// visited become fresh singletons, so the result is always a complete,
/// valid clustering.
pub(crate) fn run<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    params: BallsParams,
    budget: &RunBudget,
) -> AggResult<RunOutcome> {
    params.validate()?;
    let (labels, status, iterations) = carve(oracle, params, budget);
    Ok(RunOutcome {
        clustering: Clustering::from_labels(labels),
        status,
        iterations,
    })
}

/// The ball-carving loop behind [`run`], for a checked `alpha`. Returns raw
/// labels plus how the run ended; every label is assigned on every path.
fn carve<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    params: BallsParams,
    budget: &RunBudget,
) -> (Vec<u32>, RunStatus, u64) {
    let n = oracle.len();
    let _span = crate::span!("balls", n = n, alpha = params.alpha);
    if n == 0 {
        return (Vec::new(), RunStatus::Converged, 0);
    }
    let mut meter = budget.meter();

    // Establish the visit order (the paper: increasing incident weight).
    // Each vertex weight is an independent full-row sum, computed in
    // parallel; accumulation order within a row is fixed (ascending v), so
    // the keys — and the sort — are identical at any thread count.
    let mut order: Vec<usize> = (0..n).collect();
    if params.ordering != BallsOrdering::Index {
        let mut weight = vec![0.0f64; n];
        parallel::fill_slice(&mut weight, |u| {
            let mut w = 0.0;
            for v in 0..n {
                if v != u {
                    w += oracle.dist(u, v);
                }
            }
            w
        });
        order.sort_by(|&a, &b| {
            let cmp = weight[a]
                .partial_cmp(&weight[b])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b));
            if params.ordering == BallsOrdering::DecreasingWeight {
                cmp.reverse()
            } else {
                cmp
            }
        });
    }

    let mut labels = vec![u32::MAX; n];
    let mut next_label = 0u32;

    // The ordering pass above is O(n) per vertex; account for it in bulk.
    // If the budget is already blown, every vertex becomes a singleton —
    // the only valid anytime answer before any ball has been carved.
    if params.ordering != BallsOrdering::Index {
        if let Err(interrupt) = meter.tick_n(n as u64) {
            return (
                finish_singletons(labels, next_label),
                interrupt.status(),
                meter.iterations(),
            );
        }
    }

    let mut ball: Vec<usize> = Vec::new();
    let mut candidates: Vec<usize> = Vec::new();
    let mut cand_dist: Vec<f64> = Vec::new();

    let mut heartbeat = telemetry::Heartbeat::new("balls", n as u64).with_budget(budget);
    for (visited, &u) in order.iter().enumerate() {
        heartbeat.tick(visited as u64);
        if labels[u] != u32::MAX {
            continue;
        }
        if let Err(interrupt) = meter.tick() {
            return (
                finish_singletons(labels, next_label),
                interrupt.status(),
                meter.iterations(),
            );
        }
        // Collect unclustered vertices within distance ½ of u. For large
        // candidate sets the distance lookups run in parallel into a row
        // buffer; membership and the average are then accumulated serially
        // in ascending v order, matching the small-instance path exactly.
        ball.clear();
        let mut total = 0.0;
        candidates.clear();
        candidates.extend(
            labels
                .iter()
                .enumerate()
                .filter(|&(v, &label)| v != u && label == u32::MAX)
                .map(|(v, _)| v),
        );
        if candidates.len() >= SCAN_PAR_MIN {
            cand_dist.clear();
            cand_dist.resize(candidates.len(), 0.0);
            let candidates = &candidates;
            parallel::fill_slice(&mut cand_dist, |i| oracle.dist(u, candidates[i]));
            for (&v, &d) in candidates.iter().zip(&cand_dist) {
                if d <= 0.5 {
                    ball.push(v);
                    total += d;
                }
            }
        } else {
            for &v in &candidates {
                let d = oracle.dist(u, v);
                if d <= 0.5 {
                    ball.push(v);
                    total += d;
                }
            }
        }
        let label = next_label;
        next_label += 1;
        labels[u] = label;
        if !ball.is_empty() && total / ball.len() as f64 <= params.alpha {
            for &v in &ball {
                labels[v] = label;
            }
            telemetry::metrics().balls_formed.incr_if_enabled();
        }
        // Otherwise u stays a singleton and the ball members remain
        // unclustered for later iterations.
    }

    (labels, RunStatus::Converged, meter.iterations())
}

/// Complete a partially-labelled vector by making every unvisited vertex a
/// fresh singleton, continuing the label counter.
fn finish_singletons(mut labels: Vec<u32>, mut next_label: u32) -> Vec<u32> {
    for label in labels.iter_mut().filter(|label| **label == u32::MAX) {
        *label = next_label;
        next_label += 1;
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{unlimited, Algorithm};
    use crate::cost::correlation_cost;
    use crate::instance::DenseOracle;
    use crate::robust::RunCtx;

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

    fn balls(oracle: &DenseOracle, params: BallsParams) -> Clustering {
        unlimited(Algorithm::Balls(params), oracle)
    }

    #[test]
    fn recovers_figure1_optimum_with_practical_alpha() {
        let result = balls(&figure1_oracle(), BallsParams::practical());
        assert_eq!(result, c(&[0, 1, 0, 1, 2, 2]));
    }

    #[test]
    fn perfect_consensus_is_reproduced() {
        // All inputs agree → X is 0/1 and BALLS must return the consensus.
        let consensus = c(&[0, 0, 0, 1, 1, 2]);
        let oracle = DenseOracle::from_clusterings(&[
            consensus.clone(),
            consensus.clone(),
            consensus.clone(),
        ]);
        for alpha in [0.25, 0.4] {
            assert_eq!(balls(&oracle, BallsParams::with_alpha(alpha)), consensus);
        }
    }

    #[test]
    fn all_far_apart_yields_singletons() {
        // Every pair at distance 1 → each vertex is alone in its ball.
        let oracle = DenseOracle::from_fn(5, |_, _| 1.0);
        let result = balls(&oracle, BallsParams::theoretical());
        assert_eq!(result, Clustering::singletons(5));
    }

    #[test]
    fn tight_alpha_makes_more_singletons() {
        // A ball whose average distance is between ¼ and ⅖: accepted at
        // α = 0.4, rejected at α = 0.25.
        let mut oracle = DenseOracle::from_fn(4, |_, _| 1.0);
        // Vertex 0 close-ish to 1, 2, 3 at distance 0.3.
        oracle.set(0, 1, 0.3);
        oracle.set(0, 2, 0.3);
        oracle.set(0, 3, 0.3);
        oracle.set(1, 2, 0.6);
        oracle.set(1, 3, 0.6);
        oracle.set(2, 3, 0.6);
        let loose = balls(&oracle, BallsParams::practical());
        assert_eq!(loose.num_clusters(), 1);
        let tight = balls(&oracle, BallsParams::theoretical());
        assert_eq!(tight, Clustering::singletons(4));
    }

    #[test]
    fn orderings_all_produce_valid_clusterings() {
        let oracle = figure1_oracle();
        for ordering in [
            BallsOrdering::IncreasingWeight,
            BallsOrdering::DecreasingWeight,
            BallsOrdering::Index,
        ] {
            let result = balls(&oracle, BallsParams::practical().with_ordering(ordering));
            assert_eq!(result.len(), 6);
            // On this easy instance every ordering still finds the optimum.
            assert_eq!(result, c(&[0, 1, 0, 1, 2, 2]), "{ordering:?}");
        }
    }

    #[test]
    fn cost_never_below_lower_bound() {
        let oracle = figure1_oracle();
        let result = balls(&oracle, BallsParams::default());
        assert!(correlation_cost(&oracle, &result) >= crate::cost::lower_bound(&oracle) - 1e-12);
    }

    #[test]
    fn empty_instance() {
        let oracle = DenseOracle::from_fn(0, |_, _| 0.0);
        assert_eq!(balls(&oracle, BallsParams::default()).len(), 0);
    }

    #[test]
    fn budget_trip_yields_complete_clustering() {
        let oracle = figure1_oracle();
        let tight = RunBudget::unlimited().with_max_iters(1);
        let outcome = Algorithm::Balls(BallsParams::practical())
            .run(&oracle, &mut RunCtx::new(&tight))
            .unwrap();
        assert_eq!(outcome.status, RunStatus::BudgetExceeded);
        // Every vertex carries a label — unvisited ones became singletons.
        assert_eq!(outcome.clustering.len(), 6);
    }

    #[test]
    fn alpha_validation() {
        // `with_alpha` only builds the parameters; the run checks `α`, and
        // both ends of [0, 1] are accepted.
        let oracle = figure1_oracle();
        let budget = RunBudget::unlimited();
        for alpha in [0.0, 1.0] {
            let outcome = Algorithm::Balls(BallsParams::with_alpha(alpha))
                .run(&oracle, &mut RunCtx::new(&budget))
                .unwrap();
            assert_eq!(outcome.clustering.len(), 6, "alpha {alpha}");
        }
        for alpha in [1.5, -0.5, f64::INFINITY] {
            let err = Algorithm::Balls(BallsParams::with_alpha(alpha))
                .run(&oracle, &mut RunCtx::new(&budget))
                .unwrap_err();
            assert!(
                matches!(&err, AggError::InvalidParameter { what, .. } if what == "alpha"),
                "alpha {alpha}: {err}"
            );
        }
    }

    #[test]
    fn budgeted_unlimited_matches_unbudgeted() {
        // A cap that never binds meters every visit yet changes no label.
        let oracle = figure1_oracle();
        let loose = RunBudget::unlimited().with_max_iters(u64::MAX);
        let outcome = Algorithm::Balls(BallsParams::practical())
            .run(&oracle, &mut RunCtx::new(&loose))
            .unwrap();
        assert_eq!(outcome.clustering, balls(&oracle, BallsParams::practical()));
        assert_eq!(outcome.status, RunStatus::Converged);
    }

    #[test]
    fn bad_alpha_is_a_typed_error() {
        let oracle = figure1_oracle();
        let params = BallsParams {
            alpha: f64::NAN,
            ordering: BallsOrdering::Index,
        };
        let err = Algorithm::Balls(params)
            .run(&oracle, &mut RunCtx::new(&RunBudget::unlimited()))
            .unwrap_err();
        assert!(matches!(err, AggError::InvalidParameter { .. }));
    }
}
