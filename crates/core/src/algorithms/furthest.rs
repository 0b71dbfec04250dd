//! The FURTHEST algorithm: top-down partitioning by furthest-first
//! traversal.
//!
//! Inspired by Hochbaum & Shmoys' furthest-first 2-approximation for
//! `p`-centers, the algorithm grows a set of cluster centers: start with the
//! two most distant nodes, then repeatedly add the node furthest from the
//! existing centers (maximizing the minimum distance to them). After each
//! center addition every node is assigned to the center incurring the least
//! cost, the correlation cost of the new solution is computed, and the
//! algorithm stops — returning the *previous* solution — as soon as the cost
//! fails to improve.
//!
//! `O(k·n)` oracle lookups for assignments plus `O(k·Σs_i²)` for the
//! incremental cost evaluations, where `k` is the number of centers tried.

use crate::clustering::Clustering;
use crate::cost::within_cost;
use crate::instance::DistanceOracle;
use crate::parallel;
use crate::robust::{BudgetMeter, Interrupt, RunBudget, RunOutcome, RunStatus};
use crate::telemetry;

/// Parameters for FURTHEST.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct FurthestParams {
    /// Upper bound on the number of centers to try (`None` = up to `n`).
    /// The paper's algorithm is unbounded; the cap is an engineering guard
    /// for degenerate instances.
    pub max_centers: Option<usize>,
    /// Force exactly this many clusters: keep adding centers (ignoring the
    /// cost-improvement stopping rule) until `k` centers exist, then return
    /// that assignment — the paper's "user insists on a predefined number
    /// of clusters" modification.
    pub num_clusters: Option<usize>,
}

impl FurthestParams {
    /// Force exactly `k` output clusters.
    pub fn with_num_clusters(k: usize) -> Self {
        FurthestParams {
            max_centers: None,
            num_clusters: Some(k),
        }
    }
}

/// Run FURTHEST under `budget`, the engine behind
/// [`Algorithm::Furthest`](super::Algorithm::Furthest).
///
/// The `O(n²)` furthest-pair search, the per-round nearest-center
/// assignments, the candidate cost evaluations, and the `min_dist` updates
/// all run in parallel (see [`crate::parallel`]); tie-breaks match the
/// serial strict-comparison scans exactly, so the result is identical at
/// any thread count.
///
/// One budget iteration per center round (each is at least `O(n)` work);
/// the `O(n²)` furthest-pair search is metered in bulk. The algorithm
/// already tracks the best-cost-so-far solution, which doubles as the
/// anytime result — never worse than the one-cluster start it is seeded
/// with.
pub(crate) fn run<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    params: FurthestParams,
    budget: &RunBudget,
) -> RunOutcome {
    let n = oracle.len();
    let _span = crate::span!("furthest", n = n, fixed_k = params.num_clusters.is_some());
    let fixed_k = params.num_clusters;
    if n <= 1 || fixed_k == Some(1) {
        return RunOutcome::converged(Clustering::one_cluster(n));
    }
    let cap = fixed_k
        .unwrap_or_else(|| params.max_centers.unwrap_or(n))
        .clamp(2, n);
    let mut meter = budget.meter();

    // The cost comparison only needs the C-dependent "within" term
    // Σ_{same-cluster pairs} (2X − 1); the Σ(1−X) base is constant.
    let mut best = Clustering::one_cluster(n);
    let mut best_within = within_cost(oracle, &best);

    // The furthest-pair search is an O(n²) block; account for it as n
    // units. Tripping here means the one-cluster seed is the result.
    if let Err(interrupt) = meter.tick_n(n as u64) {
        return interrupted(best, interrupt, &meter);
    }

    // First two centers: the furthest-apart pair (earliest pair on ties,
    // like the serial strict-`>` scan). n >= 2 here, so a pair always
    // exists; the fallback only avoids a panic path.
    let (ca, cb, _) = parallel::max_pair(n, |u, v| oracle.dist(u, v)).unwrap_or((0, 1, 0.0));
    let mut centers: Vec<usize> = vec![ca, cb];
    telemetry::metrics().furthest_centers.add_if_enabled(2);
    // min_dist[v] = distance from v to its nearest center (for picking the
    // next center in O(n) per round).
    let mut min_dist: Vec<f64> = vec![0.0; n];
    parallel::fill_slice(&mut min_dist, |v| {
        oracle.dist(v, ca).min(oracle.dist(v, cb))
    });

    let mut heartbeat = telemetry::Heartbeat::new("furthest", cap as u64).with_budget(budget);
    loop {
        heartbeat.tick(centers.len() as u64);
        if let Err(interrupt) = meter.tick() {
            return interrupted(best, interrupt, &meter);
        }
        // Assign every node to the nearest center (ties → earliest center).
        let mut labels = vec![0u32; n];
        {
            let centers = &centers;
            parallel::fill_slice(&mut labels, |v| {
                let mut best_c = 0usize;
                let mut best_d = f64::INFINITY;
                for (ci, &c) in centers.iter().enumerate() {
                    let d = oracle.dist(v, c);
                    if d < best_d {
                        best_d = d;
                        best_c = ci;
                    }
                }
                best_c as u32
            });
        }
        let candidate = Clustering::from_labels(labels);
        let cand_within = within_cost(oracle, &candidate);

        if fixed_k.is_some() {
            // Fixed-k mode: always keep the latest assignment; stop only
            // when k centers exist.
            best = candidate;
            best_within = cand_within;
        } else if cand_within < best_within {
            best = candidate;
            best_within = cand_within;
        } else {
            // No improvement: output the previous step's solution.
            break;
        }

        if centers.len() >= cap {
            break;
        }
        // Next center: the node furthest from all existing centers.
        let mut next = usize::MAX;
        let mut next_d = -1.0;
        for (v, &d) in min_dist.iter().enumerate() {
            if d > next_d && !centers.contains(&v) {
                next_d = d;
                next = v;
            }
        }
        if next == usize::MAX || next_d <= 0.0 {
            // Every remaining node coincides with a center; no split helps.
            break;
        }
        centers.push(next);
        telemetry::metrics().furthest_centers.incr_if_enabled();
        parallel::update_slice(&mut min_dist, |v, slot| {
            let d = oracle.dist(v, next);
            if d < *slot {
                *slot = d;
            }
        });
    }

    RunOutcome {
        clustering: best,
        status: RunStatus::Converged,
        iterations: meter.iterations(),
    }
}

/// The anytime result of a tripped run: the best clustering so far.
fn interrupted(best: Clustering, interrupt: Interrupt, meter: &BudgetMeter<'_>) -> RunOutcome {
    RunOutcome {
        clustering: best,
        status: interrupt.status(),
        iterations: meter.iterations(),
    }
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

    fn furthest(oracle: &DenseOracle, params: FurthestParams) -> Clustering {
        unlimited(Algorithm::Furthest(params), oracle)
    }

    #[test]
    fn recovers_figure1_optimum() {
        let result = furthest(&figure1_oracle(), FurthestParams::default());
        assert_eq!(result, c(&[0, 1, 0, 1, 2, 2]));
    }

    #[test]
    fn perfect_consensus_is_reproduced() {
        let consensus = c(&[0, 0, 0, 1, 1, 2, 2, 2]);
        let oracle = DenseOracle::from_clusterings(&[consensus.clone(), consensus.clone()]);
        assert_eq!(furthest(&oracle, FurthestParams::default()), consensus);
    }

    #[test]
    fn all_identical_stays_one_cluster() {
        // X ≡ 0: splitting anything only costs; keep the single cluster.
        let oracle = DenseOracle::from_fn(5, |_, _| 0.0);
        assert_eq!(
            furthest(&oracle, FurthestParams::default()),
            Clustering::one_cluster(5)
        );
    }

    #[test]
    fn never_worse_than_one_cluster() {
        let oracle = figure1_oracle();
        let result = furthest(&oracle, FurthestParams::default());
        assert!(
            correlation_cost(&oracle, &result)
                <= correlation_cost(&oracle, &Clustering::one_cluster(6)) + 1e-9
        );
    }

    #[test]
    fn max_centers_cap_respected() {
        let oracle = figure1_oracle();
        let result = furthest(
            &oracle,
            FurthestParams {
                max_centers: Some(2),
                num_clusters: None,
            },
        );
        assert!(result.num_clusters() <= 2);
    }

    #[test]
    fn fixed_k_variant() {
        let oracle = figure1_oracle();
        for k in 1..=5 {
            let result = furthest(&oracle, FurthestParams::with_num_clusters(k));
            assert_eq!(result.num_clusters(), k, "k = {k}");
        }
    }

    #[test]
    fn tiny_instances() {
        let o0 = DenseOracle::from_fn(0, |_, _| 0.0);
        assert_eq!(furthest(&o0, FurthestParams::default()).len(), 0);
        let o1 = DenseOracle::from_fn(1, |_, _| 0.0);
        assert_eq!(furthest(&o1, FurthestParams::default()).num_clusters(), 1);
        let o2 = DenseOracle::from_fn(2, |_, _| 1.0);
        let r2 = furthest(&o2, FurthestParams::default());
        assert_eq!(r2.num_clusters(), 2);
    }

    #[test]
    fn budget_trip_returns_best_so_far() {
        let oracle = figure1_oracle();
        // Budget burns out during the furthest-pair search (6 units > 1):
        // the anytime result is the one-cluster seed.
        let tight = RunBudget::unlimited().with_max_iters(1);
        let outcome = Algorithm::Furthest(FurthestParams::default())
            .run(&oracle, &mut RunCtx::new(&tight))
            .unwrap();
        assert_eq!(outcome.status, RunStatus::BudgetExceeded);
        assert_eq!(outcome.clustering.len(), 6);
        assert!(
            correlation_cost(&oracle, &outcome.clustering)
                <= correlation_cost(&oracle, &Clustering::one_cluster(6)) + 1e-9
        );
    }

    #[test]
    fn budgeted_unlimited_matches_unbudgeted() {
        // A cap that never binds meters every round yet changes no label.
        let oracle = figure1_oracle();
        let loose = RunBudget::unlimited().with_max_iters(u64::MAX);
        let outcome = Algorithm::Furthest(FurthestParams::default())
            .run(&oracle, &mut RunCtx::new(&loose))
            .unwrap();
        assert_eq!(outcome.status, RunStatus::Converged);
        assert_eq!(
            outcome.clustering,
            furthest(&oracle, FurthestParams::default())
        );
    }
}
