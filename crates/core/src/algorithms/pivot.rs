//! CC-PIVOT: the randomized pivot algorithm for correlation clustering
//! (Ailon, Charikar & Newman, contemporaneous with the paper and cited by
//! the consensus-clustering line of work it started).
//!
//! Not part of the paper's §4 roster — included as the natural extension
//! baseline: it achieves expected 3-approximation on ±1 instances and
//! expected 4/3 with triangle-inequality distances when pairs are joined
//! with probability `1 − X_uv`, at essentially zero implementation
//! complexity.
//!
//! The algorithm: pick a random unclustered *pivot* `u`, put every
//! unclustered `v` with `X_uv < ½` (deterministic variant) — or with
//! probability `1 − X_uv` (randomized-rounding variant) — into `u`'s
//! cluster, remove them, repeat. `O(n²)` oracle lookups worst case.

use crate::clustering::Clustering;
use crate::instance::DistanceOracle;
use crate::robust::{BudgetMeter, Interrupt, RunBudget, RunOutcome, RunStatus};
use crate::telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a non-pivot node decides to join the pivot's cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PivotRounding {
    /// Join iff `X_uv < ½` (deterministic; only the pivot order is random).
    #[default]
    Majority,
    /// Join with probability `1 − X_uv` (the randomized-rounding variant
    /// with the stronger expected guarantee on triangle-inequality
    /// instances).
    Randomized,
}

/// Parameters for CC-PIVOT.
#[derive(Clone, Copy, Debug, Default)]
pub struct PivotParams {
    /// Join rule.
    pub rounding: PivotRounding,
    /// Seed for the pivot order (and the coin flips, if randomized).
    pub seed: u64,
    /// Run this many independent repetitions and keep the cheapest
    /// clustering (0 behaves as 1). The guarantee is in expectation, so
    /// repetitions sharpen it cheaply.
    pub repetitions: usize,
}

impl PivotParams {
    /// Majority rounding with the given seed, single repetition.
    pub fn majority(seed: u64) -> Self {
        PivotParams {
            rounding: PivotRounding::Majority,
            seed,
            repetitions: 1,
        }
    }

    /// Randomized rounding with the given seed and repetition count.
    pub fn randomized(seed: u64, repetitions: usize) -> Self {
        PivotParams {
            rounding: PivotRounding::Randomized,
            seed,
            repetitions,
        }
    }
}

/// Run CC-PIVOT under `budget`, the engine behind
/// [`Algorithm::Pivot`](super::Algorithm::Pivot); with `repetitions > 1`
/// the cheapest of the independent runs (by correlation cost) is returned.
///
/// One budget iteration per pivot (each pivot scans the remaining
/// unclustered nodes). On a trip, the current repetition is completed by
/// turning every unclustered node into a fresh singleton, and the cheapest
/// clustering across the finished repetitions is returned.
pub(crate) fn run<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    params: PivotParams,
    budget: &RunBudget,
) -> RunOutcome {
    let n = oracle.len();
    let _span = crate::span!(
        "pivot",
        n = n,
        repetitions = params.repetitions.max(1),
        randomized = params.rounding == PivotRounding::Randomized
    );
    if n == 0 {
        return RunOutcome::converged(Clustering::from_labels(Vec::new()));
    }
    let reps = params.repetitions.max(1);
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut meter = budget.meter();
    let mut best: Option<(f64, Clustering)> = None;
    for _ in 0..reps {
        let (candidate, tripped) = pivot_once(oracle, params.rounding, &mut rng, &mut meter);
        let cost = crate::cost::correlation_cost(oracle, &candidate);
        if best.as_ref().is_none_or(|(c, _)| cost < *c) {
            best = Some((cost, candidate));
        }
        if let Some(interrupt) = tripped {
            return take_best(best, n, interrupt.status(), &meter);
        }
    }
    take_best(best, n, RunStatus::Converged, &meter)
}

/// The outcome holding the cheapest repetition. `best` is always `Some`
/// after at least one repetition; the singleton fallback only avoids a
/// panic path.
fn take_best(
    best: Option<(f64, Clustering)>,
    n: usize,
    status: RunStatus,
    meter: &BudgetMeter<'_>,
) -> RunOutcome {
    RunOutcome {
        clustering: best.map_or_else(|| Clustering::singletons(n), |(_, clustering)| clustering),
        status,
        iterations: meter.iterations(),
    }
}

fn pivot_once<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    rounding: PivotRounding,
    rng: &mut StdRng,
    meter: &mut BudgetMeter<'_>,
) -> (Clustering, Option<Interrupt>) {
    let n = oracle.len();
    // Random pivot order = random permutation, first unclustered wins.
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut labels = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut tripped = None;
    let mut heartbeat = telemetry::Heartbeat::new("pivot", n as u64);
    for (visited, &u) in order.iter().enumerate() {
        heartbeat.tick(visited as u64);
        if labels[u] != u32::MAX {
            continue;
        }
        if let Err(interrupt) = meter.tick() {
            // Finish the repetition cheaply: the unclustered remainder
            // becomes fresh singletons so the result is complete and valid.
            tripped = Some(interrupt);
            break;
        }
        telemetry::metrics().pivot_rounds.incr_if_enabled();
        let label = next;
        next += 1;
        labels[u] = label;
        for (v, slot) in labels.iter_mut().enumerate() {
            if *slot == u32::MAX && v != u {
                let x = oracle.dist(u, v);
                let join = match rounding {
                    PivotRounding::Majority => x < 0.5,
                    PivotRounding::Randomized => rng.gen::<f64>() < 1.0 - x,
                };
                if join {
                    *slot = label;
                }
            }
        }
    }
    if tripped.is_some() {
        for slot in labels.iter_mut().filter(|slot| **slot == u32::MAX) {
            *slot = next;
            next += 1;
        }
    }
    (Clustering::from_labels(labels), tripped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{unlimited, Algorithm};
    use crate::cost::correlation_cost;
    use crate::exact::optimal_clustering;
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

    fn pivot(oracle: &DenseOracle, params: PivotParams) -> Clustering {
        unlimited(Algorithm::Pivot(params), oracle)
    }

    #[test]
    fn perfect_consensus_is_reproduced() {
        let consensus = c(&[0, 0, 1, 1, 2, 2, 2]);
        let oracle = DenseOracle::from_clusterings(&[consensus.clone(), consensus.clone()]);
        for seed in 0..5 {
            assert_eq!(pivot(&oracle, PivotParams::majority(seed)), consensus);
        }
    }

    #[test]
    fn repetitions_find_the_figure1_optimum() {
        let oracle = figure1_oracle();
        let result = pivot(&oracle, PivotParams::randomized(1, 20));
        let opt = optimal_clustering(&oracle);
        assert!(
            correlation_cost(&oracle, &result) <= opt.cost + 1e-9,
            "20 repetitions should reach the optimum on 6 nodes"
        );
    }

    #[test]
    fn expected_three_approximation_holds_on_average() {
        // Average the randomized variant's cost over many seeds; it must be
        // within 3× the optimum with slack (Markov would allow single runs
        // to exceed it).
        let oracle = figure1_oracle();
        let opt = optimal_clustering(&oracle).cost;
        let mut total = 0.0;
        let runs = 50;
        for seed in 0..runs {
            let result = pivot(
                &oracle,
                PivotParams {
                    rounding: PivotRounding::Randomized,
                    seed,
                    repetitions: 1,
                },
            );
            total += correlation_cost(&oracle, &result);
        }
        let mean = total / runs as f64;
        assert!(
            mean <= 3.0 * opt + 1e-9,
            "mean {mean} vs 3·OPT {}",
            3.0 * opt
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let oracle = figure1_oracle();
        let p = PivotParams::randomized(9, 3);
        assert_eq!(pivot(&oracle, p), pivot(&oracle, p));
    }

    #[test]
    fn empty_instance() {
        let oracle = DenseOracle::from_fn(0, |_, _| 0.0);
        assert_eq!(pivot(&oracle, PivotParams::default()).len(), 0);
    }

    #[test]
    fn budget_trip_returns_complete_clustering() {
        let oracle = figure1_oracle();
        // One pivot allowed, then the cap trips mid-repetition: the rest of
        // the nodes become singletons and the clustering is still complete.
        let tight = RunBudget::unlimited().with_max_iters(1);
        let outcome = Algorithm::Pivot(PivotParams::majority(3))
            .run(&oracle, &mut RunCtx::new(&tight))
            .unwrap();
        assert_eq!(outcome.status, RunStatus::BudgetExceeded);
        assert_eq!(outcome.clustering.len(), 6);
    }

    #[test]
    fn budgeted_unlimited_matches_unbudgeted() {
        // A cap that never binds meters every pivot yet changes no label.
        let oracle = figure1_oracle();
        let params = PivotParams::randomized(7, 4);
        let loose = RunBudget::unlimited().with_max_iters(u64::MAX);
        let outcome = Algorithm::Pivot(params)
            .run(&oracle, &mut RunCtx::new(&loose))
            .unwrap();
        assert_eq!(outcome.status, RunStatus::Converged);
        assert_eq!(outcome.clustering, pivot(&oracle, params));
    }
}
