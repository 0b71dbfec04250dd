//! Simulated annealing for clustering aggregation — the approach of Filkov
//! & Skiena (reference \[13\] of the paper, which "proposes a simulated
//! annealing algorithm for finding an aggregate solution and a local search
//! algorithm similar to ours").
//!
//! Included as the related-work comparator: it explores the same move set
//! as LOCALSEARCH (move one node to another cluster or to a fresh
//! singleton) but accepts uphill moves with probability
//! `exp(−Δ/T)` under a geometric cooling schedule, so it can escape the
//! local optima LOCALSEARCH stops at. A final zero-temperature descent
//! guarantees the output is itself a single-move local optimum.

use crate::algorithms::local_search::{self, LocalSearchInit, LocalSearchParams};
use crate::clustering::Clustering;
use crate::cost::within_cost;
use crate::error::{AggError, AggResult};
use crate::instance::DistanceOracle;
use crate::robust::{BudgetMeter, Interrupt, RunBudget, RunCtx, RunOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for simulated annealing.
#[derive(Clone, Debug)]
pub struct AnnealingParams {
    /// Initial temperature (in units of the per-pair cost, which is `O(n)`
    /// per move; `1.0` is a conservative default).
    pub initial_temperature: f64,
    /// Multiplicative cooling factor per sweep, in `(0, 1)`.
    pub cooling: f64,
    /// Number of sweeps (each sweep proposes `n` random moves).
    pub sweeps: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnnealingParams {
    fn default() -> Self {
        AnnealingParams {
            initial_temperature: 1.0,
            cooling: 0.95,
            sweeps: 100,
            seed: 0,
        }
    }
}

/// Run simulated annealing from the all-singletons start, followed by a
/// zero-temperature LOCALSEARCH descent: the engine behind
/// [`Algorithm::Annealing`](super::Algorithm::Annealing).
///
/// One budget iteration per proposed move (each is an `O(n)` M-sums pass).
/// The loop keeps a snapshot of the cheapest state visited; a trip returns
/// that snapshot, which can never cost more than the all-singletons start.
/// On natural completion the final descent runs under the same budget and
/// the cheaper of (descended, snapshot) is returned.
pub(crate) fn run<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    params: &AnnealingParams,
    budget: &RunBudget,
) -> AggResult<RunOutcome> {
    if !(params.cooling > 0.0 && params.cooling < 1.0) {
        return Err(AggError::invalid_parameter(
            "cooling",
            format!("{} not in (0, 1)", params.cooling),
        ));
    }
    if params.initial_temperature.is_nan() {
        return Err(AggError::invalid_parameter(
            "initial_temperature",
            "must not be NaN",
        ));
    }
    let n = oracle.len();
    if n <= 1 {
        return Ok(RunOutcome::converged(Clustering::singletons(n)));
    }
    let mut meter = budget.meter();
    let state = anneal_loop(oracle, params, &mut meter);
    let anneal_iters = meter.iterations();
    if let Some(interrupt) = state.tripped {
        return Ok(RunOutcome {
            clustering: Clustering::from_labels(state.best_labels),
            status: interrupt.status(),
            iterations: anneal_iters,
        });
    }

    // Budgeted descent from the annealed state, then keep the cheaper of
    // the descended result and the best mid-anneal snapshot (the descent
    // start can be an uphill excursion the snapshot predates).
    let ls = LocalSearchParams {
        init: LocalSearchInit::Given(Clustering::from_labels(state.labels)),
        ..LocalSearchParams::default()
    };
    let descended = local_search::run(oracle, &ls, &mut RunCtx::new(budget))?;
    let snapshot = Clustering::from_labels(state.best_labels);
    let clustering = if within_cost(oracle, &descended.clustering) <= within_cost(oracle, &snapshot)
    {
        descended.clustering
    } else {
        snapshot
    };
    Ok(RunOutcome {
        clustering,
        status: descended.status,
        iterations: anneal_iters.saturating_add(descended.iterations),
    })
}

/// Result of the annealing sweeps: the final state, the cheapest snapshot
/// seen (by accumulated accepted deltas), and whether the budget tripped.
struct AnnealState {
    labels: Vec<u32>,
    best_labels: Vec<u32>,
    tripped: Option<Interrupt>,
}

/// The annealing sweeps. One budget tick per proposed move.
fn anneal_loop<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    params: &AnnealingParams,
    meter: &mut BudgetMeter<'_>,
) -> AnnealState {
    let n = oracle.len();
    let _span = crate::span!("annealing", n = n, sweeps = params.sweeps);
    let mut rng = StdRng::seed_from_u64(params.seed);

    // State: labels + sizes; fresh singleton labels appended at the end.
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut sizes: Vec<usize> = vec![1; n];
    let mut temperature = params.initial_temperature;

    // Anytime bookkeeping: `acc` is the cost relative to the singletons
    // start (the sum of accepted move deltas); the cheapest state seen is
    // snapshotted so a budget trip can return it.
    let mut acc = 0.0f64;
    let mut best_acc = 0.0f64;
    let mut best_labels = labels.clone();
    let mut tripped = None;

    // Move cost delta for node v → cluster `target` (usize::MAX = fresh
    // singleton), computed through the LOCALSEARCH M-sums in O(n).
    let mut m_sums: Vec<f64> = Vec::new();
    'sweeps: for _sweep in 0..params.sweeps {
        for _ in 0..n {
            if let Err(interrupt) = meter.tick() {
                tripped = Some(interrupt);
                break 'sweeps;
            }
            let v = rng.gen_range(0..n);
            let k = sizes.len();
            m_sums.clear();
            m_sums.resize(k, 0.0);
            let t_v = oracle.accumulate_row(v, &labels, &mut m_sums);
            let cur = labels[v] as usize;
            let others = (n - 1) as f64;
            let cost_of = |i: usize| -> f64 {
                let size_wo_v = sizes[i] - usize::from(i == cur);
                2.0 * m_sums[i] - t_v + others - size_wo_v as f64
            };
            let cur_cost = cost_of(cur);

            // Propose: random existing non-empty cluster or a singleton.
            let target = if rng.gen_bool(0.2) {
                usize::MAX
            } else {
                // Rejection-sample a non-empty cluster different from cur.
                let mut t = rng.gen_range(0..k);
                let mut guard = 0;
                while (sizes[t] == 0 || t == cur) && guard < 4 * k {
                    t = rng.gen_range(0..k);
                    guard += 1;
                }
                if sizes[t] == 0 || t == cur {
                    continue;
                }
                t
            };
            let new_cost = if target == usize::MAX {
                others - t_v
            } else {
                cost_of(target)
            };
            let delta = new_cost - cur_cost;
            let accept = delta < 0.0
                || (temperature > 0.0 && rng.gen::<f64>() < (-delta / temperature).exp());
            if !accept {
                continue;
            }
            // Apply the move.
            sizes[cur] -= 1;
            let dest = if target == usize::MAX {
                if sizes[cur] == 0 {
                    cur // moving a singleton to a fresh singleton: no-op
                } else {
                    sizes.push(0);
                    sizes.len() - 1
                }
            } else {
                target
            };
            sizes[dest] += 1;
            labels[v] = dest as u32;
            acc += delta;
            if acc < best_acc - 1e-12 {
                best_acc = acc;
                best_labels.clone_from(&labels);
            }
        }
        temperature *= params.cooling;
    }

    AnnealState {
        labels,
        best_labels,
        tripped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use crate::cost::correlation_cost;
    use crate::exact::optimal_clustering;
    use crate::instance::DenseOracle;

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

    fn anneal<O: DistanceOracle + Sync>(
        oracle: &O,
        params: &AnnealingParams,
        budget: &RunBudget,
    ) -> RunOutcome {
        Algorithm::Annealing(params.clone())
            .run(oracle, &mut RunCtx::new(budget))
            .unwrap()
    }

    fn simulated_annealing<O: DistanceOracle + Sync>(
        oracle: &O,
        params: &AnnealingParams,
    ) -> Clustering {
        anneal(oracle, params, &RunBudget::unlimited()).clustering
    }

    #[test]
    fn finds_the_figure1_optimum() {
        let oracle = figure1_oracle();
        let result = simulated_annealing(&oracle, &AnnealingParams::default());
        assert_eq!(result, c(&[0, 1, 0, 1, 2, 2]));
    }

    #[test]
    fn matches_exact_optimum_on_small_instances() {
        for seed in 0..5u64 {
            let inputs = vec![
                c(&[0, 1, 1, 0, 2, 2, 0]),
                c(&[0, 0, 1, 1, 2, 2, 1]),
                c(&[0, 1, 0, 1, 2, 0, 2]),
            ];
            let oracle = DenseOracle::from_clusterings(&inputs);
            let opt = optimal_clustering(&oracle).cost;
            let params = AnnealingParams {
                seed,
                ..Default::default()
            };
            let cost = correlation_cost(&oracle, &simulated_annealing(&oracle, &params));
            assert!(cost <= opt + 0.35, "seed {seed}: {cost} vs opt {opt}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let oracle = figure1_oracle();
        let p = AnnealingParams {
            seed: 11,
            sweeps: 30,
            ..Default::default()
        };
        assert_eq!(
            simulated_annealing(&oracle, &p),
            simulated_annealing(&oracle, &p)
        );
    }

    #[test]
    fn output_is_a_local_optimum() {
        // The final descent means no single move improves the result.
        let oracle = figure1_oracle();
        let result = simulated_annealing(&oracle, &AnnealingParams::default());
        let base = correlation_cost(&oracle, &result);
        let k = result.num_clusters();
        for v in 0..6 {
            for target in 0..=k {
                if target == result.label(v) as usize {
                    continue;
                }
                let mut labels = result.labels().to_vec();
                labels[v] = target as u32;
                let moved = Clustering::from_labels(labels);
                assert!(correlation_cost(&oracle, &moved) >= base - 1e-9);
            }
        }
    }

    #[test]
    fn tiny_instances() {
        let o0 = DenseOracle::from_fn(0, |_, _| 0.0);
        assert_eq!(
            simulated_annealing(&o0, &AnnealingParams::default()).len(),
            0
        );
        let o1 = DenseOracle::from_fn(1, |_, _| 0.0);
        assert_eq!(
            simulated_annealing(&o1, &AnnealingParams::default()).num_clusters(),
            1
        );
    }

    /// Three noisy copies of a 5-block planted clustering over 40 objects.
    fn noisy_inputs() -> Vec<Clustering> {
        (0..3u32)
            .map(|i| {
                Clustering::from_labels(
                    (0..40u32)
                        .map(|v| {
                            if (v * 7 + i * 3) % 11 == 0 {
                                (v + i) % 5
                            } else {
                                v / 8
                            }
                        })
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn lazy_and_dense_oracles_anneal_to_identical_labels() {
        // The sweeps read whole rows through `accumulate_row`, whose
        // contract is the same bits on every oracle kind.
        let inputs = noisy_inputs();
        let dense = DenseOracle::from_clusterings(&inputs);
        let lazy = crate::instance::CorrelationInstance::from_clusterings(&inputs);
        for seed in [0u64, 5, 9] {
            let params = AnnealingParams {
                seed,
                sweeps: 30,
                ..Default::default()
            };
            let outcome = anneal(&dense, &params, &RunBudget::unlimited());
            assert!(outcome.status.is_converged(), "seed {seed}");
            assert_eq!(
                simulated_annealing(&lazy, &params),
                outcome.clustering,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn budget_trip_is_no_worse_than_singletons() {
        let oracle = figure1_oracle();
        let tight = RunBudget::unlimited().with_max_iters(7);
        let outcome = anneal(&oracle, &AnnealingParams::default(), &tight);
        assert_eq!(outcome.status, crate::robust::RunStatus::BudgetExceeded);
        assert_eq!(outcome.clustering.len(), 6);
        assert!(
            correlation_cost(&oracle, &outcome.clustering)
                <= correlation_cost(&oracle, &Clustering::singletons(6)) + 1e-9
        );
    }

    #[test]
    fn plain_run_is_the_budgeted_run_under_an_unlimited_budget() {
        // A cap that never binds meters every sweep yet changes no label.
        let oracle = DenseOracle::from_clusterings(&noisy_inputs());
        let loose = RunBudget::unlimited().with_max_iters(u64::MAX);
        for seed in 0..12u64 {
            let params = AnnealingParams {
                seed,
                sweeps: 30,
                ..Default::default()
            };
            let outcome = anneal(&oracle, &params, &loose);
            assert!(outcome.status.is_converged(), "seed {seed}");
            assert_eq!(
                outcome.clustering,
                simulated_annealing(&oracle, &params),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn bad_cooling_is_a_typed_error() {
        let oracle = figure1_oracle();
        let params = AnnealingParams {
            cooling: 1.5,
            ..Default::default()
        };
        let err = Algorithm::Annealing(params)
            .run(&oracle, &mut RunCtx::new(&RunBudget::unlimited()))
            .unwrap_err();
        assert!(matches!(err, AggError::InvalidParameter { .. }));
    }
}
