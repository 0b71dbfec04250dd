//! The clustering-aggregation / correlation-clustering algorithms of the
//! paper (§4), plus a composable [`Algorithm`] descriptor used by the
//! SAMPLING meta-algorithm and the experiment harness.

pub mod agglomerative;
pub mod annealing;
pub mod balls;
pub mod best;
pub mod furthest;
pub mod local_search;
pub mod pivot;
pub mod sampling;

use crate::error::AggResult;
use crate::instance::DistanceOracle;
use crate::robust::{RunCtx, RunOutcome};

pub use agglomerative::AgglomerativeParams;
pub use annealing::AnnealingParams;
pub use balls::{BallsOrdering, BallsParams};
pub use furthest::FurthestParams;
pub use local_search::{LocalSearchInit, LocalSearchParams};
pub use pivot::{PivotParams, PivotRounding};
pub use sampling::SamplingParams;

/// A first-class description of a correlation-clustering algorithm and its
/// parameters, runnable on any [`DistanceOracle`].
///
/// BESTCLUSTERING is absent: it needs the input clusterings, not just the
/// distance oracle, so it lives outside this enum
/// (see [`best::best_clustering`]).
#[derive(Clone, Debug)]
pub enum Algorithm {
    /// The BALLS 3-approximation (paper Theorem 1).
    Balls(BallsParams),
    /// Bottom-up average-linkage agglomeration stopping at ½.
    Agglomerative(AgglomerativeParams),
    /// Top-down furthest-first traversal.
    Furthest(FurthestParams),
    /// Node-move local search.
    LocalSearch(LocalSearchParams),
    /// CC-PIVOT (extension; Ailon–Charikar–Newman).
    Pivot(PivotParams),
    /// Simulated annealing (extension; Filkov–Skiena, the paper's ref 13).
    Annealing(AnnealingParams),
}

impl Algorithm {
    /// Run the algorithm on a correlation-clustering instance — the one
    /// way to run any of them.
    ///
    /// Invalid parameters (BALLS `α` outside `[0, 1]`, a NaN threshold,
    /// `ε` or temperature, a cooling factor outside `(0, 1)`, a
    /// LOCALSEARCH start that does not cover the instance) come back as
    /// [`AggError::InvalidParameter`](crate::AggError::InvalidParameter).
    /// The run honors `ctx.budget` with anytime semantics: a trip yields
    /// the best-so-far clustering tagged with how the run ended, never an
    /// error. AGGLOMERATIVE and LOCALSEARCH resume from `ctx.resume` and
    /// checkpoint through `ctx.ckpt`; the other algorithms use the budget
    /// alone.
    pub fn run<O: DistanceOracle + Sync + ?Sized>(
        &self,
        oracle: &O,
        ctx: &mut RunCtx<'_>,
    ) -> AggResult<RunOutcome> {
        match self {
            Algorithm::Balls(p) => balls::run(oracle, *p, ctx.budget),
            Algorithm::Agglomerative(p) => agglomerative::run(oracle, *p, ctx),
            Algorithm::Furthest(p) => Ok(furthest::run(oracle, *p, ctx.budget)),
            Algorithm::LocalSearch(p) => local_search::run(oracle, p, ctx),
            Algorithm::Pivot(p) => Ok(pivot::run(oracle, *p, ctx.budget)),
            Algorithm::Annealing(p) => annealing::run(oracle, p, ctx.budget),
        }
    }

    /// Short display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Balls(_) => "Balls",
            Algorithm::Agglomerative(_) => "Agglomerative",
            Algorithm::Furthest(_) => "Furthest",
            Algorithm::LocalSearch(_) => "LocalSearch",
            Algorithm::Pivot(_) => "Pivot",
            Algorithm::Annealing(_) => "Annealing",
        }
    }
}

/// `algorithm` on `oracle` under an unlimited budget: the module tests'
/// shorthand for a run whose parameters are valid.
#[cfg(test)]
pub(crate) fn unlimited<O: DistanceOracle + Sync + ?Sized>(
    algorithm: Algorithm,
    oracle: &O,
) -> crate::clustering::Clustering {
    let budget = crate::robust::RunBudget::unlimited();
    algorithm
        .run(oracle, &mut RunCtx::new(&budget))
        .unwrap()
        .clustering
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::Clustering;
    use crate::error::AggError;
    use crate::instance::{CorrelationInstance, DenseOracle};
    use crate::robust::RunBudget;

    fn figure1_oracle() -> DenseOracle {
        let cs = vec![
            Clustering::from_labels(vec![0, 0, 1, 1, 2, 2]),
            Clustering::from_labels(vec![0, 1, 0, 1, 2, 3]),
            Clustering::from_labels(vec![0, 1, 0, 1, 2, 2]),
        ];
        DenseOracle::from_clusterings(&cs)
    }

    #[test]
    fn every_algorithm_recovers_the_paper_optimum() {
        // The optimum for Figure 1 is {{v1,v3},{v2,v4},{v5,v6}}, cost 5/3.
        let oracle = figure1_oracle();
        let optimum = Clustering::from_labels(vec![0, 1, 0, 1, 2, 2]);
        let algos = [
            Algorithm::Balls(BallsParams::default()),
            Algorithm::Agglomerative(AgglomerativeParams::default()),
            Algorithm::Furthest(FurthestParams::default()),
            Algorithm::LocalSearch(LocalSearchParams::default()),
        ];
        for a in algos {
            let name = a.name();
            assert_eq!(unlimited(a, &oracle), optimum, "{name} failed");
        }
    }

    #[test]
    fn every_algorithm_converges_under_an_unlimited_budget() {
        // Annealing with seed 68 on the second instance ends its descent
        // above its best mid-anneal state and returns that state instead.
        let noisy = DenseOracle::from_clusterings(&[
            Clustering::from_labels(vec![0, 0, 1, 0, 0, 2, 0, 1, 1, 1, 0, 0, 2, 3, 3, 1]),
            Clustering::from_labels(vec![0, 1, 2, 2, 3, 0, 1, 0, 0, 0, 2, 2, 2, 2, 0, 1]),
            Clustering::from_labels(vec![0, 0, 0, 1, 1, 2, 2, 1, 2, 2, 0, 0, 1, 1, 1, 1]),
        ]);
        let algos = [
            Algorithm::Balls(BallsParams::default()),
            Algorithm::Agglomerative(AgglomerativeParams::default()),
            Algorithm::Furthest(FurthestParams::default()),
            Algorithm::LocalSearch(LocalSearchParams::default()),
            Algorithm::Pivot(PivotParams::default()),
            Algorithm::Annealing(AnnealingParams {
                seed: 68,
                ..Default::default()
            }),
        ];
        for oracle in [figure1_oracle(), noisy] {
            for a in &algos {
                let outcome = a
                    .run(&oracle, &mut RunCtx::new(&RunBudget::unlimited()))
                    .unwrap();
                assert!(outcome.status.is_converged(), "{}", a.name());
                assert_eq!(outcome.clustering.len(), oracle.len(), "{}", a.name());
            }
        }
    }

    #[test]
    fn run_never_panics_on_a_tight_budget() {
        let oracle = figure1_oracle();
        let algos = [
            Algorithm::Balls(BallsParams::default()),
            Algorithm::Agglomerative(AgglomerativeParams::default()),
            Algorithm::Furthest(FurthestParams::default()),
            Algorithm::LocalSearch(LocalSearchParams::default()),
            Algorithm::Pivot(PivotParams::default()),
            Algorithm::Annealing(AnnealingParams::default()),
        ];
        for cap in [0u64, 1, 2, 5] {
            let budget = RunBudget::unlimited().with_max_iters(cap);
            for a in &algos {
                let outcome = a.run(&oracle, &mut RunCtx::new(&budget)).unwrap();
                assert_eq!(outcome.clustering.len(), 6, "{} cap {cap}", a.name());
            }
        }
    }

    #[test]
    fn every_invalid_parameter_is_a_typed_error() {
        let balls = |alpha| {
            Algorithm::Balls(BallsParams {
                alpha,
                ordering: BallsOrdering::IncreasingWeight,
            })
        };
        let annealing = |initial_temperature, cooling| {
            Algorithm::Annealing(AnnealingParams {
                initial_temperature,
                cooling,
                ..Default::default()
            })
        };
        let local_search = |init| {
            Algorithm::LocalSearch(LocalSearchParams {
                init,
                ..Default::default()
            })
        };
        let cases = [
            ("alpha", balls(-0.5)),
            ("alpha", balls(1.5)),
            ("alpha", balls(f64::NAN)),
            (
                "threshold",
                Algorithm::Agglomerative(AgglomerativeParams {
                    threshold: f64::NAN,
                    num_clusters: None,
                }),
            ),
            (
                "start",
                local_search(LocalSearchInit::Given(Clustering::singletons(3))),
            ),
            ("cooling", annealing(1.0, 0.0)),
            ("cooling", annealing(1.0, 1.0)),
            ("cooling", annealing(1.0, 1.5)),
            ("initial_temperature", annealing(f64::NAN, 0.95)),
        ];
        let oracle = figure1_oracle();
        for (param, algorithm) in cases {
            let result = std::panic::catch_unwind(|| {
                algorithm.run(&oracle, &mut RunCtx::new(&RunBudget::unlimited()))
            });
            match result {
                Ok(Err(AggError::InvalidParameter { what, .. })) => {
                    assert_eq!(what, param, "{algorithm:?}")
                }
                Ok(other) => panic!("{algorithm:?}: expected InvalidParameter, got {other:?}"),
                Err(_) => panic!("{algorithm:?} panicked"),
            }
        }
    }

    #[test]
    fn the_functions_the_benchmark_names_match_algorithm_run() {
        use local_search::{local_search_budgeted, local_search_from_budgeted};
        use sampling::{sampling, sampling_with_details};
        // Three noisy copies of a 5-block planted clustering of 60 objects.
        let inputs: Vec<Clustering> = (0..3u32)
            .map(|i| {
                let labels = (0..60u32).map(|v| {
                    if (v * 7 + i * 3) % 11 == 0 {
                        (v + i) % 5
                    } else {
                        v / 12
                    }
                });
                Clustering::from_labels(labels.collect())
            })
            .collect();
        let dense = DenseOracle::from_clusterings(&inputs);
        let budget = RunBudget::unlimited();

        let params = LocalSearchParams {
            max_passes: 3,
            ..Default::default()
        };
        let named = local_search_budgeted(&dense, params.clone(), &budget).unwrap();
        assert_eq!(
            named.clustering,
            unlimited(Algorithm::LocalSearch(params), &dense)
        );

        let agglomerative = Algorithm::Agglomerative(AgglomerativeParams::default());
        let start = unlimited(agglomerative.clone(), &dense);
        let refine = Algorithm::LocalSearch(LocalSearchParams {
            init: LocalSearchInit::Given(start.clone()),
            ..Default::default()
        });
        let named = local_search_from_budgeted(&dense, &start, 200, 1e-9, &budget).unwrap();
        assert_eq!(named.clustering, unlimited(refine, &dense));

        let lazy = CorrelationInstance::from_clusterings(&inputs);
        let params = SamplingParams::new(20, agglomerative, 7);
        let single = sampling(&lazy, &params, &mut RunCtx::new(&budget)).unwrap();
        assert_eq!(
            sampling_with_details(&lazy, &params).clustering,
            single.clustering
        );
    }
}
