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

use crate::clustering::Clustering;
use crate::error::AggResult;
use crate::instance::DistanceOracle;
use crate::robust::{RunBudget, RunOutcome};
use crate::snapshot::{AlgorithmSnapshot, Checkpointer};

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
    /// Run the algorithm on a correlation-clustering instance.
    pub fn run<O: DistanceOracle + Sync>(&self, oracle: &O) -> Clustering {
        match self {
            Algorithm::Balls(p) => balls::balls(oracle, *p),
            Algorithm::Agglomerative(p) => agglomerative::agglomerative(oracle, *p),
            Algorithm::Furthest(p) => furthest::furthest(oracle, *p),
            Algorithm::LocalSearch(p) => local_search::local_search(oracle, p.clone()),
            Algorithm::Pivot(p) => pivot::pivot(oracle, *p),
            Algorithm::Annealing(p) => annealing::simulated_annealing(oracle, p),
        }
    }

    /// Run the algorithm under a [`RunBudget`] with anytime semantics:
    /// invalid parameters come back as typed errors, and a budget trip
    /// yields the best-so-far clustering tagged with how the run ended
    /// instead of panicking or running to completion.
    pub fn run_budgeted<O: DistanceOracle + Sync>(
        &self,
        oracle: &O,
        budget: &RunBudget,
    ) -> AggResult<RunOutcome> {
        match self {
            Algorithm::Balls(p) => balls::balls_budgeted(oracle, *p, budget),
            Algorithm::Agglomerative(p) => {
                agglomerative::agglomerative_budgeted(oracle, *p, budget)
            }
            Algorithm::Furthest(p) => furthest::furthest_budgeted(oracle, *p, budget),
            Algorithm::LocalSearch(p) => {
                local_search::local_search_budgeted(oracle, p.clone(), budget)
            }
            Algorithm::Pivot(p) => pivot::pivot_budgeted(oracle, *p, budget),
            Algorithm::Annealing(p) => annealing::simulated_annealing_budgeted(oracle, p, budget),
        }
    }

    /// Run the algorithm with crash-safe checkpoint/resume on top of the
    /// budgeted semantics.
    ///
    /// AGGLOMERATIVE and LOCALSEARCH — the long-running algorithms — honor
    /// both the `resume` snapshot and the `ckpt` cadence (the SAMPLING
    /// meta-algorithm, which is not an [`Algorithm`] variant, resumes via
    /// [`sampling::sampling_resumable`]); the rest are single-sweep
    /// constructions that finish within one checkpoint interval anyway and
    /// simply delegate to [`Algorithm::run_budgeted`]. A snapshot for the
    /// wrong algorithm (or the wrong instance) is ignored: the run starts
    /// fresh.
    pub fn run_resumable<O: DistanceOracle + Sync>(
        &self,
        oracle: &O,
        budget: &RunBudget,
        resume: Option<&AlgorithmSnapshot>,
        ckpt: Option<&mut Checkpointer>,
    ) -> AggResult<RunOutcome> {
        match self {
            Algorithm::Agglomerative(p) => {
                let snap = match resume {
                    Some(AlgorithmSnapshot::Agglomerative(s)) => Some(s),
                    _ => None,
                };
                agglomerative::agglomerative_resumable(oracle, *p, budget, snap, ckpt)
            }
            Algorithm::LocalSearch(p) => {
                let snap = match resume {
                    Some(AlgorithmSnapshot::LocalSearch(s)) => Some(s),
                    _ => None,
                };
                local_search::local_search_resumable(oracle, p.clone(), budget, snap, ckpt)
            }
            _ => self.run_budgeted(oracle, budget),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::DenseOracle;

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
        for a in &algos {
            let result = a.run(&oracle);
            assert_eq!(result, optimum, "{} failed", a.name());
        }
    }

    #[test]
    fn run_budgeted_matches_run_with_unlimited_budget() {
        // Annealing with seed 68 on the second instance ends its descent
        // above its best mid-anneal state, which only the budgeted path
        // used to return.
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
                let outcome = a.run_budgeted(&oracle, &RunBudget::unlimited()).unwrap();
                assert!(outcome.status.is_converged(), "{}", a.name());
                assert_eq!(outcome.clustering, a.run(&oracle), "{} diverged", a.name());
            }
        }
    }

    #[test]
    fn run_budgeted_never_panics_on_a_tight_budget() {
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
                let outcome = a.run_budgeted(&oracle, &budget).unwrap();
                assert_eq!(outcome.clustering.len(), 6, "{} cap {cap}", a.name());
            }
        }
    }
}
