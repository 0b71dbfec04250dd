//! The standard experiment roster for the categorical-data tables
//! (Tables 2 and 3): prepare a correlation-clustering instance from a
//! categorical dataset and evaluate every algorithm on it, producing the
//! paper's `(k, E_C, E_D)` rows.

use aggclust_core::algorithms::{
    AgglomerativeParams, Algorithm, BallsParams, FurthestParams, LocalSearchParams,
};
use aggclust_core::clustering::{Clustering, PartialClustering};
use aggclust_core::cost::{correlation_cost, lower_bound};
use aggclust_core::instance::{CorrelationInstance, DenseOracle, DistanceOracle, MissingPolicy};
use aggclust_data::categorical::CategoricalDataset;
use aggclust_data::to_clusterings::attribute_clusterings;
use aggclust_metrics::classification_error;

/// One row of a Table-2/3-style report.
#[derive(Clone, Debug)]
pub struct RosterRow {
    /// Algorithm name as printed.
    pub name: String,
    /// Number of clusters produced.
    pub k: usize,
    /// Classification error in percent.
    pub ec_percent: f64,
    /// Expected disagreement error `E_D`.
    pub ed: f64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// The clustering itself (for follow-up analysis, e.g. Table 1).
    pub clustering: Clustering,
}

/// A prepared categorical-aggregation experiment: the dataset, the
/// attribute clusterings, and the dense correlation oracle.
pub struct CategoricalExperiment {
    /// The dataset under test.
    pub dataset: CategoricalDataset,
    /// The attribute clusterings (the BESTCLUSTERING candidates).
    pub clusterings: Vec<PartialClustering>,
    /// The instance built from the attribute clusterings (coin policy ½).
    pub instance: CorrelationInstance,
    /// Precomputed dense distances.
    pub oracle: DenseOracle,
}

impl CategoricalExperiment {
    /// Build the instance (attribute clusterings under the paper's fair-coin
    /// missing-value policy) and precompute the dense oracle.
    pub fn prepare(dataset: CategoricalDataset) -> Self {
        let clusterings = attribute_clusterings(&dataset);
        let instance =
            CorrelationInstance::from_partial(clusterings.clone(), MissingPolicy::Coin(0.5));
        let oracle = instance.dense_oracle();
        CategoricalExperiment {
            dataset,
            clusterings,
            instance,
            oracle,
        }
    }

    /// Number of input clusterings `m`.
    pub fn m(&self) -> usize {
        self.instance.num_clusterings()
    }

    /// Evaluate an externally produced clustering into a row.
    ///
    /// `E_D` is the correlation-clustering cost `d(C)` — the expected
    /// number of pair disagreements per input clustering — which is the
    /// scale the paper's Tables 2–3 report (their lower-bound and
    /// class-label rows are consistent with `d(C)`, not `m·d(C)`).
    pub fn evaluate(&self, name: &str, clustering: Clustering, seconds: f64) -> RosterRow {
        let ec = classification_error(&clustering, self.dataset.class_labels());
        let ed = correlation_cost(&self.oracle, &clustering);
        RosterRow {
            name: name.to_string(),
            k: clustering.num_clusters(),
            ec_percent: 100.0 * ec,
            ed,
            seconds,
            clustering,
        }
    }

    /// The "Class labels" reference row: the ground-truth classes viewed as
    /// a clustering.
    pub fn class_row(&self) -> RosterRow {
        let c = Clustering::from_labels(self.dataset.class_labels().to_vec());
        self.evaluate("Class labels", c, 0.0)
    }

    /// The instance-wide `E_D` lower bound (no clustering attains less),
    /// in the same `d(C)` scale as [`CategoricalExperiment::evaluate`].
    pub fn lower_bound_ed(&self) -> f64 {
        lower_bound(&self.oracle)
    }

    /// The BESTCLUSTERING row. Inputs with missing labels are completed
    /// with singleton clusters before being evaluated as candidates (the
    /// candidate must be a total clustering); the winner is the input with
    /// the smallest expected disagreement.
    pub fn best_clustering_row(&self) -> RosterRow {
        let (result, secs) = crate::timed(|| {
            let mut best: Option<(f64, Clustering)> = None;
            for input in &self.clusterings {
                let candidate = input.complete_with_singletons();
                let cost = correlation_cost(&self.oracle, &candidate);
                if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                    best = Some((cost, candidate));
                }
            }
            // Unreachable fallback: instances always carry >= 1 input.
            best.map_or_else(
                || Clustering::singletons(self.oracle.len()),
                |(_, candidate)| candidate,
            )
        });
        self.evaluate("BestClustering", result, secs)
    }

    /// Run one aggregation algorithm and produce its row.
    pub fn run(&self, name: &str, algorithm: &Algorithm) -> RosterRow {
        let (clustering, secs) = crate::timed(|| crate::run(algorithm, &self.oracle));
        self.evaluate(name, clustering, secs)
    }

    /// Run the full parameter-free roster plus BALLS at the paper's
    /// practical `α = 0.4`, in the paper's table order.
    pub fn standard_rows(&self) -> Vec<RosterRow> {
        let mut rows = vec![self.best_clustering_row()];
        for (name, algo) in standard_roster() {
            rows.push(self.run(&name, &algo));
        }
        rows
    }
}

/// The aggregation algorithms of the paper's tables, with their table
/// names: AGGLOMERATIVE, FURTHEST, BALLS(α = 0.4), LOCALSEARCH.
pub fn standard_roster() -> Vec<(String, Algorithm)> {
    vec![
        (
            "Agglomerative".into(),
            Algorithm::Agglomerative(AgglomerativeParams::default()),
        ),
        (
            "Furthest".into(),
            Algorithm::Furthest(FurthestParams::default()),
        ),
        (
            "Balls (a=0.4)".into(),
            Algorithm::Balls(BallsParams::practical()),
        ),
        (
            "LocalSearch".into(),
            Algorithm::LocalSearch(LocalSearchParams::default()),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggclust_data::presets::votes_like;

    #[test]
    fn roster_runs_on_small_votes_sample() {
        let (ds, _) = votes_like(3);
        let ds = ds.subsample_random(80, 1);
        let exp = CategoricalExperiment::prepare(ds);
        assert_eq!(exp.m(), 16);
        let rows = exp.standard_rows();
        assert_eq!(rows.len(), 5);
        let lb = exp.lower_bound_ed();
        for row in &rows {
            assert!(row.ed >= lb - 1e-6, "{} beat the lower bound", row.name);
            assert!(row.k >= 1);
            assert!((0.0..=100.0).contains(&row.ec_percent));
        }
        // The class-label row has E_C = 0 by definition.
        let class = exp.class_row();
        assert_eq!(class.ec_percent, 0.0);
    }
}
