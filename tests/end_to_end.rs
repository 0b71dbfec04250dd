//! End-to-end pipelines across all crates: generators → baseline
//! clusterers → aggregation → metrics, mirroring the experiment harness at
//! test-friendly sizes.

use aggclust_baselines::hierarchical::{hierarchical, HierarchicalParams, LinkageMethod};
use aggclust_baselines::kmeans::{kmeans, KMeansParams};
use aggclust_baselines::limbo::{limbo, LimboParams};
use aggclust_baselines::rock::{rock, RockParams};
use aggclust_core::algorithms::{
    AgglomerativeParams, Algorithm, LocalSearchInit, LocalSearchParams,
};
use aggclust_core::clustering::Clustering;
use aggclust_core::cost::{correlation_cost, lower_bound};
use aggclust_core::instance::{CorrelationInstance, DistanceOracle, MissingPolicy};
use aggclust_core::{RunBudget, RunCtx};
use aggclust_data::presets::{census_like_scaled, mushrooms_like, votes_like};
use aggclust_data::synth2d::{gaussian_with_noise, seven_groups};
use aggclust_data::to_clusterings::{attribute_clusterings, heterogeneous_clusterings};
use aggclust_metrics::pair_counting::adjusted_rand_index;
use aggclust_metrics::{classification_error, confusion_matrix};

/// `algorithm` on `oracle` under an unlimited budget.
fn run<O: DistanceOracle + Sync>(algorithm: &Algorithm, oracle: &O) -> Clustering {
    algorithm
        .run(oracle, &mut RunCtx::new(&RunBudget::unlimited()))
        .unwrap()
        .clustering
}

#[test]
fn categorical_pipeline_on_votes_sample() {
    let (dataset, _) = votes_like(5);
    let dataset = dataset.subsample_random(150, 1);
    let clusterings = attribute_clusterings(&dataset);
    assert_eq!(clusterings.len(), 16);
    let instance = CorrelationInstance::from_partial(clusterings, MissingPolicy::Coin(0.5));
    let oracle = instance.dense_oracle();

    let clustering = run(
        &Algorithm::Agglomerative(AgglomerativeParams::paper()),
        &oracle,
    );
    // The party structure must be recovered: few clusters, decent purity.
    assert!(
        clustering.num_clusters() <= 6,
        "k = {}",
        clustering.num_clusters()
    );
    // Subsampling to 150 rows keeps the party structure but adds variance;
    // a random 2-way labeling would sit near 0.5.
    let ec = classification_error(&clustering, dataset.class_labels());
    assert!(ec < 0.35, "E_C = {ec}");
    // Cost sandwich: lower bound ≤ cost ≤ singletons cost.
    let cost = correlation_cost(&oracle, &clustering);
    assert!(cost >= lower_bound(&oracle) - 1e-9);
    let singles = correlation_cost(&oracle, &Clustering::singletons(dataset.len()));
    assert!(cost <= singles + 1e-9);
}

#[test]
fn mushrooms_confusion_matrix_has_a_large_mixed_cluster() {
    // The Table-1 structure: the biggest cluster mixes both classes
    // because two latent clusters share most attributes.
    let (dataset, _) = mushrooms_like(1);
    let dataset = dataset.subsample_random(800, 2);
    let clusterings = attribute_clusterings(&dataset);
    let instance = CorrelationInstance::from_partial(clusterings, MissingPolicy::Coin(0.5));
    let clustering = run(
        &Algorithm::Agglomerative(AgglomerativeParams::paper()),
        &instance.dense_oracle(),
    );
    let cm = confusion_matrix(&clustering, dataset.class_labels());
    let sizes = cm.cluster_sizes();
    let biggest = (0..cm.num_clusters())
        .max_by_key(|&c| sizes[c])
        .expect("at least one cluster");
    let row = &cm.counts()[biggest];
    // Both classes present in the biggest cluster, minority ≥ 10%.
    let total: u64 = row.iter().sum();
    let minority = *row.iter().min().unwrap();
    assert!(
        minority as f64 >= 0.1 * total as f64,
        "biggest cluster is too pure: {row:?}"
    );
}

#[test]
fn two_dimensional_pipeline_recovers_groups() {
    let data = seven_groups(3);
    let rows = data.rows();
    let truth = data.truth_clustering();
    let inputs = vec![
        hierarchical(&rows, HierarchicalParams::new(LinkageMethod::Single, 7)),
        hierarchical(&rows, HierarchicalParams::new(LinkageMethod::Complete, 7)),
        hierarchical(&rows, HierarchicalParams::new(LinkageMethod::Average, 7)),
        hierarchical(&rows, HierarchicalParams::new(LinkageMethod::Ward, 7)),
        kmeans(&rows, &KMeansParams::new(7, 3)).clustering,
    ];
    let instance = CorrelationInstance::from_clusterings(&inputs);
    let aggregate = run(
        &Algorithm::Agglomerative(AgglomerativeParams::paper()),
        &instance.dense_oracle(),
    );
    let agg_ari = adjusted_rand_index(&aggregate, &truth);
    assert!(agg_ari > 0.9, "aggregate ARI = {agg_ari}");
    // Aggregation must not be (much) worse than the median input.
    let mut aris: Vec<f64> = inputs
        .iter()
        .map(|c| adjusted_rand_index(c, &truth))
        .collect();
    aris.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert!(agg_ari >= aris[aris.len() / 2] - 0.05);
}

#[test]
fn gaussian_noise_aggregation_finds_k() {
    let data = gaussian_with_noise(4, 60, 0.15, 0.02, 11);
    let rows = data.rows();
    let inputs: Vec<Clustering> = (2..=8)
        .map(|k| kmeans(&rows, &KMeansParams::new(k, 100 + k as u64)).clustering)
        .collect();
    let instance = CorrelationInstance::from_clusterings(&inputs);
    let aggregate = run(
        &Algorithm::Agglomerative(AgglomerativeParams::paper()),
        &instance.dense_oracle(),
    );
    // The four main clusters appear among the largest.
    let mut sizes = aggregate.cluster_sizes();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    assert!(sizes.len() >= 4);
    assert!(sizes[3] >= 40, "4th largest cluster too small: {sizes:?}");
}

#[test]
fn comparators_run_on_categorical_data() {
    let (dataset, _) = mushrooms_like(2);
    let dataset = dataset.subsample_random(300, 3);
    let r = rock(&dataset, RockParams::new(0.8, 7));
    assert_eq!(r.len(), 300);
    let l = limbo(&dataset, LimboParams::new(0.3, 7));
    assert_eq!(l.len(), 300);
    assert_eq!(l.num_clusters(), 7);
    // Both should beat a random assignment on classification error.
    let ec_rock = classification_error(&r, dataset.class_labels());
    let ec_limbo = classification_error(&l, dataset.class_labels());
    assert!(ec_rock < 0.45, "ROCK E_C = {ec_rock}");
    assert!(ec_limbo < 0.45, "LIMBO E_C = {ec_limbo}");
}

#[test]
fn local_search_postprocessing_only_improves() {
    let (dataset, _) = votes_like(9);
    let dataset = dataset.subsample_random(120, 4);
    let instance = CorrelationInstance::from_partial(
        attribute_clusterings(&dataset),
        MissingPolicy::Coin(0.5),
    );
    let oracle = instance.dense_oracle();
    for start in [
        Clustering::singletons(120),
        Clustering::one_cluster(120),
        run(
            &Algorithm::Agglomerative(AgglomerativeParams::paper()),
            &oracle,
        ),
    ] {
        let refined = run(
            &Algorithm::LocalSearch(LocalSearchParams {
                init: LocalSearchInit::Given(start.clone()),
                max_passes: 50,
            }),
            &oracle,
        );
        assert!(correlation_cost(&oracle, &refined) <= correlation_cost(&oracle, &start) + 1e-9);
    }
}

#[test]
fn census_heterogeneous_clusterings_shape() {
    let (dataset, _) = census_like_scaled(500, 1);
    let hetero = heterogeneous_clusterings(&dataset, 8);
    // 8 categorical + 6 numeric columns.
    assert_eq!(hetero.len(), 14);
    for c in &hetero[8..] {
        assert!(c.num_clusters() <= 8);
        assert_eq!(c.num_missing(), 0);
    }
}

#[test]
fn missing_policies_agree_when_nothing_is_missing() {
    let (dataset, _) = census_like_scaled(120, 5); // no missing values
    let clusterings = attribute_clusterings(&dataset);
    let a = CorrelationInstance::from_partial(clusterings.clone(), MissingPolicy::Coin(0.5));
    let b = CorrelationInstance::from_partial(clusterings, MissingPolicy::Ignore);
    let ca = run(
        &Algorithm::Agglomerative(AgglomerativeParams::paper()),
        &a.dense_oracle(),
    );
    let cb = run(
        &Algorithm::Agglomerative(AgglomerativeParams::paper()),
        &b.dense_oracle(),
    );
    assert_eq!(ca, cb);
}
