//! Privacy-preserving clustering of vertically partitioned data
//! (paper §2): three organizations hold different attributes of the same
//! population. Each clusters its own columns locally and shares *only the
//! resulting label vector* — no attribute values ever leave a site — yet
//! the aggregation recovers the joint cluster structure.
//!
//! ```text
//! cargo run --release -p aggclust-bench --example privacy_preserving
//! ```

use aggclust_core::algorithms::{Algorithm, LocalSearchParams};
use aggclust_core::clustering::{Clustering, PartialClustering};
use aggclust_core::instance::{CorrelationInstance, MissingPolicy};
use aggclust_core::{AggError, RunBudget, RunCtx};
use aggclust_data::categorical::{AttrSpec, LatentClassConfig};
use aggclust_data::to_clusterings::attribute_clusterings;
use aggclust_metrics::pair_counting::adjusted_rand_index;

fn main() -> Result<(), AggError> {
    // A shared population of 600 individuals with 3 hidden segments, whose
    // 9 attributes are split across three sites (3 columns each).
    let (dataset, latent) = LatentClassConfig {
        name: "population".into(),
        n: 600,
        cluster_weights: vec![3.0, 2.0, 1.0],
        cluster_to_class: vec![0, 1, 2],
        class_names: vec!["s1".into(), "s2".into(), "s3".into()],
        attrs: (0..9)
            .map(|i| AttrSpec::new(format!("attr-{i}"), 4, 0.15))
            .collect(),
        missing_count: 120,
        row_noise_levels: vec![],
        profile_overlaps: vec![],
        seed: 42,
    }
    .generate();
    let truth = Clustering::from_labels(latent);

    // Each site aggregates its own three attribute clusterings locally.
    // What crosses the wire is one label vector per site: which of *its*
    // local clusters each individual belongs to — no attribute values.
    let all_columns = attribute_clusterings(&dataset);
    let local_search = Algorithm::LocalSearch(LocalSearchParams::default());
    let mut shared: Vec<PartialClustering> = Vec::new();
    for (site, columns) in all_columns.chunks(3).enumerate() {
        let local_instance =
            CorrelationInstance::from_partial(columns.to_vec(), MissingPolicy::Coin(0.5));
        let local = local_search
            .run(
                &local_instance.dense_oracle(),
                &mut RunCtx::new(&RunBudget::unlimited()),
            )?
            .clustering;
        println!(
            "site {} publishes a clustering with k = {} (ARI vs hidden segments: {:.3})",
            site + 1,
            local.num_clusters(),
            adjusted_rand_index(&local, &truth)
        );
        shared.push(PartialClustering::from_total(&local));
    }

    // A (possibly untrusted) coordinator aggregates the three published
    // clusterings.
    let joint_instance = CorrelationInstance::from_partial(shared, MissingPolicy::Coin(0.5));
    let joint = local_search
        .run(
            &joint_instance.dense_oracle(),
            &mut RunCtx::new(&RunBudget::unlimited()),
        )?
        .clustering;
    println!(
        "\njoint clustering: k = {}, ARI vs hidden segments: {:.3}",
        joint.num_clusters(),
        adjusted_rand_index(&joint, &truth)
    );
    println!(
        "\nOnly co-clustering relations were revealed; the sites' attribute\n\
         values never left their owners (paper §2, privacy-preserving\n\
         clustering)."
    );
    Ok(())
}
