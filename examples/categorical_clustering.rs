//! Clustering categorical data (paper §2): every attribute of a table is a
//! clustering of its rows; aggregating them clusters the table — with
//! missing values handled by the coin model, and the number of clusters
//! chosen automatically.
//!
//! ```text
//! cargo run --release -p aggclust-bench --example categorical_clustering
//! ```

use aggclust_core::algorithms::{AgglomerativeParams, Algorithm};
use aggclust_core::instance::{CorrelationInstance, MissingPolicy};
use aggclust_core::{AggError, RunBudget, RunCtx};
use aggclust_data::presets::votes_like;
use aggclust_data::to_clusterings::attribute_clusterings;
use aggclust_metrics::{classification_error, confusion_matrix};

fn main() -> Result<(), AggError> {
    // A congressional-votes-shaped table: 435 rows, 16 yes/no issues,
    // 288 missing values, and a party label we hold out for evaluation.
    let (dataset, _latent) = votes_like(7);
    println!(
        "Dataset: {} — {} rows, {} categorical attributes, {} missing values",
        dataset.name,
        dataset.len(),
        dataset.attributes().len(),
        dataset.num_missing()
    );

    // Step 1: one clustering per attribute. Rows sharing a value share a
    // cluster; rows with a missing value carry no label.
    let clusterings = attribute_clusterings(&dataset);
    println!(
        "Attribute clusterings: {} (first has k = {}, {} unlabeled rows)",
        clusterings.len(),
        clusterings[0].num_clusters(),
        clusterings[0].num_missing()
    );

    // Step 2: build the correlation-clustering instance. The fair-coin
    // policy makes an attribute missing on a row vote "together" or
    // "apart" with probability ½ each, in expectation.
    let instance = CorrelationInstance::from_partial(clusterings, MissingPolicy::Coin(0.5));
    let oracle = instance.dense_oracle();

    // Step 3: aggregate. No number of clusters is supplied anywhere.
    let clustering = Algorithm::Agglomerative(AgglomerativeParams::paper())
        .run(&oracle, &mut RunCtx::new(&RunBudget::unlimited()))?
        .clustering;
    println!(
        "\nAggregated into k = {} clusters (discovered automatically)",
        clustering.num_clusters()
    );

    // Evaluation against the held-out party labels.
    let ec = classification_error(&clustering, dataset.class_labels());
    println!("Classification error vs party labels: {:.1}%", 100.0 * ec);
    println!("\nConfusion matrix (clusters sorted by size):");
    let cm = confusion_matrix(&clustering, dataset.class_labels());
    print!("{}", cm.render(&dataset.class_names()));
    println!(
        "\nMost people cluster with their party; the crossover voters are\n\
         exactly the ones any attribute-based clustering must misplace."
    );
    Ok(())
}
