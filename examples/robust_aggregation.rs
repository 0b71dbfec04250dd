//! Improving clustering robustness (paper §2 and Figure 3): run several
//! imperfect clustering algorithms on the same 2-D points and aggregate
//! their results — the mistakes cancel out.
//!
//! ```text
//! cargo run --release -p aggclust-bench --example robust_aggregation
//! ```

use aggclust_baselines::hierarchical::{hierarchical, HierarchicalParams, LinkageMethod};
use aggclust_baselines::kmeans::{kmeans, KMeansInit, KMeansParams};
use aggclust_core::algorithms::{AgglomerativeParams, Algorithm};
use aggclust_core::instance::CorrelationInstance;
use aggclust_core::{AggError, RunBudget, RunCtx};
use aggclust_data::synth2d::seven_groups;
use aggclust_metrics::pair_counting::adjusted_rand_index;

fn main() -> Result<(), AggError> {
    // Seven perceptually distinct groups with features that trip up the
    // classic algorithms: a bridge between two blobs (bad for single
    // linkage), elongated strips (bad for k-means), uneven sizes.
    let data = seven_groups(3);
    let truth = data.truth_clustering();
    let rows = data.rows();
    println!("{} points in 7 groups\n", data.len());

    // Five imperfect input clusterings, all told k = 7.
    let single = hierarchical(&rows, HierarchicalParams::new(LinkageMethod::Single, 7));
    let complete = hierarchical(&rows, HierarchicalParams::new(LinkageMethod::Complete, 7));
    let average = hierarchical(&rows, HierarchicalParams::new(LinkageMethod::Average, 7));
    let ward = hierarchical(&rows, HierarchicalParams::new(LinkageMethod::Ward, 7));
    let km = kmeans(
        &rows,
        &KMeansParams {
            n_init: 1,
            init: KMeansInit::Random,
            ..KMeansParams::new(7, 3)
        },
    )
    .clustering;

    let inputs = vec![
        ("single linkage", single),
        ("complete linkage", complete),
        ("average linkage", average),
        ("Ward", ward),
        ("k-means", km),
    ];
    for (name, c) in &inputs {
        println!("  {name:<17} ARI = {:.3}", adjusted_rand_index(c, &truth));
    }

    // Aggregate. Note: the aggregation sees only the five label vectors —
    // it knows nothing about the points or the number of clusters.
    let instance = CorrelationInstance::from_clusterings(
        &inputs.iter().map(|(_, c)| c.clone()).collect::<Vec<_>>(),
    );
    let aggregate = Algorithm::Agglomerative(AgglomerativeParams::paper())
        .run(
            &instance.dense_oracle(),
            &mut RunCtx::new(&RunBudget::unlimited()),
        )?
        .clustering;
    println!(
        "\n  {:<17} ARI = {:.3}   (k = {} discovered)",
        "AGGREGATE",
        adjusted_rand_index(&aggregate, &truth),
        aggregate.num_clusters()
    );
    println!(
        "\nDifferent algorithms make different mistakes; the aggregation\n\
         keeps the co-cluster decisions a majority agrees on, canceling\n\
         the individual errors (paper, Figure 3)."
    );
    Ok(())
}
