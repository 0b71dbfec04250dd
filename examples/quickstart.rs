//! Quickstart: the worked example of Figure 1 of the paper, end to end.
//!
//! Three clusterings of six objects are aggregated into the clustering
//! that minimizes the total number of disagreements. Run with:
//!
//! ```text
//! cargo run --release -p aggclust-bench --example quickstart
//! ```

use aggclust_core::algorithms::best::best_clustering;
use aggclust_core::algorithms::{AgglomerativeParams, Algorithm};
use aggclust_core::clustering::Clustering;
use aggclust_core::cost::{correlation_cost, lower_bound};
use aggclust_core::distance::total_disagreement;
use aggclust_core::exact::optimal_clustering;
use aggclust_core::instance::{CorrelationInstance, DistanceOracle};
use aggclust_core::{AggError, RunBudget, RunCtx};

fn main() -> Result<(), AggError> {
    // The three input clusterings of Figure 1 (columns C1, C2, C3).
    let c1 = Clustering::from_labels(vec![0, 0, 1, 1, 2, 2]);
    let c2 = Clustering::from_labels(vec![0, 1, 0, 1, 2, 3]);
    let c3 = Clustering::from_labels(vec![0, 1, 0, 1, 2, 2]);
    let inputs = vec![c1, c2, c3];

    println!("Input clusterings (objects v1..v6):");
    for (i, c) in inputs.iter().enumerate() {
        println!("  C{}: {:?}  (k = {})", i + 1, c.labels(), c.num_clusters());
    }

    // Reduce to correlation clustering: X_uv = fraction of clusterings
    // separating u and v (Figure 2 of the paper).
    // The instance packs the labels once and is itself the distance
    // oracle, read lazily; `instance.dense_oracle()` would precompute all
    // pairs, with the same distances.
    let oracle = CorrelationInstance::from_clusterings(&inputs);
    println!("\nDerived distances (Figure 2):");
    println!("  X(v1,v3) = {:.3}  (solid edge, 1/3)", oracle.dist(0, 2));
    println!("  X(v1,v2) = {:.3}  (dashed edge, 2/3)", oracle.dist(0, 1));
    println!("  X(v1,v4) = {:.3}  (dotted edge, 1)", oracle.dist(0, 3));

    // Aggregate with the parameter-free AGGLOMERATIVE algorithm.
    let aggregate = Algorithm::Agglomerative(AgglomerativeParams::paper())
        .run(&oracle, &mut RunCtx::new(&RunBudget::unlimited()))?
        .clustering;
    println!(
        "\nAggregate: {:?}  (k = {} — found automatically, no k given)",
        aggregate.labels(),
        aggregate.num_clusters()
    );

    // The objective value: 5 disagreements, as in the paper.
    let disagreements = total_disagreement(&inputs, &aggregate);
    println!("Total disagreements D(C) = {disagreements} (paper: 5)");
    println!(
        "Correlation cost d(C) = {:.4} = D(C)/m",
        correlation_cost(&oracle, &aggregate)
    );

    // Compare against the exhaustive optimum and the trivial baseline.
    let exact = optimal_clustering(&oracle);
    println!(
        "\nExhaustive optimum over all {} partitions: cost {:.4} — {}",
        exact.partitions_examined,
        exact.cost,
        if exact.clustering == aggregate {
            "the aggregate IS optimal"
        } else {
            "the aggregate is not optimal"
        }
    );
    let best = best_clustering(&inputs);
    println!(
        "BestClustering picks input C{} with D = {} (2(1-1/m)-approximation)",
        best.index + 1,
        best.cost
    );
    println!(
        "Per-pair lower bound: {:.4} ≤ optimal cost {:.4}",
        lower_bound(&oracle),
        exact.cost
    );
    Ok(())
}
