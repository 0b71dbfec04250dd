//! Property-based tests spanning crates: metrics vs core identities,
//! baseline clusterers feeding aggregation, and generator invariants.

use aggclust_baselines::kmeans::{kmeans, KMeansParams};
use aggclust_core::algorithms::{AgglomerativeParams, Algorithm};
use aggclust_core::clustering::Clustering;
use aggclust_core::distance::{disagreement_distance, normalized_disagreement};
use aggclust_core::instance::{CorrelationInstance, DistanceOracle};
use aggclust_core::{RunBudget, RunCtx};
use aggclust_metrics::information::{entropy, mutual_information, variation_of_information};
use aggclust_metrics::pair_counting::{pair_counts, rand_index};
use aggclust_metrics::{classification_error, purity};
use proptest::prelude::*;

/// `algorithm` on `oracle` under an unlimited budget.
fn run<O: DistanceOracle + Sync>(algorithm: &Algorithm, oracle: &O) -> Clustering {
    algorithm
        .run(oracle, &mut RunCtx::new(&RunBudget::unlimited()))
        .unwrap()
        .clustering
}

fn clustering_strategy(n: usize, kmax: u32) -> impl Strategy<Value = Clustering> {
    prop::collection::vec(0..kmax, n).prop_map(Clustering::from_labels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rand_index_is_one_minus_normalized_disagreement(
        (a, b) in (2usize..25).prop_flat_map(|n| {
            (clustering_strategy(n, 5), clustering_strategy(n, 5))
        })
    ) {
        let ri = rand_index(&a, &b);
        let nd = normalized_disagreement(&a, &b);
        prop_assert!((ri - (1.0 - nd)).abs() < 1e-12);
    }

    #[test]
    fn pair_counts_recover_disagreement_distance(
        (a, b) in (2usize..25).prop_flat_map(|n| {
            (clustering_strategy(n, 5), clustering_strategy(n, 5))
        })
    ) {
        let pc = pair_counts(&a, &b);
        prop_assert_eq!(pc.first_only + pc.second_only, disagreement_distance(&a, &b));
    }

    #[test]
    fn purity_complements_classification_error(
        (c, classes) in (2usize..20).prop_flat_map(|n| {
            (clustering_strategy(n, 4), prop::collection::vec(0u32..3, n))
        })
    ) {
        let e = classification_error(&c, &classes);
        let p = purity(&c, &classes);
        prop_assert!((e + p - 1.0).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&e));
    }

    #[test]
    fn vi_decomposes_into_entropies_and_mi(
        (a, b) in (2usize..20).prop_flat_map(|n| {
            (clustering_strategy(n, 4), clustering_strategy(n, 4))
        })
    ) {
        let vi = variation_of_information(&a, &b);
        let manual = entropy(&a) + entropy(&b) - 2.0 * mutual_information(&a, &b);
        prop_assert!((vi - manual.max(0.0)).abs() < 1e-9);
        // MI bounded by each entropy.
        prop_assert!(mutual_information(&a, &b) <= entropy(&a) + 1e-9);
        prop_assert!(mutual_information(&a, &b) <= entropy(&b) + 1e-9);
    }

    #[test]
    fn aggregating_identical_clusterings_is_identity(
        (c, copies) in (3usize..15).prop_flat_map(|n| {
            (clustering_strategy(n, 4), 1usize..5)
        })
    ) {
        let inputs = vec![c.clone(); copies];
        let instance = CorrelationInstance::from_clusterings(&inputs);
        let agglomerative = Algorithm::Agglomerative(AgglomerativeParams::paper());
        let result = run(&agglomerative, &instance.dense_oracle());
        prop_assert_eq!(result, c);
    }

    #[test]
    fn kmeans_clustering_is_valid_aggregation_input(
        seed in 0u64..50
    ) {
        // k-means output must always be consumable by the aggregation
        // pipeline without panics, whatever the seed.
        let pts: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i % 5) as f64, (seed % 7) as f64 * 0.1 * (i as f64)])
            .collect();
        let a = kmeans(&pts, &KMeansParams::new(3, seed)).clustering;
        let b = kmeans(&pts, &KMeansParams::new(4, seed + 1)).clustering;
        let instance = CorrelationInstance::from_clusterings(&[a, b]);
        let agglomerative = Algorithm::Agglomerative(AgglomerativeParams::paper());
        let result = run(&agglomerative, &instance.dense_oracle());
        prop_assert_eq!(result.len(), 30);
    }
}
