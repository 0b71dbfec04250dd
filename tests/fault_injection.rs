//! Fault-injection harness: corrupted, truncated, and adversarial inputs
//! must surface as typed errors or valid anytime results — never as panics,
//! and never as runs that blow far past their deadline.

use std::time::{Duration, Instant};

use aggclust_cli::csv::parse_label_matrix;
use aggclust_core::algorithms::sampling::sampling;
use aggclust_core::algorithms::{
    AgglomerativeParams, Algorithm, AnnealingParams, BallsParams, FurthestParams,
    LocalSearchParams, PivotParams, SamplingParams,
};
use aggclust_core::clustering::{Clustering, PartialClustering};
use aggclust_core::consensus::ConsensusBuilder;
use aggclust_core::cost::correlation_cost;
use aggclust_core::instance::{CorrelationInstance, DenseOracle, MissingPolicy};
use aggclust_core::test_support::{for_each_bit_flip, for_each_truncation, SPOT_BITS};
use aggclust_core::{AggError, CancelToken, RunBudget, RunCtx, RunStatus};
use aggclust_tests::{adversarial_disagreeing, clustering, corrupt_bytes, truncate_text};
use proptest::prelude::*;

const FIGURE1_CSV: &str = "0,0,0\n0,1,1\n1,0,0\n1,1,1\n2,2,2\n2,3,2\n";

fn all_algorithms(seed: u64) -> Vec<Algorithm> {
    vec![
        Algorithm::Balls(BallsParams::default()),
        Algorithm::Agglomerative(AgglomerativeParams::default()),
        Algorithm::Furthest(FurthestParams::default()),
        Algorithm::LocalSearch(LocalSearchParams::default()),
        Algorithm::Pivot(PivotParams::randomized(seed, 3)),
        Algorithm::Annealing(AnnealingParams {
            seed,
            ..Default::default()
        }),
    ]
}

// ---------------------------------------------------------------------------
// Corrupted and truncated files
// ---------------------------------------------------------------------------

#[test]
fn random_byte_flips_never_panic_the_parser_or_the_pipeline() {
    for seed in 0..200u64 {
        for flips in [1usize, 3, 8, 24] {
            let corrupted = corrupt_bytes(FIGURE1_CSV, flips, seed);
            let text = String::from_utf8_lossy(&corrupted);
            // Parsing must return Ok or a typed error, never panic.
            if let Ok(inputs) = parse_label_matrix(&text, ',', false) {
                // Whatever parsed must aggregate without panicking too.
                let outcome = ConsensusBuilder::new().try_aggregate_partial(inputs);
                match outcome {
                    Ok(result) => assert!(!result.clustering.labels().is_empty()),
                    Err(e) => {
                        let _ = e.to_string(); // typed, displayable
                    }
                }
            }
        }
    }
}

#[test]
fn truncated_files_never_panic() {
    for step in 0..=40 {
        let text = truncate_text(FIGURE1_CSV, step as f64 / 40.0);
        match parse_label_matrix(text, ',', false) {
            Ok(inputs) => {
                let _ = ConsensusBuilder::new().try_aggregate_partial(inputs);
            }
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_bytes_never_panic_the_csv_parser(
        bytes in prop::collection::vec(0u8..=255, 0..200)
    ) {
        let text = String::from_utf8_lossy(&bytes);
        for separator in [',', '\t', ';'] {
            for header in [false, true] {
                let _ = parse_label_matrix(&text, separator, header);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Invalid numeric inputs
// ---------------------------------------------------------------------------

#[test]
fn nan_and_negative_weights_are_typed_errors() {
    let cs = vec![clustering(&[0, 0, 1]), clustering(&[0, 1, 1])];
    for weights in [
        [1.0, f64::NAN],
        [1.0, -2.0],
        [0.0, 0.0],
        [1.0, f64::INFINITY],
    ] {
        let result = DenseOracle::try_from_weighted_clusterings(&cs, &weights);
        assert!(
            matches!(result, Err(AggError::InvalidInstance { .. })),
            "weights {weights:?} should be rejected"
        );
    }
}

#[test]
fn out_of_range_distances_are_typed_errors() {
    assert!(matches!(
        DenseOracle::try_from_fn(4, |u, v| (u + v) as f64),
        Err(AggError::InvalidInstance { .. })
    ));
    assert!(matches!(
        DenseOracle::try_from_fn(4, |_, _| f64::NAN),
        Err(AggError::InvalidInstance { .. })
    ));
}

// ---------------------------------------------------------------------------
// Degenerate instances through every algorithm
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn degenerate_instances_never_panic_any_algorithm(seed in 0u64..1000) {
        let degenerate_oracles = vec![
            // n = 0 and n = 1.
            DenseOracle::from_clusterings(&[clustering(&[])]),
            DenseOracle::from_clusterings(&[clustering(&[0])]),
            // Single cluster everywhere.
            DenseOracle::from_clusterings(&[clustering(&[0, 0, 0, 0])]),
            // Perfectly contradictory pair of inputs.
            DenseOracle::from_clusterings(&[
                clustering(&[0, 0, 1, 1]),
                clustering(&[0, 1, 0, 1]),
            ]),
            // All labels missing: every pairwise distance is ½ (maximum
            // uncertainty under the coin model).
            {
                use aggclust_core::instance::DistanceOracle as _;
                CorrelationInstance::from_partial(
                    vec![PartialClustering::from_labels(vec![None; 4])],
                    MissingPolicy::default(),
                )
                .to_dense()
            },
        ];
        for oracle in &degenerate_oracles {
            for algorithm in all_algorithms(seed) {
                let outcome = algorithm.run(oracle, &mut RunCtx::new(&RunBudget::unlimited()));
                match outcome {
                    Ok(run) => prop_assert_eq!(run.clustering.len(), oracle_len(oracle)),
                    Err(e) => { let _ = e.to_string(); }
                }
            }
        }
    }
}

fn oracle_len(o: &DenseOracle) -> usize {
    use aggclust_core::instance::DistanceOracle;
    o.len()
}

#[test]
fn empty_and_all_missing_inputs_are_degenerate_errors() {
    // m = 0: no input clusterings at all.
    assert!(matches!(
        CorrelationInstance::try_from_partial(vec![], MissingPolicy::default()),
        Err(AggError::Degenerate { .. })
    ));
    assert!(matches!(
        DenseOracle::try_from_clusterings(&[]),
        Err(AggError::Degenerate { .. })
    ));
    let all_missing = vec![
        PartialClustering::from_labels(vec![None; 5]),
        PartialClustering::from_labels(vec![None; 5]),
    ];
    assert!(matches!(
        CorrelationInstance::try_from_partial(all_missing, MissingPolicy::default()),
        Err(AggError::Degenerate { .. })
    ));
    assert!(matches!(
        ConsensusBuilder::new().try_aggregate(&[]),
        Err(AggError::Degenerate { .. })
    ));
}

#[test]
fn adversarial_all_disagreeing_inputs_still_aggregate() {
    let inputs = adversarial_disagreeing(40, 7);
    let result = ConsensusBuilder::new().try_aggregate(&inputs).unwrap();
    assert_eq!(result.clustering.len(), 40);
    assert!(result.status.is_converged());
    // The consensus can be no better than the instance lower bound allows,
    // but it must still be a finite, valid cost.
    assert!(result.cost.is_finite());
}

// ---------------------------------------------------------------------------
// Snapshot corruption: checkpoints must never panic or load garbage labels
// ---------------------------------------------------------------------------

use aggclust_core::snapshot::{
    decode, encode, load_snapshot, save_snapshot, AlgorithmSnapshot, LocalSearchSnapshot, Snapshot,
    SnapshotLoad,
};

fn sample_snapshot() -> Snapshot {
    Snapshot {
        stage: 0,
        state: AlgorithmSnapshot::LocalSearch(LocalSearchSnapshot {
            labels: (0..64u32).map(|v| v % 7).collect(),
            pass: 3,
            next_node: 17,
            moved_in_pass: true,
            iterations: 209,
            rng: [1, 2, 3, 4],
        }),
    }
}

#[test]
fn truncated_checkpoints_are_detected_at_every_length() {
    let bytes = encode(&sample_snapshot());
    for_each_truncation(&bytes, |len, prefix| {
        assert!(
            decode(prefix).is_err(),
            "truncation to {len} of {} bytes went undetected",
            bytes.len()
        );
    });
}

#[test]
fn bit_flipped_checkpoints_never_load_garbage() {
    // Every byte of the envelope and payload is load-bearing: magic and
    // version by their own checks, payload length by the size check, the
    // payload by the CRC, the CRC by itself. A single bit flip anywhere
    // must therefore be rejected — silently loading mutated labels would
    // poison the resumed run.
    let bytes = encode(&sample_snapshot());
    for_each_bit_flip(&bytes, &SPOT_BITS, |i, bit, corrupted| {
        assert!(
            decode(corrupted).is_err(),
            "flip at byte {i} bit {bit} was accepted"
        );
    });
}

#[test]
fn stale_version_headers_are_rejected_before_the_checksum() {
    let mut bytes = encode(&sample_snapshot());
    // The version word sits after the 8-byte magic.
    for stale in [0u32, 2, 7, u32::MAX] {
        bytes[8..12].copy_from_slice(&stale.to_le_bytes());
        let reason = decode(&bytes).unwrap_err();
        assert!(
            reason.contains("version"),
            "stale version {stale} produced unrelated error {reason:?}"
        );
    }
}

#[test]
fn corrupt_checkpoint_on_disk_recovers_to_a_fresh_run() {
    let dir = std::env::temp_dir().join("aggclust_fault_snapshot_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("ckpt.bin");
    save_snapshot(&path, &sample_snapshot()).expect("save");

    // Sanity: the pristine file loads.
    assert!(matches!(load_snapshot(&path), SnapshotLoad::Loaded(_)));

    let pristine = std::fs::read(&path).expect("read");
    let corruptions: Vec<Vec<u8>> = vec![
        pristine[..pristine.len() / 2].to_vec(), // truncated
        {
            let mut b = pristine.clone();
            let mid = b.len() / 2;
            b[mid] ^= 0x40; // bit-flipped payload
            b
        },
        {
            let mut b = pristine.clone();
            b[8..12].copy_from_slice(&99u32.to_le_bytes()); // stale version
            b
        },
        b"not a checkpoint at all".to_vec(),
        Vec::new(), // zero-length file
    ];
    let inputs = adversarial_disagreeing(20, 4);
    let reference = ConsensusBuilder::new().try_aggregate(&inputs).unwrap();
    for (i, corrupted) in corruptions.iter().enumerate() {
        std::fs::write(&path, corrupted).expect("write");
        let loaded = load_snapshot(&path);
        assert!(
            matches!(loaded, SnapshotLoad::Corrupt(_)),
            "corruption case {i} loaded as {loaded:?}"
        );
        // The documented recovery — fall back to a fresh run — produces
        // exactly what an unresumed aggregation produces.
        let fresh = ConsensusBuilder::new().try_aggregate(&inputs).unwrap();
        assert_eq!(fresh.clustering, reference.clustering, "case {i}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn valid_snapshot_for_the_wrong_instance_is_ignored_not_loaded() {
    // A perfectly well-formed checkpoint whose labels describe a different
    // instance (wrong n) must not steer the resumed run: the consensus
    // pipeline validates and falls back to a fresh start.
    let inputs = adversarial_disagreeing(20, 4);
    let reference = ConsensusBuilder::new().try_aggregate(&inputs).unwrap();
    let resumed = ConsensusBuilder::new()
        .resume_from(sample_snapshot()) // labels for n = 64, not 20
        .try_aggregate(&inputs)
        .unwrap();
    assert_eq!(resumed.clustering, reference.clustering);
    assert_eq!(resumed.cost, reference.cost);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_the_snapshot_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..512)
    ) {
        // decode() is total: any byte soup is Ok or Err(reason), never a
        // panic and never an unbounded allocation (lengths are validated
        // against the remaining payload before any Vec is reserved).
        let _ = decode(&bytes);
    }

    #[test]
    fn flipping_bits_in_a_real_checkpoint_never_panics(
        seed in 0u64..500, flips in 1usize..12
    ) {
        let bytes = encode(&sample_snapshot());
        let mut corrupted = bytes.clone();
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        for _ in 0..flips {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let i = (state as usize) % corrupted.len();
            corrupted[i] ^= 1 << ((state >> 32) % 8);
        }
        match decode(&corrupted) {
            Ok(loaded) => prop_assert_eq!(loaded, sample_snapshot()),
            Err(reason) => prop_assert!(!reason.is_empty()),
        }
    }
}

// ---------------------------------------------------------------------------
// Deadlines and cancellation: anytime semantics under time pressure
// ---------------------------------------------------------------------------

/// The ISSUE acceptance test: LOCALSEARCH on n = 5000 with a 50 ms deadline
/// must come back `BudgetExceeded`, promptly, with a valid best-so-far
/// clustering no worse than its starting point.
#[test]
fn localsearch_deadline_on_large_instance_returns_best_so_far() {
    let n = 5000;
    // Three clusterings of 5000 objects that broadly agree on 10 groups but
    // disagree on rotated slices — enough structure for moves to pay off.
    let inputs: Vec<PartialClustering> = (0..3u32)
        .map(|i| {
            let labels = (0..n)
                .map(|v| Some((((v as u32) + 137 * i) / (n as u32 / 10)).min(9)))
                .collect();
            PartialClustering::from_labels(labels)
        })
        .collect();
    // Lazy oracle: the dense n² matrix would dominate the deadline.
    let oracle = CorrelationInstance::from_partial(inputs, MissingPolicy::default());

    let start = Clustering::singletons(n);
    let budget = RunBudget::unlimited().with_deadline(Duration::from_millis(50));
    let t0 = Instant::now();
    let outcome = Algorithm::LocalSearch(LocalSearchParams::default())
        .run(&oracle, &mut RunCtx::new(&budget))
        .unwrap();
    let elapsed = t0.elapsed();

    assert_eq!(outcome.status, RunStatus::BudgetExceeded);
    assert_eq!(outcome.clustering.len(), n);
    // "Never hangs past the deadline": one node visit is O(n·m), so the
    // overshoot is bounded; 2 s is orders of magnitude of slack.
    assert!(
        elapsed < Duration::from_secs(2),
        "LOCALSEARCH overshot its 50 ms deadline by {elapsed:?}"
    );
    // Anytime quality: never worse than the initial clustering.
    let initial_cost = correlation_cost(&oracle, &start);
    let final_cost = correlation_cost(&oracle, &outcome.clustering);
    assert!(
        final_cost <= initial_cost + 1e-9,
        "best-so-far cost {final_cost} worse than initial {initial_cost}"
    );
}

#[test]
fn sampling_respects_a_deadline_on_a_large_instance() {
    let n = 20_000;
    let inputs: Vec<PartialClustering> = (0..3u32)
        .map(|i| {
            let labels = (0..n)
                .map(|v| Some((((v as u32) + 977 * i) / (n as u32 / 8)).min(7)))
                .collect();
            PartialClustering::from_labels(labels)
        })
        .collect();
    let oracle = CorrelationInstance::from_partial(inputs, MissingPolicy::default());
    let params = SamplingParams::new(
        400,
        Algorithm::Agglomerative(AgglomerativeParams::default()),
        7,
    );
    let budget = RunBudget::unlimited().with_deadline(Duration::from_millis(50));
    let t0 = Instant::now();
    let outcome = sampling(&oracle, &params, &mut RunCtx::new(&budget)).unwrap();
    assert_eq!(outcome.clustering.len(), n);
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "SAMPLING overshot its deadline: {:?}",
        t0.elapsed()
    );
}

#[test]
fn cancellation_stops_every_algorithm_with_a_valid_result() {
    let cs = adversarial_disagreeing(30, 5);
    let oracle = DenseOracle::from_clusterings(&cs);
    let token = CancelToken::new();
    token.cancel();
    let budget = RunBudget::unlimited().with_cancel_token(token);
    for algorithm in all_algorithms(11) {
        let outcome = algorithm.run(&oracle, &mut RunCtx::new(&budget)).unwrap();
        assert_eq!(outcome.clustering.len(), 30, "{}", algorithm.name());
        assert_eq!(outcome.status, RunStatus::Cancelled, "{}", algorithm.name());
    }
}

#[test]
fn consensus_degradation_chain_survives_a_zero_budget() {
    let inputs = adversarial_disagreeing(25, 4);
    let result = ConsensusBuilder::new()
        .budget(RunBudget::unlimited().with_max_iters(0))
        .try_aggregate(&inputs)
        .unwrap();
    assert_eq!(result.clustering.len(), 25);
    assert_eq!(result.status, RunStatus::BudgetExceeded);
    assert!(!result.warnings.is_empty());
}

// ---------------------------------------------------------------------------
// Memory cap: a refused dense matrix degrades to the lazy oracle with a
// typed warning and the unconstrained labels
// ---------------------------------------------------------------------------

#[test]
fn capped_consensus_matches_the_unconstrained_run() {
    use aggclust_core::consensus::Warning;
    let inputs = adversarial_disagreeing(120, 5);
    let build = || ConsensusBuilder::new().algorithm(Algorithm::Balls(BallsParams::default()));
    let reference = build().try_aggregate(&inputs).unwrap();
    assert!(reference.warnings.is_empty());
    let capped = build()
        .budget(RunBudget::unlimited().with_mem_limit_bytes(16 * 1024))
        .try_aggregate(&inputs)
        .unwrap();
    assert_eq!(capped.clustering, reference.clustering);
    assert!(matches!(
        capped.warnings[..],
        [Warning::MemoryDegradedToLazyOracle { .. }]
    ));
}

#[test]
fn cancelled_capped_run_still_labels_every_object() {
    use aggclust_core::consensus::Warning;
    let inputs = adversarial_disagreeing(120, 5);
    let token = CancelToken::new();
    token.cancel();
    let result = ConsensusBuilder::new()
        .algorithm(Algorithm::LocalSearch(Default::default()))
        .budget(
            RunBudget::unlimited()
                .with_mem_limit_bytes(16 * 1024)
                .with_cancel_token(token),
        )
        .try_aggregate(&inputs)
        .expect("cancellation is an anytime outcome, not an error");
    assert_eq!(result.clustering.len(), 120);
    assert_eq!(result.status, RunStatus::Cancelled);
    assert!(
        matches!(
            result.warnings.first(),
            Some(Warning::MemoryDegradedToLazyOracle { .. })
        ),
        "{:?}",
        result.warnings
    );
}
