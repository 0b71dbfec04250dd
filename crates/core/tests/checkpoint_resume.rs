//! Crash-safe checkpoint/resume properties.
//!
//! The contract under test: for *any* instance, *any* interrupt point, and
//! *any* checkpoint cadence, interrupting a run and resuming it from the
//! checkpoint written at the interrupt produces **bit-identical** final
//! labels and cost to the same run left uninterrupted. The snapshot is the
//! complete algorithm state, so resumption is replay, not approximation.
//!
//! Also here: the memory-governance contract — a refused allocation charges
//! nothing, and governed structures release their charge on drop.

use std::path::{Path, PathBuf};
use std::time::Duration;

use aggclust_core::algorithms::local_search::LocalSearchInit;
use aggclust_core::algorithms::sampling::sampling;
use aggclust_core::algorithms::{
    AgglomerativeParams, Algorithm, LocalSearchParams, SamplingParams,
};
use aggclust_core::clustering::{Clustering, PartialClustering};
use aggclust_core::cost::correlation_cost;
use aggclust_core::instance::{CorrelationInstance, DenseOracle, DistanceOracle, MissingPolicy};
use aggclust_core::robust::Interrupt;
use aggclust_core::snapshot::{load_snapshot, AlgorithmSnapshot, Checkpointer, SnapshotLoad};
use aggclust_core::{RunBudget, RunCtx, RunOutcome};
use proptest::prelude::*;

/// A unique temp directory per test (proptest shrinks run concurrently).
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "aggclust_ckpt_{tag}_{:?}",
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Run `algorithm` to the iteration cap with a checkpoint file, then resume
/// from whatever snapshot landed on disk and run to completion.
fn interrupt_then_resume(
    algorithm: &Algorithm,
    oracle: &DenseOracle,
    cap: u64,
    cadence: Duration,
    dir: &Path,
) -> RunOutcome {
    let path = dir.join("run.ckpt");
    std::fs::remove_file(&path).ok();
    let mut ckpt = Checkpointer::new(path.clone(), cadence);
    let capped = algorithm
        .run(
            oracle,
            &mut RunCtx {
                budget: &RunBudget::unlimited().with_max_iters(cap),
                resume: None,
                ckpt: Some(&mut ckpt),
            },
        )
        .expect("capped run");
    if capped.status.is_converged() {
        return capped;
    }
    // If the interrupt hit before any checkpointable progress (e.g. during
    // the matrix build) there is no snapshot; resuming from nothing is a
    // fresh run, which must still match the uninterrupted one.
    let snapshot = match load_snapshot(&path) {
        SnapshotLoad::Loaded(s) => Some(s),
        SnapshotLoad::Missing => None,
        SnapshotLoad::Corrupt(reason) => panic!("checkpoint corrupt: {reason}"),
    };
    let mut ckpt = Checkpointer::new(path, cadence);
    algorithm
        .run(
            oracle,
            &mut RunCtx {
                budget: &RunBudget::unlimited(),
                resume: snapshot.as_ref().map(|s| &s.state),
                ckpt: Some(&mut ckpt),
            },
        )
        .expect("resumed run")
}

fn clusterings_strategy() -> impl Strategy<Value = Vec<Clustering>> {
    (6usize..32).prop_flat_map(|n| {
        prop::collection::vec(
            prop::collection::vec(0u32..4, n).prop_map(Clustering::from_labels),
            2..5,
        )
    })
}

/// Partial inputs: about one label in five missing.
fn partial_strategy() -> impl Strategy<Value = Vec<PartialClustering>> {
    (6usize..32).prop_flat_map(|n| {
        prop::collection::vec(
            prop::collection::vec(prop::option::weighted(0.8, 0u32..4), n)
                .prop_map(PartialClustering::from_labels),
            2..5,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn localsearch_interrupt_at_k_resume_is_bit_identical(
        inputs in clusterings_strategy(),
        cap in 0u64..160,
        cadence_ms in 0u64..2,
        seed in 0u64..100,
    ) {
        let oracle = DenseOracle::from_clusterings(&inputs);
        // Random init exercises the RNG-state half of the snapshot: the
        // resumed run must not re-draw the initial assignment.
        let algorithm = Algorithm::LocalSearch(LocalSearchParams {
            init: LocalSearchInit::Random { k: 3, seed },
            ..Default::default()
        });
        let reference = algorithm
            .run(&oracle, &mut RunCtx::new(&RunBudget::unlimited()))
            .expect("reference");
        let dir = temp_dir("ls");
        let resumed = interrupt_then_resume(
            &algorithm,
            &oracle,
            cap,
            Duration::from_millis(cadence_ms),
            &dir,
        );
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(&resumed.clustering, &reference.clustering);
        // Bit-identical cost, not approximately equal.
        prop_assert_eq!(
            correlation_cost(&oracle, &resumed.clustering).to_bits(),
            correlation_cost(&oracle, &reference.clustering).to_bits()
        );
    }

    #[test]
    fn agglomerative_interrupt_at_k_resume_is_bit_identical(
        inputs in clusterings_strategy(),
        cap in 0u64..40,
        cadence_ms in 0u64..2,
    ) {
        let oracle = DenseOracle::from_clusterings(&inputs);
        let algorithm = Algorithm::Agglomerative(AgglomerativeParams::default());
        let reference = algorithm
            .run(&oracle, &mut RunCtx::new(&RunBudget::unlimited()))
            .expect("reference");
        let dir = temp_dir("agg");
        let resumed = interrupt_then_resume(
            &algorithm,
            &oracle,
            cap,
            Duration::from_millis(cadence_ms),
            &dir,
        );
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(&resumed.clustering, &reference.clustering);
        prop_assert_eq!(
            correlation_cost(&oracle, &resumed.clustering).to_bits(),
            correlation_cost(&oracle, &reference.clustering).to_bits()
        );
    }

    /// `Coin(½)` partial inputs merge on exact `u32` sums at scale 2m;
    /// the replay after a resume must add them back to the same state.
    #[test]
    fn agglomerative_coin_half_interrupt_at_k_resume_is_bit_identical(
        inputs in partial_strategy(),
        cap in 0u64..40,
        cadence_ms in 0u64..2,
    ) {
        let oracle = CorrelationInstance::from_partial(inputs, MissingPolicy::Coin(0.5))
            .dense_oracle();
        prop_assert!(oracle.exact_scale().is_some());
        let algorithm = Algorithm::Agglomerative(AgglomerativeParams::default());
        let reference = algorithm
            .run(&oracle, &mut RunCtx::new(&RunBudget::unlimited()))
            .expect("reference");
        let dir = temp_dir("agg_coin");
        let resumed = interrupt_then_resume(
            &algorithm,
            &oracle,
            cap,
            Duration::from_millis(cadence_ms),
            &dir,
        );
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(&resumed.clustering, &reference.clustering);
        prop_assert_eq!(
            correlation_cost(&oracle, &resumed.clustering).to_bits(),
            correlation_cost(&oracle, &reference.clustering).to_bits()
        );
    }
}

/// Repeated interrupts — crash, resume, crash again — must still converge
/// to the uninterrupted answer. Caps grow per cycle because the iteration
/// cap is global across resumes (a resumed meter starts at the completed
/// count, so an unchanged cap would trip again without progress).
#[test]
fn chained_interrupts_and_resumes_converge_to_the_reference() {
    let inputs: Vec<Clustering> = (0..3u32)
        .map(|i| Clustering::from_labels((0..48u32).map(|v| ((v / 8) + i * (v % 2)) % 6).collect()))
        .collect();
    let oracle = DenseOracle::from_clusterings(&inputs);
    let algorithm = Algorithm::LocalSearch(LocalSearchParams {
        init: LocalSearchInit::Random { k: 4, seed: 9 },
        ..Default::default()
    });
    let reference = algorithm
        .run(&oracle, &mut RunCtx::new(&RunBudget::unlimited()))
        .expect("reference");

    let dir = temp_dir("chain");
    let path = dir.join("run.ckpt");
    let mut resume = None;
    let mut outcome = None;
    for cycle in 1..=64u64 {
        let mut ckpt = Checkpointer::new(path.clone(), Duration::ZERO);
        let run = algorithm
            .run(
                &oracle,
                &mut RunCtx {
                    budget: &RunBudget::unlimited().with_max_iters(cycle * 7),
                    resume: resume.as_ref(),
                    ckpt: Some(&mut ckpt),
                },
            )
            .expect("cycle run");
        if run.status.is_converged() {
            outcome = Some(run);
            break;
        }
        resume = match load_snapshot(&path) {
            SnapshotLoad::Loaded(s) => Some(s.state),
            other => panic!("cycle {cycle}: no resumable checkpoint ({other:?})"),
        };
    }
    std::fs::remove_dir_all(&dir).ok();
    let outcome = outcome.expect("never converged within 64 cycles");
    assert_eq!(outcome.clustering, reference.clustering);
    assert_eq!(outcome.iterations, reference.iterations);
}

/// SAMPLING's per-node assignment phase (the long one at Census scale)
/// checkpoints and resumes through an on-disk snapshot round-trip.
#[test]
fn sampling_interrupt_resume_through_disk_is_bit_identical() {
    let inputs: Vec<Clustering> = (0..3u32)
        .map(|i| {
            Clustering::from_labels((0..90u32).map(|v| ((v / 15) + i * (v % 2)) % 8).collect())
        })
        .collect();
    let oracle = DenseOracle::from_clusterings(&inputs);
    let params = SamplingParams::new(
        30,
        Algorithm::Agglomerative(AgglomerativeParams::default()),
        13,
    );
    let reference = sampling(&oracle, &params, &mut RunCtx::new(&RunBudget::unlimited()))
        .expect("uninterrupted")
        .clustering;

    let dir = temp_dir("samp");
    let path = dir.join("run.ckpt");
    // Caps safely past the base phase's merges so the trip lands in the
    // resumable per-node phase (the documented bit-identity window).
    for cap in [31u64, 40, 55, 88] {
        std::fs::remove_file(&path).ok();
        let mut ckpt = Checkpointer::new(path.clone(), Duration::ZERO);
        let capped = sampling(
            &oracle,
            &params,
            &mut RunCtx {
                budget: &RunBudget::unlimited().with_max_iters(cap),
                resume: None,
                ckpt: Some(&mut ckpt),
            },
        )
        .expect("capped");
        if capped.status.is_converged() {
            assert_eq!(capped.clustering, reference, "cap {cap}");
            continue;
        }
        let snapshot = match load_snapshot(&path) {
            SnapshotLoad::Loaded(s) => s,
            other => panic!("cap {cap}: {other:?}"),
        };
        assert!(
            matches!(snapshot.state, AlgorithmSnapshot::Sampling(_)),
            "cap {cap}: wrong snapshot kind {:?}",
            snapshot.state
        );
        let mut ckpt = Checkpointer::new(path.clone(), Duration::ZERO);
        let resumed = sampling(
            &oracle,
            &params,
            &mut RunCtx {
                budget: &RunBudget::unlimited(),
                resume: Some(&snapshot.state),
                ckpt: Some(&mut ckpt),
            },
        )
        .expect("resumed");
        assert!(resumed.status.is_converged(), "cap {cap}");
        assert_eq!(resumed.clustering, reference, "cap {cap}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Memory governance
// ---------------------------------------------------------------------------

fn blocks_instance(n: usize) -> CorrelationInstance {
    let inputs: Vec<PartialClustering> = (0..3u32)
        .map(|i| {
            let c = Clustering::from_labels(
                (0..n as u32)
                    .map(|v| ((v / 10) + i * (v % 2)) % 7)
                    .collect(),
            );
            PartialClustering::from_total(&c)
        })
        .collect();
    CorrelationInstance::try_from_partial(inputs, MissingPolicy::default()).expect("instance")
}

#[test]
fn refused_dense_allocation_charges_nothing() {
    let instance = blocks_instance(200);
    // The code matrix plus the 4-entry code table of m = 3 total inputs.
    let need = instance.dense_bytes();
    assert_eq!(need, 2 * 200 * 200 + 32);
    let budget = RunBudget::unlimited().with_mem_limit_bytes(need - 1);
    match instance.try_dense_oracle(&budget) {
        Err(Interrupt::MemoryExceeded { requested, limit }) => {
            assert_eq!(requested, need);
            assert_eq!(limit, need - 1);
        }
        other => panic!("expected MemoryExceeded, got {other:?}"),
    }
    // Refusal must not leak a partial charge: the gauge reads zero.
    assert_eq!(budget.mem_gauge().used_bytes(), 0);
}

#[test]
fn admitted_dense_oracle_holds_its_charge_until_drop() {
    let instance = blocks_instance(120);
    let need = instance.dense_bytes();
    let budget = RunBudget::unlimited().with_mem_limit_bytes(need + 1024);
    let oracle = instance.try_dense_oracle(&budget).expect("fits under cap");
    assert_eq!(budget.mem_gauge().used_bytes(), need);
    // A second matrix does not fit while the first is alive...
    assert!(matches!(
        instance.try_dense_oracle(&budget),
        Err(Interrupt::MemoryExceeded { .. })
    ));
    // ...and fits again once it is dropped.
    drop(oracle);
    assert_eq!(budget.mem_gauge().used_bytes(), 0);
    assert!(instance.try_dense_oracle(&budget).is_ok());
}
