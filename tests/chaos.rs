//! In-process chaos: seeded fault storms against a checkpointed run under
//! a memory cap that refuses the dense matrix. Each storm arms a randomly composed (but fully deterministic)
//! `FaultPlan` and asserts the degradation-chain contract: no panics, every
//! injected fault surfaces as a typed error/warning or is absorbed by a
//! retry, anytime labels are always produced, and filesystem faults
//! never change the labels at all. The process-level half of the harness
//! (SIGKILL + resume under injection, CLI exit codes) lives in
//! `ci/chaos.sh`.

use std::path::{Path, PathBuf};
use std::time::Duration;

use aggclust_core::algorithms::{Algorithm, BallsParams};
use aggclust_core::consensus::ConsensusBuilder;
use aggclust_core::failpoint::{arm, FaultPlan};
use aggclust_core::snapshot::{load_snapshot, SnapshotLoad};
use aggclust_core::test_support::splitmix64;
use aggclust_core::{iofs, RunBudget};
use aggclust_tests::adversarial_disagreeing;

/// Tight enough to refuse the dense matrix and force the lazy oracle.
const CHAOS_MEM_CAP: u64 = 16 * 1024;

fn chaos_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aggclust_chaos_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn chaos_builder(dir: &Path) -> ConsensusBuilder {
    ConsensusBuilder::new()
        .algorithm(Algorithm::Balls(BallsParams::default()))
        .budget(RunBudget::unlimited().with_mem_limit_bytes(CHAOS_MEM_CAP))
        .checkpoint(dir.join("ckpt.bin"), Duration::ZERO)
}

/// Fault templates the storm generator samples from. Every filesystem site
/// the checkpointed workload touches is represented; `{s}` is replaced
/// with a per-storm seed so `prob=` coin streams differ between storms but
/// replay identically for the same storm id.
const TEMPLATES: &[&str] = &[
    "snapshot.write=torn:prob=0.7:seed={s}",
    "snapshot.rename=io_error:prob=0.5:seed={s}",
    "snapshot.fsync=enospc:nth=1",
    "snapshot.create=io_error:prob=0.3:seed={s}",
    "snapshot.write=delay:ms=1:prob=0.1:seed={s}",
];

/// Compose a deterministic storm: one to three clauses drawn from
/// [`TEMPLATES`], every clause path-scoped to `dir` so concurrently running
/// tests in this binary are untouched.
fn storm_plan(storm: u64, dir: &Path) -> FaultPlan {
    let mut state = storm.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(1);
    let clauses = 1 + (splitmix64(&mut state) % 3) as usize;
    let spec = (0..clauses)
        .map(|_| {
            let template = TEMPLATES[(splitmix64(&mut state) as usize) % TEMPLATES.len()];
            let seeded = template.replace("{s}", &splitmix64(&mut state).to_string());
            format!("{seeded}:path={}", dir.display())
        })
        .collect::<Vec<_>>()
        .join(",");
    FaultPlan::parse(&spec).expect("storm spec must parse")
}

#[test]
fn seeded_fault_storms_never_panic_and_never_change_the_labels() {
    let inputs = adversarial_disagreeing(100, 4);
    let clean_dir = chaos_dir("reference");
    let reference = chaos_builder(&clean_dir)
        .try_aggregate(&inputs)
        .expect("clean run");
    std::fs::remove_dir_all(&clean_dir).ok();

    for storm in 0..48u64 {
        let dir = chaos_dir(&format!("storm{storm}"));
        let guard = arm(storm_plan(storm, &dir));
        let result = chaos_builder(&dir)
            .try_aggregate(&inputs)
            .unwrap_or_else(|e| panic!("storm {storm} surfaced a hard error: {e}"));
        let log = guard.injection_log();
        drop(guard);
        // Filesystem faults on checkpoint paths are absorbed by retries or
        // recorded as checkpoint failures — none of them may alter the
        // consensus labels, and the anytime contract holds regardless.
        assert_eq!(
            result.clustering.labels(),
            reference.clustering.labels(),
            "storm {storm} ({log:?}) changed the labels"
        );
        // Whatever the storm broke is visible as typed warnings, never as
        // silence plus a wrong answer.
        for w in &result.warnings {
            assert!(!w.kind().is_empty(), "storm {storm}: warning without kind");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn the_same_plan_and_seed_replay_the_same_injection_sequence() {
    let dir = chaos_dir("replay");
    let spec = format!(
        "replay.write=io_error:prob=0.5:seed=42,replay.fsync=torn:prob=0.25:seed=9:path={}",
        dir.display()
    );
    let drive = || {
        let guard = arm(FaultPlan::parse(&spec).expect("parse"));
        // A fixed op sequence through the facade: the injection log must be
        // a pure function of (plan, seed, op sequence).
        for i in 0..32 {
            let path = dir.join(format!("f{i}"));
            let _ = iofs::write_file_atomic("replay", &path, b"payload");
        }
        guard.injection_log()
    };
    let first = drive();
    let second = drive();
    assert!(!first.is_empty(), "a prob=0.5 storm over 32 ops must fire");
    assert_eq!(
        first, second,
        "injection sequence must replay bit-identically"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn alloc_storms_degrade_to_anytime_labels_not_panics() {
    let inputs = adversarial_disagreeing(100, 4);
    // Every tracked allocation beyond the first mebibyte fails: the run
    // must walk the degradation chain and still produce full-length labels.
    let guard = arm(FaultPlan::parse("alloc=fail:after_mb=1").expect("parse"));
    let result = ConsensusBuilder::new()
        .algorithm(Algorithm::Balls(BallsParams::default()))
        .try_aggregate(&inputs)
        .expect("alloc storm must degrade, not fail");
    drop(guard);
    assert_eq!(result.clustering.labels().len(), 100);
}

#[test]
fn clock_skew_still_produces_anytime_labels_under_a_deadline() {
    let inputs = adversarial_disagreeing(100, 4);
    // +50ms of injected skew on the system clock makes the deadline appear
    // nearer than it is; the run may be cut short but must stay well-formed.
    let guard = arm(FaultPlan::parse("clock=skew:ms=50").expect("parse"));
    let result = ConsensusBuilder::new()
        .algorithm(Algorithm::Balls(BallsParams::default()))
        .budget(RunBudget::unlimited().with_deadline_ms(60))
        .try_aggregate(&inputs)
        .expect("skewed run must stay well-formed");
    drop(guard);
    assert_eq!(result.clustering.labels().len(), 100);
}

#[test]
fn torn_checkpoints_under_injection_resume_fresh_or_valid_never_garbage() {
    let inputs = adversarial_disagreeing(100, 4);
    for storm in 0..8u64 {
        let dir = chaos_dir(&format!("torn{storm}"));
        let spec = format!(
            "snapshot.write=torn:prob=0.8:seed={storm}:path={}",
            dir.display()
        );
        let guard = arm(FaultPlan::parse(&spec).expect("parse"));
        let result = chaos_builder(&dir).try_aggregate(&inputs).expect("run");
        drop(guard);
        assert_eq!(result.clustering.labels().len(), 100);
        // Whatever the torn writer left behind, loading it yields a typed
        // outcome: a valid snapshot, a clean miss, or a detected corruption.
        match load_snapshot(&dir.join("ckpt.bin")) {
            SnapshotLoad::Loaded(_) | SnapshotLoad::Missing | SnapshotLoad::Corrupt(_) => {}
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_dead_checkpoint_disk_under_a_memory_cap_keeps_the_unconstrained_labels() {
    use aggclust_core::consensus::Warning;
    let inputs = adversarial_disagreeing(100, 4);
    let reference = ConsensusBuilder::new()
        .algorithm(Algorithm::Balls(BallsParams::default()))
        .try_aggregate(&inputs)
        .expect("reference run");
    let dir = chaos_dir("deaddisk");
    // Every checkpoint file creation under this run's directory fails.
    let spec = format!("snapshot.create=io_error:path={}", dir.display());
    let guard = arm(FaultPlan::parse(&spec).expect("parse"));
    let result = chaos_builder(&dir)
        .try_aggregate(&inputs)
        .expect("a dead checkpoint disk must not fail the run");
    let log = guard.injection_log();
    drop(guard);
    assert!(!log.is_empty(), "the create fault must have fired");
    assert_eq!(result.clustering, reference.clustering);
    assert!(result.status.is_converged());
    assert!(
        matches!(
            result.warnings[..],
            [Warning::MemoryDegradedToLazyOracle { .. }]
        ),
        "{:?}",
        result.warnings
    );
    std::fs::remove_dir_all(&dir).ok();
}
