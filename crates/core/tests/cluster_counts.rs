//! SAMPLING's assignment from per-cluster label counts.
//!
//! [`DistanceOracle::cluster_counts`] lets the lazy oracle compute a node's
//! exact per-cluster numerators `Nᵢ = Σ_{u ∈ Cᵢ} den·X_vu` from its `m`
//! labels instead of `s` pair reads. These tests pin that the counts give
//! the very integers the pair path sums (so both make the same
//! [`ClusterAssigner::assign_exact`] decision, ties included), that the
//! oracle declines where no fixed per-input weights reproduce its
//! distances, and that SAMPLING labels agree between the lazy and dense
//! oracles and across interrupt + resume.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use aggclust_core::algorithms::sampling::{sampling, SamplingDetails, SamplingParams};
use aggclust_core::algorithms::{AgglomerativeParams, Algorithm, BallsParams};
use aggclust_core::assign::ClusterAssigner;
use aggclust_core::clustering::{Clustering, PartialClustering};
use aggclust_core::instance::{CorrelationInstance, DistanceOracle, MissingPolicy};
use aggclust_core::parallel::with_num_threads;
use aggclust_core::snapshot::{load_snapshot, AlgorithmSnapshot, Checkpointer, SnapshotLoad};
use aggclust_core::telemetry::{
    clear_collector, current_tid, install_collector, Collector, Event, Level, SpanData, Value,
};
use aggclust_core::{RunBudget, RunCtx};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SAMPLING on `oracle` under an unlimited budget.
fn run_sampling<O: DistanceOracle + Sync>(oracle: &O, params: &SamplingParams) -> SamplingDetails {
    sampling(oracle, params, &mut RunCtx::new(&RunBudget::unlimited())).unwrap()
}

/// `m` random inputs over `n` objects with labels in `0..k`; each label is
/// missing with probability `missing`. With `twins`, objects come in pairs
/// with identical label rows, so clusters that mirror each other tie.
fn inputs(
    seed: u64,
    n: usize,
    m: usize,
    k: u32,
    missing: f64,
    twins: bool,
) -> Vec<PartialClustering> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows: Vec<Vec<Option<u32>>> = Vec::with_capacity(n);
    for v in 0..n {
        if twins && v % 2 == 1 {
            rows.push(rows[v - 1].clone());
            continue;
        }
        let row = (0..m)
            .map(|_| (!rng.gen_bool(missing)).then(|| rng.gen_range(0..k)))
            .collect();
        rows.push(row);
    }
    (0..m)
        .map(|j| PartialClustering::from_labels(rows.iter().map(|row| row[j]).collect()))
        .collect()
}

/// Members and their cluster labels (numbered in first-appearance order).
/// With `twins`, member `2i` and `2i + 1` — identical label rows — go to
/// clusters `2c` and `2c + 1`, so every non-member ties between the two.
fn members(seed: u64, n: usize, twins: bool) -> (Vec<usize>, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let s = (n / 2).max(1);
    let picked: Vec<usize> = if twins {
        (0..s & !1).collect()
    } else {
        let mut all: Vec<usize> = (0..n).collect();
        for i in 0..s {
            let j = rng.gen_range(i..n);
            all.swap(i, j);
        }
        let mut picked = all[..s].to_vec();
        picked.sort_unstable();
        picked
    };
    let raw: Vec<u32> = (0..picked.len())
        .map(|i| {
            if twins {
                2 * (i as u32 / 2 % 3) + i as u32 % 2
            } else {
                rng.gen_range(0..4)
            }
        })
        .collect();
    let labels = Clustering::from_labels(raw).labels().to_vec();
    (picked, labels)
}

/// `Σ_{u ∈ Cᵢ} round(den·X_vu)` per cluster, one pair read per member.
fn pair_numerators<O: DistanceOracle>(
    oracle: &O,
    den: u32,
    v: usize,
    members: &[usize],
    labels: &[u32],
    clusters: usize,
) -> Vec<i64> {
    let mut sums = vec![0i64; clusters];
    for (&u, &l) in members.iter().zip(labels) {
        sums[l as usize] += (oracle.dist(v, u) * f64::from(den)).round() as i64;
    }
    sums
}

/// Check the counts against both oracles' pair numerators for every
/// non-member, and return how many decisions were exact ties between two
/// clusters.
fn check_counts(
    parts: Vec<PartialClustering>,
    policy: MissingPolicy,
    seed: u64,
    twins: bool,
) -> usize {
    let n = parts[0].len();
    let instance = CorrelationInstance::from_partial(parts, policy);
    let dense = instance.dense_oracle();
    let (members, labels) = members(seed, n, twins);
    let counts = instance
        .cluster_counts(&members, &labels)
        .expect("total and Coin(½) inputs take the counts path");
    let den = counts.den();
    assert_eq!(instance.exact_scale(), Some(den));
    assert_eq!(dense.exact_scale(), Some(den));
    assert!(dense.cluster_counts(&members, &labels).is_none());
    let assigner = ClusterAssigner::new(Clustering::from_labels(labels.clone()));
    let clusters = counts.num_clusters();
    assert_eq!(clusters, assigner.reference().num_clusters());
    let mut ties = 0;
    let mut from_counts = vec![0i64; clusters];
    for v in (0..n).filter(|v| !members.contains(v)) {
        counts.numerators_into(v, &mut from_counts);
        let from_lazy = pair_numerators(&instance, den, v, &members, &labels, clusters);
        let from_dense = pair_numerators(&dense, den, v, &members, &labels, clusters);
        assert_eq!(
            from_counts, from_lazy,
            "object {v}: counts vs instance pairs"
        );
        assert_eq!(from_counts, from_dense, "object {v}: counts vs dense pairs");
        let decision = assigner.assign_exact(&from_counts, den);
        assert_eq!(decision, assigner.assign_exact(&from_dense, den));
        if twins {
            // Mirrored clusters 2c and 2c + 1 tie exactly; the lower wins.
            for c in (0..clusters).step_by(2).filter(|c| c + 1 < clusters) {
                assert_eq!(from_counts[c], from_counts[c + 1], "object {v}");
            }
            if let Some(cluster) = decision {
                assert_eq!(cluster % 2, 0, "object {v}: a tie went to the higher label");
                ties += usize::from((cluster as usize) + 1 < clusters);
            }
        }
    }
    ties
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random total and `Coin(½)` partial inputs, with and without twin
    /// objects built to tie: the counts reproduce the pair numerators of
    /// the lazy and the dense oracle for every object and cluster.
    #[test]
    fn counts_match_the_pair_numerators(
        seed in 0u64..1_000_000,
        n in 2usize..48,
        m in 1usize..7,
        k in 1u32..5,
        partial in 0u8..2,
        twins in 0u8..2,
    ) {
        let missing = if partial == 1 { 0.3 } else { 0.0 };
        let parts = inputs(seed, n, m, k, missing, twins == 1);
        check_counts(parts, MissingPolicy::Coin(0.5), seed, twins == 1);
    }
}

#[test]
fn twin_instances_produce_exact_ties() {
    let ties: usize = (0..8u64)
        .map(|seed| {
            let parts = inputs(seed, 40, 4, 3, 0.25 * (seed % 2) as f64, true);
            check_counts(parts, MissingPolicy::Coin(0.5), seed, true)
        })
        .sum();
    assert!(ties > 0, "no decision landed on a tie");
}

#[test]
fn the_oracle_declines_where_weights_cannot_reproduce_its_distances() {
    let members = [0, 1, 2, 3];
    let labels = [0, 0, 1, 1];
    let partial = inputs(3, 12, 3, 3, 0.3, false);
    assert!(partial.iter().any(|c| c.num_missing() > 0));
    let lazy = |policy| CorrelationInstance::from_partial(partial.clone(), policy);
    // Ignore with missing labels divides by the per-pair count of judging
    // inputs: scale or not, no fixed weights fit.
    assert!(lazy(MissingPolicy::Ignore)
        .cluster_counts(&members, &labels)
        .is_none());
    // Coin(0.3): sep + 0.7·missing over m = 3 is no multiple of 1/3 or 1/6.
    let coin = lazy(MissingPolicy::Coin(0.3));
    assert_eq!(coin.exact_scale(), None);
    assert!(coin.cluster_counts(&members, &labels).is_none());
    // Proven scales take the counts path: Coin(½) (den = 2m), Coin(1)
    // (missing inputs never separate, den = m), and Ignore on total inputs.
    assert_eq!(
        lazy(MissingPolicy::Coin(0.5))
            .cluster_counts(&members, &labels)
            .map(|c| c.den()),
        Some(6)
    );
    assert_eq!(
        lazy(MissingPolicy::Coin(1.0))
            .cluster_counts(&members, &labels)
            .map(|c| c.den()),
        Some(3)
    );
    let total = inputs(3, 12, 3, 3, 0.0, false);
    let ignore = CorrelationInstance::from_partial(total, MissingPolicy::Ignore);
    assert_eq!(
        ignore.cluster_counts(&members, &labels).map(|c| c.den()),
        Some(3)
    );
}

fn params(base: Algorithm, sample: usize, seed: u64) -> SamplingParams {
    SamplingParams::new(sample, base, seed)
}

#[test]
fn sampling_labels_match_between_lazy_and_dense_oracles() {
    let bases = [
        Algorithm::Agglomerative(AgglomerativeParams::default()),
        Algorithm::Balls(BallsParams::default()),
    ];
    for seed in 0..6u64 {
        for missing in [0.0, 0.2] {
            let parts = inputs(seed, 150, 5, 4, missing, seed % 3 == 0);
            let lazy = CorrelationInstance::from_partial(parts, MissingPolicy::Coin(0.5));
            let dense = lazy.dense_oracle();
            for base in &bases {
                let p = params(base.clone(), 30, seed);
                assert_eq!(
                    run_sampling(&lazy, &p).clustering,
                    run_sampling(&dense, &p).clustering,
                    "seed {seed}, missing {missing}"
                );
            }
        }
    }
}

/// Interrupt SAMPLING mid-assignment on the lazy oracle (the counts path),
/// resume from the on-disk snapshot, and compare with the uninterrupted run.
fn interrupt_and_resume_on_the_lazy_oracle(missing: f64, threads: usize) {
    let parts = inputs(17, 120, 4, 4, missing, false);
    let oracle = CorrelationInstance::from_partial(parts, MissingPolicy::Coin(0.5));
    let p = params(
        Algorithm::Agglomerative(AgglomerativeParams::default()),
        30,
        13,
    );
    with_num_threads(threads, || {
        let reference = sampling(&oracle, &p, &mut RunCtx::new(&RunBudget::unlimited()))
            .expect("uninterrupted")
            .clustering;
        let dir = std::env::temp_dir().join(format!(
            "aggclust_counts_resume_{}_{missing}_{threads}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("run.ckpt");
        let mut resumed_once = false;
        // Caps past the sample's 29 merges, so the trip lands in the
        // per-node assignment phase.
        for cap in [31u64, 50, 77, 110] {
            std::fs::remove_file(&path).ok();
            let mut ckpt = Checkpointer::new(path.clone(), Duration::ZERO);
            let budget = RunBudget::unlimited().with_max_iters(cap);
            let capped = sampling(
                &oracle,
                &p,
                &mut RunCtx {
                    budget: &budget,
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
                "cap {cap}: wrong snapshot kind"
            );
            let resumed = sampling(
                &oracle,
                &p,
                &mut RunCtx {
                    budget: &RunBudget::unlimited(),
                    resume: Some(&snapshot.state),
                    ckpt: None,
                },
            )
            .expect("resumed");
            assert!(resumed.status.is_converged(), "cap {cap}");
            assert_eq!(
                resumed.clustering, reference,
                "cap {cap}: resumed labels differ"
            );
            resumed_once = true;
        }
        std::fs::remove_dir_all(&dir).ok();
        assert!(resumed_once, "no cap tripped mid-assignment");
    });
}

#[test]
fn lazy_sampling_interrupt_resume_is_bit_identical_on_total_inputs() {
    for threads in [1, 2] {
        interrupt_and_resume_on_the_lazy_oracle(0.0, threads);
    }
}

#[test]
fn lazy_sampling_interrupt_resume_is_bit_identical_on_coin_half_inputs() {
    for threads in [1, 2] {
        interrupt_and_resume_on_the_lazy_oracle(0.2, threads);
    }
}

/// Records this thread's span starts and ends.
struct Spans {
    tid: u64,
    seen: Mutex<Vec<(bool, &'static str, Option<String>)>>,
}

impl Collector for Spans {
    fn enabled(&self, _level: Level) -> bool {
        false
    }

    fn event(&self, _event: &Event<'_>) {}

    fn span_start(&self, span: &SpanData) {
        if current_tid() == self.tid {
            let path = span.fields.iter().find_map(|(k, v)| match (k, v) {
                (&"path", Value::Str(p)) => Some(p.clone()),
                _ => None,
            });
            self.seen.lock().unwrap().push((true, span.name, path));
        }
    }

    fn span_end(&self, span: &SpanData, _elapsed: Duration) {
        if current_tid() == self.tid {
            self.seen.lock().unwrap().push((false, span.name, None));
        }
    }
}

#[test]
fn the_assignment_phase_has_its_own_span_naming_the_path() {
    let parts = inputs(5, 80, 4, 3, 0.0, false);
    let instance = CorrelationInstance::from_partial(parts.clone(), MissingPolicy::Coin(0.5));
    let ignore =
        CorrelationInstance::from_partial(inputs(5, 80, 4, 3, 0.3, false), MissingPolicy::Ignore);
    let p = params(
        Algorithm::Agglomerative(AgglomerativeParams::default()),
        20,
        1,
    );
    let spans = Arc::new(Spans {
        tid: current_tid(),
        seen: Mutex::new(Vec::new()),
    });
    install_collector(spans.clone());
    run_sampling(&instance, &p);
    run_sampling(&instance.dense_oracle(), &p);
    run_sampling(&ignore, &p);
    clear_collector();
    let seen = spans.seen.lock().unwrap();
    let mut paths = Vec::new();
    let mut open: Vec<&str> = Vec::new();
    for (start, name, path) in seen.iter() {
        if *start {
            if *name == "sampling_assign" {
                assert_eq!(
                    open.last(),
                    Some(&"sampling"),
                    "sampling_assign outside sampling"
                );
                paths.push(path.clone().expect("a path field"));
            }
            open.push(name);
        } else {
            assert_eq!(open.pop(), Some(*name));
        }
    }
    assert_eq!(paths, ["counts", "pairs", "f64"]);
}
