//! The SAMPLING meta-algorithm (paper §4.1): scale any aggregation
//! algorithm to large datasets.
//!
//! The quadratic cost of correlation clustering is inherent — the input is a
//! complete graph — so the paper wraps the base algorithms in a three-phase
//! procedure that is linear in `n` outside the sample:
//!
//! 1. **Pre-processing**: draw a uniform sample `S` (size `O(log n)`
//!    suffices, by a Chernoff argument, for every *large* cluster to be
//!    hit with high probability).
//! 2. **Clustering**: run the base algorithm on the restricted instance.
//! 3. **Post-processing**: every non-sampled node joins the sample cluster
//!    of least cost — or becomes a singleton — using the same `M(v, C_i)`
//!    bookkeeping as LOCALSEARCH. Where the oracle offers
//!    [`DistanceOracle::cluster_counts`] the sums come from per-cluster
//!    label counts of the sample, in exact integers and without a pair
//!    read (DESIGN §6). Because small clusters may be missed by the
//!    sample, all singletons are then collected and aggregated once more
//!    among themselves.

use super::Algorithm;
use crate::assign::ClusterAssigner;
use crate::clustering::Clustering;
use crate::error::AggResult;
use crate::instance::{ClusterCounts, DistanceOracle};
use crate::robust::{RunBudget, RunOutcome, RunStatus};
use crate::snapshot::{AlgorithmSnapshot, Checkpointer, SamplingSnapshot};
use crate::telemetry;
use rand::rngs::StdRng;
use rand::seq::index::sample as index_sample;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// How large a sample to draw.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SampleSize {
    /// A fixed number of nodes (clamped to `n`).
    Absolute(usize),
    /// `⌈c · ln n⌉` nodes — the Chernoff-bound-driven choice; `c` trades
    /// confidence for speed.
    LogFactor(f64),
}

impl SampleSize {
    /// Resolve to a concrete sample size for an instance with `n` nodes
    /// (0 for an empty instance).
    pub fn resolve(self, n: usize) -> usize {
        match self {
            SampleSize::Absolute(s) => s.min(n),
            SampleSize::LogFactor(c) => {
                let s = (c * (n.max(2) as f64).ln()).ceil() as usize;
                s.max(1).min(n)
            }
        }
    }
}

/// Parameters for [`sampling`].
#[derive(Clone, Debug)]
pub struct SamplingParams {
    /// Sample size policy.
    pub size: SampleSize,
    /// Base aggregation algorithm run on the sample (and on the collected
    /// singletons).
    pub base: Algorithm,
    /// RNG seed for the uniform sample.
    pub seed: u64,
    /// Whether to run the paper's singleton re-aggregation pass
    /// (on by default; off shows its effect in ablations).
    pub recluster_singletons: bool,
}

impl SamplingParams {
    /// Sensible defaults: absolute sample size with the given base.
    pub fn new(sample_size: usize, base: Algorithm, seed: u64) -> Self {
        SamplingParams {
            size: SampleSize::Absolute(sample_size),
            base,
            seed,
            recluster_singletons: true,
        }
    }
}

/// Phase timing and bookkeeping returned by [`sampling_with_details`].
#[derive(Clone, Debug)]
pub struct SamplingDetails {
    /// The final clustering.
    pub clustering: Clustering,
    /// Indices of the sampled nodes.
    pub sample: Vec<usize>,
    /// Number of clusters produced on the sample before assignment.
    pub sample_clusters: usize,
    /// Number of nodes that ended up singletons after assignment (before
    /// the re-aggregation pass).
    pub singletons_before_recluster: usize,
    /// Wall-clock time spent clustering the sample.
    pub cluster_time: Duration,
    /// Wall-clock time spent assigning non-sampled nodes.
    pub assign_time: Duration,
    /// Wall-clock time of the singleton re-aggregation pass.
    pub recluster_time: Duration,
}

impl SamplingDetails {
    fn empty() -> Self {
        SamplingDetails {
            clustering: Clustering::from_labels(Vec::new()),
            sample: Vec::new(),
            sample_clusters: 0,
            singletons_before_recluster: 0,
            cluster_time: Duration::ZERO,
            assign_time: Duration::ZERO,
            recluster_time: Duration::ZERO,
        }
    }
}

/// Run the SAMPLING algorithm, returning just the clustering.
///
/// # Panics
/// Panics if the base algorithm rejects its parameters (see
/// [`sampling_with_details`]).
pub fn sampling<O: DistanceOracle + Sync>(oracle: &O, params: &SamplingParams) -> Clustering {
    sampling_with_details(oracle, params).clustering
}

/// Run the SAMPLING algorithm with phase-level instrumentation (used by the
/// Figure-5 experiments): [`sampling_resumable`] under
/// [`RunBudget::unlimited`].
///
/// # Panics
/// Panics if the base algorithm rejects its parameters, which the budgeted
/// entry points report as a typed error instead.
pub fn sampling_with_details<O: DistanceOracle + Sync>(
    oracle: &O,
    params: &SamplingParams,
) -> SamplingDetails {
    let mut details = SamplingDetails::empty();
    let outcome = run(
        oracle,
        params,
        &RunBudget::unlimited(),
        None,
        None,
        &mut details,
    );
    assert!(
        outcome.is_ok(),
        "SAMPLING base algorithm rejected its parameters: {:?}",
        outcome.as_ref().err()
    );
    if let Ok(outcome) = outcome {
        details.clustering = outcome.clustering;
    }
    details
}

/// Budgeted SAMPLING with anytime semantics. The base algorithm runs under
/// the same budget in the sample phase and the singleton-recluster phase;
/// the per-node assignment loop ticks once per node.
/// On a trip mid-assignment the remaining nodes become fresh singletons and
/// the recluster pass is skipped; statuses from the phases combine to the
/// worst one observed.
pub fn sampling_budgeted<O: DistanceOracle + Sync>(
    oracle: &O,
    params: &SamplingParams,
    budget: &RunBudget,
) -> AggResult<RunOutcome> {
    sampling_resumable(oracle, params, budget, None, None)
}

/// [`sampling_budgeted`] with crash-safe checkpoint/resume.
///
/// Only phase 3 — the per-node assignment loop, the one phase whose cost
/// grows with `n` — checkpoints and resumes mid-flight; an interrupt during
/// the sample clustering (phase 2) or singleton recluster (phase 3b) simply
/// reruns that phase on resume. A valid snapshot skips phases 1–2 entirely
/// (the sample and its labels are in the file) and re-enters the assignment
/// loop at the recorded node with the meter pre-charged. A snapshot whose
/// `n` or sample is inconsistent with this instance falls back to a fresh
/// run.
pub fn sampling_resumable<O: DistanceOracle + Sync>(
    oracle: &O,
    params: &SamplingParams,
    budget: &RunBudget,
    resume: Option<&SamplingSnapshot>,
    ckpt: Option<&mut Checkpointer>,
) -> AggResult<RunOutcome> {
    run(
        oracle,
        params,
        budget,
        resume,
        ckpt,
        &mut SamplingDetails::empty(),
    )
}

/// The SAMPLING engine behind every entry point. Records the phase data of
/// [`SamplingDetails`] (all but the final clustering) into `details`.
fn run<O: DistanceOracle + Sync>(
    oracle: &O,
    params: &SamplingParams,
    budget: &RunBudget,
    resume: Option<&SamplingSnapshot>,
    mut ckpt: Option<&mut Checkpointer>,
    details: &mut SamplingDetails,
) -> AggResult<RunOutcome> {
    let n = oracle.len();
    let _span = crate::span!(
        "sampling",
        n = n,
        base = params.base.name(),
        s = params.size.resolve(n),
        resuming = resume.is_some()
    );
    if n == 0 {
        return Ok(RunOutcome::converged(Clustering::from_labels(Vec::new())));
    }
    let resume = resume.filter(|snap| {
        snap.n as usize == n
            && !snap.sample.is_empty()
            && snap.sample.windows(2).all(|w| w[0] < w[1])
            && snap.sample.iter().all(|&v| (v as usize) < n)
            && snap.sample.len() == snap.sample_labels.len()
            && is_first_appearance_order(&snap.sample_labels)
            && snap.labels.len() == n
            && snap.next_node as usize <= n
    });

    let mut status;
    let mut iterations: u64;
    let sample: Vec<usize>;
    let sample_labels: Vec<u32>;
    let mut labels: Vec<u32>;
    let start_node: usize;
    let done: u64;
    if let Some(snap) = resume {
        // Phases 1–2 are fully captured by the snapshot: the sample, its
        // clustering, and every assignment made before the interrupt.
        sample = snap.sample.iter().map(|&v| v as usize).collect();
        sample_labels = snap.sample_labels.clone();
        labels = snap.labels.clone();
        for (si, &v) in sample.iter().enumerate() {
            labels[v] = sample_labels[si];
        }
        start_node = snap.next_node as usize;
        done = snap.iterations;
        status = RunStatus::Converged;
        iterations = 0;
    } else {
        let s = params.size.resolve(n);
        // Fresh starts only: a resumed run restores the sample from the
        // snapshot, so interrupt-at-k + resume counts each run/sample once —
        // matching the uninterrupted run.
        let m = telemetry::metrics();
        m.sampling_runs.incr_if_enabled();
        m.sampling_sampled.add_if_enabled(s as u64);

        // Phase 1: uniform sample without replacement.
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut smp: Vec<usize> = index_sample(&mut rng, n, s).into_vec();
        smp.sort_unstable();

        // Phase 2: aggregate the sample with the base algorithm.
        let t0 = Instant::now();
        let sub = oracle.restrict(&smp);
        let base_outcome = params.base.run_budgeted(&sub, budget)?;
        details.cluster_time = t0.elapsed();
        status = base_outcome.status;
        iterations = base_outcome.iterations;
        sample_labels = (0..smp.len())
            .map(|si| base_outcome.clustering.label(si))
            .collect();
        labels = vec![u32::MAX; n];
        for (si, &v) in smp.iter().enumerate() {
            labels[v] = sample_labels[si];
        }
        sample = smp;
        start_node = 0;
        done = 0;
    }

    // Phase 3: assign every non-sampled node to the cheapest sample cluster
    // or to a fresh singleton. Fresh singleton labels are handed out in
    // node order, so the resumed `next_label` is recoverable from the
    // assignments already made. The sample labels are in first-appearance
    // order, so the assigner's reference clustering keeps them as they are.
    let assigner = ClusterAssigner::new(Clustering::from_labels(sample_labels.clone()));
    let ell = assigner.reference().num_clusters();
    let t1 = Instant::now();
    let path = AssignPath::of(oracle, &sample, &sample_labels);
    let assign_span = crate::span!("sampling_assign", path = path.name());
    let mut numerators = vec![0i64; ell];
    let mut next_label = labels
        .iter()
        .filter(|&&l| l != u32::MAX)
        .map(|&l| l + 1)
        .max()
        .unwrap_or(0)
        .max(ell as u32);
    let mut in_sample = vec![false; n];
    for &v in &sample {
        in_sample[v] = true;
    }
    let mut meter = budget.meter_from(done);
    let mut tripped = false;
    let mut heartbeat = telemetry::Heartbeat::new("sampling_assign", n as u64).with_budget(budget);
    for v in start_node..n {
        heartbeat.tick(v as u64);
        if in_sample[v] {
            continue;
        }
        if let Err(interrupt) = meter.tick() {
            status = status.combine(interrupt.status());
            tripped = true;
            // Final checkpoint first — the snapshot keeps the unassigned
            // markers so a resume redoes real assignment, not the
            // singleton fallback below.
            if let Some(c) = ckpt.as_deref_mut() {
                let _ = c.save_now(AlgorithmSnapshot::Sampling(SamplingSnapshot {
                    n: n as u64,
                    sample: sample.iter().map(|&x| x as u64).collect(),
                    sample_labels: sample_labels.clone(),
                    labels: labels.clone(),
                    next_node: v as u64,
                    iterations: meter.iterations() - 1,
                }));
            }
            // Unassigned nodes become fresh singletons — complete and
            // valid, if suboptimal.
            for slot in labels.iter_mut().filter(|slot| **slot == u32::MAX) {
                *slot = next_label;
                next_label += 1;
            }
            break;
        }
        let decision = match &path {
            AssignPath::Counts(counts) => {
                counts.numerators_into(v, &mut numerators);
                assigner.assign_exact(&numerators, counts.den())
            }
            &AssignPath::Pairs(den) => {
                numerators.fill(0);
                for (&u, &label) in sample.iter().zip(&sample_labels) {
                    let x = oracle.dist(v, u);
                    numerators[label as usize] += (x * f64::from(den)).round() as i64;
                }
                assigner.assign_exact(&numerators, den)
            }
            AssignPath::Values => assigner.assign(|si| oracle.dist(v, sample[si])),
        };
        labels[v] = match decision {
            Some(cluster) => cluster,
            None => {
                let fresh = next_label;
                next_label += 1;
                fresh
            }
        };
        // Real assignments only — the singleton fallback after a budget trip
        // is not counted, so resumed totals match uninterrupted ones.
        telemetry::metrics().sampling_assigned.incr_if_enabled();
        if let Some(c) = ckpt.as_deref_mut() {
            c.maybe_save(|| {
                AlgorithmSnapshot::Sampling(SamplingSnapshot {
                    n: n as u64,
                    sample: sample.iter().map(|&x| x as u64).collect(),
                    sample_labels: sample_labels.clone(),
                    labels: labels.clone(),
                    next_node: (v + 1) as u64,
                    iterations: meter.iterations(),
                })
            });
        }
    }
    drop((path, assign_span));
    details.assign_time = t1.elapsed();
    iterations = iterations.saturating_add(meter.iterations());

    // Singletons after assignment: freshly assigned ones and sample
    // clusters of size one that attracted nobody.
    let mut sizes = vec![0usize; next_label as usize];
    for &l in &labels {
        sizes[l as usize] += 1;
    }
    let singleton_nodes: Vec<usize> = (0..n).filter(|&v| sizes[labels[v] as usize] == 1).collect();

    // Phase 3b: re-aggregate the singletons among themselves (paper: "we
    // collect all singleton clusters and run the clustering aggregation
    // again on this subset of nodes"), skipped when the budget already
    // tripped.
    let t2 = Instant::now();
    if !tripped && params.recluster_singletons && singleton_nodes.len() >= 2 {
        telemetry::metrics()
            .sampling_reclustered
            .add_if_enabled(singleton_nodes.len() as u64);
        let sub = oracle.restrict(&singleton_nodes);
        let re = params.base.run_budgeted(&sub, budget)?;
        status = status.combine(re.status);
        iterations = iterations.saturating_add(re.iterations);
        for (i, &v) in singleton_nodes.iter().enumerate() {
            labels[v] = next_label + re.clustering.label(i);
        }
    }
    details.recluster_time = t2.elapsed();
    details.sample_clusters = ell;
    details.singletons_before_recluster = singleton_nodes.len();
    details.sample = sample;

    Ok(RunOutcome {
        clustering: Clustering::from_labels(labels),
        status,
        iterations,
    })
}

/// How phase 3 computes a node's per-cluster sums `M(v, Cᵢ)`. Every path
/// makes the decision of [`ClusterAssigner`]; the first two make it in
/// exact integers, so they agree with each other on every input.
enum AssignPath<'a> {
    /// Numerators from per-cluster label counts of the sample: no pair
    /// reads (total and proven `Coin(p)` inputs on the lazy oracle).
    Counts(ClusterCounts<'a>),
    /// Numerators `round(den·X)` from one pair read per sample member (an
    /// oracle with an exact scale `den` but no labels, e.g. a dense one).
    Pairs(u32),
    /// `f64` sums from one pair read per sample member (no exact scale).
    Values,
}

impl<'a> AssignPath<'a> {
    fn of<O: DistanceOracle>(oracle: &'a O, sample: &[usize], labels: &[u32]) -> Self {
        match (oracle.cluster_counts(sample, labels), oracle.exact_scale()) {
            (Some(counts), _) => AssignPath::Counts(counts),
            (None, Some(den)) => AssignPath::Pairs(den),
            (None, None) => AssignPath::Values,
        }
    }

    /// The `path` field of the `sampling_assign` span.
    fn name(&self) -> &'static str {
        match self {
            AssignPath::Counts(_) => "counts",
            AssignPath::Pairs(_) => "pairs",
            AssignPath::Values => "f64",
        }
    }
}

/// `true` when `labels` number their clusters `0, 1, 2, …` in order of
/// first appearance, as [`Clustering::from_labels`] leaves them.
fn is_first_appearance_order(labels: &[u32]) -> bool {
    let mut next = 0u32;
    labels.iter().all(|&l| {
        next += u32::from(l == next);
        l < next
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{AgglomerativeParams, BallsParams};
    use crate::cost::correlation_cost;
    use crate::instance::{ClusteringsOracle, DenseOracle};

    fn c(labels: &[u32]) -> Clustering {
        Clustering::from_labels(labels.to_vec())
    }

    /// A consensus instance with three clear blocks of 20 nodes each and
    /// slight disagreement between inputs.
    fn blocks_instance() -> (Vec<Clustering>, DenseOracle) {
        let n = 60;
        let truth: Vec<u32> = (0..n).map(|v| (v / 20) as u32).collect();
        let mut inputs = Vec::new();
        for shift in 0..4u32 {
            // Perturb: each input misplaces two nodes deterministically.
            let mut labels = truth.clone();
            let a = (shift as usize * 7) % n;
            let b = (shift as usize * 13 + 20) % n;
            labels[a] = (labels[a] + 1) % 3;
            labels[b] = (labels[b] + 2) % 3;
            inputs.push(c(&labels));
        }
        let oracle = DenseOracle::from_clusterings(&inputs);
        (inputs, oracle)
    }

    #[test]
    fn sample_size_resolution() {
        assert_eq!(SampleSize::Absolute(10).resolve(5), 5);
        assert_eq!(SampleSize::Absolute(10).resolve(100), 10);
        let s = SampleSize::LogFactor(3.0).resolve(1000);
        assert!(
            s >= (3.0 * 1000f64.ln()) as usize && s <= 1 + (3.0 * 1000f64.ln()).ceil() as usize
        );
        assert_eq!(SampleSize::LogFactor(100.0).resolve(10), 10);
        assert_eq!(SampleSize::LogFactor(3.0).resolve(0), 0);
    }

    #[test]
    fn recovers_block_structure_with_modest_sample() {
        let (_, oracle) = blocks_instance();
        let params = SamplingParams::new(
            20,
            Algorithm::Agglomerative(AgglomerativeParams::default()),
            42,
        );
        let result = sampling(&oracle, &params);
        // The three big blocks must be recovered as the dominant clusters.
        let truth = c(&(0..60).map(|v| (v / 20) as u32).collect::<Vec<_>>());
        let d = crate::distance::disagreement_distance(&result, &truth);
        // 60 nodes → 1770 pairs; allow a small number of stragglers.
        assert!(d < 120, "disagreement {d} too high");
    }

    #[test]
    fn full_sample_matches_base_algorithm() {
        let (_, oracle) = blocks_instance();
        let base = Algorithm::Balls(BallsParams::default());
        let params = SamplingParams {
            size: SampleSize::Absolute(60),
            base: base.clone(),
            seed: 7,
            recluster_singletons: true,
        };
        let via_sampling = sampling(&oracle, &params);
        let direct = base.run(&oracle);
        assert_eq!(via_sampling, direct);
    }

    #[test]
    fn deterministic_given_seed() {
        let (_, oracle) = blocks_instance();
        let params = SamplingParams::new(
            15,
            Algorithm::Agglomerative(AgglomerativeParams::default()),
            123,
        );
        assert_eq!(sampling(&oracle, &params), sampling(&oracle, &params));
    }

    #[test]
    fn works_on_lazy_oracle() {
        let (inputs, dense) = blocks_instance();
        let lazy = ClusteringsOracle::from_total(&inputs);
        let params = SamplingParams::new(
            20,
            Algorithm::Agglomerative(AgglomerativeParams::default()),
            42,
        );
        assert_eq!(sampling(&lazy, &params), sampling(&dense, &params));
    }

    #[test]
    fn recluster_pass_reduces_or_keeps_cost() {
        let (_, oracle) = blocks_instance();
        let mut params = SamplingParams::new(
            8,
            Algorithm::Agglomerative(AgglomerativeParams::default()),
            5,
        );
        params.recluster_singletons = false;
        let without = sampling(&oracle, &params);
        params.recluster_singletons = true;
        let with = sampling(&oracle, &params);
        assert!(correlation_cost(&oracle, &with) <= correlation_cost(&oracle, &without) + 1e-9);
    }

    #[test]
    fn details_are_consistent() {
        let (_, oracle) = blocks_instance();
        let params = SamplingParams::new(
            20,
            Algorithm::Agglomerative(AgglomerativeParams::default()),
            42,
        );
        let details = sampling_with_details(&oracle, &params);
        assert_eq!(details.sample.len(), 20);
        assert!(details.sample_clusters >= 1);
        assert_eq!(details.clustering.len(), 60);
    }

    #[test]
    fn every_non_sampled_node_follows_the_cluster_assigner() {
        // With the re-aggregation pass off, phase 3's decision is the final
        // word: a node joins the sample cluster the assigner picks, or
        // stays a singleton when the assigner says so.
        let (_, oracle) = blocks_instance();
        let mut params = SamplingParams::new(12, Algorithm::Balls(BallsParams::default()), 3);
        params.recluster_singletons = false;
        let details = sampling_with_details(&oracle, &params);
        let out = &details.clustering;
        let assigner = ClusterAssigner::new(out.restrict(&details.sample));
        let sizes = out.cluster_sizes();
        let mut joined = 0;
        for v in (0..60).filter(|v| !details.sample.contains(v)) {
            match assigner.assign(|si| oracle.dist(v, details.sample[si])) {
                Some(cluster) => {
                    let member = (0..details.sample.len())
                        .find(|&si| assigner.reference().label(si) == cluster)
                        .unwrap();
                    assert_eq!(out.label(v), out.label(details.sample[member]), "node {v}");
                    joined += 1;
                }
                None => assert_eq!(sizes[out.label(v) as usize], 1, "node {v}"),
            }
        }
        assert!(joined > 0);
    }

    #[test]
    fn empty_instance() {
        let oracle = DenseOracle::from_fn(0, |_, _| 0.0);
        let params = SamplingParams::new(
            5,
            Algorithm::Agglomerative(AgglomerativeParams::default()),
            1,
        );
        assert_eq!(sampling(&oracle, &params).len(), 0);
    }

    #[test]
    fn budgeted_unlimited_matches_unbudgeted() {
        let (_, oracle) = blocks_instance();
        let params = SamplingParams::new(
            20,
            Algorithm::Agglomerative(AgglomerativeParams::default()),
            42,
        );
        let outcome =
            sampling_budgeted(&oracle, &params, &crate::robust::RunBudget::unlimited()).unwrap();
        assert!(outcome.status.is_converged());
        assert_eq!(outcome.clustering, sampling(&oracle, &params));
    }

    #[test]
    fn interrupt_and_resume_matches_uninterrupted() {
        use crate::snapshot::{load_snapshot, SnapshotLoad};

        let (_, oracle) = blocks_instance();
        let params = SamplingParams::new(
            20,
            Algorithm::Agglomerative(AgglomerativeParams::default()),
            42,
        );
        let full = sampling_resumable(
            &oracle,
            &params,
            &crate::robust::RunBudget::unlimited(),
            None,
            None,
        )
        .unwrap()
        .clustering;

        let dir = std::env::temp_dir().join("aggclust_sampling_resume_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("ckpt.bin");
        // Caps past phase 2's convergence (19 merges on the sample of 20)
        // that trip mid-assignment over the 40 non-sample nodes.
        for cap in [20u64, 25, 40, 59] {
            let tight = crate::robust::RunBudget::unlimited().with_max_iters(cap);
            let mut ckpt = Checkpointer::new(&path, Duration::ZERO);
            let partial =
                sampling_resumable(&oracle, &params, &tight, None, Some(&mut ckpt)).unwrap();
            if partial.status.is_converged() {
                assert_eq!(partial.clustering, full);
                continue;
            }
            let snap = match load_snapshot(&path) {
                SnapshotLoad::Loaded(s) => s,
                other => panic!("cap {cap}: expected snapshot, got {other:?}"),
            };
            let AlgorithmSnapshot::Sampling(sm) = snap.state else {
                panic!("cap {cap}: wrong snapshot variant");
            };
            let resumed = sampling_resumable(
                &oracle,
                &params,
                &crate::robust::RunBudget::unlimited(),
                Some(&sm),
                None,
            )
            .unwrap();
            assert_eq!(resumed.clustering, full, "cap {cap}: resumed labels differ");
            assert!(resumed.status.is_converged());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_snapshot_is_ignored() {
        let (_, oracle) = blocks_instance();
        let params = SamplingParams::new(
            20,
            Algorithm::Agglomerative(AgglomerativeParams::default()),
            42,
        );
        let stale = SamplingSnapshot {
            n: 999,
            sample: vec![0, 5],
            sample_labels: vec![0, 1],
            labels: vec![u32::MAX; 999],
            next_node: 7,
            iterations: 3,
        };
        // Right size, but sample labels out of first-appearance order.
        let unordered = SamplingSnapshot {
            n: 60,
            sample_labels: vec![1, 0],
            labels: vec![u32::MAX; 60],
            ..stale.clone()
        };
        for snapshot in [stale, unordered] {
            let outcome = sampling_resumable(
                &oracle,
                &params,
                &crate::robust::RunBudget::unlimited(),
                Some(&snapshot),
                None,
            )
            .unwrap();
            assert_eq!(outcome.clustering, sampling(&oracle, &params));
        }
    }

    #[test]
    fn first_appearance_order() {
        assert!(is_first_appearance_order(&[]));
        assert!(is_first_appearance_order(&[0, 0, 1, 0, 2, 1]));
        assert!(!is_first_appearance_order(&[1, 0]));
        assert!(!is_first_appearance_order(&[0, 2, 1]));
    }

    #[test]
    fn budget_trip_still_covers_every_node() {
        let (_, oracle) = blocks_instance();
        let params = SamplingParams::new(
            20,
            Algorithm::Agglomerative(AgglomerativeParams::default()),
            42,
        );
        for cap in [0u64, 3, 25] {
            let budget = crate::robust::RunBudget::unlimited().with_max_iters(cap);
            let outcome = sampling_budgeted(&oracle, &params, &budget).unwrap();
            assert_eq!(outcome.clustering.len(), 60, "cap {cap}");
        }
    }
}
