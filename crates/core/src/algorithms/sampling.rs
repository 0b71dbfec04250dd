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
//!    bookkeeping as LOCALSEARCH. Because small clusters may be missed by
//!    the sample, all singletons are then collected and aggregated once
//!    more among themselves.

use super::Algorithm;
use crate::clustering::Clustering;
use crate::error::AggResult;
use crate::instance::DistanceOracle;
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
/// the per-node assignment loop ticks once per node (each an `O(s)` scan).
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

    let s = sample.len();
    let ell = sample_labels
        .iter()
        .map(|&l| l as usize + 1)
        .max()
        .unwrap_or(0);
    let mut cluster_sizes = vec![0usize; ell];
    for &l in &sample_labels {
        cluster_sizes[l as usize] += 1;
    }

    // Phase 3: assign every non-sampled node to the cheapest sample cluster
    // or to a fresh singleton. Fresh singleton labels are handed out in
    // node order, so the resumed `next_label` is recoverable from the
    // assignments already made.
    let t1 = Instant::now();
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
    let mut m_sums = vec![0.0f64; ell];
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
        m_sums.iter_mut().for_each(|x| *x = 0.0);
        let mut t_sum = 0.0;
        for (si, &u) in sample.iter().enumerate() {
            let x = oracle.dist(v, u);
            m_sums[sample_labels[si] as usize] += x;
            t_sum += x;
        }
        // cost(join C_i) = M_i + Σ_{j≠i}(|C_j| − M_j)
        //               = 2·M_i − T + s − |C_i|;   cost(singleton) = s − T.
        let mut best = f64::INFINITY;
        let mut best_i = usize::MAX;
        for i in 0..ell {
            let c = 2.0 * m_sums[i] - t_sum + s as f64 - cluster_sizes[i] as f64;
            if c < best {
                best = c;
                best_i = i;
            }
        }
        let singleton_cost = s as f64 - t_sum;
        if best_i == usize::MAX || singleton_cost < best {
            labels[v] = next_label;
            next_label += 1;
        } else {
            labels[v] = best_i as u32;
        }
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
        let outcome = sampling_resumable(
            &oracle,
            &params,
            &crate::robust::RunBudget::unlimited(),
            Some(&stale),
            None,
        )
        .unwrap();
        assert_eq!(outcome.clustering, sampling(&oracle, &params));
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
