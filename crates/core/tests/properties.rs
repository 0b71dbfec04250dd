//! Property-based tests for the core invariants of clustering aggregation.

use aggclust_core::algorithms::sampling::{sampling, SamplingParams};
use aggclust_core::algorithms::{
    best::best_clustering, AgglomerativeParams, Algorithm, AnnealingParams, BallsParams,
    FurthestParams, LocalSearchInit, LocalSearchParams, PivotParams,
};
use aggclust_core::clustering::{Clustering, PartialClustering};
use aggclust_core::cost::{correlation_cost, cost_and_bound, exact_cost, lower_bound};
use aggclust_core::distance::{
    disagreement_distance, disagreement_distance_naive, total_disagreement,
};
use aggclust_core::exact::optimal_clustering;
use aggclust_core::instance::{CorrelationInstance, DenseOracle, DistanceOracle, MissingPolicy};
use aggclust_core::linkage::{linkage, CondensedMatrix, Dendrogram, LinkageMethod};
use aggclust_core::parallel::with_num_threads;
use aggclust_core::robust::CancelToken;
use aggclust_core::snapshot::{load_snapshot, AlgorithmSnapshot, Checkpointer, SnapshotLoad};
use aggclust_core::{ConsensusBuilder, RunBudget, RunCtx, RunStatus};
use proptest::prelude::*;
use std::time::Duration;

/// `algorithm` on `oracle` under an unlimited budget.
fn run<O: DistanceOracle + Sync>(algorithm: &Algorithm, oracle: &O) -> Clustering {
    algorithm
        .run(oracle, &mut RunCtx::new(&RunBudget::unlimited()))
        .unwrap()
        .clustering
}

/// Strategy: a clustering of `n` objects with at most `kmax` clusters.
fn clustering_strategy(n: usize, kmax: u32) -> impl Strategy<Value = Clustering> {
    prop::collection::vec(0..kmax, n).prop_map(Clustering::from_labels)
}

/// Strategy: a set of `m` clusterings over the same `n` objects.
fn clusterings_strategy(
    n: usize,
    m: std::ops::Range<usize>,
    kmax: u32,
) -> impl Strategy<Value = Vec<Clustering>> {
    prop::collection::vec(clustering_strategy(n, kmax), m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn contingency_distance_matches_naive(
        (a, b) in (2usize..20).prop_flat_map(|n| {
            (clustering_strategy(n, 5), clustering_strategy(n, 5))
        })
    ) {
        prop_assert_eq!(
            disagreement_distance(&a, &b),
            disagreement_distance_naive(&a, &b)
        );
    }

    #[test]
    fn disagreement_distance_is_a_metric(
        (a, b, c) in (2usize..14).prop_flat_map(|n| {
            (
                clustering_strategy(n, 4),
                clustering_strategy(n, 4),
                clustering_strategy(n, 4),
            )
        })
    ) {
        // Identity of indiscernibles (one direction), symmetry, triangle.
        prop_assert_eq!(disagreement_distance(&a, &a), 0);
        prop_assert_eq!(disagreement_distance(&a, &b), disagreement_distance(&b, &a));
        prop_assert!(
            disagreement_distance(&a, &c)
                <= disagreement_distance(&a, &b) + disagreement_distance(&b, &c)
        );
    }

    #[test]
    fn xuv_satisfies_triangle_inequality(
        inputs in (3usize..10).prop_flat_map(|n| clusterings_strategy(n, 1..6, 4))
    ) {
        let oracle = DenseOracle::from_clusterings(&inputs);
        let n = oracle.len();
        for u in 0..n {
            for v in 0..n {
                for w in 0..n {
                    prop_assert!(
                        oracle.dist(u, w) <= oracle.dist(u, v) + oracle.dist(v, w) + 1e-9
                    );
                }
            }
        }
    }

    #[test]
    fn aggregation_cost_is_m_times_correlation_cost(
        (inputs, candidate) in (3usize..12).prop_flat_map(|n| {
            (clusterings_strategy(n, 1..5, 4), clustering_strategy(n, 4))
        })
    ) {
        let oracle = DenseOracle::from_clusterings(&inputs);
        let d = total_disagreement(&inputs, &candidate) as f64;
        let m_dc = inputs.len() as f64 * correlation_cost(&oracle, &candidate);
        prop_assert!((d - m_dc).abs() < 1e-6, "D = {}, m·d(C) = {}", d, m_dc);
    }

    #[test]
    fn lower_bound_is_below_the_exact_optimum(
        inputs in (2usize..8).prop_flat_map(|n| clusterings_strategy(n, 1..5, 3))
    ) {
        let oracle = DenseOracle::from_clusterings(&inputs);
        let opt = optimal_clustering(&oracle);
        prop_assert!(lower_bound(&oracle) <= opt.cost + 1e-9);
    }

    #[test]
    fn best_clustering_respects_its_guarantee(
        inputs in (2usize..8).prop_flat_map(|n| clusterings_strategy(n, 2..6, 3))
    ) {
        // D(best input) ≤ 2(1 − 1/m) · D(optimum).
        let m = inputs.len() as f64;
        let best = best_clustering(&inputs);
        let oracle = DenseOracle::from_clusterings(&inputs);
        let opt_cost = optimal_clustering(&oracle).cost * m; // D-scale
        let ratio_bound = 2.0 * (1.0 - 1.0 / m);
        prop_assert!(
            best.cost as f64 <= ratio_bound * opt_cost + 1e-6,
            "best {} vs bound {} (opt {})",
            best.cost,
            ratio_bound * opt_cost,
            opt_cost
        );
    }

    #[test]
    fn algorithms_never_beat_the_exact_optimum(
        inputs in (2usize..8).prop_flat_map(|n| clusterings_strategy(n, 1..5, 3))
    ) {
        let oracle = DenseOracle::from_clusterings(&inputs);
        let opt = optimal_clustering(&oracle);
        let candidates = [
            run(&Algorithm::Balls(BallsParams::default()), &oracle),
            run(&Algorithm::Agglomerative(AgglomerativeParams::default()), &oracle),
            run(&Algorithm::Furthest(FurthestParams::default()), &oracle),
        ];
        for c in &candidates {
            let cost = correlation_cost(&oracle, c);
            prop_assert!(cost >= opt.cost - 1e-9, "cost {} below optimum {}", cost, opt.cost);
        }
    }

    #[test]
    fn local_search_never_increases_cost(
        (inputs, start) in (2usize..10).prop_flat_map(|n| {
            (clusterings_strategy(n, 1..5, 4), clustering_strategy(n, 4))
        })
    ) {
        let oracle = DenseOracle::from_clusterings(&inputs);
        let refine = Algorithm::LocalSearch(LocalSearchParams {
            init: LocalSearchInit::Given(start.clone()),
            max_passes: 50,
        });
        let refined = run(&refine, &oracle);
        prop_assert!(
            correlation_cost(&oracle, &refined) <= correlation_cost(&oracle, &start) + 1e-9
        );
    }

    #[test]
    fn local_search_result_is_a_local_optimum(
        inputs in (2usize..8).prop_flat_map(|n| clusterings_strategy(n, 2..5, 3))
    ) {
        // After convergence, no single-node move can improve the cost.
        let oracle = DenseOracle::from_clusterings(&inputs);
        let result = run(&Algorithm::LocalSearch(LocalSearchParams::default()), &oracle);
        let base_cost = correlation_cost(&oracle, &result);
        let n = oracle.len();
        let k = result.num_clusters();
        for v in 0..n {
            // Try moving v to every other cluster and to a fresh singleton.
            for target in 0..=k {
                let mut labels = result.labels().to_vec();
                if target == result.label(v) as usize {
                    continue;
                }
                labels[v] = target as u32;
                let moved = Clustering::from_labels(labels);
                prop_assert!(
                    correlation_cost(&oracle, &moved) >= base_cost - 1e-6,
                    "move of {} to {} improves cost", v, target
                );
            }
        }
    }

    #[test]
    fn relabeling_invariance(
        (labels, perm_seed) in (2usize..15).prop_flat_map(|n| {
            (prop::collection::vec(0u32..6, n), any::<u64>())
        })
    ) {
        // Applying any injective relabeling yields an equal Clustering.
        let c1 = Clustering::from_labels(labels.clone());
        let shift = (perm_seed % 100) as u32;
        let relabeled: Vec<u32> = labels.iter().map(|&l| (l * 7 + shift) % 1000 + 1000).collect();
        let c2 = Clustering::from_labels(relabeled);
        prop_assert_eq!(c1, c2);
    }

    #[test]
    fn restrict_preserves_co_membership(
        labels in prop::collection::vec(0u32..4, 4..20)
    ) {
        let c = Clustering::from_labels(labels);
        let n = c.len();
        let subset: Vec<usize> = (0..n).step_by(2).collect();
        let r = c.restrict(&subset);
        for (i, &u) in subset.iter().enumerate() {
            for (j, &v) in subset.iter().enumerate() {
                prop_assert_eq!(r.same_cluster(i, j), c.same_cluster(u, v));
            }
        }
    }

    #[test]
    fn agglomerative_clusters_have_average_distance_at_most_half(
        inputs in (3usize..12).prop_flat_map(|n| clusterings_strategy(n, 2..6, 4))
    ) {
        let oracle = DenseOracle::from_clusterings(&inputs);
        let result = run(&Algorithm::Agglomerative(AgglomerativeParams::default()), &oracle);
        for members in result.clusters() {
            if members.len() < 2 { continue; }
            let mut total = 0.0;
            let mut pairs = 0;
            for (i, &u) in members.iter().enumerate() {
                for &v in &members[i + 1..] {
                    total += oracle.dist(u, v);
                    pairs += 1;
                }
            }
            prop_assert!(total / pairs as f64 <= 0.5 + 1e-9);
        }
    }

    #[test]
    fn balls_theoretical_alpha_is_within_3x_of_optimum(
        inputs in (2usize..8).prop_flat_map(|n| clusterings_strategy(n, 2..6, 3))
    ) {
        // Theorem 1: cost(BALLS, α=¼) ≤ 3 · OPT. The proof requires the
        // triangle inequality, which instances from clusterings satisfy.
        let oracle = DenseOracle::from_clusterings(&inputs);
        let opt = optimal_clustering(&oracle);
        let result = run(&Algorithm::Balls(BallsParams::theoretical()), &oracle);
        let cost = correlation_cost(&oracle, &result);
        prop_assert!(
            cost <= 3.0 * opt.cost + 1e-6,
            "BALLS cost {} vs 3·OPT {}",
            cost,
            3.0 * opt.cost
        );
    }
}

/// The LOCALSEARCH descent as it ran before its candidate scan was
/// compacted: every cluster id ever used is a slot, empty ones skipped by
/// a branch, sizes kept as `usize`, fresh singletons appended. The
/// equivalence tests below hold the library to its labels.
fn slot_walk_local_search<O: DistanceOracle + ?Sized>(
    oracle: &O,
    start: &[u32],
    max_passes: usize,
) -> Clustering {
    const EPSILON: f64 = 1e-9;
    let n = oracle.len();
    let mut labels = start.to_vec();
    if n <= 1 {
        return Clustering::from_labels(labels);
    }
    let mut sizes = vec![0usize; labels.iter().max().map_or(0, |&l| l as usize + 1)];
    for &l in &labels {
        sizes[l as usize] += 1;
    }
    let mut m_sums: Vec<f64> = Vec::new();
    for _ in 0..max_passes {
        let mut moved = false;
        for v in 0..n {
            let k = sizes.len();
            m_sums.clear();
            m_sums.resize(k, 0.0);
            let t_v = oracle.accumulate_row(v, &labels, &mut m_sums);
            let cur = labels[v] as usize;
            let others = (n - 1) as f64;
            let move_cost = |i: usize, sizes: &[usize]| {
                let size_wo_v = sizes[i] - usize::from(i == cur);
                2.0 * m_sums[i] - t_v + others - size_wo_v as f64
            };
            let singleton_cost = others - t_v;
            let (mut best_i, mut best_cost) = (usize::MAX, singleton_cost);
            for i in 0..k {
                if sizes[i] == 0 && i != cur {
                    continue;
                }
                let c = move_cost(i, &sizes);
                if c < best_cost {
                    best_cost = c;
                    best_i = i;
                }
            }
            let cur_cost = move_cost(cur, &sizes);
            if best_cost < cur_cost - EPSILON && best_i != cur {
                sizes[cur] -= 1;
                let target = if best_i == usize::MAX {
                    sizes.push(0);
                    sizes.len() - 1
                } else {
                    best_i
                };
                sizes[target] += 1;
                labels[v] = target as u32;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    Clustering::from_labels(labels)
}

/// The start labels `init` gives LOCALSEARCH: a zero-pass run returns them
/// (normalized, as every start is).
fn start_labels<O: DistanceOracle + Sync>(oracle: &O, init: &LocalSearchInit) -> Vec<u32> {
    let params = LocalSearchParams {
        init: init.clone(),
        max_passes: 0,
    };
    run(&Algorithm::LocalSearch(params), oracle)
        .labels()
        .to_vec()
}

/// LOCALSEARCH from `init` labels `oracle` exactly as the slot walk does,
/// at 1 and 2 threads.
fn assert_matches_the_slot_walk<O: DistanceOracle + Sync>(
    oracle: &O,
    init: &LocalSearchInit,
    at: &str,
) {
    let expected = slot_walk_local_search(oracle, &start_labels(oracle, init), 200);
    for threads in [1, 2] {
        let params = LocalSearchParams {
            init: init.clone(),
            max_passes: 200,
        };
        let got = with_num_threads(threads, || run(&Algorithm::LocalSearch(params), oracle));
        assert_eq!(got, expected, "{at} at {threads} threads");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Compacting cluster ids and the branch-free candidate scan change no
    /// decision: the coded dense, `from_fn` and lazy oracles, from
    /// singletons, a random start and a given start, all give the slot
    /// walk's labels. The `from_fn` distances are multiples of 1/6, so
    /// candidate costs tie often and the first-slot tie-break is exercised.
    #[test]
    fn local_search_matches_the_full_slot_walk(
        (inputs, given, coarse, seed) in (2usize..70).prop_flat_map(|n| {
            (
                clusterings_strategy(n, 2..6, 5),
                clustering_strategy(n, 4),
                prop::collection::vec(0u32..7, n * n),
                any::<u64>(),
            )
        })
    ) {
        let n = given.len();
        let dense = DenseOracle::from_clusterings(&inputs);
        let from_fn = DenseOracle::from_fn(n, |u, v| f64::from(coarse[u * n + v]) / 6.0);
        let lazy = CorrelationInstance::from_clusterings(&inputs);
        let inits = [
            LocalSearchInit::Singletons,
            LocalSearchInit::Random { k: 3, seed },
            LocalSearchInit::Given(given),
        ];
        for init in &inits {
            assert_matches_the_slot_walk(&dense, init, &format!("coded dense, {init:?}"));
            assert_matches_the_slot_walk(&from_fn, init, &format!("from_fn, {init:?}"));
            assert_matches_the_slot_walk(&lazy, init, &format!("lazy, {init:?}"));
        }
    }
}

#[test]
fn local_search_resumed_just_after_a_compaction_matches_the_uninterrupted_run() {
    // 60 objects in 6 planted blocks, two noisy inputs: from singletons the
    // first pass merges most slots away, so ids are compacted several
    // times. A snapshot whose largest label is below the previous one's
    // was taken right after a compaction.
    let n = 60;
    let inputs: Vec<Clustering> = (0..3)
        .map(|i| {
            Clustering::from_labels(
                (0..n)
                    .map(|v| ((v / 10 + usize::from(v % (7 + i) == 0)) % 6) as u32)
                    .collect(),
            )
        })
        .collect();
    let oracle = DenseOracle::from_clusterings(&inputs);
    let params = LocalSearchParams::default();
    let ctx_run = |budget: &RunBudget,
                   resume: Option<&AlgorithmSnapshot>,
                   ckpt: Option<&mut Checkpointer>| {
        Algorithm::LocalSearch(params.clone())
            .run(
                &oracle,
                &mut RunCtx {
                    budget,
                    resume,
                    ckpt,
                },
            )
            .unwrap()
    };
    let full = ctx_run(&RunBudget::unlimited(), None, None);
    assert_eq!(
        full.clustering,
        slot_walk_local_search(&oracle, &start_labels(&oracle, &params.init), 200)
    );
    let dir = std::env::temp_dir().join(format!("aggclust_ls_compaction_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ckpt.bin");
    let mut previous_slots = n as u32;
    let mut after_compaction = 0;
    for cap in 1..full.iterations {
        // Only the final checkpoint at the interrupt is written.
        let mut ckpt = Checkpointer::new(&path, Duration::from_secs(3600));
        let budget = RunBudget::unlimited().with_max_iters(cap);
        let partial = ctx_run(&budget, None, Some(&mut ckpt));
        assert_eq!(partial.status, RunStatus::BudgetExceeded, "cap {cap}");
        let SnapshotLoad::Loaded(snap) = load_snapshot(&path) else {
            panic!("cap {cap}: no snapshot");
        };
        let AlgorithmSnapshot::LocalSearch(ls) = &snap.state else {
            panic!("cap {cap}: wrong snapshot variant");
        };
        let slots = ls.labels.iter().max().map_or(0, |&l| l + 1);
        if slots < previous_slots {
            after_compaction += 1;
            let resumed = ctx_run(&RunBudget::unlimited(), Some(&snap.state), None);
            assert_eq!(resumed.clustering, full.clustering, "cap {cap}");
            assert_eq!(resumed.iterations, full.iterations, "cap {cap}");
        }
        previous_slots = slots;
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(after_compaction > 0, "no snapshot followed a compaction");
}

/// The inputs of one AGGLOMERATIVE equivalence case: `labels` as total
/// inputs (a missing label read as cluster 0) under `Coin(½)` for `kind`
/// 0, as partial inputs under `Coin(½)` for 1 and under `Ignore` for 2.
fn agglomerative_case(
    labels: &[Vec<Option<u32>>],
    kind: u8,
) -> (Vec<PartialClustering>, MissingPolicy) {
    let inputs = labels
        .iter()
        .map(|column| match kind {
            0 => column.iter().map(|l| Some(l.unwrap_or(0))).collect(),
            _ => column.clone(),
        })
        .map(PartialClustering::from_labels)
        .collect();
    let policy = match kind {
        2 => MissingPolicy::Ignore,
        _ => MissingPolicy::Coin(0.5),
    };
    (inputs, policy)
}

/// Every merge of `dendrogram` with its height's bits.
fn merges_with_bits(dendrogram: &Dendrogram) -> Vec<(usize, usize, u64, usize)> {
    dendrogram
        .merges()
        .iter()
        .map(|m| (m.a, m.b, m.height.to_bits(), m.size))
        .collect()
}

/// AGGLOMERATIVE from the lazy oracle's triangle (filled straight from the
/// packed labels, as the consensus pipeline runs it) against the run on
/// the copy of the dense codes: the same merges, height bits included, the
/// same labels from the threshold cut and the `num_clusters` cut at 1 and
/// 2 threads, and, after a budget trip mid-merge and a resume from its
/// snapshot, the same labels again.
fn assert_lazy_agglomerative_matches_dense(
    inputs: Vec<PartialClustering>,
    policy: MissingPolicy,
    k: usize,
    what: &str,
) {
    let lazy = CorrelationInstance::from_partial(inputs, policy);
    let dense = lazy.dense_oracle();
    let n = lazy.len();
    for threads in [1, 2] {
        let [from_lazy, from_dense] = [
            CondensedMatrix::from_oracle(&lazy),
            CondensedMatrix::from_oracle(&dense),
        ]
        .map(|matrix| with_num_threads(threads, || linkage(matrix, LinkageMethod::Average)));
        assert_eq!(
            merges_with_bits(&from_lazy),
            merges_with_bits(&from_dense),
            "{what}: merges at {threads} threads"
        );
    }
    // One directory per call: the tests calling this run concurrently.
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("aggclust_agglo_lazy_{}_{call}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ckpt.bin");
    for params in [
        AgglomerativeParams::paper(),
        AgglomerativeParams::with_num_clusters(k),
    ] {
        let algorithm = Algorithm::Agglomerative(params);
        let reference = run(&algorithm, &dense);
        for threads in [1, 2] {
            let labels = with_num_threads(threads, || run(&algorithm, &lazy));
            assert_eq!(labels, reference, "{what}: {params:?} at {threads} threads");
        }
        // Half the merges, then the cap trips and a snapshot is forced.
        let cap = (n as u64 - 1) / 2;
        let mut ckpt = Checkpointer::new(&path, Duration::from_secs(3600));
        let budget = RunBudget::unlimited().with_max_iters(cap);
        let ctx = &mut RunCtx {
            budget: &budget,
            resume: None,
            ckpt: Some(&mut ckpt),
        };
        let partial = algorithm.run(&lazy, ctx).unwrap();
        assert_eq!(partial.status, RunStatus::BudgetExceeded, "{what}");
        let SnapshotLoad::Loaded(snap) = load_snapshot(&path) else {
            panic!("{what}: no snapshot after the trip");
        };
        let unlimited = RunBudget::unlimited();
        let resumed = algorithm
            .run(
                &lazy,
                &mut RunCtx {
                    budget: &unlimited,
                    resume: Some(&snap.state),
                    ckpt: None,
                },
            )
            .unwrap();
        assert_eq!(resumed.clustering, reference, "{what}: {params:?} resumed");
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The consensus pipeline's AGGLOMERATIVE result, priced from its
/// triangle's fill and its merges (or, without an exact scale, by the pair
/// passes on the lazy oracle), against the dense pricing of the same
/// labels: the cost, the lower bound and `E_D` agree bit for bit. For total
/// inputs `try_aggregate` keeps that exact count as `D(C)`.
fn assert_agglomerative_prices_like_the_dense_matrix(
    inputs: Vec<PartialClustering>,
    policy: MissingPolicy,
    k: usize,
    what: &str,
) {
    let m = inputs.len();
    let instance = CorrelationInstance::from_partial(inputs.clone(), policy);
    let dense = instance.dense_oracle();
    for params in [
        AgglomerativeParams::paper(),
        AgglomerativeParams::with_num_clusters(k),
    ] {
        let algorithm = Algorithm::Agglomerative(params);
        let builder = ConsensusBuilder::new()
            .algorithm(algorithm.clone())
            .missing_policy(policy)
            .refine(false);
        let result = builder.try_aggregate_partial(inputs.clone()).unwrap();
        let labels = run(&algorithm, &dense);
        assert_eq!(result.clustering, labels, "{what}: {params:?}");
        let cost = correlation_cost(&dense, &labels);
        assert_eq!(result.cost.to_bits(), cost.to_bits(), "{what}: {params:?}");
        assert_eq!(
            result.lower_bound.map(f64::to_bits),
            Some(lower_bound(&dense).to_bits()),
            "{what}: {params:?}"
        );
        let disagreements = match exact_cost(&dense, &labels) {
            Some(exact) => exact.disagreements(m),
            None => (cost * m as f64).round() as u64,
        };
        assert_eq!(result.disagreements, disagreements, "{what}: {params:?}");
        if inputs.iter().all(|c| c.num_missing() == 0) {
            let totals: Vec<Clustering> = inputs
                .iter()
                .map(|c| Clustering::from_labels(c.labels().iter().flatten().copied().collect()))
                .collect();
            for refine in [false, true] {
                let result = builder
                    .clone()
                    .refine(refine)
                    .try_aggregate(&totals)
                    .unwrap();
                assert_eq!(
                    result.disagreements,
                    total_disagreement(&totals, &result.clustering),
                    "{what}: {params:?}, refine {refine}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn agglomerative_from_the_lazy_triangle_equals_the_dense_copied_run(
        (labels, kind, k) in (2usize..40).prop_flat_map(|n| {
            (
                prop::collection::vec(
                    prop::collection::vec(prop::option::weighted(0.8, 0u32..5), n),
                    2..6,
                ),
                0u8..3,
                1..=n,
            )
        })
    ) {
        let (inputs, policy) = agglomerative_case(&labels, kind);
        let what = format!("kind {kind}");
        assert_lazy_agglomerative_matches_dense(inputs.clone(), policy, k, &what);
        assert_agglomerative_prices_like_the_dense_matrix(inputs, policy, k, &what);
    }
}

/// [`assert_lazy_agglomerative_matches_dense`] and
/// [`assert_agglomerative_prices_like_the_dense_matrix`] at n = 400, where
/// the fill splits into several chunk jobs, so 2 threads fill in parallel.
#[test]
fn agglomerative_from_the_lazy_triangle_equals_the_dense_copied_run_over_many_jobs() {
    let n = 400;
    let labels: Vec<Vec<Option<u32>>> = (0..5u32)
        .map(|j| {
            (0..n as u32)
                .map(|v| {
                    let label = (v % 9 + u32::from(v % (5 + j) == 0)) % 9;
                    (v % (7 + j) != 3).then_some(label)
                })
                .collect()
        })
        .collect();
    for kind in 0..3 {
        let (inputs, policy) = agglomerative_case(&labels, kind);
        let what = format!("n = {n}, kind {kind}");
        assert_lazy_agglomerative_matches_dense(inputs.clone(), policy, 9, &what);
        assert_agglomerative_prices_like_the_dense_matrix(inputs, policy, 9, &what);
    }
}

/// The bits of every price `oracle` gives `c`: the exact cost's value,
/// `correlation_cost`, `lower_bound` and `cost_and_bound`.
fn price_bits<O: DistanceOracle + Sync>(oracle: &O, c: &Clustering) -> [Option<u64>; 5] {
    let (cost, bound) = cost_and_bound(oracle, c);
    [
        exact_cost(oracle, c).map(|exact| exact.value().to_bits()),
        Some(correlation_cost(oracle, c).to_bits()),
        Some(lower_bound(oracle).to_bits()),
        Some(cost.to_bits()),
        Some(bound.to_bits()),
    ]
}

/// One price on every oracle of the same inputs: the lazy oracle, its dense
/// matrix, and a restriction of either to `subset` against the subset's
/// own lazy oracle and its dense matrix. Each prices exactly, with the same
/// bits; the lazy oracle streams the totals its dense fill counts.
fn assert_one_price(
    inputs: Vec<PartialClustering>,
    policy: MissingPolicy,
    c: &Clustering,
    subset: &[usize],
    what: &str,
) {
    let lazy = CorrelationInstance::from_partial(inputs.clone(), policy);
    let dense = lazy.to_dense();
    assert!(lazy.pair_totals().is_some(), "{what}");
    assert_eq!(lazy.pair_totals(), dense.pair_totals(), "{what}");
    let full = price_bits(&lazy, c);
    assert!(full[0].is_some(), "{what}: exact");
    assert_eq!(full[0], full[1], "{what}");
    assert_eq!(price_bits(&dense, c), full, "{what}: dense");
    let own_inputs: Vec<PartialClustering> = inputs
        .iter()
        .map(|input| {
            PartialClustering::from_labels(subset.iter().map(|&v| input.labels()[v]).collect())
        })
        .collect();
    let own = CorrelationInstance::from_partial(own_inputs, policy);
    let sub_c = c.restrict(subset);
    let expected = price_bits(&own, &sub_c);
    assert!(expected[0].is_some(), "{what}: exact subset");
    for (name, sub) in [
        ("own dense", own.to_dense()),
        ("lazy restricted", lazy.restrict(subset)),
        ("dense restricted", dense.restrict(subset)),
    ] {
        assert_eq!(price_bits(&sub, &sub_c), expected, "{what}: {name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_oracle_of_total_and_coin_inputs_prices_the_same_bits(
        (labels, kind, candidate, chosen) in (0usize..48).prop_flat_map(|n| {
            (
                prop::collection::vec(
                    prop::collection::vec(prop::option::weighted(0.8, 0u32..5), n),
                    1..7,
                ),
                0u8..2,
                clustering_strategy(n, 5),
                prop::collection::vec(any::<bool>(), n),
            )
        })
    ) {
        let (inputs, policy) = agglomerative_case(&labels, kind);
        // Renumbered in descending order, so the restriction reorders.
        let subset: Vec<usize> = (0..chosen.len()).rev().filter(|&v| chosen[v]).collect();
        for threads in [1, 2] {
            let what = format!("kind {kind}, {threads} threads");
            with_num_threads(threads, || {
                assert_one_price(inputs.clone(), policy, &candidate, &subset, &what)
            });
        }
    }
}

/// [`assert_one_price`] at n = 700, where the streaming totals pass and the
/// dense fill both split into many row jobs and column bands.
#[test]
fn every_oracle_prices_the_same_bits_over_many_jobs() {
    let n = 700;
    let labels: Vec<Vec<Option<u32>>> = (0..6u32)
        .map(|j| {
            (0..n as u32)
                .map(|v| {
                    let label = (v % 11 + u32::from(v % (3 + j) == 0)) % 11;
                    (v % (5 + j) != 2).then_some(label)
                })
                .collect()
        })
        .collect();
    let candidate = Clustering::from_labels((0..n as u32).map(|v| v % 11).collect());
    let subset: Vec<usize> = (0..n).filter(|v| v % 3 != 1).collect();
    for kind in 0..2 {
        let (inputs, policy) = agglomerative_case(&labels, kind);
        for threads in [1, 4] {
            let what = format!("n = {n}, kind {kind}, {threads} threads");
            with_num_threads(threads, || {
                assert_one_price(inputs.clone(), policy, &candidate, &subset, &what)
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The lazy oracle's row segments of distances hold `dist`'s bits,
    /// the diagonal's `0.0` included, under `Coin(½)` and `Ignore`.
    #[test]
    fn values_into_writes_the_bits_of_dist(
        (labels, kind) in (2usize..30).prop_flat_map(|n| {
            (
                prop::collection::vec(
                    prop::collection::vec(prop::option::weighted(0.8, 0u32..5), n),
                    2..6,
                ),
                0u8..3,
            )
        })
    ) {
        let (inputs, policy) = agglomerative_case(&labels, kind);
        let lazy = CorrelationInstance::from_partial(inputs, policy);
        let n = lazy.len();
        let mut out = vec![f64::NAN; n];
        for u in 0..n {
            for lo in 0..n {
                for hi in lo..=n {
                    let seg = &mut out[..hi - lo];
                    lazy.values_into(u, lo..hi, seg);
                    for (v, x) in (lo..hi).zip(seg.iter()) {
                        let want = lazy.dist(u, v).to_bits();
                        prop_assert_eq!(x.to_bits(), want, "kind {} ({}, {})", kind, u, v);
                    }
                }
            }
        }
    }
}

/// Every base algorithm SAMPLING takes, with parameters small enough for
/// a property test.
fn sampling_bases() -> Vec<Algorithm> {
    vec![
        Algorithm::Agglomerative(AgglomerativeParams::paper()),
        Algorithm::Balls(BallsParams::default()),
        Algorithm::Furthest(FurthestParams::default()),
        Algorithm::LocalSearch(LocalSearchParams::default()),
        Algorithm::Pivot(PivotParams::default()),
        Algorithm::Annealing(AnnealingParams {
            sweeps: 10,
            ..Default::default()
        }),
    ]
}

/// SAMPLING on the lazy instance, whose sub-runs read the subsets' packed
/// rows (AGGLOMERATIVE) or build the subsets' matrices under the budget
/// (every other base), against SAMPLING on the instance's dense matrix,
/// whose sub-runs restrict that matrix: the same labels, status, iteration
/// count and phase bookkeeping for every base at 1 and 2 threads, without
/// limits, with an iteration cap that trips inside the sample's sub-run,
/// under a memory cap that refuses the sample's matrix, and cancelled.
fn assert_lazy_sampling_matches_dense(
    inputs: Vec<PartialClustering>,
    policy: MissingPolicy,
    sample: usize,
    seed: u64,
    what: &str,
) {
    let lazy = CorrelationInstance::from_partial(inputs, policy);
    let dense = lazy.to_dense();
    let s = sample.min(lazy.len()) as u64;
    let cancel = CancelToken::new();
    cancel.cancel();
    let budgets = [
        RunBudget::unlimited(),
        RunBudget::unlimited().with_max_iters(s / 2),
        // Under the sample's `2s²` bytes of codes and their table, over
        // its `2s(s−1)`-byte `u32` triangle.
        RunBudget::unlimited().with_mem_limit_bytes(2 * s * s),
        RunBudget::unlimited().with_cancel_token(cancel),
    ];
    for base in sampling_bases() {
        let params = SamplingParams::new(sample, base.clone(), seed);
        for (b, budget) in budgets.iter().enumerate() {
            for threads in [1, 2] {
                let [from_lazy, from_dense] = with_num_threads(threads, || {
                    [
                        sampled_with(&lazy, &params, budget),
                        sampled_with(&dense, &params, budget),
                    ]
                });
                assert_eq!(
                    from_lazy,
                    from_dense,
                    "{what}: {} under budget {b} at {threads} threads",
                    base.name()
                );
            }
        }
    }
}

/// What a SAMPLING run decided: labels, status, iterations, sample
/// clusters and singletons before the recluster.
fn sampled_with<O: DistanceOracle + Sync>(
    oracle: &O,
    params: &SamplingParams,
    budget: &RunBudget,
) -> (Clustering, RunStatus, u64, usize, usize) {
    let d = sampling(oracle, params, &mut RunCtx::new(budget)).unwrap();
    (
        d.clustering,
        d.status,
        d.iterations,
        d.sample_clusters,
        d.singletons_before_recluster,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sampling_on_the_lazy_instance_equals_sampling_on_its_dense_matrix(
        (labels, kind, sample, seed) in (8usize..60).prop_flat_map(|n| {
            (
                prop::collection::vec(
                    prop::collection::vec(prop::option::weighted(0.8, 0u32..5), n),
                    2..6,
                ),
                0u8..3,
                2..=n,
                0u64..1000,
            )
        })
    ) {
        let (inputs, policy) = agglomerative_case(&labels, kind);
        let what = format!("kind {kind}, sample {sample}, seed {seed}");
        assert_lazy_sampling_matches_dense(inputs, policy, sample, seed, &what);
    }
}

/// [`assert_lazy_sampling_matches_dense`] at n = 600 with a sample of 200,
/// where the sub-runs' fills split into several row jobs, so 2 threads
/// fill in parallel.
#[test]
fn sampling_on_the_lazy_instance_equals_sampling_on_its_dense_matrix_over_many_jobs() {
    let n = 600;
    let labels: Vec<Vec<Option<u32>>> = (0..5u32)
        .map(|j| {
            (0..n as u32)
                .map(|v| {
                    let label = (v % 13 + u32::from(v % (3 + j) == 0)) % 13;
                    (v % (7 + j) != 3).then_some(label)
                })
                .collect()
        })
        .collect();
    for kind in 0..3 {
        let (inputs, policy) = agglomerative_case(&labels, kind);
        assert_lazy_sampling_matches_dense(inputs, policy, 200, 5, &format!("kind {kind}"));
    }
}
