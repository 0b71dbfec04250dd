//! The LOCALSEARCH algorithm: steepest-descent node moves.
//!
//! Starting from some clustering, repeatedly pick up a node and place it in
//! the cluster (possibly a fresh singleton) minimizing the cost
//!
//! ```text
//! d(v, C_i) = Σ_{u ∈ C_i} X_vu + Σ_{u ∉ C_i} (1 − X_vu),
//! ```
//!
//! until no move improves the solution. The paper computes `d(v, C_i)`
//! through the per-cluster sums `M(v, C_i) = Σ_{u ∈ C_i} X_vu`:
//! with `T_v = Σ_u X_vu` the move cost collapses to
//! `d(v, C_i) = 2·M(v, C_i) − T_v + (n − 1) − |C_i \ {v}|`,
//! so evaluating all clusters for one node costs `O(n)` oracle lookups and
//! a pass over the data is `O(n²)` — matching the paper's `O(I·n²)`.
//!
//! LOCALSEARCH doubles as a post-processing step for any other algorithm
//! (see [`LocalSearchInit::Given`]); the experiments show it improves solutions
//! significantly at the price of many iterations.
//!
//! ## Reading the distances
//!
//! Steepest descent is inherently sequential — every move changes the
//! labels that the next node's evaluation depends on — so a node visit
//! is one serial scan of the `n − 1` distances `X_vu`, accumulated in
//! ascending `u` by [`DistanceOracle::accumulate_row`]. On a
//! [`crate::instance::DenseOracle`] that scan streams one contiguous row
//! of `u16` codes through the code → distance table; other oracles fall
//! back to one `dist` call per pair, in the same order. The move sequence
//! never depends on the thread count.

use super::Algorithm;
use crate::clustering::Clustering;
use crate::error::{AggError, AggResult};
use crate::instance::DistanceOracle;
use crate::robust::{RunBudget, RunCtx, RunOutcome, RunStatus};
use crate::snapshot::{AlgorithmSnapshot, Checkpointer, LocalSearchSnapshot};
use crate::telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;

/// The starting point for LOCALSEARCH.
#[derive(Clone, Debug, Default)]
pub enum LocalSearchInit {
    /// Every node in its own cluster.
    #[default]
    Singletons,
    /// A uniformly random assignment into `k` clusters.
    Random {
        /// Number of clusters in the random start.
        k: usize,
        /// RNG seed (the algorithm is deterministic given the seed).
        seed: u64,
    },
    /// Start from a given clustering — LOCALSEARCH as the post-processor
    /// of another algorithm's result. It must cover the instance.
    Given(Clustering),
}

/// Parameters for LOCALSEARCH.
#[derive(Clone, Debug)]
pub struct LocalSearchParams {
    /// Initial clustering.
    pub init: LocalSearchInit,
    /// Safety cap on full passes over the data (the algorithm usually
    /// converges long before; the paper notes `I` tends to be large but
    /// finite).
    pub max_passes: usize,
}

impl Default for LocalSearchParams {
    fn default() -> Self {
        LocalSearchParams {
            init: LocalSearchInit::Singletons,
            max_passes: 200,
        }
    }
}

/// Minimum cost improvement for a move to be taken (guards against
/// floating-point oscillation).
const EPSILON: f64 = 1e-9;

/// Run LOCALSEARCH from the configured start under `ctx`, the engine
/// behind [`Algorithm::LocalSearch`].
///
/// **Anytime semantics**: every accepted move strictly decreases the
/// correlation cost by more than [`EPSILON`], so whenever the deadline,
/// iteration cap, or cancel token trips, the current labels are a valid
/// clustering costing no more than the start — they are returned with
/// [`RunStatus::BudgetExceeded`] / [`RunStatus::Cancelled`] instead of an
/// error. One budget iteration is one node visit (`O(n)` oracle lookups).
///
/// A LOCALSEARCH snapshot in `ctx.resume` that covers the instance replaces
/// the configured start entirely — the descent re-enters the pass loop at
/// the exact node where the snapshot was taken, with the budget meter
/// pre-charged so an iteration cap bounds the *total* work across
/// interrupts. Any other snapshot is ignored (fresh run). With `ctx.ckpt`,
/// state is persisted at its cadence after node visits and once more when
/// the budget trips.
///
/// Resumed runs are **bit-identical** to uninterrupted ones: the snapshot
/// carries the labels, the pass/node cursor, and the pass-level `moved`
/// flag, which together determine every subsequent steepest-descent
/// decision. (Cluster *ids* may differ after a resume when the interrupted
/// run had empty trailing clusters, but [`Clustering::from_labels`]
/// normalizes ids by first occurrence, and move evaluation never depends on
/// id values — only on the relative order of non-empty clusters, which is
/// preserved.)
pub(crate) fn run<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    params: &LocalSearchParams,
    ctx: &mut RunCtx<'_>,
) -> AggResult<RunOutcome> {
    let n = oracle.len();
    let (start, rng_state) = initial_clustering(&params.init, n);
    if start.len() != n {
        return Err(AggError::invalid_parameter(
            "start",
            format!(
                "clustering covers {} objects, instance has {n}",
                start.len()
            ),
        ));
    }
    if n <= 1 {
        return Ok(RunOutcome::converged(start.into_owned()));
    }
    let resume = match ctx.resume {
        Some(AlgorithmSnapshot::LocalSearch(s))
            if s.labels.len() == n && s.next_node as usize <= n =>
        {
            Some(s)
        }
        _ => None,
    };
    let rng_state = resume.map_or(rng_state, |s| s.rng);
    let (labels, status, iterations) = descend(
        oracle,
        &start,
        params.max_passes,
        ctx.budget,
        resume,
        ctx.ckpt.as_deref_mut(),
        rng_state,
    );
    Ok(RunOutcome {
        clustering: Clustering::from_labels(labels),
        status,
        iterations,
    })
}

/// [`Algorithm::LocalSearch`] under `budget`. Kept with this signature
/// because the benchmark's traced replay calls it by name; delete it with
/// the next change to the benchmark.
pub fn local_search_budgeted<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    params: LocalSearchParams,
    budget: &RunBudget,
) -> AggResult<RunOutcome> {
    Algorithm::LocalSearch(params).run(oracle, &mut RunCtx::new(budget))
}

/// [`Algorithm::LocalSearch`] from [`LocalSearchInit::Given`] `start` under
/// `budget`. `epsilon` must be the fixed move threshold `1e-9`; any other
/// value is an invalid parameter. Kept with this signature because the
/// benchmark's traced replay calls it by name; delete it with the next
/// change to the benchmark.
pub fn local_search_from_budgeted<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    start: &Clustering,
    max_passes: usize,
    epsilon: f64,
    budget: &RunBudget,
) -> AggResult<RunOutcome> {
    if epsilon != EPSILON {
        return Err(AggError::invalid_parameter("epsilon", "must be 1e-9"));
    }
    let init = LocalSearchInit::Given(start.clone());
    let params = LocalSearchParams { init, max_passes };
    Algorithm::LocalSearch(params).run(oracle, &mut RunCtx::new(budget))
}

/// The configured start clustering and the RNG state a `Random` init leaves
/// behind (stamped into snapshots). A `Given` clustering is taken as is;
/// [`run`] checks that it covers the instance.
fn initial_clustering(init: &LocalSearchInit, n: usize) -> (Cow<'_, Clustering>, [u64; 4]) {
    match init {
        LocalSearchInit::Singletons => (Cow::Owned(Clustering::singletons(n)), [0; 4]),
        LocalSearchInit::Random { k, seed } => {
            let k = (*k).max(1) as u32;
            let mut rng = StdRng::seed_from_u64(*seed);
            let labels = (0..n).map(|_| rng.gen_range(0..k)).collect();
            (Cow::Owned(Clustering::from_labels(labels)), rng.state())
        }
        LocalSearchInit::Given(c) => (Cow::Borrowed(c), [0; 4]),
    }
}

/// The steepest-descent engine with checkpoint/resume hooks. Callers
/// guarantee `start.len() == oracle.len()` and `n >= 2`. `resume`, when
/// present, is pre-validated (`labels.len() == n`, `next_node <= n`) and
/// overrides `start`; `rng_state` is stamped into snapshots so a resumed
/// `Random`-init run stays fully determined by the file.
fn descend<O: DistanceOracle + Sync + ?Sized>(
    oracle: &O,
    start: &Clustering,
    max_passes: usize,
    budget: &RunBudget,
    resume: Option<&LocalSearchSnapshot>,
    mut ckpt: Option<&mut Checkpointer>,
    rng_state: [u64; 4],
) -> (Vec<u32>, RunStatus, u64) {
    let n = oracle.len();
    let _span = crate::span!(
        "local_search",
        n = n,
        max_passes = max_passes,
        resuming = resume.is_some()
    );
    // Where to re-enter the loop: (labels, pass, first unvisited node of
    // that pass, `moved` flag carried into it, completed budget iterations).
    let (mut labels, first_pass, resume_node, resumed_moved, done): (Vec<u32>, _, _, _, u64) =
        match resume {
            Some(s) => (
                s.labels.clone(),
                s.pass as usize,
                s.next_node as usize,
                s.moved_in_pass,
                s.iterations,
            ),
            None => (start.labels().to_vec(), 0, 0, false, 0),
        };
    // Cluster sizes, indexed by label; empty slots may appear as nodes move
    // out and are reused only implicitly (fresh singletons get new ids).
    let mut sizes: Vec<usize> = {
        let k = (labels.iter().copied().max().unwrap_or(0) + 1) as usize;
        let mut s = vec![0usize; k];
        for &l in &labels {
            s[l as usize] += 1;
        }
        s
    };

    let mut m_sums: Vec<f64> = Vec::new();
    let mut meter = budget.meter_from(done);
    let mut heartbeat = telemetry::Heartbeat::new("local_search", n as u64).with_budget(budget);
    for pass in first_pass..max_passes {
        // The pass in progress when the snapshot was taken resumes its
        // node cursor and its pass-level convergence flag.
        let resuming = pass == first_pass && resume.is_some();
        let skip_before = if resuming { resume_node } else { 0 };
        let mut moved = resuming && resumed_moved;
        for v in skip_before..n {
            // One budget iteration per node visit: each costs O(n)
            // lookups, and the labels between visits always describe a
            // valid clustering no costlier than the start.
            if let Err(interrupt) = meter.tick() {
                if let Some(c) = ckpt.as_deref_mut() {
                    // Final checkpoint at the interrupt point; `v` has
                    // not been visited, and the failed tick is not
                    // completed work.
                    let _ = c.save_now(AlgorithmSnapshot::LocalSearch(LocalSearchSnapshot {
                        labels: labels.clone(),
                        pass: pass as u64,
                        next_node: v as u64,
                        moved_in_pass: moved,
                        iterations: meter.iterations() - 1,
                        rng: rng_state,
                    }));
                }
                return (labels, interrupt.status(), meter.iterations());
            }
            if visit_node(oracle, v, &mut labels, &mut sizes, &mut m_sums) {
                moved = true;
            }
            // Progress within the current pass; each pass restarts the
            // cursor, so `done/total` reads as pass completion.
            heartbeat.tick((v + 1) as u64);
            if let Some(c) = ckpt.as_deref_mut() {
                c.maybe_save(|| {
                    AlgorithmSnapshot::LocalSearch(LocalSearchSnapshot {
                        labels: labels.clone(),
                        pass: pass as u64,
                        next_node: (v + 1) as u64,
                        moved_in_pass: moved,
                        iterations: meter.iterations(),
                        rng: rng_state,
                    })
                });
            }
        }
        // Completed passes only, so an interrupt-at-k + resume run counts
        // each pass exactly once — matching the uninterrupted run.
        telemetry::metrics().ls_passes.incr_if_enabled();
        if !moved {
            break;
        }
    }

    (labels, RunStatus::Converged, meter.iterations())
}

/// Evaluate all candidate moves for node `v` against the current labels and
/// apply the best strictly improving one. Returns `true` if the node moved.
fn visit_node<O: DistanceOracle + ?Sized>(
    oracle: &O,
    v: usize,
    labels: &mut [u32],
    sizes: &mut Vec<usize>,
    m_sums: &mut Vec<f64>,
) -> bool {
    let n = labels.len();
    let k = sizes.len();
    telemetry::metrics().ls_nodes_visited.incr_if_enabled();
    m_sums.clear();
    m_sums.resize(k, 0.0);
    let t_v = oracle.accumulate_row(v, labels, m_sums);
    let cur = labels[v] as usize;
    let others = (n - 1) as f64;
    // d(v, C_i) = 2·M_i − T_v + (n−1) − |C_i \ {v}|
    let move_cost = |i: usize, sizes: &[usize]| -> f64 {
        let size_wo_v = sizes[i] - usize::from(i == cur);
        2.0 * m_sums[i] - t_v + others - size_wo_v as f64
    };
    let singleton_cost = others - t_v;

    let mut best_i = usize::MAX; // MAX = fresh singleton
    let mut best_cost = singleton_cost;
    for i in 0..k {
        if sizes[i] == 0 && i != cur {
            continue;
        }
        let c = move_cost(i, sizes);
        if c < best_cost {
            best_cost = c;
            best_i = i;
        }
    }
    let cur_cost = move_cost(cur, sizes);
    if best_cost < cur_cost - EPSILON && best_i != cur {
        sizes[cur] -= 1;
        let target = if best_i == usize::MAX {
            if sizes[cur] == 0 {
                // Moving a singleton to a fresh singleton is a
                // no-op; keep the label. (Unreachable because the
                // costs are equal, but kept for safety.)
                cur
            } else {
                sizes.push(0);
                sizes.len() - 1
            }
        } else {
            best_i
        };
        sizes[target] += 1;
        labels[v] = target as u32;
        let m = telemetry::metrics();
        m.ls_moves.incr_if_enabled();
        // The move's strict cost improvement; accumulated serially (the
        // descent visits nodes one at a time), so the sum's rounding order
        // is fixed and the total is bit-reproducible.
        let delta = cur_cost - best_cost;
        m.ls_improvement.add_if_enabled(delta);
        m.ls_delta_hist.observe_if_enabled(delta);
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::unlimited;
    use crate::cost::correlation_cost;
    use crate::instance::DenseOracle;

    fn c(labels: &[u32]) -> Clustering {
        Clustering::from_labels(labels.to_vec())
    }

    fn figure1_oracle() -> DenseOracle {
        DenseOracle::from_clusterings(&[
            c(&[0, 0, 1, 1, 2, 2]),
            c(&[0, 1, 0, 1, 2, 3]),
            c(&[0, 1, 0, 1, 2, 2]),
        ])
    }

    fn local_search(oracle: &DenseOracle, params: LocalSearchParams) -> Clustering {
        unlimited(Algorithm::LocalSearch(params), oracle)
    }

    /// LOCALSEARCH as a post-processor of `start`, capped at 100 passes.
    fn refine(oracle: &DenseOracle, start: &Clustering) -> Clustering {
        local_search(
            oracle,
            LocalSearchParams {
                init: LocalSearchInit::Given(start.clone()),
                max_passes: 100,
            },
        )
    }

    fn resumable(
        oracle: &DenseOracle,
        params: &LocalSearchParams,
        budget: &RunBudget,
        resume: Option<&AlgorithmSnapshot>,
        ckpt: Option<&mut Checkpointer>,
    ) -> RunOutcome {
        let mut ctx = RunCtx {
            budget,
            resume,
            ckpt,
        };
        Algorithm::LocalSearch(params.clone())
            .run(oracle, &mut ctx)
            .unwrap()
    }

    #[test]
    fn recovers_figure1_optimum_from_singletons() {
        let oracle = figure1_oracle();
        let params = LocalSearchParams::default();
        let outcome = resumable(&oracle, &params, &RunBudget::unlimited(), None, None);
        assert_eq!(outcome.clustering, c(&[0, 1, 0, 1, 2, 2]));
        assert_eq!(outcome.status, RunStatus::Converged);
        assert!(outcome.iterations > 0);
    }

    #[test]
    fn recovers_figure1_optimum_from_one_cluster() {
        let result = refine(&figure1_oracle(), &Clustering::one_cluster(6));
        assert_eq!(result, c(&[0, 1, 0, 1, 2, 2]));
    }

    #[test]
    fn random_inits_converge_to_low_cost() {
        let oracle = figure1_oracle();
        let opt_cost = 5.0 / 3.0;
        for seed in 0..5 {
            let result = local_search(
                &oracle,
                LocalSearchParams {
                    init: LocalSearchInit::Random { k: 3, seed },
                    ..Default::default()
                },
            );
            let cost = correlation_cost(&oracle, &result);
            assert!(cost <= opt_cost + 1e-9, "seed {seed}: cost {cost}");
        }
    }

    #[test]
    fn never_increases_cost_as_postprocessor() {
        let oracle = figure1_oracle();
        let starts = [
            Clustering::singletons(6),
            Clustering::one_cluster(6),
            c(&[0, 0, 0, 1, 1, 1]),
            c(&[0, 1, 1, 0, 2, 0]),
        ];
        for s in &starts {
            let refined = refine(&oracle, s);
            assert!(correlation_cost(&oracle, &refined) <= correlation_cost(&oracle, s) + 1e-9);
        }
    }

    #[test]
    fn local_optimum_is_fixed_point() {
        let oracle = figure1_oracle();
        let opt = c(&[0, 1, 0, 1, 2, 2]);
        assert_eq!(refine(&oracle, &opt), opt);
    }

    #[test]
    fn perfect_consensus_is_reproduced() {
        let consensus = c(&[0, 0, 1, 1, 2]);
        let oracle = DenseOracle::from_clusterings(&[consensus.clone(), consensus.clone()]);
        assert_eq!(
            local_search(&oracle, LocalSearchParams::default()),
            consensus
        );
    }

    #[test]
    fn given_init_is_used() {
        let oracle = figure1_oracle();
        let given = c(&[0, 1, 0, 1, 2, 2]);
        let result = local_search(
            &oracle,
            LocalSearchParams {
                init: LocalSearchInit::Given(given.clone()),
                max_passes: 0,
            },
        );
        assert_eq!(result, given);
    }

    #[test]
    fn tiny_instances() {
        let o1 = DenseOracle::from_fn(1, |_, _| 0.0);
        assert_eq!(
            local_search(&o1, LocalSearchParams::default()).num_clusters(),
            1
        );
        let o0 = DenseOracle::from_fn(0, |_, _| 0.0);
        assert_eq!(local_search(&o0, LocalSearchParams::default()).len(), 0);
    }

    #[test]
    fn budget_trip_returns_best_so_far() {
        let oracle = figure1_oracle();
        let start = Clustering::singletons(6);
        // A one-iteration cap trips immediately; the result must still be a
        // valid clustering no costlier than the start.
        let tight = RunBudget::unlimited().with_max_iters(1);
        let outcome = resumable(&oracle, &LocalSearchParams::default(), &tight, None, None);
        assert_eq!(outcome.status, RunStatus::BudgetExceeded);
        assert_eq!(outcome.clustering.len(), 6);
        assert!(
            correlation_cost(&oracle, &outcome.clustering)
                <= correlation_cost(&oracle, &start) + 1e-9
        );
    }

    #[test]
    fn cancellation_is_reported() {
        let oracle = figure1_oracle();
        let token = crate::robust::CancelToken::new();
        token.cancel();
        let budget = RunBudget::unlimited().with_cancel_token(token);
        let outcome = resumable(&oracle, &LocalSearchParams::default(), &budget, None, None);
        assert_eq!(outcome.status, RunStatus::Cancelled);
    }

    #[test]
    fn interrupt_and_resume_matches_uninterrupted() {
        use crate::snapshot::{load_snapshot, SnapshotLoad};
        use std::time::Duration;

        let oracle = DenseOracle::from_fn(24, |u, v| ((u * 7 + v * 13) % 11) as f64 / 11.0);
        let params = LocalSearchParams {
            init: LocalSearchInit::Random { k: 4, seed: 42 },
            ..Default::default()
        };
        let full = resumable(&oracle, &params, &RunBudget::unlimited(), None, None);
        assert_eq!(full.status, RunStatus::Converged);

        let dir = std::env::temp_dir().join("aggclust_ls_resume_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("ckpt.bin");
        for cap in [1u64, 2, 5, 11, 23, 24, 25, 47, 90] {
            let tight = RunBudget::unlimited().with_max_iters(cap);
            let mut ckpt = Checkpointer::new(&path, Duration::ZERO);
            let partial = resumable(&oracle, &params, &tight, None, Some(&mut ckpt));
            if partial.status == RunStatus::Converged {
                assert_eq!(partial.clustering, full.clustering);
                continue;
            }
            let snap = match load_snapshot(&path) {
                SnapshotLoad::Loaded(s) => s,
                other => panic!("cap {cap}: expected snapshot, got {other:?}"),
            };
            let AlgorithmSnapshot::LocalSearch(ls) = &snap.state else {
                panic!("cap {cap}: wrong snapshot variant");
            };
            assert_eq!(ls.iterations, cap, "snapshot records completed work");
            let resumed = resumable(
                &oracle,
                &params,
                &RunBudget::unlimited(),
                Some(&snap.state),
                None,
            );
            assert_eq!(
                resumed.clustering, full.clustering,
                "cap {cap}: resumed labels differ"
            );
            assert_eq!(
                resumed.iterations, full.iterations,
                "cap {cap}: resumed total work differs"
            );
            assert_eq!(resumed.status, RunStatus::Converged);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_snapshot_is_ignored() {
        let oracle = figure1_oracle();
        let stale = AlgorithmSnapshot::LocalSearch(LocalSearchSnapshot {
            labels: vec![0; 99],
            pass: 1,
            next_node: 3,
            moved_in_pass: true,
            iterations: 12,
            rng: [0; 4],
        });
        let outcome = resumable(
            &oracle,
            &LocalSearchParams::default(),
            &RunBudget::unlimited(),
            Some(&stale),
            None,
        );
        assert_eq!(outcome.clustering, c(&[0, 1, 0, 1, 2, 2]));
    }

    #[test]
    fn budgeted_unlimited_matches_unbudgeted() {
        // The benchmark-named wrapper is the single entry under an
        // unlimited budget.
        let oracle = figure1_oracle();
        let plain = local_search(&oracle, LocalSearchParams::default());
        let outcome = local_search_budgeted(
            &oracle,
            LocalSearchParams::default(),
            &RunBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(outcome.clustering, plain);
        assert_eq!(outcome.status, RunStatus::Converged);
        assert!(outcome.iterations > 0);
    }

    #[test]
    fn mismatched_start_is_a_typed_error() {
        let oracle = figure1_oracle();
        let bad = Clustering::singletons(3);
        let err = local_search_from_budgeted(&oracle, &bad, 200, 1e-9, &RunBudget::unlimited())
            .unwrap_err();
        assert!(matches!(err, AggError::InvalidParameter { .. }));
        let err = local_search_budgeted(
            &oracle,
            LocalSearchParams {
                init: LocalSearchInit::Given(bad),
                ..Default::default()
            },
            &RunBudget::unlimited(),
        )
        .unwrap_err();
        assert!(matches!(err, AggError::InvalidParameter { .. }));
    }

    #[test]
    fn nan_epsilon_rejected() {
        let oracle = figure1_oracle();
        let start = Clustering::singletons(6);
        let err =
            local_search_from_budgeted(&oracle, &start, 10, f64::NAN, &RunBudget::unlimited())
                .unwrap_err();
        assert!(matches!(err, AggError::InvalidParameter { .. }));
    }

    #[test]
    fn only_the_fixed_epsilon_is_accepted() {
        let oracle = figure1_oracle();
        let start = Clustering::singletons(6);
        let budget = RunBudget::unlimited();
        for eps in [0.0, -1e-9, 1e-6, f64::INFINITY] {
            let err = local_search_from_budgeted(&oracle, &start, 10, eps, &budget).unwrap_err();
            assert!(
                matches!(err, AggError::InvalidParameter { ref what, .. } if what == "epsilon"),
                "epsilon {eps}: {err:?}"
            );
        }
        let outcome = local_search_from_budgeted(&oracle, &start, 10, EPSILON, &budget).unwrap();
        assert_eq!(outcome.status, RunStatus::Converged);
    }
}
