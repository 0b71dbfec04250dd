//! Differential conformance suite for the packed disagreement kernels
//! (DESIGN.md §6f–§6g): every distance the packed path can produce is
//! compared bit-for-bit (`f64::to_bits`) against the independent scalar
//! reference implementations in `aggclust_core::kernels::reference`,
//! across a size grid that straddles every layout boundary (empty, single
//! object, word boundaries at m = 63/64/65, lane-width boundaries at
//! 65535/65536 clusters), across thread counts, and — via
//! [`dispatch::with_forced_tier`] — under **every SIMD dispatch tier the
//! host can reach** (scalar, SWAR, SSE2, AVX2, NEON where available).

use aggclust_core::clustering::{Clustering, PartialClustering};
use aggclust_core::instance::{CorrelationInstance, DenseOracle, DistanceOracle, MissingPolicy};
use aggclust_core::kernels::{dispatch, reference, LaneWidth};
use aggclust_core::parallel::with_num_threads;
use proptest::prelude::*;

/// The size grid from the issue: object counts crossing the trivial and
/// multi-chunk regimes, clustering counts straddling the 4-lanes-per-word
/// boundary.
const N_GRID: [usize; 5] = [0, 1, 2, 257, 1024];
const M_GRID: [usize; 5] = [1, 2, 63, 64, 65];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn random_clusterings(n: usize, m: usize, k: u32, seed: u64) -> Vec<Clustering> {
    let mut state = seed;
    (0..m)
        .map(|_| {
            Clustering::from_labels(
                (0..n)
                    .map(|_| (splitmix(&mut state) % k as u64) as u32)
                    .collect(),
            )
        })
        .collect()
}

fn random_partials(
    n: usize,
    m: usize,
    k: u32,
    missing_pct: u64,
    seed: u64,
) -> Vec<PartialClustering> {
    let mut state = seed;
    (0..m)
        .map(|_| {
            PartialClustering::from_labels(
                (0..n)
                    .map(|_| {
                        if splitmix(&mut state) % 100 < missing_pct {
                            None
                        } else {
                            Some((splitmix(&mut state) % k as u64) as u32)
                        }
                    })
                    .collect(),
            )
        })
        .collect()
}

fn assert_bits_eq(got: f64, want: f64, ctx: &str) {
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{ctx}: packed {got} != reference {want}"
    );
}

#[test]
fn packed_dense_matches_reference_across_the_size_grid_under_every_tier() {
    for &n in &N_GRID {
        for &m in &M_GRID {
            // Cluster counts vary with the cell so tiny-k (dense ties) and
            // larger-k (mostly separated) regimes are both covered.
            let k = 1 + ((n + 7 * m) % 17) as u32;
            let cs = random_clusterings(n, m, k, (n as u64) << 32 | m as u64);
            // The reference values are tier-independent; compute them once
            // per cell and replay against every tier's packed build.
            let mut want = Vec::with_capacity(n.saturating_sub(1) * n / 2);
            for u in 0..n {
                for v in (u + 1)..n {
                    want.push(reference::xuv_total(&cs, u, v));
                }
            }
            for tier in dispatch::reachable_tiers() {
                let dense = dispatch::with_forced_tier(tier, || DenseOracle::from_clusterings(&cs));
                assert_eq!(dense.len(), n);
                let mut i = 0usize;
                for u in 0..n {
                    for v in (u + 1)..n {
                        assert_bits_eq(
                            dense.dist(u, v),
                            want[i],
                            &format!("tier={} n={n} m={m} pair ({u},{v})", tier.name()),
                        );
                        i += 1;
                    }
                }
            }
        }
    }
}

#[test]
fn packed_lazy_matches_reference_across_the_size_grid_under_every_tier() {
    for &n in &N_GRID {
        if n == 0 {
            continue; // CorrelationInstance rejects only an empty list of inputs; n=0 is fine, but there are no pairs.
        }
        for &m in &M_GRID {
            let k = 1 + ((3 * n + m) % 13) as u32;
            let ps = random_partials(n, m, k, 20, (m as u64) << 32 | n as u64);
            for policy in [MissingPolicy::Ignore, MissingPolicy::Coin(0.5)] {
                // The full grid is quadratic; stride the larger sizes and
                // compute each reference value once across all tiers.
                let stride = if n >= 1024 { 7 } else { 1 };
                let mut pairs = Vec::new();
                let mut pair = 0usize;
                for u in 0..n {
                    for v in (u + 1)..n {
                        pair += 1;
                        if pair.is_multiple_of(stride) {
                            pairs.push((u, v, reference::xuv_partial(&ps, policy, u, v)));
                        }
                    }
                }
                for tier in dispatch::reachable_tiers() {
                    let oracle = dispatch::with_forced_tier(tier, || {
                        CorrelationInstance::from_partial(ps.clone(), policy)
                    });
                    for &(u, v, want) in &pairs {
                        assert_bits_eq(
                            oracle.dist(u, v),
                            want,
                            &format!("tier={} n={n} m={m} {policy:?} pair ({u},{v})", tier.name()),
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    fn packed_weighted_matches_reference(
        (n, m, seed) in (2usize..40, 1usize..10, any::<u64>())
    ) {
        // A duplicate-prone weight palette so equal-weight groups of every
        // size (packed blocks and the scalar tail) actually occur.
        const PALETTE: [f64; 5] = [0.0, 0.25, 1.0, 1.5, 2.0];
        let mut state = seed;
        let cs = random_clusterings(n, m, 5, splitmix(&mut state));
        let mut weights: Vec<f64> = (0..m)
            .map(|_| PALETTE[(splitmix(&mut state) % PALETTE.len() as u64) as usize])
            .collect();
        if weights.iter().sum::<f64>() <= 0.0 {
            weights[0] = 1.0;
        }
        for tier in dispatch::reachable_tiers() {
            let dense = dispatch::with_forced_tier(tier, || {
                DenseOracle::from_weighted_clusterings(&cs, &weights)
            });
            for u in 0..n {
                for v in (u + 1)..n {
                    assert_bits_eq(
                        dense.dist(u, v),
                        reference::xuv_weighted(&cs, &weights, u, v),
                        &format!(
                            "tier={} n={n} weights={weights:?} pair ({u},{v})",
                            tier.name()
                        ),
                    );
                }
            }
        }
    }

    fn packed_partial_matches_reference(
        (n, m, seed) in (2usize..40, 1usize..8, any::<u64>())
    ) {
        let mut state = seed;
        let ps = random_partials(n, m, 4, 25, splitmix(&mut state));
        let coins = [0.0, 0.25, 0.5, 1.0];
        let p = coins[(splitmix(&mut state) % coins.len() as u64) as usize];
        for policy in [MissingPolicy::Ignore, MissingPolicy::Coin(p)] {
            for tier in dispatch::reachable_tiers() {
                let oracle =
                    dispatch::with_forced_tier(tier, || CorrelationInstance::from_partial(ps.clone(), policy));
                for u in 0..n {
                    for v in (u + 1)..n {
                        assert_bits_eq(
                            oracle.dist(u, v),
                            reference::xuv_partial(&ps, policy, u, v),
                            &format!(
                                "tier={} n={n} m={m} {policy:?} pair ({u},{v})",
                                tier.name()
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// The strongest cross-check in the suite: the forced-**scalar** build at
/// one thread is the baseline, and every reachable tier (SWAR and each
/// SIMD level) at 1, 2, and 4 threads must reproduce it bit-for-bit —
/// both totals and weighted sums. This is the forced-scalar vs
/// forced-SIMD differential from DESIGN.md §6g.
#[test]
fn every_tier_matches_forced_scalar_across_thread_counts() {
    for (n, m) in [(257usize, 65usize), (1024, 2)] {
        let cs = random_clusterings(n, m, 16, 99);
        let weights: Vec<f64> = (0..m).map(|i| [1.0, 2.0][i % 2]).collect();
        let base = dispatch::with_forced_tier(dispatch::Tier::Scalar, || {
            with_num_threads(1, || DenseOracle::from_clusterings(&cs))
        });
        let base_w = dispatch::with_forced_tier(dispatch::Tier::Scalar, || {
            with_num_threads(1, || DenseOracle::from_weighted_clusterings(&cs, &weights))
        });
        for tier in dispatch::reachable_tiers() {
            for threads in [1usize, 2, 4] {
                let (other, other_w) = dispatch::with_forced_tier(tier, || {
                    with_num_threads(threads, || {
                        (
                            DenseOracle::from_clusterings(&cs),
                            DenseOracle::from_weighted_clusterings(&cs, &weights),
                        )
                    })
                });
                for u in 0..n {
                    for v in (u + 1)..n {
                        assert_eq!(
                            base.dist(u, v).to_bits(),
                            other.dist(u, v).to_bits(),
                            "tier={} n={n} m={m} t={threads} pair ({u},{v})",
                            tier.name()
                        );
                        assert_eq!(
                            base_w.dist(u, v).to_bits(),
                            other_w.dist(u, v).to_bits(),
                            "weighted tier={} n={n} m={m} t={threads} pair ({u},{v})",
                            tier.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn lane_boundary_cluster_counts_pick_the_right_width() {
    // The largest lane code equals the cluster count: 65535 clusters is the
    // last instance that fits u16 lanes, 65536 forces the u32 fallback.
    for (k, width) in [(65_535u32, LaneWidth::U16), (65_536, LaneWidth::U32)] {
        let n = k as usize + 1; // labels v % k give exactly k clusters
        let c1 = Clustering::from_labels((0..n).map(|v| (v as u32) % k).collect());
        let c2 = Clustering::from_labels((0..n).map(|v| (v as u32) % 7).collect());
        assert_eq!(c1.num_clusters(), k as usize);
        let ps = [
            PartialClustering::from_total(&c1),
            PartialClustering::from_total(&c2),
        ];
        for tier in dispatch::reachable_tiers() {
            let oracle = dispatch::with_forced_tier(tier, || {
                CorrelationInstance::from_clusterings(&[c1.clone(), c2.clone()])
            });
            assert_eq!(oracle.packed().width(), width, "k={k}");
            // The full O(n²) sweep is infeasible at this size; a
            // deterministic sample plus the wrap-around pair covers both
            // lane widths under each tier.
            let mut state = 0x5eed ^ k as u64;
            for case in 0..500 {
                let u = (splitmix(&mut state) % n as u64) as usize;
                let v = (splitmix(&mut state) % n as u64) as usize;
                if u == v {
                    continue;
                }
                assert_bits_eq(
                    oracle.dist(u, v),
                    reference::xuv_partial(&ps, oracle.policy(), u, v),
                    &format!("tier={} k={k} case={case} pair ({u},{v})", tier.name()),
                );
            }
            // Objects 0 and k wrap onto the same label in c1, different in c2.
            assert_eq!(oracle.dist(0, k as usize), 0.5);
        }
    }
}

#[test]
fn empty_and_singleton_instances() {
    let cs = random_clusterings(0, 3, 4, 11);
    assert_eq!(DenseOracle::from_clusterings(&cs).len(), 0);
    let cs = random_clusterings(1, 3, 4, 12);
    let dense = DenseOracle::from_clusterings(&cs);
    assert_eq!(dense.len(), 1);
    assert_eq!(dense.dist(0, 0), 0.0);
}
