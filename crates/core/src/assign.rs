//! Incremental assignment of new objects to an existing clustering — the
//! SAMPLING post-processing phase (§4.1) packaged as a reusable component.
//!
//! Given a *reference set* of already-clustered objects, an
//! [`ClusterAssigner`] places any further object into the reference cluster
//! of least correlation cost, or into a singleton when no cluster is worth
//! joining — exactly the `M(v, Cᵢ)` computation LOCALSEARCH and SAMPLING
//! use, exposed so that streaming/online consumers can reuse a clustered
//! core without re-running aggregation:
//!
//! ```
//! use aggclust_core::assign::ClusterAssigner;
//! use aggclust_core::clustering::Clustering;
//!
//! // Reference objects 0..4 are clustered {0,1} {2,3}; distances place a
//! // new object near the first cluster.
//! let reference = Clustering::from_labels(vec![0, 0, 1, 1]);
//! let assigner = ClusterAssigner::new(reference);
//! let decision = assigner.assign(|u| if u < 2 { 0.0 } else { 1.0 });
//! assert_eq!(decision, Some(0));
//! ```

use crate::clustering::Clustering;

/// Assigns new objects to the clusters of a fixed reference clustering.
#[derive(Clone, Debug)]
pub struct ClusterAssigner {
    reference: Clustering,
    cluster_sizes: Vec<usize>,
}

impl ClusterAssigner {
    /// Build from the reference clustering (of the reference objects only).
    pub fn new(reference: Clustering) -> Self {
        let cluster_sizes = reference.cluster_sizes();
        ClusterAssigner {
            reference,
            cluster_sizes,
        }
    }

    /// The reference clustering.
    pub fn reference(&self) -> &Clustering {
        &self.reference
    }

    /// Decide where a new object belongs. `dist(u)` must return the
    /// distance `X` between the new object and reference object `u`.
    ///
    /// Returns `Some(cluster_label)` when joining a reference cluster is
    /// at least as cheap as staying alone, `None` for "make it a
    /// singleton". Deterministic: ties prefer the lowest cluster label;
    /// the singleton option wins only when *strictly* cheaper.
    pub fn assign(&self, dist: impl Fn(usize) -> f64) -> Option<u32> {
        let s = self.reference.len();
        if s == 0 {
            return None;
        }
        let ell = self.reference.num_clusters();
        let mut m_sums = vec![0.0f64; ell];
        let mut total = 0.0;
        for u in 0..s {
            let x = dist(u);
            debug_assert!((0.0..=1.0).contains(&x), "distance {x} out of [0,1]");
            m_sums[self.reference.label(u) as usize] += x;
            total += x;
        }
        // cost(join Cᵢ) = 2·Mᵢ − T + s − |Cᵢ|; cost(singleton) = s − T.
        let singleton = s as f64 - total;
        let mut best = f64::INFINITY;
        let mut best_i = None;
        for (i, &m_i) in m_sums.iter().enumerate() {
            let c = 2.0 * m_i - total + s as f64 - self.cluster_sizes[i] as f64;
            if c < best {
                best = c;
                best_i = Some(i as u32);
            }
        }
        if singleton < best {
            None
        } else {
            best_i
        }
    }

    /// [`ClusterAssigner::assign`] in exact integers. `numerators[i]` must
    /// be `Σ_{u ∈ Cᵢ} den·X_u` for reference cluster `i`, where every
    /// distance `X_u` is an exact multiple of `1/den` (an oracle's
    /// [`crate::instance::DistanceOracle::exact_scale`]). The costs of
    /// [`ClusterAssigner::assign`] scaled by `den` are then integers,
    /// compared with the same tie rules and no rounding.
    pub fn assign_exact(&self, numerators: &[i64], den: u32) -> Option<u32> {
        let s = self.reference.len() as i64;
        if s == 0 {
            return None;
        }
        let den = i64::from(den);
        let total: i64 = numerators.iter().sum();
        // den·cost(join Cᵢ) = 2·Nᵢ − N_T + den·(s − |Cᵢ|);
        // den·cost(singleton) = den·s − N_T.
        let singleton = den * s - total;
        let mut best = i64::MAX;
        let mut best_i = None;
        for (i, (&n_i, &size)) in numerators.iter().zip(&self.cluster_sizes).enumerate() {
            let c = 2 * n_i - total + den * (s - size as i64);
            if c < best {
                best = c;
                best_i = Some(i as u32);
            }
        }
        if singleton < best {
            None
        } else {
            best_i
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::correlation_cost;
    use crate::instance::DenseOracle;

    #[test]
    fn joins_the_obviously_close_cluster() {
        let reference = Clustering::from_labels(vec![0, 0, 1, 1]);
        let assigner = ClusterAssigner::new(reference);
        // Near cluster 1 (objects 2, 3).
        let decision = assigner.assign(|u| if u >= 2 { 0.1 } else { 0.9 });
        assert_eq!(decision, Some(1));
    }

    #[test]
    fn far_from_everything_becomes_singleton() {
        let reference = Clustering::from_labels(vec![0, 0, 1, 1]);
        let assigner = ClusterAssigner::new(reference);
        assert_eq!(assigner.assign(|_| 1.0), None);
    }

    #[test]
    fn half_distances_tie_toward_joining() {
        // At X ≡ ½ the join and singleton costs are equal; the assigner
        // joins (ties prefer clusters).
        let reference = Clustering::from_labels(vec![0, 0]);
        let assigner = ClusterAssigner::new(reference);
        assert_eq!(assigner.assign(|_| 0.5), Some(0));
    }

    #[test]
    fn assignment_minimizes_true_correlation_cost() {
        // Brute-force check: the chosen option is the cheapest extension.
        let reference = Clustering::from_labels(vec![0, 0, 1, 1, 2]);
        let assigner = ClusterAssigner::new(reference.clone());
        let dists = [0.2, 0.4, 0.7, 0.9, 0.45];
        let decision = assigner.assign(|u| dists[u]);

        // Evaluate every extension over the 6-object instance.
        let mut oracle = DenseOracle::from_fn(6, |_, _| 0.5);
        // Reference pairwise distances: 0 within clusters, 1 across.
        for u in 0..5 {
            for v in (u + 1)..5 {
                oracle.set(
                    u,
                    v,
                    if reference.same_cluster(u, v) {
                        0.0
                    } else {
                        1.0
                    },
                );
            }
        }
        for (u, &d) in dists.iter().enumerate() {
            oracle.set(u, 5, d);
        }
        let mut best = (f64::INFINITY, 99u32);
        for target in 0..=3u32 {
            let mut labels: Vec<u32> = reference.labels().to_vec();
            labels.push(target);
            let c = Clustering::from_labels(labels);
            let cost = correlation_cost(&oracle, &c);
            if cost < best.0 {
                best = (cost, target);
            }
        }
        let expected = if best.1 == 3 { None } else { Some(best.1) };
        assert_eq!(decision, expected);
    }

    #[test]
    fn equally_cheap_clusters_tie_toward_the_lowest_label() {
        // Every reference object is equally close, so joining either
        // cluster of two costs the same; the lower label wins, whichever
        // order the clusters' objects come in.
        for labels in [vec![0, 0, 1, 1], vec![0, 1, 1, 0], vec![0, 1, 0, 1]] {
            let assigner = ClusterAssigner::new(Clustering::from_labels(labels.clone()));
            assert_eq!(assigner.assign(|_| 0.2), Some(0), "{labels:?}");
        }
    }

    #[test]
    fn empty_reference() {
        let assigner = ClusterAssigner::new(Clustering::from_labels(vec![]));
        assert_eq!(assigner.assign(|_| 0.0), None);
        assert_eq!(assigner.assign_exact(&[], 4), None);
    }

    #[test]
    fn exact_decision_matches_the_f64_one_where_sums_are_exact() {
        // Quarters sum exactly in f64, so both decisions see the same
        // costs, ties included.
        let reference = Clustering::from_labels(vec![0, 0, 1, 1, 2, 0]);
        let assigner = ClusterAssigner::new(reference.clone());
        let mut seed = 7u64;
        for _ in 0..500 {
            let nums: Vec<u32> = (0..6)
                .map(|_| {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (seed >> 61) as u32 % 5
                })
                .collect();
            let mut sums = vec![0i64; 3];
            for (u, &k) in nums.iter().enumerate() {
                sums[reference.label(u) as usize] += i64::from(k);
            }
            assert_eq!(
                assigner.assign_exact(&sums, 4),
                assigner.assign(|u| f64::from(nums[u]) / 4.0),
                "{nums:?}"
            );
        }
    }

    #[test]
    fn exact_ties_join_and_prefer_the_lowest_label() {
        let assigner = ClusterAssigner::new(Clustering::from_labels(vec![0, 0, 1, 1]));
        // Every distance ½ (numerator 1 of den 2): joining ties with the
        // singleton, and the two clusters tie with each other.
        assert_eq!(assigner.assign_exact(&[2, 2], 2), Some(0));
        // Every distance 1: the singleton is strictly cheaper.
        assert_eq!(assigner.assign_exact(&[4, 4], 2), None);
    }
}
