//! Clustering (set partition) representations.
//!
//! A [`Clustering`] is a partition of `n` objects `0..n` into disjoint
//! clusters, stored as a dense label vector. Labels are always *normalized*:
//! cluster ids are `0..k` in order of first appearance, so two label vectors
//! describe the same partition if and only if their normalized forms are
//! equal.
//!
//! A [`PartialClustering`] additionally allows objects with *no* label,
//! which models missing values when categorical attributes are interpreted
//! as clusterings (paper §2, "Missing values").

use std::collections::HashMap;
use std::fmt;

/// A partition of objects `0..n` into `k` disjoint clusters.
///
/// Internally a dense `Vec<u32>` of cluster labels, normalized to
/// first-appearance order. Construction via [`Clustering::from_labels`]
/// performs the normalization; all other methods rely on it.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Clustering {
    labels: Vec<u32>,
    num_clusters: u32,
}

impl Clustering {
    /// Build a clustering from an arbitrary label vector.
    ///
    /// Labels are relabeled to `0..k` in order of first appearance, so any
    /// two label vectors inducing the same partition produce equal
    /// `Clustering`s.
    ///
    /// ```
    /// use aggclust_core::clustering::Clustering;
    /// let a = Clustering::from_labels(vec![7, 7, 3, 3]);
    /// let b = Clustering::from_labels(vec![0, 0, 1, 1]);
    /// assert_eq!(a, b);
    /// ```
    pub fn from_labels(mut labels: Vec<u32>) -> Self {
        let mut remap: HashMap<u32, u32> = HashMap::new();
        let mut next = 0u32;
        for l in labels.iter_mut() {
            let entry = remap.entry(*l).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            });
            *l = *entry;
        }
        Clustering {
            labels,
            num_clusters: next,
        }
    }

    /// Build a clustering from explicit cluster member lists.
    ///
    /// Every object in `0..n` must appear in exactly one cluster.
    ///
    /// # Panics
    /// Panics if the sets do not form a partition of `0..n`.
    pub fn from_clusters(n: usize, clusters: &[Vec<usize>]) -> Self {
        let mut labels = vec![u32::MAX; n];
        for (id, members) in clusters.iter().enumerate() {
            for &v in members {
                assert!(v < n, "object {v} out of range 0..{n}");
                assert_eq!(
                    labels[v],
                    u32::MAX,
                    "object {v} appears in more than one cluster"
                );
                labels[v] = id as u32;
            }
        }
        assert!(
            labels.iter().all(|&l| l != u32::MAX),
            "some object is not covered by any cluster"
        );
        Clustering::from_labels(labels)
    }

    /// The all-singletons clustering of `n` objects.
    pub fn singletons(n: usize) -> Self {
        Clustering {
            labels: (0..n as u32).collect(),
            num_clusters: n as u32,
        }
    }

    /// The single-cluster clustering of `n` objects (`n ≥ 1` gives one
    /// cluster; `n = 0` gives zero clusters).
    pub fn one_cluster(n: usize) -> Self {
        Clustering {
            labels: vec![0; n],
            num_clusters: if n == 0 { 0 } else { 1 },
        }
    }

    /// Number of objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` if the clustering has no objects.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of clusters `k`.
    #[inline]
    pub fn num_clusters(&self) -> usize {
        self.num_clusters as usize
    }

    /// Cluster label of object `v`.
    #[inline]
    pub fn label(&self, v: usize) -> u32 {
        self.labels[v]
    }

    /// The underlying normalized label vector.
    #[inline]
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// `true` if `u` and `v` share a cluster.
    #[inline]
    pub fn same_cluster(&self, u: usize, v: usize) -> bool {
        self.labels[u] == self.labels[v]
    }

    /// Sizes of the `k` clusters, indexed by label.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_clusters()];
        for &l in &self.labels {
            sizes[l as usize] += 1;
        }
        sizes
    }

    /// Member lists of the `k` clusters, indexed by label.
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.num_clusters()];
        for (v, &l) in self.labels.iter().enumerate() {
            out[l as usize].push(v);
        }
        out
    }

    /// Number of unordered object pairs co-clustered by this clustering:
    /// `Σ_i s_i (s_i − 1) / 2`.
    pub fn pairs_together(&self) -> u64 {
        self.cluster_sizes()
            .iter()
            .map(|&s| (s as u64) * (s as u64 - 1) / 2)
            .sum()
    }

    /// Number of clusters that are singletons.
    pub fn num_singletons(&self) -> usize {
        self.cluster_sizes().iter().filter(|&&s| s == 1).count()
    }

    /// Restrict the clustering to a subset of objects (given by indices into
    /// `0..n`), renumbering both objects and cluster labels.
    pub fn restrict(&self, subset: &[usize]) -> Clustering {
        Clustering::from_labels(subset.iter().map(|&v| self.labels[v]).collect())
    }

    /// Packed-lane code of object `v` for the SWAR kernels
    /// ([`crate::kernels`]): the normalized label plus one, since lane
    /// code `0` is reserved for "missing" in the shared total/partial
    /// encoding.
    #[inline]
    pub fn lane_code(&self, v: usize) -> u64 {
        self.labels[v] as u64 + 1
    }

    /// Largest lane code this clustering can produce (= its cluster
    /// count, because normalized labels are `0..k`). Decides whether
    /// [`crate::kernels::LabelMatrix`] can use 16-bit lanes.
    #[inline]
    pub fn max_lane_code(&self) -> u64 {
        self.num_clusters as u64
    }

    /// `true` if this clustering *refines* `other`: every cluster of `self`
    /// is contained in a single cluster of `other`.
    pub fn refines(&self, other: &Clustering) -> bool {
        assert_eq!(self.len(), other.len());
        let mut seen: HashMap<u32, u32> = HashMap::new();
        for (v, &l) in self.labels.iter().enumerate() {
            match seen.entry(l) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    if *e.get() != other.labels[v] {
                        return false;
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(other.labels[v]);
                }
            }
        }
        true
    }
}

impl fmt::Debug for Clustering {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Clustering(k={}, {:?})", self.num_clusters, self.labels)
    }
}

/// A clustering in which some objects may be unlabeled (missing).
///
/// This models a categorical attribute with missing values: each distinct
/// attribute value is a cluster, and rows where the attribute is missing
/// carry no label. How missing labels contribute to pairwise distances is
/// decided by [`crate::instance::MissingPolicy`].
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PartialClustering {
    labels: Vec<Option<u32>>,
    num_clusters: u32,
}

impl PartialClustering {
    /// Build from optional labels; present labels are normalized to `0..k`
    /// in first-appearance order.
    pub fn from_labels(mut labels: Vec<Option<u32>>) -> Self {
        let mut remap: HashMap<u32, u32> = HashMap::new();
        let mut next = 0u32;
        for l in labels.iter_mut().flatten() {
            let entry = remap.entry(*l).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            });
            *l = *entry;
        }
        PartialClustering {
            labels,
            num_clusters: next,
        }
    }

    /// A total clustering viewed as a partial one.
    pub fn from_total(c: &Clustering) -> Self {
        PartialClustering {
            labels: c.labels().iter().map(|&l| Some(l)).collect(),
            num_clusters: c.num_clusters() as u32,
        }
    }

    /// Number of objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` if there are no objects.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of (non-missing) clusters.
    #[inline]
    pub fn num_clusters(&self) -> usize {
        self.num_clusters as usize
    }

    /// Label of object `v`, or `None` if missing.
    #[inline]
    pub fn label(&self, v: usize) -> Option<u32> {
        self.labels[v]
    }

    /// The underlying label vector.
    #[inline]
    pub fn labels(&self) -> &[Option<u32>] {
        &self.labels
    }

    /// Number of objects with a missing label.
    pub fn num_missing(&self) -> usize {
        self.labels.iter().filter(|l| l.is_none()).count()
    }

    /// Packed-lane code of object `v` for the SWAR kernels
    /// ([`crate::kernels`]): `0` when the label is missing, otherwise the
    /// normalized label plus one.
    #[inline]
    pub fn lane_code(&self, v: usize) -> u64 {
        self.labels[v].map_or(0, |l| l as u64 + 1)
    }

    /// Largest lane code this clustering can produce (= its cluster
    /// count). Decides whether [`crate::kernels::LabelMatrix`] can use
    /// 16-bit lanes.
    #[inline]
    pub fn max_lane_code(&self) -> u64 {
        self.num_clusters as u64
    }

    /// Convert to a total [`Clustering`] by placing every unlabeled object
    /// in its own fresh singleton cluster.
    pub fn complete_with_singletons(&self) -> Clustering {
        let mut next = self.num_clusters;
        let labels = self
            .labels
            .iter()
            .map(|l| match l {
                Some(l) => *l,
                None => {
                    let id = next;
                    next += 1;
                    id
                }
            })
            .collect();
        Clustering::from_labels(labels)
    }
}

impl fmt::Debug for PartialClustering {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PartialClustering(k={}, missing={}, n={})",
            self.num_clusters,
            self.num_missing(),
            self.labels.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_first_appearance() {
        let c = Clustering::from_labels(vec![5, 2, 5, 9, 2]);
        assert_eq!(c.labels(), &[0, 1, 0, 2, 1]);
        assert_eq!(c.num_clusters(), 3);
    }

    #[test]
    fn equality_is_partition_equality() {
        let a = Clustering::from_labels(vec![1, 1, 0, 2]);
        let b = Clustering::from_labels(vec![10, 10, 20, 30]);
        assert_eq!(a, b);
        let c = Clustering::from_labels(vec![0, 1, 1, 2]);
        assert_ne!(a, c);
    }

    #[test]
    fn from_clusters_roundtrip() {
        let c = Clustering::from_clusters(5, &[vec![0, 2], vec![1], vec![3, 4]]);
        assert_eq!(c.labels(), &[0, 1, 0, 2, 2]);
        assert_eq!(c.clusters(), vec![vec![0, 2], vec![1], vec![3, 4]]);
    }

    #[test]
    #[should_panic(expected = "more than one cluster")]
    fn from_clusters_rejects_overlap() {
        let _ = Clustering::from_clusters(3, &[vec![0, 1], vec![1, 2]]);
    }

    #[test]
    #[should_panic(expected = "not covered")]
    fn from_clusters_rejects_uncovered() {
        let _ = Clustering::from_clusters(3, &[vec![0, 1]]);
    }

    #[test]
    fn singletons_and_one_cluster() {
        let s = Clustering::singletons(4);
        assert_eq!(s.num_clusters(), 4);
        assert_eq!(s.pairs_together(), 0);
        let o = Clustering::one_cluster(4);
        assert_eq!(o.num_clusters(), 1);
        assert_eq!(o.pairs_together(), 6);
        assert_eq!(Clustering::one_cluster(0).num_clusters(), 0);
    }

    #[test]
    fn cluster_sizes_and_singleton_count() {
        let c = Clustering::from_labels(vec![0, 0, 1, 2, 2, 2]);
        assert_eq!(c.cluster_sizes(), vec![2, 1, 3]);
        assert_eq!(c.num_singletons(), 1);
    }

    #[test]
    fn restrict_renumbers() {
        let c = Clustering::from_labels(vec![0, 0, 1, 1, 2]);
        let r = c.restrict(&[2, 3, 4]);
        assert_eq!(r.labels(), &[0, 0, 1]);
    }

    #[test]
    fn refinement() {
        let fine = Clustering::from_labels(vec![0, 1, 2, 2]);
        let coarse = Clustering::from_labels(vec![0, 0, 1, 1]);
        assert!(fine.refines(&coarse));
        assert!(!coarse.refines(&fine));
        assert!(fine.refines(&fine));
        assert!(Clustering::singletons(4).refines(&coarse));
        assert!(coarse.refines(&Clustering::one_cluster(4)));
    }

    #[test]
    fn partial_clustering_basics() {
        let p = PartialClustering::from_labels(vec![Some(3), None, Some(3), Some(1), None]);
        assert_eq!(p.num_clusters(), 2);
        assert_eq!(p.num_missing(), 2);
        assert_eq!(p.label(0), Some(0));
        assert_eq!(p.label(3), Some(1));
        let total = p.complete_with_singletons();
        assert_eq!(total.num_clusters(), 4);
        assert!(total.same_cluster(0, 2));
        assert!(!total.same_cluster(1, 4));
    }

    #[test]
    fn partial_from_total() {
        let c = Clustering::from_labels(vec![0, 1, 0]);
        let p = PartialClustering::from_total(&c);
        assert_eq!(p.num_missing(), 0);
        assert_eq!(p.complete_with_singletons(), c);
    }
}
