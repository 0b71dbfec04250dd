//! Generic agglomerative (hierarchical) clustering via the
//! nearest-neighbor-chain algorithm.
//!
//! This module is the shared engine behind the paper's AGGLOMERATIVE
//! aggregation algorithm (average linkage on `X_uv`, stop at ½ — see
//! [`crate::algorithms::agglomerative`]) and the vanilla hierarchical
//! baselines of Figure 3 (single / complete / average / Ward linkage on
//! Euclidean point distances, in `aggclust-baselines`).
//!
//! The NN-chain algorithm runs in `O(n²)` time and `O(n)` memory beyond the
//! condensed distance matrix, and produces the same dendrogram as the naive
//! `O(n³)` greedy procedure for every *reducible* linkage — which all four
//! Lance–Williams linkages used here are.

use std::sync::Arc;

use crate::clustering::Clustering;
use crate::instance::DistanceOracle;
use crate::parallel::{self, Layout};
use crate::robust::{Interrupt, MemCharge, RunBudget, RunStatus};
use crate::snapshot::{AgglomerativeSnapshot, AlgorithmSnapshot, Checkpointer, MergeRecord};
use crate::telemetry;

/// Minimum matrix size before the nearest-neighbor lookups inside the
/// chain loop are chunked across worker threads; the per-step scan is
/// `O(n)`, so small instances are faster serial. The threshold cannot
/// change the dendrogram — the parallel arg-min reproduces the serial
/// strict-`<` scan exactly, earliest index on ties.
const NN_PAR_MIN: usize = 32_768;

/// Linkage criterion, expressed through Lance–Williams update coefficients.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkageMethod {
    /// `d(A∪B, C) = min(d(A,C), d(B,C))`.
    Single,
    /// `d(A∪B, C) = max(d(A,C), d(B,C))`.
    Complete,
    /// `d(A∪B, C) = (|A|·d(A,C) + |B|·d(B,C)) / (|A|+|B|)` (UPGMA).
    Average,
    /// Ward's minimum-variance criterion; the input matrix must contain
    /// *squared* Euclidean distances and returned heights are in the same
    /// squared scale.
    Ward,
}

impl LinkageMethod {
    /// Lance–Williams update for the distance from the merged cluster
    /// `A ∪ B` to another cluster `C`, given the three pre-merge distances
    /// and cluster sizes.
    #[inline]
    fn update(self, d_ac: f64, d_bc: f64, d_ab: f64, sa: f64, sb: f64, sc: f64) -> f64 {
        match self {
            LinkageMethod::Single => d_ac.min(d_bc),
            LinkageMethod::Complete => d_ac.max(d_bc),
            LinkageMethod::Average => (sa * d_ac + sb * d_bc) / (sa + sb),
            LinkageMethod::Ward => {
                let t = sa + sb + sc;
                ((sa + sc) * d_ac + (sb + sc) * d_bc - sc * d_ab) / t
            }
        }
    }
}

/// A symmetric distance matrix in condensed (upper-triangle) form, the
/// working storage for [`linkage`]. The algorithm mutates it in place.
#[derive(Clone, Debug)]
pub struct CondensedMatrix {
    n: usize,
    data: Vec<f64>,
    // Keeps the matrix's bytes on the owning budget's MemGauge for as long
    // as the matrix lives; None for ungoverned constructions.
    charge: Option<Arc<MemCharge>>,
}

impl CondensedMatrix {
    /// Build from a distance function over pairs `u < v`, serially. Kept
    /// for stateful `FnMut` closures; prefer
    /// [`CondensedMatrix::from_fn_sync`] for pure distance functions.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for u in 0..n {
            for v in (u + 1)..n {
                data.push(f(u, v));
            }
        }
        CondensedMatrix {
            n,
            data,
            charge: None,
        }
    }

    /// Build from a pure distance function, filling the triangle in
    /// parallel row chunks. Same matrix as [`CondensedMatrix::from_fn`] at
    /// any thread count.
    pub fn from_fn_sync(n: usize, f: impl Fn(usize, usize) -> f64 + Sync) -> Self {
        let fill = parallel::try_fill_upper(
            n,
            0..n,
            Layout::Condensed,
            n,
            || (),
            parallel::pairwise(f),
            &RunBudget::unlimited(),
        );
        CondensedMatrix {
            n,
            // An unlimited budget never trips.
            data: fill.unwrap_or_default(),
            charge: None,
        }
    }

    /// Copy the distances out of any [`DistanceOracle`] (in parallel),
    /// walking pairs in cache-blocked column bands so packed lazy oracles
    /// ([`crate::instance::ClusteringsOracle`]) stream their label rows
    /// cache-resident. Same matrix as a row-major fill.
    pub fn from_oracle<O: DistanceOracle + Sync + ?Sized>(oracle: &O) -> Self {
        CondensedMatrix {
            n: oracle.len(),
            // An unlimited budget never trips.
            data: Self::try_fill(oracle, &RunBudget::unlimited()).unwrap_or_default(),
            charge: None,
        }
    }

    /// Budgeted [`CondensedMatrix::from_oracle`]: the `n(n−1)/2 × 8`-byte
    /// allocation is first reserved against the budget's memory cap —
    /// [`Interrupt::MemoryExceeded`] if it does not fit —
    /// and the parallel fill then polls the budget between row chunks and
    /// aborts early on a trip, since a half-filled matrix is useless. The
    /// matrix holds its memory charge for as long as it lives.
    pub fn try_from_oracle<O: DistanceOracle + Sync + ?Sized>(
        oracle: &O,
        budget: &RunBudget,
    ) -> Result<Self, Interrupt> {
        let n = oracle.len();
        let bytes = (n as u64) * (n.saturating_sub(1) as u64) / 2 * 8;
        let charge = budget.try_reserve(bytes)?;
        Ok(CondensedMatrix {
            n,
            data: Self::try_fill(oracle, budget)?,
            charge: Some(Arc::new(charge)),
        })
    }

    /// The oracle's condensed triangle, filled in its preferred band.
    fn try_fill<O: DistanceOracle + Sync + ?Sized>(
        oracle: &O,
        budget: &RunBudget,
    ) -> Result<Vec<f64>, Interrupt> {
        let n = oracle.len();
        let pair = |u, v| oracle.dist(u, v);
        parallel::try_fill_upper(
            n,
            0..n,
            Layout::Condensed,
            oracle.preferred_band(),
            || (),
            parallel::pairwise(pair),
            budget,
        )
    }

    /// Bytes this matrix holds against a budget's
    /// [`crate::robust::MemGauge`], when built through the governed
    /// [`CondensedMatrix::try_from_oracle`] path.
    pub fn mem_charge_bytes(&self) -> Option<u64> {
        self.charge.as_ref().map(|c| c.bytes())
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if there are no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    #[inline]
    fn idx(&self, u: usize, v: usize) -> usize {
        debug_assert!(u != v && u < self.n && v < self.n);
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        a * (2 * self.n - a - 1) / 2 + (b - a - 1)
    }

    /// Distance between points `u ≠ v`.
    #[inline]
    pub fn get(&self, u: usize, v: usize) -> f64 {
        self.data[self.idx(u, v)]
    }

    /// Overwrite the distance between points `u ≠ v`.
    #[inline]
    pub fn set(&mut self, u: usize, v: usize, d: f64) {
        let i = self.idx(u, v);
        self.data[i] = d;
    }
}

/// One merge step of a dendrogram. Node ids `0..n` are the original points;
/// node `n + i` is the cluster created by the `i`-th merge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Merge {
    /// First merged node.
    pub a: usize,
    /// Second merged node.
    pub b: usize,
    /// Linkage distance at which the merge happened.
    pub height: f64,
    /// Size of the resulting cluster.
    pub size: usize,
}

/// The full merge tree produced by [`linkage`].
#[derive(Clone, Debug)]
pub struct Dendrogram {
    n: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// Number of original points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if built over zero points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The `n − 1` merges, in NN-chain discovery order (not necessarily by
    /// ascending height; use the cut methods, which sort internally).
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Merge indices sorted by `(height, discovery order)` — children always
    /// precede parents for monotone linkages.
    fn sorted_merge_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.merges.len()).collect();
        order.sort_by(|&i, &j| {
            self.merges[i]
                .height
                .partial_cmp(&self.merges[j].height)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(i.cmp(&j))
        });
        order
    }

    /// Flat clustering obtained by applying merges in ascending height order
    /// until exactly `k` clusters remain. On a *partial* dendrogram (a
    /// budget-interrupted [`linkage_budgeted`] run) fewer merges may exist
    /// than `n − k`; all available merges are applied and the cut has more
    /// than `k` clusters.
    ///
    /// # Panics
    /// Panics if `k` is 0 or greater than `n` (for `n > 0`).
    pub fn cut_num_clusters(&self, k: usize) -> Clustering {
        assert!(k >= 1 && k <= self.n.max(1), "k = {k} out of range");
        let to_apply = (self.n - k).min(self.merges.len());
        self.replay(&self.sorted_merge_order()[..to_apply])
    }

    /// Flat clustering obtained by applying every merge with
    /// `height < threshold` (strict, matching the paper's "merge while the
    /// closest pair's average distance is less than ½").
    pub fn cut_height(&self, threshold: f64) -> Clustering {
        let order = self.sorted_merge_order();
        let keep: Vec<usize> = order
            .into_iter()
            .filter(|&i| self.merges[i].height < threshold)
            .collect();
        self.replay(&keep)
    }

    /// Merge heights in ascending order — the sequence of linkage
    /// distances at which the clustering coarsens (useful for choosing a
    /// cut threshold by inspecting gaps).
    pub fn sorted_heights(&self) -> Vec<f64> {
        let mut hs: Vec<f64> = self.merges.iter().map(|m| m.height).collect();
        hs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        hs
    }

    /// The number of clusters obtained at every possible height: returns
    /// `(height, clusters_after_merging_at_that_height)` pairs in ascending
    /// height order, starting from `n` singleton clusters.
    pub fn cluster_count_profile(&self) -> Vec<(f64, usize)> {
        let mut out = Vec::with_capacity(self.merges.len());
        let mut k = self.n;
        for h in self.sorted_heights() {
            k -= 1;
            out.push((h, k));
        }
        out
    }

    /// Full cophenetic distance matrix: `cophenetic[u][v]` is the height of
    /// the merge at which `u` and `v` first share a cluster. The classic
    /// dendrogram-validation quantity (compare to the original distances
    /// for the cophenetic correlation). `O(n²)` output; intended for
    /// moderate `n`.
    pub fn cophenetic_matrix(&self) -> Vec<Vec<f64>> {
        let n = self.n;
        let mut out = vec![vec![0.0f64; n]; n];
        // Track the member set of every dendrogram node, replaying merges
        // in ascending height order; when two sets join, all cross pairs
        // get the merge height.
        let mut members: Vec<Option<Vec<usize>>> = (0..n).map(|v| Some(vec![v])).collect();
        members.resize_with(n + self.merges.len(), || None);
        for &i in &self.sorted_merge_order() {
            let m = self.merges[i];
            // Children are present exactly once for monotone linkages; an
            // empty set (impossible for well-formed dendrograms) simply
            // contributes no pairs instead of aborting.
            let a = members[m.a].take().unwrap_or_default();
            let b = members[m.b].take().unwrap_or_default();
            for &u in &a {
                for &v in &b {
                    out[u][v] = m.height;
                    out[v][u] = m.height;
                }
            }
            let mut joined = a;
            joined.extend(b);
            members[self.n + i] = Some(joined);
        }
        out
    }

    /// Replay a set of merges through a union-find over the node-id space.
    ///
    /// For monotone linkages the applied set (a height-sorted prefix) is
    /// downward-closed in the merge tree, so every referenced child node
    /// already has its leaves attached when its parent merge is applied.
    fn replay(&self, merge_indices: &[usize]) -> Clustering {
        let total = self.n + self.merges.len();
        let mut parent: Vec<usize> = (0..total).collect();

        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }

        for &i in merge_indices {
            let m = &self.merges[i];
            let node = self.n + i;
            let ra = find(&mut parent, m.a);
            let rb = find(&mut parent, m.b);
            parent[ra] = node;
            parent[rb] = node;
        }
        let labels: Vec<u32> = (0..self.n).map(|v| find(&mut parent, v) as u32).collect();
        Clustering::from_labels(labels)
    }
}

/// Run agglomerative clustering with the given linkage over a condensed
/// distance matrix (consumed as working storage).
///
/// Returns the full dendrogram; use [`Dendrogram::cut_num_clusters`] or
/// [`Dendrogram::cut_height`] for a flat clustering.
pub fn linkage(dist: CondensedMatrix, method: LinkageMethod) -> Dendrogram {
    linkage_budgeted(dist, method, &RunBudget::unlimited()).0
}

/// Budgeted [`linkage`]: one budget iteration per merge (each is an `O(n)`
/// chain-growth step amortized). On a trip, returns the *partial* dendrogram
/// built so far — its cut methods still produce valid (finer) clusterings —
/// along with how the run ended and the iterations consumed.
pub fn linkage_budgeted(
    dist: CondensedMatrix,
    method: LinkageMethod,
    budget: &RunBudget,
) -> (Dendrogram, RunStatus, u64) {
    linkage_resumable(dist, method, budget, None, None)
}

/// Map a snapshot's merge list (over *node ids*) onto the `(x, y)` row
/// pairs the replay must merge, validating every structural invariant on
/// the way. `None` means the snapshot cannot belong to this instance (or is
/// internally inconsistent) and the caller must start fresh — critically,
/// this runs **before** the distance matrix is mutated, so a rejected
/// snapshot leaves the matrix intact for the fresh run.
fn replay_plan(snap: &AgglomerativeSnapshot, n: usize) -> Option<Vec<(usize, usize)>> {
    if snap.n as usize != n || n == 0 || snap.merges.len() >= n {
        return None;
    }
    // node_row[id] = the matrix row currently holding dendrogram node `id`.
    let mut node_row: Vec<usize> = (0..n).collect();
    let mut consumed: Vec<bool> = vec![false; n + snap.merges.len()];
    let mut active: Vec<bool> = vec![true; n];
    let mut plan = Vec::with_capacity(snap.merges.len());
    for (i, m) in snap.merges.iter().enumerate() {
        let (a, b) = (m.a as usize, m.b as usize);
        // A merge may only reference nodes that already exist and have not
        // been merged away.
        if a >= n + i || b >= n + i || a == b || consumed[a] || consumed[b] {
            return None;
        }
        let (x, y) = (node_row[a], node_row[b]);
        if x == y || !active[x] || !active[y] {
            return None;
        }
        consumed[a] = true;
        consumed[b] = true;
        active[x] = false;
        node_row.push(y); // node n + i lives in row y
        plan.push((x, y));
    }
    // The saved NN-chain must reference live, distinct rows.
    let mut on_chain = vec![false; n];
    for &c in &snap.chain {
        let c = usize::try_from(c).ok().filter(|&c| c < n)?;
        if !active[c] || on_chain[c] {
            return None;
        }
        on_chain[c] = true;
    }
    Some(plan)
}

/// Resumable [`linkage_budgeted`].
///
/// With `resume`, the saved merge list is replayed through the same
/// Lance–Williams updates (deterministic, so the matrix state after replay
/// is bit-identical to the state when the snapshot was taken), the saved
/// NN-chain is restored verbatim — restarting with an empty chain would
/// change merge *discovery order*, and [`Dendrogram::cut_num_clusters`]
/// breaks height ties by discovery index — and the meter continues from the
/// snapshot's iteration count so an iteration cap bounds total work across
/// the interrupt. A snapshot that fails validation is ignored (fresh run).
///
/// With `ckpt`, a checkpoint becomes eligible after every merge and a final
/// one is forced when the budget interrupts the run.
pub fn linkage_resumable(
    mut dist: CondensedMatrix,
    method: LinkageMethod,
    budget: &RunBudget,
    resume: Option<&AgglomerativeSnapshot>,
    mut ckpt: Option<&mut Checkpointer>,
) -> (Dendrogram, RunStatus, u64) {
    let n = dist.n;
    let _span = crate::span!(
        "linkage",
        n = n,
        method = format!("{method:?}"),
        resuming = resume.is_some()
    );
    if n == 0 {
        return (
            Dendrogram {
                n,
                merges: Vec::new(),
            },
            RunStatus::Converged,
            0,
        );
    }
    let mut size: Vec<f64> = vec![1.0; n];
    let mut node_id: Vec<usize> = (0..n).collect();
    let mut active: Vec<bool> = vec![true; n];
    let mut chain: Vec<usize> = Vec::with_capacity(n);
    let mut merges: Vec<Merge> = Vec::with_capacity(n.saturating_sub(1));

    if let Some(plan) = resume.and_then(|snap| replay_plan(snap, n).map(|p| (snap, p))) {
        let (snap, plan) = plan;
        for (i, &(x, y)) in plan.iter().enumerate() {
            let (sa, sb) = (size[x], size[y]);
            let d_ab = dist.get(x, y);
            for z in 0..n {
                if z != x && z != y && active[z] {
                    let d_new =
                        method.update(dist.get(x, z), dist.get(y, z), d_ab, sa, sb, size[z]);
                    dist.set(y, z, d_new);
                }
            }
            active[x] = false;
            size[y] = sa + sb;
            merges.push(Merge {
                a: node_id[x],
                b: node_id[y],
                height: d_ab,
                size: size[y] as usize,
            });
            node_id[y] = n + i;
        }
        chain = snap.chain.iter().map(|&c| c as usize).collect();
    }

    let snapshot_state = |merges: &[Merge], chain: &[usize]| {
        AlgorithmSnapshot::Agglomerative(AgglomerativeSnapshot {
            n: n as u64,
            merges: merges
                .iter()
                .map(|m| MergeRecord {
                    a: m.a as u64,
                    b: m.b as u64,
                    height: m.height,
                    size: m.size as u64,
                })
                .collect(),
            chain: chain.iter().map(|&c| c as u64).collect(),
            // Completed units of work: one tick per merge performed.
            iterations: merges.len() as u64,
        })
    };

    let mut meter = budget.meter_from(merges.len() as u64);
    let mut heartbeat =
        telemetry::Heartbeat::new("linkage", n.saturating_sub(1) as u64).with_budget(budget);
    for _ in merges.len()..n.saturating_sub(1) {
        heartbeat.tick(merges.len() as u64);
        if let Err(interrupt) = meter.tick() {
            if let Some(ckpt) = ckpt.as_deref_mut() {
                let _ = ckpt.save_now(snapshot_state(&merges, &chain));
            }
            return (
                Dendrogram { n, merges },
                interrupt.status(),
                meter.iterations(),
            );
        }
        if chain.is_empty() {
            telemetry::metrics()
                .linkage_chain_rebuilds
                .incr_if_enabled();
            // While merges remain, an active cluster always exists; the
            // fallback index is unreachable and only avoids a panic path.
            let first = active.iter().position(|&a| a).unwrap_or(0);
            chain.push(first);
        }
        // Grow the chain until we find a reciprocal nearest-neighbor pair.
        let (x, y, height) = loop {
            // Non-empty by construction: seeded above, and the reciprocal
            // pair popped at the end of each outer step leaves the re-seed
            // branch to run first.
            let x = chain.last().copied().unwrap_or(0);
            // Prefer the chain predecessor on ties so the chain terminates.
            let mut best;
            let mut best_d;
            if chain.len() >= 2 {
                best = chain[chain.len() - 2];
                best_d = dist.get(x, best);
            } else {
                best = usize::MAX;
                best_d = f64::INFINITY;
            }
            if n >= NN_PAR_MIN {
                // Chunked arg-min: earliest active index with the strictly
                // smallest distance — exactly what the serial scan below
                // finds. An equal-distance hit never displaces the chain
                // predecessor (strict `<` against its distance).
                let active = &active;
                let dist = &dist;
                if let Some((z, d)) =
                    parallel::arg_min_by(n, |z| (z != x && active[z]).then(|| dist.get(x, z)))
                {
                    if d < best_d {
                        best_d = d;
                        best = z;
                    }
                }
            } else {
                for (z, &is_active) in active.iter().enumerate() {
                    if z != x && is_active && dist.get(x, z) < best_d {
                        best_d = dist.get(x, z);
                        best = z;
                    }
                }
            }
            debug_assert!(best != usize::MAX);
            if chain.len() >= 2 && best == chain[chain.len() - 2] {
                break (x, best, best_d);
            }
            chain.push(best);
        };
        // Remove the reciprocal pair from the chain.
        chain.pop();
        chain.pop();

        // Merge x into y's slot: update distances with Lance–Williams.
        let (sa, sb) = (size[x], size[y]);
        let d_ab = dist.get(x, y);
        for z in 0..n {
            if z != x && z != y && active[z] {
                let d_new = method.update(dist.get(x, z), dist.get(y, z), d_ab, sa, sb, size[z]);
                dist.set(y, z, d_new);
            }
        }
        active[x] = false;
        size[y] = sa + sb;
        let new_node = n + merges.len();
        merges.push(Merge {
            a: node_id[x],
            b: node_id[y],
            height,
            size: size[y] as usize,
        });
        node_id[y] = new_node;
        // Fresh merges only: snapshot replay above repeats Lance–Williams
        // updates, not merge decisions, so a resumed run's merge counter
        // matches the uninterrupted run's.
        telemetry::metrics().linkage_merges.incr_if_enabled();

        if let Some(ckpt) = ckpt.as_deref_mut() {
            ckpt.maybe_save(|| snapshot_state(&merges, &chain));
        }
    }

    (
        Dendrogram { n, merges },
        RunStatus::Converged,
        meter.iterations(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1-D points whose single-linkage structure is obvious.
    fn line_matrix(points: &[f64]) -> CondensedMatrix {
        CondensedMatrix::from_fn(points.len(), |u, v| (points[u] - points[v]).abs())
    }

    #[test]
    fn single_linkage_on_a_line() {
        // Two well-separated groups: {0.0, 0.1, 0.2} and {10.0, 10.1}.
        let pts = [0.0, 0.1, 0.2, 10.0, 10.1];
        let dend = linkage(line_matrix(&pts), LinkageMethod::Single);
        let c = dend.cut_num_clusters(2);
        assert_eq!(c.num_clusters(), 2);
        assert!(c.same_cluster(0, 1) && c.same_cluster(1, 2));
        assert!(c.same_cluster(3, 4));
        assert!(!c.same_cluster(0, 3));
    }

    #[test]
    fn cut_height_strictness() {
        let pts = [0.0, 1.0, 3.0];
        let dend = linkage(line_matrix(&pts), LinkageMethod::Single);
        // Merges happen at 1.0 (0–1) then 2.0 ({0,1}–2).
        assert_eq!(dend.cut_height(0.5).num_clusters(), 3);
        assert_eq!(dend.cut_height(1.0).num_clusters(), 3); // strict <
        assert_eq!(dend.cut_height(1.5).num_clusters(), 2);
        assert_eq!(dend.cut_height(2.5).num_clusters(), 1);
    }

    #[test]
    fn cut_num_clusters_extremes() {
        let pts = [0.0, 1.0, 2.0, 5.0];
        let dend = linkage(line_matrix(&pts), LinkageMethod::Average);
        assert_eq!(dend.cut_num_clusters(4), Clustering::singletons(4));
        assert_eq!(dend.cut_num_clusters(1), Clustering::one_cluster(4));
    }

    #[test]
    fn average_linkage_heights_match_manual_computation() {
        // Three points on a line: 0, 1, 5.
        let pts = [0.0, 1.0, 5.0];
        let dend = linkage(line_matrix(&pts), LinkageMethod::Average);
        let mut heights: Vec<f64> = dend.merges().iter().map(|m| m.height).collect();
        heights.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // First merge 0–1 at 1.0; then {0,1}–2 at avg(5, 4) = 4.5.
        assert!((heights[0] - 1.0).abs() < 1e-12);
        assert!((heights[1] - 4.5).abs() < 1e-12);
    }

    #[test]
    fn complete_linkage_heights() {
        let pts = [0.0, 1.0, 5.0];
        let dend = linkage(line_matrix(&pts), LinkageMethod::Complete);
        let mut heights: Vec<f64> = dend.merges().iter().map(|m| m.height).collect();
        heights.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((heights[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn ward_prefers_balanced_merges() {
        // Squared distances for points 0, 1, 2 on a line: Ward should first
        // merge the closest pair like everyone else.
        let pts = [0.0f64, 1.0, 10.0];
        let m = CondensedMatrix::from_fn(3, |u, v| (pts[u] - pts[v]).powi(2));
        let dend = linkage(m, LinkageMethod::Ward);
        let c = dend.cut_num_clusters(2);
        assert!(c.same_cluster(0, 1));
        assert!(!c.same_cluster(0, 2));
    }

    #[test]
    fn matches_naive_greedy_for_average_linkage() {
        // Compare against a brute-force O(n³) greedy implementation on a
        // small random-ish matrix.
        let n = 12;
        let vals: Vec<f64> = (0..n * n)
            .map(|i| ((i * 37 + 11) % 97) as f64 / 97.0)
            .collect();
        let matrix = CondensedMatrix::from_fn(n, |u, v| {
            let a = vals[u * n + v];
            let b = vals[v * n + u];
            (a + b) / 2.0
        });

        // Naive greedy average linkage.
        let mut clusters: Vec<Vec<usize>> = (0..n).map(|v| vec![v]).collect();
        let base = matrix.clone();
        let avg = |a: &[usize], b: &[usize]| -> f64 {
            let mut s = 0.0;
            for &u in a {
                for &v in b {
                    s += base.get(u, v);
                }
            }
            s / (a.len() * b.len()) as f64
        };
        let mut naive_heights = Vec::new();
        while clusters.len() > 1 {
            let mut best = (0, 1, f64::INFINITY);
            for i in 0..clusters.len() {
                for j in (i + 1)..clusters.len() {
                    let d = avg(&clusters[i], &clusters[j]);
                    if d < best.2 {
                        best = (i, j, d);
                    }
                }
            }
            naive_heights.push(best.2);
            let merged = clusters.remove(best.1);
            clusters[best.0].extend(merged);
        }

        let dend = linkage(matrix, LinkageMethod::Average);
        let mut heights: Vec<f64> = dend.merges().iter().map(|m| m.height).collect();
        heights.sort_by(|a, b| a.partial_cmp(b).unwrap());
        naive_heights.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (h, nh) in heights.iter().zip(naive_heights.iter()) {
            assert!((h - nh).abs() < 1e-9, "{h} vs {nh}");
        }
    }

    #[test]
    fn merge_sizes_sum_to_n() {
        let pts = [0.0, 1.0, 2.0, 3.0, 10.0];
        let dend = linkage(line_matrix(&pts), LinkageMethod::Single);
        assert_eq!(dend.merges().last().unwrap().size, 5);
    }

    #[test]
    fn cophenetic_matches_single_linkage_on_a_line() {
        // For single linkage on a line, the cophenetic distance between u
        // and v is the largest gap between consecutive points in [u, v].
        let pts = [0.0, 1.0, 1.5, 4.0];
        let dend = linkage(line_matrix(&pts), LinkageMethod::Single);
        let coph = dend.cophenetic_matrix();
        assert!((coph[0][1] - 1.0).abs() < 1e-12);
        assert!((coph[1][2] - 0.5).abs() < 1e-12);
        assert!((coph[0][2] - 1.0).abs() < 1e-12); // max gap in 0..2
        assert!((coph[0][3] - 2.5).abs() < 1e-12); // the 1.5→4.0 gap
                                                   // Symmetry and zero diagonal.
        for (u, row) in coph.iter().enumerate() {
            assert_eq!(row[u], 0.0);
            for (v, &d) in row.iter().enumerate() {
                assert_eq!(d, coph[v][u]);
            }
        }
    }

    #[test]
    fn cophenetic_is_ultrametric() {
        let pts = [0.0, 0.9, 2.0, 5.5, 6.0, 9.0];
        for method in [LinkageMethod::Single, LinkageMethod::Average] {
            let dend = linkage(line_matrix(&pts), method);
            let coph = dend.cophenetic_matrix();
            for u in 0..6 {
                for v in 0..6 {
                    for w in 0..6 {
                        assert!(
                            coph[u][w] <= coph[u][v].max(coph[v][w]) + 1e-9,
                            "{method:?}: ultrametric violated"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cluster_count_profile_descends_to_one() {
        let pts = [0.0, 1.0, 2.0, 10.0, 11.0];
        let dend = linkage(line_matrix(&pts), LinkageMethod::Average);
        let profile = dend.cluster_count_profile();
        assert_eq!(profile.len(), 4);
        assert_eq!(profile.last().unwrap().1, 1);
        // Heights ascend, counts descend.
        for w in profile.windows(2) {
            assert!(w[0].0 <= w[1].0 + 1e-12);
            assert_eq!(w[0].1, w[1].1 + 1);
        }
    }

    #[test]
    fn budget_trip_leaves_a_usable_partial_dendrogram() {
        let pts = [0.0, 1.0, 2.0, 3.0, 10.0, 11.0];
        // Allow exactly two merges, then trip on the iteration cap.
        let budget = RunBudget::unlimited().with_max_iters(2);
        let (dend, status, iters) =
            linkage_budgeted(line_matrix(&pts), LinkageMethod::Average, &budget);
        assert_eq!(status, RunStatus::BudgetExceeded);
        assert_eq!(iters, 3); // the third tick tripped
        assert_eq!(dend.merges().len(), 2);
        // Cuts on the partial tree are valid clusterings, just finer than
        // requested: 6 points, 2 merges → at least 4 clusters.
        let c = dend.cut_num_clusters(1);
        assert_eq!(c.len(), 6);
        assert_eq!(c.num_clusters(), 4);
        assert_eq!(dend.cut_height(f64::INFINITY).num_clusters(), 4);
    }

    #[test]
    fn budgeted_unlimited_matches_plain_linkage() {
        let pts = [0.0, 0.9, 2.0, 5.5, 6.0, 9.0];
        let plain = linkage(line_matrix(&pts), LinkageMethod::Average);
        let (budgeted, status, _) = linkage_budgeted(
            line_matrix(&pts),
            LinkageMethod::Average,
            &RunBudget::unlimited(),
        );
        assert_eq!(status, RunStatus::Converged);
        assert_eq!(plain.merges(), budgeted.merges());
    }

    #[test]
    fn interrupt_and_resume_reproduce_the_full_dendrogram_exactly() {
        use crate::snapshot::{load_snapshot, SnapshotLoad};
        use std::time::Duration;

        let pts = [0.0, 0.9, 2.0, 5.5, 6.0, 9.0, 12.5, 13.0];
        let full = linkage(line_matrix(&pts), LinkageMethod::Average);

        let dir = std::env::temp_dir().join("aggclust_linkage_resume_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        for cap in 1..pts.len() as u64 - 1 {
            let path = dir.join(format!("ckpt_{cap}.bin"));
            let mut ckpt = Checkpointer::new(&path, Duration::ZERO);
            let budget = RunBudget::unlimited().with_max_iters(cap);
            let (partial, status, _) = linkage_resumable(
                line_matrix(&pts),
                LinkageMethod::Average,
                &budget,
                None,
                Some(&mut ckpt),
            );
            assert_eq!(status, RunStatus::BudgetExceeded);
            assert_eq!(partial.merges().len(), cap as usize);
            let snap = match load_snapshot(&path) {
                SnapshotLoad::Loaded(s) => s,
                other => panic!("no snapshot after interrupt: {other:?}"),
            };
            let agg = match snap.state {
                crate::snapshot::AlgorithmSnapshot::Agglomerative(a) => a,
                other => panic!("wrong snapshot kind: {other:?}"),
            };
            assert_eq!(agg.merges.len(), cap as usize);
            // Resume on a freshly built matrix with the same global cap the
            // reference run had (unlimited): bit-identical merge list.
            let (resumed, status, iters) = linkage_resumable(
                line_matrix(&pts),
                LinkageMethod::Average,
                &RunBudget::unlimited(),
                Some(&agg),
                None,
            );
            assert_eq!(status, RunStatus::Converged);
            assert_eq!(iters, pts.len() as u64 - 1, "global iteration count");
            assert_eq!(resumed.merges(), full.merges(), "cap {cap}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_snapshot_falls_back_to_a_fresh_run() {
        let pts = [0.0, 1.0, 2.0, 10.0, 11.0];
        let full = linkage(line_matrix(&pts), LinkageMethod::Average);
        // Snapshot from a *different* instance size: rejected, fresh run.
        let stale = AgglomerativeSnapshot {
            n: 99,
            merges: vec![],
            chain: vec![],
            iterations: 0,
        };
        let (resumed, status, _) = linkage_resumable(
            line_matrix(&pts),
            LinkageMethod::Average,
            &RunBudget::unlimited(),
            Some(&stale),
            None,
        );
        assert_eq!(status, RunStatus::Converged);
        assert_eq!(resumed.merges(), full.merges());
        // Structurally impossible merge list: also rejected.
        let garbage = AgglomerativeSnapshot {
            n: pts.len() as u64,
            merges: vec![MergeRecord {
                a: 3,
                b: 3,
                height: 0.0,
                size: 2,
            }],
            chain: vec![],
            iterations: 1,
        };
        assert!(replay_plan(&garbage, pts.len()).is_none());
        // Chain referencing a dead row: rejected.
        let bad_chain = AgglomerativeSnapshot {
            n: pts.len() as u64,
            merges: vec![MergeRecord {
                a: 0,
                b: 1,
                height: 1.0,
                size: 2,
            }],
            chain: vec![0], // row 0 was deactivated by the merge above
            iterations: 1,
        };
        assert!(replay_plan(&bad_chain, pts.len()).is_none());
    }

    #[test]
    fn try_from_oracle_refuses_over_the_memory_cap() {
        use crate::instance::DenseOracle;
        let oracle = DenseOracle::from_fn(10, |_, _| 0.5);
        // 45 pairs → 360 bytes.
        let tight = RunBudget::unlimited().with_mem_limit_bytes(359);
        assert!(matches!(
            CondensedMatrix::try_from_oracle(&oracle, &tight),
            Err(crate::robust::Interrupt::MemoryExceeded { .. })
        ));
        assert_eq!(tight.mem_gauge().used_bytes(), 0);
        let roomy = RunBudget::unlimited().with_mem_limit_bytes(360);
        let matrix = CondensedMatrix::try_from_oracle(&oracle, &roomy).expect("fits");
        assert_eq!(matrix.mem_charge_bytes(), Some(360));
        assert_eq!(roomy.mem_gauge().used_bytes(), 360);
        drop(matrix);
        assert_eq!(roomy.mem_gauge().used_bytes(), 0);
    }

    #[test]
    fn empty_and_single_point() {
        let d0 = linkage(
            CondensedMatrix::from_fn(0, |_, _| 0.0),
            LinkageMethod::Single,
        );
        assert!(d0.merges().is_empty());
        let d1 = linkage(
            CondensedMatrix::from_fn(1, |_, _| 0.0),
            LinkageMethod::Single,
        );
        assert!(d1.merges().is_empty());
        assert_eq!(d1.cut_num_clusters(1).num_clusters(), 1);
    }
}
