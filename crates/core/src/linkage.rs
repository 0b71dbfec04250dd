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
//!
//! The working matrix holds one of two element types. `f64` distances are
//! updated by the Lance–Williams formula of the chosen method. When the
//! oracle proves that every distance is an exact fraction `k/den`
//! ([`DistanceOracle::exact_scale`]), [`CondensedMatrix::from_oracle`]
//! keeps `u32` pair sums `S_AB = Σ den·X_uv` instead, in half the bytes.
//! Average linkage then merges by integer addition and compares averages
//! by cross-multiplication, so equal averages tie exactly.
//!
//! The matrix is filled from any oracle through
//! [`DistanceOracle::numerators_into`]; from a
//! [`crate::instance::CorrelationInstance`] that reads the packed labels
//! directly, so AGGLOMERATIVE needs no dense code matrix next to it. The
//! fill of a matrix of sums also counts `Σ num` and `Σ min(num, den − num)`
//! over all pairs, and a [`Dendrogram`] built on sums keeps each merge's
//! `S_AB`: from the two, AGGLOMERATIVE prices its cut exactly without
//! reading a pair.

use std::sync::Arc;

use crate::clustering::Clustering;
use crate::instance::{DistanceOracle, PairTotals};
use crate::parallel::{self, Layout};
use crate::robust::{Interrupt, MemCharge, RunBudget, RunCtx, RunStatus};
use crate::snapshot::{AgglomerativeSnapshot, AlgorithmSnapshot, Checkpointer, MergeRecord};
use crate::telemetry;

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

/// The entries of a [`CondensedMatrix`].
#[derive(Clone, Debug)]
enum Cells {
    /// Distances.
    Values(Vec<f64>),
    /// Exact numerators `den·X_uv`: the pair sums of average linkage, with
    /// the totals over all pairs that their fill counted.
    Sums {
        sums: Vec<u32>,
        den: u32,
        totals: PairTotals,
    },
}

/// Whether `u32` pair sums over `n` objects at scale `den` cannot
/// overflow. A cluster-pair sum is at most `den·|A|·|B|`, and
/// `|A|·|B| ≤ ⌊n/2⌋·⌈n/2⌉`; at `den = 20` this holds up to n ≈ 29 000.
fn sums_fit(n: usize, den: u32) -> bool {
    let (lo, hi) = ((n / 2) as u64, n.div_ceil(2) as u64);
    u64::from(den)
        .checked_mul(lo)
        .and_then(|x| x.checked_mul(hi))
        .is_some_and(|x| x <= u64::from(u32::MAX))
}

/// The scale a matrix over `n` objects keeps sums at, given the oracle's
/// exact scale: the one place the element type is chosen.
fn sums_den(n: usize, scale: Option<u32>) -> Option<u32> {
    scale.filter(|&den| sums_fit(n, den))
}

/// A symmetric distance matrix in condensed (upper-triangle) form, the
/// working storage for [`linkage`]. The algorithm mutates it in place.
#[derive(Clone, Debug)]
pub struct CondensedMatrix {
    n: usize,
    cells: Cells,
    // Keeps the matrix's bytes on the owning budget's MemGauge for as long
    // as the matrix lives; None for ungoverned constructions.
    charge: Option<Arc<MemCharge>>,
}

impl CondensedMatrix {
    /// Build from a distance function over pairs `u < v`, serially. The
    /// matrix holds the `f64` values.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for u in 0..n {
            for v in (u + 1)..n {
                data.push(f(u, v));
            }
        }
        CondensedMatrix {
            n,
            cells: Cells::Values(data),
            charge: None,
        }
    }

    /// Copy the distances out of any [`DistanceOracle`] (in parallel),
    /// walking pairs in cache-blocked column bands so packed lazy oracles
    /// ([`crate::instance::CorrelationInstance`]) stream their label rows
    /// cache-resident. Same matrix as a row-major fill.
    ///
    /// When the oracle has an exact scale `den` and the sums of `n`
    /// objects fit `u32`, the matrix holds the numerators `den·X_uv`
    /// ([`DistanceOracle::numerators_into`]), and the fill's jobs also sum
    /// `Σ num` and `Σ min(num, den − num)` over the pairs they write;
    /// otherwise the `f64` distances.
    pub fn from_oracle<O: DistanceOracle + Sync + ?Sized>(oracle: &O) -> Self {
        CondensedMatrix {
            n: oracle.len(),
            // An unlimited budget never trips.
            cells: Self::try_fill(oracle, &RunBudget::unlimited())
                .unwrap_or(Cells::Values(Vec::new())),
            charge: None,
        }
    }

    /// Budgeted [`CondensedMatrix::from_oracle`]: the
    /// [`CondensedMatrix::bytes`] of the allocation are first reserved
    /// against the budget's memory cap — [`Interrupt::MemoryExceeded`] if
    /// they do not fit — and the parallel fill then polls the budget
    /// between row chunks and aborts early on a trip, since a half-filled
    /// matrix is useless. The matrix holds its memory charge for as long as
    /// it lives.
    pub fn try_from_oracle<O: DistanceOracle + Sync + ?Sized>(
        oracle: &O,
        budget: &RunBudget,
    ) -> Result<Self, Interrupt> {
        let n = oracle.len();
        let charge = budget.try_reserve(Self::bytes(n, oracle.exact_scale()))?;
        Ok(CondensedMatrix {
            n,
            cells: Self::try_fill(oracle, budget)?,
            charge: Some(Arc::new(charge)),
        })
    }

    /// Bytes of the matrix [`CondensedMatrix::try_from_oracle`] builds, and
    /// reserves, over `n` objects of an oracle with exact scale `scale`:
    /// `4·n(n−1)/2` when it keeps `u32` sums, `8·n(n−1)/2` for `f64`
    /// distances.
    pub fn bytes(n: usize, scale: Option<u32>) -> u64 {
        let pairs = (n as u64).saturating_mul(n.saturating_sub(1) as u64) / 2;
        let per_pair = if sums_den(n, scale).is_some() { 4 } else { 8 };
        pairs.saturating_mul(per_pair)
    }

    /// The oracle's condensed triangle, filled in its preferred band.
    fn try_fill<O: DistanceOracle + Sync + ?Sized>(
        oracle: &O,
        budget: &RunBudget,
    ) -> Result<Cells, Interrupt> {
        let n = oracle.len();
        let band = oracle.preferred_band();
        if let Some(den) = sums_den(n, oracle.exact_scale()) {
            let (sums, jobs) = parallel::try_fill_upper(
                n,
                Layout::Condensed,
                band,
                PairTotals::default,
                |totals: &mut PairTotals, u, vs, seg: &mut [u32]| {
                    oracle.numerators_into(u, vs, den, seg);
                    *totals = totals.add(PairTotals::of(seg, den));
                },
                |totals| totals,
                budget,
            )?;
            // Integer totals: the same at any thread count.
            let totals = jobs.into_iter().sum();
            return Ok(Cells::Sums { sums, den, totals });
        }
        let pair = |u, v| oracle.dist(u, v);
        let (values, _) = parallel::try_fill_upper(
            n,
            Layout::Condensed,
            band,
            || (),
            parallel::pairwise(pair),
            drop,
            budget,
        )?;
        Ok(Cells::Values(values))
    }

    /// The scale and the pair totals of a matrix of sums: what
    /// [`crate::algorithms::agglomerative`] prices its result from.
    pub(crate) fn exact_totals(&self) -> Option<(u32, PairTotals)> {
        match self.cells {
            Cells::Sums { den, totals, .. } => Some((den, totals)),
            Cells::Values(_) => None,
        }
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

    /// Distance between points `u ≠ v`: for a matrix of sums `k/den`,
    /// bit-identical to the oracle's `dist`.
    pub fn get(&self, u: usize, v: usize) -> f64 {
        let i = self.idx(u, v);
        match &self.cells {
            Cells::Values(values) => values[i],
            Cells::Sums { sums, den, .. } => f64::from(sums[i]) / f64::from(*den),
        }
    }
}

/// Offset of each row's first pair `(u, u + 1)` in the condensed triangle
/// over `n` objects.
fn row_starts(n: usize) -> Vec<usize> {
    (0..n).map(|u| u * (2 * n - u - 1) / 2).collect()
}

/// Condensed offset of the pair `a ≠ b`.
#[inline]
fn slot(row_start: &[usize], a: usize, b: usize) -> usize {
    let (a, b) = if a < b { (a, b) } else { (b, a) };
    row_start[a] + b - a - 1
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
    // The exact pair sum `S_AB` each merge joined, when the linkage ran on
    // a matrix of sums; empty otherwise.
    sums: Vec<u32>,
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
    /// budget-interrupted [`linkage_with`] run) fewer merges may exist
    /// than `n − k`; all available merges are applied and the cut has more
    /// than `k` clusters.
    ///
    /// # Panics
    /// Panics if `k` is 0 or greater than `n` (for `n > 0`).
    pub fn cut_num_clusters(&self, k: usize) -> Clustering {
        self.replay(&self.applied_for_num_clusters(k))
    }

    /// The merges [`Dendrogram::cut_num_clusters`] applies, in the order
    /// it applies them.
    pub(crate) fn applied_for_num_clusters(&self, k: usize) -> Vec<usize> {
        assert!(k >= 1 && k <= self.n.max(1), "k = {k} out of range");
        let to_apply = (self.n - k).min(self.merges.len());
        let mut order = self.sorted_merge_order();
        order.truncate(to_apply);
        order
    }

    /// Flat clustering obtained by applying every merge with
    /// `height < threshold` (strict, matching the paper's "merge while the
    /// closest pair's average distance is less than ½").
    pub fn cut_height(&self, threshold: f64) -> Clustering {
        self.replay(&self.applied_below(threshold))
    }

    /// The merges [`Dendrogram::cut_height`] applies, in the order it
    /// applies them.
    pub(crate) fn applied_below(&self, threshold: f64) -> Vec<usize> {
        let order = self.sorted_merge_order();
        order
            .into_iter()
            .filter(|&i| self.merges[i].height < threshold)
            .collect()
    }

    /// `Σ (2·S_AB − den·|A|·|B|)` over the `applied` merges of a linkage
    /// run on sums at scale `den`: the within-cluster term of the cut's
    /// cost numerator (see [`crate::cost`]). The applied set of either cut
    /// is downward-closed, so each pair inside a cut cluster is counted
    /// once, at the merge that joined it. No pair is read. `None` when the
    /// linkage ran on `f64` distances.
    pub(crate) fn within_numerator(&self, applied: &[usize], den: u32) -> Option<i64> {
        if self.sums.len() != self.merges.len() {
            return None;
        }
        let size = |node: usize| match node.checked_sub(self.n) {
            Some(i) => self.merges[i].size as i64,
            None => 1,
        };
        let within = applied
            .iter()
            .map(|&i| {
                let Merge { a, b, .. } = self.merges[i];
                2 * i64::from(self.sums[i]) - i64::from(den) * size(a) * size(b)
            })
            .sum();
        Some(within)
    }

    /// Replay a set of merges through a union-find over the node-id space.
    ///
    /// For monotone linkages the applied set (a height-sorted prefix) is
    /// downward-closed in the merge tree, so every referenced child node
    /// already has its leaves attached when its parent merge is applied.
    pub(crate) fn replay(&self, merge_indices: &[usize]) -> Clustering {
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
/// distance matrix (consumed as working storage): [`linkage_with`] under
/// an unlimited budget.
///
/// Returns the full dendrogram; use [`Dendrogram::cut_num_clusters`] or
/// [`Dendrogram::cut_height`] for a flat clustering.
pub fn linkage(dist: CondensedMatrix, method: LinkageMethod) -> Dendrogram {
    linkage_with(dist, method, &mut RunCtx::new(&RunBudget::unlimited())).0
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

/// [`linkage`] under `ctx`, returning the dendrogram with how the run
/// ended and the budget iterations consumed.
///
/// One budget iteration per merge (each is an `O(n)` chain-growth step
/// amortized). On a trip, returns the *partial* dendrogram built so far —
/// its cut methods still produce valid (finer) clusterings.
///
/// Average linkage on a matrix of sums merges exactly; any other method on
/// such a matrix runs on the `f64` distances it encodes, bit-identical to
/// the oracle's.
///
/// With an AGGLOMERATIVE snapshot in `ctx.resume`, the saved merge list is
/// replayed through the same updates (deterministic, so the matrix state
/// after replay is bit-identical to the state when the snapshot was taken),
/// the saved NN-chain is restored verbatim — restarting with an empty chain
/// would change merge *discovery order*, and
/// [`Dendrogram::cut_num_clusters`] breaks height ties by discovery index —
/// and the meter continues from the snapshot's iteration count so an
/// iteration cap bounds total work across the interrupt. A snapshot that
/// fails validation is ignored (fresh run).
///
/// With `ctx.ckpt`, a checkpoint becomes eligible after every merge and a
/// final one is forced when the budget interrupts the run.
pub fn linkage_with(
    dist: CondensedMatrix,
    method: LinkageMethod,
    ctx: &mut RunCtx<'_>,
) -> (Dendrogram, RunStatus, u64) {
    let resume = match ctx.resume {
        Some(AlgorithmSnapshot::Agglomerative(snap)) => Some(snap),
        _ => None,
    };
    // `_charge` keeps the matrix's bytes reserved until the run ends.
    let CondensedMatrix {
        n,
        cells,
        charge: _charge,
    } = dist;
    let cells = match cells {
        Cells::Sums { sums, den, .. } if method != LinkageMethod::Average => Cells::Values(
            sums.into_iter()
                .map(|k| f64::from(k) / f64::from(den))
                .collect(),
        ),
        cells => cells,
    };
    let _span = crate::span!(
        "linkage",
        n = n,
        method = format!("{method:?}"),
        element = match cells {
            Cells::Values(_) => "f64",
            Cells::Sums { .. } => "sums",
        },
        resuming = resume.is_some()
    );
    if n == 0 {
        return (
            Dendrogram {
                n,
                merges: Vec::new(),
                sums: Vec::new(),
            },
            RunStatus::Converged,
            0,
        );
    }
    let (budget, ckpt) = (ctx.budget, ctx.ckpt.as_deref_mut());
    match cells {
        Cells::Values(values) => {
            Chain::new(LanceWilliams(method), n, values).run(budget, resume, ckpt)
        }
        Cells::Sums { sums, den, .. } => {
            Chain::new(AverageSums { den: den.into() }, n, sums).run(budget, resume, ckpt)
        }
    }
}

/// One element type of the NN-chain loop: how candidates compare and how
/// a merge updates an entry.
trait Engine {
    type Cell: Copy;
    /// A `(cell, size)` that every real candidate is strictly closer than.
    const FAR: (Self::Cell, usize);
    /// Whether the entry `d` to a cluster of `size` is strictly closer
    /// than the entry `best` to a cluster of `best_size`.
    fn closer(&self, d: Self::Cell, size: usize, best: Self::Cell, best_size: usize) -> bool;
    /// The entry between `A ∪ B` and `C`, from the entries `A–C`, `B–C`
    /// and `A–B` and the three cluster sizes.
    fn merged(
        &self,
        d_ac: Self::Cell,
        d_bc: Self::Cell,
        d_ab: Self::Cell,
        s: [usize; 3],
    ) -> Self::Cell;
    /// The height of the merge of `A` and `B` at entry `d_ab`.
    fn height(&self, d_ab: Self::Cell, sa: usize, sb: usize) -> f64;
    /// The exact pair sum `S_AB` the entry `d_ab` holds, for an engine
    /// that keeps one.
    fn pair_sum(_d_ab: Self::Cell) -> Option<u32> {
        None
    }
}

/// `f64` distances under any [`LinkageMethod`].
struct LanceWilliams(LinkageMethod);

impl Engine for LanceWilliams {
    type Cell = f64;
    const FAR: (f64, usize) = (f64::INFINITY, 0);

    #[inline]
    fn closer(&self, d: f64, _: usize, best: f64, _: usize) -> bool {
        d < best
    }

    #[inline]
    fn merged(&self, d_ac: f64, d_bc: f64, d_ab: f64, [sa, sb, sc]: [usize; 3]) -> f64 {
        self.0
            .update(d_ac, d_bc, d_ab, sa as f64, sb as f64, sc as f64)
    }

    fn height(&self, d_ab: f64, _: usize, _: usize) -> f64 {
        d_ab
    }
}

/// Exact average linkage over `u32` cluster-pair sums `S_AB = Σ den·X_uv`:
/// the average is `S_AB / (den·|A|·|B|)`.
struct AverageSums {
    den: u64,
}

impl Engine for AverageSums {
    type Cell = u32;
    // A zero size makes every candidate closer.
    const FAR: (u32, usize) = (u32::MAX, 0);

    /// From one row `x`, `S_xz / |z| < S_xb / |b|`, cross-multiplied. The
    /// products stay below `2³²·n`.
    #[inline]
    fn closer(&self, d: u32, size: usize, best: u32, best_size: usize) -> bool {
        u64::from(d) * (best_size as u64) < u64::from(best) * (size as u64)
    }

    /// `S_{A∪B,C} = S_AC + S_BC`, exact: it is at most `den·|A∪B|·|C|`,
    /// which the matrix was sized to hold.
    #[inline]
    fn merged(&self, d_ac: u32, d_bc: u32, _: u32, _: [usize; 3]) -> u32 {
        d_ac + d_bc
    }

    /// Equal exact averages give equal heights, and an average below ½
    /// stays below ½: it is at most `½ − 1/(2·den·|A|·|B|)`, far more than
    /// one ulp away.
    fn height(&self, d_ab: u32, sa: usize, sb: usize) -> f64 {
        f64::from(d_ab) / (self.den * sa as u64 * sb as u64) as f64
    }

    fn pair_sum(d_ab: u32) -> Option<u32> {
        Some(d_ab)
    }
}

/// The NN-chain's working state over a condensed triangle.
struct Chain<E: Engine> {
    engine: E,
    n: usize,
    cells: Vec<E::Cell>,
    row_start: Vec<usize>,
    /// Rows still holding a cluster, ascending.
    live: Vec<usize>,
    size: Vec<usize>,
    node_id: Vec<usize>,
    merges: Vec<Merge>,
    sums: Vec<u32>,
}

impl<E: Engine> Chain<E> {
    fn new(engine: E, n: usize, cells: Vec<E::Cell>) -> Self {
        Chain {
            engine,
            n,
            cells,
            row_start: row_starts(n),
            live: (0..n).collect(),
            size: vec![1; n],
            node_id: (0..n).collect(),
            merges: Vec::with_capacity(n.saturating_sub(1)),
            // Allocated up front: growing it merge by merge left small
            // blocks among the big ones and raised SAMPLING's peak RSS by
            // 2.5 MB at 50 000 objects.
            sums: Vec::with_capacity(n.saturating_sub(1)),
        }
    }

    /// The live row nearest to live row `x`: the chain predecessor `prev`
    /// unless another row is strictly closer, else the lowest-indexed
    /// closest row. Rows above `x` are read down column `x`, rows below it
    /// from `x`'s own contiguous row.
    fn nearest(&self, x: usize, prev: Option<usize>) -> usize {
        let Chain {
            engine,
            cells,
            row_start,
            live,
            size,
            ..
        } = self;
        let (mut best, (mut best_d, mut best_size)) = match prev {
            Some(p) => (p, (cells[slot(row_start, x, p)], size[p])),
            None => (usize::MAX, E::FAR),
        };
        let mut visit = |z: usize, d: E::Cell| {
            if engine.closer(d, size[z], best_d, best_size) {
                (best, best_d, best_size) = (z, d, size[z]);
            }
        };
        let split = live.partition_point(|&z| z < x);
        debug_assert_eq!(live.get(split), Some(&x));
        for &z in &live[..split] {
            visit(z, cells[row_start[z] + x - z - 1]);
        }
        let row = &cells[row_start[x]..][..self.n - x - 1];
        for &z in &live[split + 1..] {
            visit(z, row[z - x - 1]);
        }
        best
    }

    /// Merge row `x` into row `y`'s slot and record the merge.
    fn merge(&mut self, x: usize, y: usize) {
        let Chain {
            engine,
            cells,
            row_start,
            live,
            size,
            ..
        } = self;
        let (sa, sb) = (size[x], size[y]);
        let d_ab = cells[slot(row_start, x, y)];
        for &z in live.iter() {
            if z != x && z != y {
                let (ix, iy) = (slot(row_start, x, z), slot(row_start, y, z));
                cells[iy] = engine.merged(cells[ix], cells[iy], d_ab, [sa, sb, size[z]]);
            }
        }
        if let Ok(at) = live.binary_search(&x) {
            live.remove(at);
        }
        size[y] = sa + sb;
        self.merges.push(Merge {
            a: self.node_id[x],
            b: self.node_id[y],
            height: self.engine.height(d_ab, sa, sb),
            size: sa + sb,
        });
        self.sums.extend(E::pair_sum(d_ab));
        self.node_id[y] = self.n + self.merges.len() - 1;
    }

    fn run(
        mut self,
        budget: &RunBudget,
        resume: Option<&AgglomerativeSnapshot>,
        mut ckpt: Option<&mut Checkpointer>,
    ) -> (Dendrogram, RunStatus, u64) {
        let n = self.n;
        let mut chain: Vec<usize> = Vec::with_capacity(n);
        if let Some((snap, plan)) = resume.and_then(|snap| replay_plan(snap, n).map(|p| (snap, p)))
        {
            for (x, y) in plan {
                self.merge(x, y);
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

        let mut meter = budget.meter_from(self.merges.len() as u64);
        let mut heartbeat =
            telemetry::Heartbeat::new("linkage", n.saturating_sub(1) as u64).with_budget(budget);
        for _ in self.merges.len()..n.saturating_sub(1) {
            heartbeat.tick(self.merges.len() as u64);
            if let Err(interrupt) = meter.tick() {
                if let Some(ckpt) = ckpt.as_deref_mut() {
                    let _ = ckpt.save_now(snapshot_state(&self.merges, &chain));
                }
                let dendrogram = Dendrogram {
                    n,
                    merges: self.merges,
                    sums: self.sums,
                };
                return (dendrogram, interrupt.status(), meter.iterations());
            }
            if chain.is_empty() {
                telemetry::metrics()
                    .linkage_chain_rebuilds
                    .incr_if_enabled();
                // While merges remain, a live row always exists; the
                // fallback index is unreachable and only avoids a panic path.
                chain.push(self.live.first().copied().unwrap_or(0));
            }
            // Grow the chain until we find a reciprocal nearest-neighbor pair.
            let (x, y) = loop {
                // Non-empty by construction: seeded above, and the reciprocal
                // pair popped at the end of each outer step leaves the re-seed
                // branch to run first.
                let x = chain.last().copied().unwrap_or(0);
                // Prefer the chain predecessor on ties so the chain terminates.
                let prev = chain.len().checked_sub(2).map(|i| chain[i]);
                let best = self.nearest(x, prev);
                debug_assert!(best != usize::MAX);
                if Some(best) == prev {
                    break (x, best);
                }
                chain.push(best);
            };
            // Remove the reciprocal pair from the chain.
            chain.pop();
            chain.pop();
            self.merge(x, y);
            // Fresh merges only: snapshot replay above repeats updates, not
            // merge decisions, so a resumed run's merge counter matches the
            // uninterrupted run's.
            telemetry::metrics().linkage_merges.incr_if_enabled();

            if let Some(ckpt) = ckpt.as_deref_mut() {
                ckpt.maybe_save(|| snapshot_state(&self.merges, &chain));
            }
        }

        let dendrogram = Dendrogram {
            n,
            merges: self.merges,
            sums: self.sums,
        };
        (dendrogram, RunStatus::Converged, meter.iterations())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linkage_under(
        dist: CondensedMatrix,
        method: LinkageMethod,
        budget: &RunBudget,
        resume: Option<&AlgorithmSnapshot>,
        ckpt: Option<&mut Checkpointer>,
    ) -> (Dendrogram, RunStatus, u64) {
        let mut ctx = RunCtx {
            budget,
            resume,
            ckpt,
        };
        linkage_with(dist, method, &mut ctx)
    }

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
    fn single_linkage_on_a_line_merges_at_the_gaps() {
        // For single linkage on a line, every merge joins two runs of
        // consecutive points across one gap, at exactly that gap.
        let pts = [0.0, 1.0, 1.5, 4.0];
        let dend = linkage(line_matrix(&pts), LinkageMethod::Single);
        let mut heights: Vec<f64> = dend.merges().iter().map(|m| m.height).collect();
        heights.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let gaps = [0.5, 1.0, 2.5];
        for (h, g) in heights.iter().zip(gaps) {
            assert!((h - g).abs() < 1e-12, "{heights:?}");
        }
        assert_eq!(heights.len(), gaps.len());
        // Cutting just above the 1.0 gap leaves {0, 1, 2} and {3}.
        assert_eq!(dend.cut_height(1.1).labels(), &[0, 0, 0, 1]);
    }

    #[test]
    fn merge_heights_never_decrease_up_the_tree() {
        // Single and Average are monotone: a merge is never lower than the
        // merges that built its two children.
        let pts = [0.0, 0.9, 2.0, 5.5, 6.0, 9.0];
        for method in [LinkageMethod::Single, LinkageMethod::Average] {
            let dend = linkage(line_matrix(&pts), method);
            let merges = dend.merges();
            let n = pts.len();
            for m in merges {
                for child in [m.a, m.b] {
                    if child >= n {
                        assert!(
                            merges[child - n].height <= m.height + 1e-12,
                            "{method:?}: merge below its child"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cuts_coarsen_by_one_cluster_per_merge() {
        let pts = [0.0, 1.0, 2.0, 10.0, 11.0];
        let dend = linkage(line_matrix(&pts), LinkageMethod::Average);
        assert_eq!(dend.merges().len(), 4);
        for k in 1..=pts.len() {
            assert_eq!(dend.cut_num_clusters(k).num_clusters(), k);
        }
    }

    #[test]
    fn budget_trip_leaves_a_usable_partial_dendrogram() {
        let pts = [0.0, 1.0, 2.0, 3.0, 10.0, 11.0];
        // Allow exactly two merges, then trip on the iteration cap.
        let budget = RunBudget::unlimited().with_max_iters(2);
        let (dend, status, iters) = linkage_under(
            line_matrix(&pts),
            LinkageMethod::Average,
            &budget,
            None,
            None,
        );
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
        let (budgeted, status, _) = linkage_under(
            line_matrix(&pts),
            LinkageMethod::Average,
            &RunBudget::unlimited(),
            None,
            None,
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
            let (partial, status, _) = linkage_under(
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
            let agg = match &snap.state {
                AlgorithmSnapshot::Agglomerative(a) => a,
                other => panic!("wrong snapshot kind: {other:?}"),
            };
            assert_eq!(agg.merges.len(), cap as usize);
            // Resume on a freshly built matrix with the same global cap the
            // reference run had (unlimited): bit-identical merge list.
            let (resumed, status, iters) = linkage_under(
                line_matrix(&pts),
                LinkageMethod::Average,
                &RunBudget::unlimited(),
                Some(&snap.state),
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
        let stale = AlgorithmSnapshot::Agglomerative(AgglomerativeSnapshot {
            n: 99,
            merges: vec![],
            chain: vec![],
            iterations: 0,
        });
        let (resumed, status, _) = linkage_under(
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

    /// Ten 2-D points with many equal pairwise distances.
    const GRID: [(f64, f64); 10] = [
        (0.0, 0.0),
        (1.0, 0.0),
        (0.0, 1.0),
        (1.0, 1.0),
        (3.0, 0.0),
        (3.0, 1.0),
        (5.0, 5.0),
        (6.0, 5.0),
        (2.5, 4.0),
        (0.5, 2.7),
    ];

    /// A merge as `(a, b, height bits, size)`.
    type Pin = (usize, usize, u64, usize);

    fn pinned(dend: &Dendrogram) -> Vec<Pin> {
        let merges = dend.merges().iter();
        merges
            .map(|m| (m.a, m.b, m.height.to_bits(), m.size))
            .collect()
    }

    #[test]
    fn f64_engine_merges_are_pinned_bit_for_bit() {
        // Recorded from the engine that swept an `active[]` mask and read
        // every pair through the branching index: the live-row scan must
        // reproduce merge order, tie-breaks and height bits exactly.
        let expected: [(LinkageMethod, [Pin; 9]); 4] = [
            (
                LinkageMethod::Single,
                [
                    (1, 0, 0x3ff0000000000000, 2),
                    (2, 10, 0x3ff0000000000000, 3),
                    (3, 11, 0x3ff0000000000000, 4),
                    (9, 12, 0x3ffc5a2167edbdce, 5),
                    (5, 4, 0x3ff0000000000000, 2),
                    (14, 13, 0x4000000000000000, 7),
                    (8, 15, 0x4003153df622e7d0, 8),
                    (7, 6, 0x3ff0000000000000, 2),
                    (17, 16, 0x40058a68a4a8d9f3, 10),
                ],
            ),
            (
                LinkageMethod::Complete,
                [
                    (1, 0, 0x3ff0000000000000, 2),
                    (3, 2, 0x3ff0000000000000, 2),
                    (11, 10, 0x3ff6a09e667f3bcd, 4),
                    (8, 9, 0x4003153df622e7d0, 2),
                    (5, 4, 0x3ff0000000000000, 2),
                    (14, 12, 0x40094c583ada5b53, 6),
                    (13, 15, 0x4012de32c6628741, 8),
                    (7, 6, 0x3ff0000000000000, 2),
                    (17, 16, 0x401f3db2174e7468, 10),
                ],
            ),
            (
                LinkageMethod::Average,
                [
                    (1, 0, 0x3ff0000000000000, 2),
                    (3, 2, 0x3ff0000000000000, 2),
                    (11, 10, 0x3ff3504f333f9de6, 4),
                    (9, 12, 0x4002125725372a62, 5),
                    (4, 5, 0x3ff0000000000000, 2),
                    (14, 13, 0x4005ffeb78e9b155, 7),
                    (7, 6, 0x3ff0000000000000, 2),
                    (16, 8, 0x4009549ee28feaee, 3),
                    (17, 15, 0x401539fe62f33970, 10),
                ],
            ),
            (
                LinkageMethod::Ward,
                [
                    (1, 0, 0x3ff0000000000000, 2),
                    (3, 2, 0x3ff0000000000000, 2),
                    (11, 10, 0x4000000000000000, 4),
                    (8, 9, 0x4016c28f5c28f5c2, 2),
                    (5, 4, 0x3ff0000000000000, 2),
                    (14, 12, 0x4030aaaaaaaaaaab, 6),
                    (7, 6, 0x3ff0000000000000, 2),
                    (13, 15, 0x40387369d0369d03, 8),
                    (16, 17, 0x405916b020c49ba6, 10),
                ],
            ),
        ];
        for (method, merges) in expected {
            let squared = method == LinkageMethod::Ward;
            let matrix = CondensedMatrix::from_fn(GRID.len(), |u, v| {
                let (a, b) = (GRID[u], GRID[v]);
                let d2 = (a.0 - b.0).powi(2) + (a.1 - b.1).powi(2);
                if squared {
                    d2
                } else {
                    d2.sqrt()
                }
            });
            assert_eq!(pinned(&linkage(matrix, method)), merges, "{method:?}");
        }
    }

    /// Five partial inputs on 14 objects under `Ignore`: distances like
    /// ⅓ and ¼ have no common scale, so the copy keeps `f64` values.
    fn ignore_oracle() -> crate::instance::DenseOracle {
        use crate::clustering::PartialClustering;
        use crate::instance::{CorrelationInstance, MissingPolicy};
        let inputs = (0..5u32)
            .map(|i| {
                PartialClustering::from_labels(
                    (0..14u32)
                        .map(|v| ((v * 7 + i * 3) % 11 != 0).then_some((v / 4 + i * (v % 3)) % 4))
                        .collect(),
                )
            })
            .collect();
        CorrelationInstance::from_partial(inputs, MissingPolicy::Ignore).dense_oracle()
    }

    #[test]
    fn ignore_inputs_keep_their_pinned_f64_dendrogram() {
        // Recorded from the `active[]`-sweep engine, like the pins above.
        let expected = [
            (3, 0, 0x0000000000000000, 2),
            (8, 11, 0x0000000000000000, 2),
            (9, 15, 0x3fd2aaaaaaaaaaaa, 3),
            (2, 14, 0x3fe0000000000000, 3),
            (4, 7, 0x0000000000000000, 2),
            (1, 17, 0x3fe6666666666667, 4),
            (10, 16, 0x3fe3bbbbbbbbbbbc, 4),
            (20, 19, 0x3fe85dddddddddde, 8),
            (12, 13, 0x3fe3333333333333, 2),
            (6, 5, 0x3fd0000000000000, 2),
            (23, 18, 0x3fdeeeeeeeeeeeef, 4),
            (22, 21, 0x3fec666666666666, 10),
            (24, 25, 0x3feca3d70a3d70a3, 14),
        ];
        let matrix = CondensedMatrix::from_oracle(&ignore_oracle());
        assert!(matches!(matrix.cells, Cells::Values(_)));
        assert_eq!(pinned(&linkage(matrix, LinkageMethod::Average)), expected);
    }

    /// Random partial or total inputs with few labels, so that many pairs
    /// and cluster pairs tie: `(inputs, numerator, den)` with the exact
    /// `X_uv = numerator(u, v) / den` under `Coin(½)`.
    fn tied_inputs(
        seed: u64,
        n: usize,
        m: usize,
        partial: bool,
    ) -> (Vec<crate::clustering::PartialClustering>, Vec<u32>, u32) {
        use crate::test_support::splitmix64;
        let mut state = seed;
        let labels: Vec<Vec<Option<u32>>> = (0..m)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        let r = splitmix64(&mut state);
                        (!partial || !r.is_multiple_of(5)).then_some(((r >> 8) % 3) as u32)
                    })
                    .collect()
            })
            .collect();
        // Coin(½): a separating input counts 2/(2m), an unknown one 1/(2m).
        let mut num = vec![0u32; n * n];
        for input in &labels {
            for u in 0..n {
                for v in 0..n {
                    num[u * n + v] += match (input[u], input[v]) {
                        _ if u == v => 0,
                        (Some(a), Some(b)) => 2 * u32::from(a != b),
                        _ => 1,
                    };
                }
            }
        }
        let inputs = labels
            .into_iter()
            .map(crate::clustering::PartialClustering::from_labels)
            .collect();
        (inputs, num, 2 * m as u32)
    }

    /// Check that applying `dend`'s merges in cut order is a run of the
    /// naive `O(n³)` greedy in exact rational arithmetic: every merge joins
    /// a pair of current clusters whose average `S/(den·|A|·|B|)` is the
    /// exact minimum, at the height that average rounds to.
    fn assert_exact_greedy(dend: &Dendrogram, num: &[u32], den: u32) {
        let n = dend.len();
        // Node `n + i` is the cluster of the `i`-th merge discovered.
        let mut members: Vec<Vec<usize>> = (0..n).map(|v| vec![v]).collect();
        members.resize(2 * n - 1, Vec::new());
        let mut live: Vec<usize> = (0..n).collect();
        let sum = |a: &[usize], b: &[usize]| -> u64 {
            let pairs = a.iter().flat_map(|&u| b.iter().map(move |&v| (u, v)));
            pairs.map(|(u, v)| u64::from(num[u * n + v])).sum()
        };
        for i in dend.sorted_merge_order() {
            let m = dend.merges()[i];
            let (a, b) = (&members[m.a], &members[m.b]);
            let (s_ab, w_ab) = (sum(a, b), (a.len() * b.len()) as u64);
            for (j, &p) in live.iter().enumerate() {
                for &q in &live[j + 1..] {
                    let (s, w) = (
                        sum(&members[p], &members[q]),
                        (members[p].len() * members[q].len()) as u64,
                    );
                    assert!(s_ab * w <= s * w_ab, "merge {i} is not a closest pair");
                }
            }
            let exact = s_ab as f64 / (u64::from(den) * w_ab) as f64;
            assert_eq!(m.height.to_bits(), exact.to_bits(), "merge {i}");
            let joined = [a.as_slice(), b.as_slice()].concat();
            live.retain(|&c| c != m.a && c != m.b);
            live.push(n + i);
            members[n + i] = joined;
        }
        assert_eq!(live.len(), 1);
    }

    #[test]
    fn sums_engine_matches_the_exact_rational_greedy() {
        use crate::instance::{CorrelationInstance, MissingPolicy};
        for seed in 0..40u64 {
            let (n, m, partial) = (
                6 + (seed % 9) as usize,
                2 + (seed % 3) as usize,
                seed % 2 == 1,
            );
            let (inputs, num, den) = tied_inputs(seed, n, m, partial);
            let dense =
                CorrelationInstance::from_partial(inputs, MissingPolicy::Coin(0.5)).dense_oracle();
            let matrix = CondensedMatrix::from_oracle(&dense);
            let Cells::Sums { den: scale, .. } = matrix.cells else {
                panic!("seed {seed}: no sums");
            };
            // Inputs with no missing label prove the smaller scale m.
            let (num, den) = if scale == den {
                (num, den)
            } else {
                assert_eq!(2 * scale, den, "seed {seed}");
                assert!(num.iter().all(|k| k % 2 == 0), "seed {seed}");
                (num.iter().map(|k| k / 2).collect(), scale)
            };
            assert_exact_greedy(&linkage(matrix, LinkageMethod::Average), &num, den);
        }
    }

    #[test]
    fn sums_engine_breaks_ties_like_the_f64_engine() {
        // One input clustering: every distance is 0 or 1 and every average
        // stays exactly 0 or 1 under both engines, so almost every step is
        // a tie and only the tie rule (chain predecessor first, then the
        // lowest index) decides the dendrogram.
        use crate::clustering::Clustering;
        use crate::instance::DenseOracle;
        let labels: Vec<u32> = (0..17u32).map(|v| (v * 5 + v / 3) % 4).collect();
        let dense = DenseOracle::from_clusterings(&[Clustering::from_labels(labels)]);
        let sums = CondensedMatrix::from_oracle(&dense);
        assert!(matches!(sums.cells, Cells::Sums { den: 1, .. }));
        let values = CondensedMatrix::from_fn(17, |u, v| dense.dist(u, v));
        assert_eq!(
            pinned(&linkage(sums, LinkageMethod::Average)),
            pinned(&linkage(values, LinkageMethod::Average))
        );
    }

    #[test]
    fn the_copy_keeps_sums_exactly_for_total_and_coin_half_inputs() {
        use crate::clustering::{Clustering, PartialClustering};
        use crate::instance::{CorrelationInstance, DenseOracle, MissingPolicy};
        let is_sums = |m: &CondensedMatrix| matches!(m.cells, Cells::Sums { .. });
        let (partial, _, _) = tied_inputs(7, 12, 4, true);
        let total: Vec<Clustering> = tied_inputs(8, 12, 4, false)
            .0
            .iter()
            .map(|p| Clustering::from_labels(p.labels().iter().map(|l| l.unwrap_or(0)).collect()))
            .collect();
        let coin = |p| CorrelationInstance::from_partial(partial.clone(), MissingPolicy::Coin(p));

        // Sums: total inputs (den = m) and Coin(½) (den = 2m), on the dense
        // and on the lazy oracle alike, and on restrictions of both.
        let dense_total = DenseOracle::from_clusterings(&total);
        assert_eq!(dense_total.exact_scale(), Some(4));
        assert_eq!(coin(0.5).dense_oracle().exact_scale(), Some(8));
        assert_eq!(coin(0.5).exact_scale(), Some(8));
        assert_eq!(coin(0.5).restrict(&[1, 3, 5]).exact_scale(), Some(8));
        assert_eq!(dense_total.restrict(&[0, 2]).exact_scale(), Some(4));
        for sums in [
            CondensedMatrix::from_oracle(&dense_total),
            CondensedMatrix::from_oracle(&coin(0.5).dense_oracle()),
            CondensedMatrix::from_oracle(&coin(0.5)),
        ] {
            assert!(is_sums(&sums));
        }
        // The lazy oracle's numerators are the dense codes' numerators.
        let lazy = CondensedMatrix::from_oracle(&coin(0.5));
        let dense = CondensedMatrix::from_oracle(&coin(0.5).dense_oracle());
        assert!(
            matches!((&lazy.cells, &dense.cells), (Cells::Sums { sums: a, .. }, Cells::Sums { sums: b, .. }) if a == b)
        );

        // f64: Ignore with missing labels, Coin(0.3), weights, from_fn.
        let ignore = CorrelationInstance::from_partial(partial.clone(), MissingPolicy::Ignore);
        let weighted = DenseOracle::from_weighted_clusterings(&total, &[1.0, 1.0, 1.0, 2.0]);
        for oracle in [ignore.dense_oracle(), coin(0.3).dense_oracle(), weighted] {
            assert_eq!(oracle.exact_scale(), None);
            assert!(!is_sums(&CondensedMatrix::from_oracle(&oracle)));
        }
        assert_eq!(ignore.exact_scale(), None);
        assert!(!is_sums(&CondensedMatrix::from_fn(4, |_, _| 0.5)));
        let uncounted = CorrelationInstance::from_partial(
            vec![PartialClustering::from_total(&total[0])],
            MissingPolicy::Coin(0.3),
        );
        assert_eq!(
            uncounted.exact_scale(),
            Some(1),
            "no label is missing, so p never counts"
        );
    }

    #[test]
    fn sums_fit_u32_up_to_their_bound_and_not_one_object_past_it() {
        // 20·14 654·14 654 ≤ 2³² − 1 < 20·14 654·14 655.
        assert!(sums_fit(29_308, 20));
        assert!(!sums_fit(29_309, 20));
        assert_eq!(
            CondensedMatrix::bytes(29_308, Some(20)),
            4 * 29_308 * 29_307 / 2
        );
        assert_eq!(
            CondensedMatrix::bytes(29_309, Some(20)),
            8 * 29_309 * 29_308 / 2
        );
        assert_eq!(
            CondensedMatrix::bytes(29_308, None),
            8 * 29_308 * 29_307 / 2
        );
        // den·(n/2)² = 2³² exactly is one past u32::MAX.
        assert!(sums_fit(65_535 * 2 + 1, 1));
        assert!(!sums_fit(65_536 * 2, 1));
        assert!(!sums_fit(usize::MAX, u32::MAX));
        assert!(sums_fit(0, u32::MAX) && sums_fit(1, u32::MAX));
    }

    #[test]
    fn other_methods_on_sums_run_on_the_oracles_exact_distances() {
        use crate::instance::{CorrelationInstance, MissingPolicy};
        let (inputs, _, _) = tied_inputs(3, 11, 3, true);
        let dense =
            CorrelationInstance::from_partial(inputs, MissingPolicy::Coin(0.5)).dense_oracle();
        let sums = CondensedMatrix::from_oracle(&dense);
        for u in 0..11 {
            for v in (0..11).filter(|&v| v != u) {
                assert_eq!(sums.get(u, v).to_bits(), dense.dist(u, v).to_bits());
            }
        }
        for method in [
            LinkageMethod::Single,
            LinkageMethod::Complete,
            LinkageMethod::Ward,
        ] {
            let values = CondensedMatrix::from_fn(11, |u, v| dense.dist(u, v));
            assert_eq!(
                pinned(&linkage(sums.clone(), method)),
                pinned(&linkage(values, method)),
                "{method:?}"
            );
        }
    }

    #[test]
    fn sums_interrupt_and_resume_reproduce_the_full_dendrogram_exactly() {
        use crate::instance::{CorrelationInstance, MissingPolicy};
        use crate::snapshot::{load_snapshot, SnapshotLoad};
        use std::time::Duration;

        let (inputs, _, _) = tied_inputs(11, 13, 3, true);
        let dense =
            CorrelationInstance::from_partial(inputs, MissingPolicy::Coin(0.5)).dense_oracle();
        let matrix = || CondensedMatrix::from_oracle(&dense);
        assert!(matches!(matrix().cells, Cells::Sums { .. }));
        let full = linkage(matrix(), LinkageMethod::Average);
        let dir = std::env::temp_dir().join("aggclust_linkage_sums_resume_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        for cap in 1..12u64 {
            let path = dir.join(format!("ckpt_{cap}.bin"));
            let mut ckpt = Checkpointer::new(&path, Duration::ZERO);
            let budget = RunBudget::unlimited().with_max_iters(cap);
            let (_, status, _) = linkage_under(
                matrix(),
                LinkageMethod::Average,
                &budget,
                None,
                Some(&mut ckpt),
            );
            assert_eq!(status, RunStatus::BudgetExceeded);
            let SnapshotLoad::Loaded(snap) = load_snapshot(&path) else {
                panic!("no snapshot after interrupt at {cap}");
            };
            assert!(
                matches!(snap.state, AlgorithmSnapshot::Agglomerative(_)),
                "wrong snapshot kind"
            );
            let (resumed, status, _) = linkage_under(
                matrix(),
                LinkageMethod::Average,
                &RunBudget::unlimited(),
                Some(&snap.state),
                None,
            );
            assert_eq!(status, RunStatus::Converged);
            assert_eq!(pinned(&resumed), pinned(&full), "cap {cap}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
