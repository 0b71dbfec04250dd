//! Correlation-clustering instances and distance oracles.
//!
//! A correlation-clustering instance is a complete weighted graph on `n`
//! objects with edge distances `X_uv ∈ [0, 1]` (Problem 2 in the paper).
//! When the instance is built from `m` input clusterings, `X_uv` is the
//! fraction of clusterings that place `u` and `v` in *different* clusters,
//! and the distances satisfy the triangle inequality.
//!
//! All aggregation algorithms are generic over [`DistanceOracle`], so they
//! run unchanged on:
//!
//! * [`DenseOracle`] — a precomputed `n × n` matrix of `u16` distance
//!   codes (`O(1)` lookups, `2n²` bytes, contiguous rows), or
//! * [`CorrelationInstance`] itself — on-the-fly computation from the
//!   packed labels of the `m` input clusterings (`O(m)` lookups, `O(nm)`
//!   memory), which is what makes [`crate::algorithms::sampling`] scale to
//!   millions of objects.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::iter::Sum;
use std::ops::Range;
use std::sync::Arc;

use crate::clustering::{Clustering, PartialClustering};
use crate::error::{AggError, AggResult};
use crate::kernels::{self, LabelMatrix};
use crate::parallel::{self, Layout};
use crate::robust::{Interrupt, MemCharge, RunBudget};

/// How a clustering with missing labels contributes to pairwise distances
/// (paper §2, "Missing values").
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MissingPolicy {
    /// Average the missing attribute out: only clusterings with labels on
    /// *both* objects vote, and `X_uv` is the fraction of *those* that
    /// separate the pair. A pair with no informative clustering at all gets
    /// distance ½ (maximum uncertainty).
    Ignore,
    /// The coin model adopted by the paper: a clustering missing a label on
    /// `u` or `v` reports the pair as co-clustered with probability `p` and
    /// separated with probability `1 − p`, independently per pair; we
    /// minimize the *expected* number of disagreements, so the clustering
    /// contributes `1 − p` to the pair's distance.
    Coin(f64),
}

impl MissingPolicy {
    /// Validating constructor for [`MissingPolicy::Coin`]: NaN and
    /// probabilities outside `[0, 1]` come back as typed errors instead of
    /// silently producing out-of-range distances downstream.
    pub fn try_coin(p: f64) -> AggResult<Self> {
        let policy = MissingPolicy::Coin(p);
        policy.validate()?;
        Ok(policy)
    }

    /// Check the policy's parameter domain. The single source of truth for
    /// every `try_` constructor that accepts a policy.
    pub fn validate(self) -> AggResult<()> {
        if let MissingPolicy::Coin(p) = self {
            if p.is_nan() {
                return Err(AggError::invalid_parameter(
                    "coin probability",
                    "must not be NaN",
                ));
            }
            if !(0.0..=1.0).contains(&p) {
                return Err(AggError::invalid_parameter(
                    "coin probability",
                    format!("{p} out of [0,1]"),
                ));
            }
        }
        Ok(())
    }
}

impl Default for MissingPolicy {
    /// The paper's choice: a fair coin (`p = ½`).
    fn default() -> Self {
        MissingPolicy::Coin(0.5)
    }
}

/// Read-only access to the pairwise distances `X_uv` of a
/// correlation-clustering instance.
///
/// Implementations must be symmetric (`dist(u, v) == dist(v, u)`), zero on
/// the diagonal, and return values in `[0, 1]`.
pub trait DistanceOracle {
    /// Number of objects `n`.
    fn len(&self) -> usize;

    /// Distance `X_uv` between two objects.
    fn dist(&self, u: usize, v: usize) -> f64;

    /// `true` if the instance has no objects.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of underlying input clusterings, when the instance was built
    /// by aggregation (used only for reporting).
    fn num_clusterings(&self) -> Option<usize> {
        None
    }

    /// Cache-block band width (in rows) that condensed fills over this
    /// oracle should use. Oracles backed by a packed [`LabelMatrix`]
    /// override this with the matrix's tier-tuned figure; anything else
    /// gets the generic default.
    fn preferred_band(&self) -> usize {
        kernels::PACKED_BAND
    }

    /// Add `X_vu` to `sums[labels[u]]` for every `u ≠ v` in ascending `u`,
    /// and return `T_v = Σ_{u≠v} X_vu` summed in the same order: the
    /// per-cluster sums `M(v, C_i)` of one LOCALSEARCH visit. `labels`
    /// covers all `n` objects and `sums` every label. An override must
    /// return the same bits, and leave the same bits in `sums`, as this
    /// per-element loop.
    fn accumulate_row(&self, v: usize, labels: &[u32], sums: &mut [f64]) -> f64 {
        accumulate_each(self, v, labels, sums)
    }

    /// The integer `den` for which every distance is exactly `k/den` with
    /// an integer `k`: `dist` returns the `f64` nearest to `k/den`, so
    /// `(dist·den).round()` recovers `k` and sums of distances can be kept
    /// exactly as integers. `None` unless the oracle has proven its scale.
    fn exact_scale(&self) -> Option<u32> {
        None
    }

    /// Write `round(den·X_uv)` for every `v` in `vs` to `out`: the exact
    /// numerators of row `u`'s distances when `den` is this oracle's
    /// [`DistanceOracle::exact_scale`]. An override must write the same
    /// values as this per-pair loop.
    fn numerators_into(&self, u: usize, vs: Range<usize>, den: u32, out: &mut [u32]) {
        numerators_each(self, u, vs, den, out);
    }

    /// `Σ num` and `Σ min(num, den − num)` over all pairs `u < v`, `num =
    /// den·X_uv` at the [`DistanceOracle::exact_scale`] `den`: from them
    /// [`crate::cost`] takes the lower bound and the cost of splitting every
    /// pair, exactly. `None` without a scale. By default one streaming pass
    /// of [`DistanceOracle::numerators_into`] over row jobs, summed as
    /// integers; an oracle whose build counted them returns those.
    fn pair_totals(&self) -> Option<PairTotals>
    where
        Self: Sync,
    {
        stream_totals(self)
    }

    /// Per-cluster label counts of `members`, member `i` in cluster
    /// `labels[i]` (clusters numbered from 0), from which
    /// [`ClusterCounts::numerators_into`] gives any non-member's exact
    /// per-cluster numerators `Σ_{u ∈ C} round(den·X_vu)` without reading a
    /// pair. `None` unless the oracle holds the input labels, has an
    /// [`DistanceOracle::exact_scale`] and its distance is linear in the
    /// numbers of separating and missing inputs.
    fn cluster_counts(&self, _members: &[usize], _labels: &[u32]) -> Option<ClusterCounts<'_>> {
        None
    }

    /// Materialize into a [`DenseOracle`] (no-op cost model for algorithms
    /// that touch all pairs anyway). Pairs are evaluated in parallel when
    /// more than one thread is available, and their values coded in
    /// `(u asc, v asc)` first-appearance order.
    fn to_dense(&self) -> DenseOracle
    where
        Self: Sized + Sync,
    {
        DenseOracle::from_fn_sync(self.len(), |u, v| self.dist(u, v))
            .with_num_clusterings(self.num_clusterings())
    }

    /// Dense oracle restricted to a subset of the objects, renumbered
    /// `0..subset.len()`. `subset` lists distinct objects: a repeated
    /// object's pair is no diagonal, and a [`CorrelationInstance`] reads it
    /// from the object's labels, a nonzero `Coin` / `Ignore` distance where
    /// a label is missing.
    fn restrict(&self, subset: &[usize]) -> DenseOracle
    where
        Self: Sized + Sync,
    {
        restrict_each(self, subset)
    }
}

/// `true` when `subset` lists no object twice ([`DistanceOracle::restrict`]'s
/// contract).
fn distinct(subset: &[usize]) -> bool {
    let mut sorted = subset.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).all(|pair| pair[0] != pair[1])
}

/// Index into the condensed upper-triangle representation for `u < v`.
#[inline]
pub(crate) fn condensed_index(n: usize, u: usize, v: usize) -> usize {
    debug_assert!(u < v && v < n);
    u * (2 * n - u - 1) / 2 + (v - u - 1)
}

/// Distinct distance values a coded [`DenseOracle`] can hold: its matrix
/// entries are `u16` codes into a table of values. A matrix with more
/// distinct values keeps the values themselves.
pub const MAX_DISTANCE_CODES: usize = 1 << 16;

/// `k` with `x` the `f64` nearest to `k/den`, or `None` when `x` is no such
/// value.
fn numerator(x: f64, den: u32) -> Option<u32> {
    let den = f64::from(den);
    let k = (x * den).round();
    ((k / den).to_bits() == x.to_bits()).then_some(k as u32)
}

/// The object count `n` that the input clusterings' lengths `lens` agree
/// on: the one check of empty input (degenerate) and of mismatched object
/// counts (invalid) behind every constructor that takes clusterings.
fn object_count(mut lens: impl Iterator<Item = usize>) -> AggResult<usize> {
    let n = lens
        .next()
        .ok_or_else(|| AggError::degenerate("need at least one input clustering"))?;
    match lens.find(|&len| len != n) {
        Some(bad) => Err(AggError::invalid_instance(format!(
            "input clusterings disagree on the object count: {n} vs {bad}"
        ))),
        None => Ok(n),
    }
}

/// The checks of the weighted constructors: the inputs' object count, one
/// non-negative weight per clustering, and a positive finite weight sum.
fn check_weights(clusterings: &[Clustering], weights: &[f64]) -> AggResult<()> {
    object_count(clusterings.iter().map(Clustering::len))?;
    if clusterings.len() != weights.len() {
        return Err(AggError::invalid_instance(format!(
            "{} clusterings but {} weights",
            clusterings.len(),
            weights.len()
        )));
    }
    if let Some(w) = weights.iter().find(|w| w.is_nan() || **w < 0.0) {
        return Err(AggError::invalid_instance(format!(
            "weight {w} is negative or NaN"
        )));
    }
    let total: f64 = weights.iter().sum();
    if !total.is_finite() || total <= 0.0 {
        return Err(AggError::invalid_instance(format!(
            "weights must sum to a finite positive value, got {total}"
        )));
    }
    Ok(())
}

/// Panic with `checked`'s error: the constructors documented to panic
/// reject what their `try_` variants return as errors, in the same words.
fn assert_valid(checked: AggResult<()>) {
    assert!(
        checked.is_ok(),
        "{}",
        checked.map_or_else(|e| e.to_string(), |()| String::new())
    );
}

/// The proven scale of a code table: every entry is the `f64` nearest to
/// `nums[code] / den`.
#[derive(Clone, Debug, PartialEq)]
struct Scale {
    den: u32,
    nums: Vec<u32>,
}

impl Scale {
    /// The scale of a code table built from `m` clusterings: `den = m`
    /// (total inputs), else `den = 2m` (`Coin(½)`), kept only if every
    /// entry passes the [`numerator`] check.
    fn of(table: &[f64], m: usize) -> Option<Scale> {
        [m, 2 * m].into_iter().find_map(|den| {
            let den = u32::try_from(den).ok()?;
            let nums = table
                .iter()
                .map(|&x| numerator(x, den))
                .collect::<Option<_>>()?;
            Some(Scale { den, nums })
        })
    }
}

/// The per-element [`DistanceOracle::accumulate_row`]: one `dist` per
/// `u ≠ v`, in ascending `u`.
fn accumulate_each<O: DistanceOracle + ?Sized>(
    oracle: &O,
    v: usize,
    labels: &[u32],
    sums: &mut [f64],
) -> f64 {
    let mut total = 0.0;
    for (u, &label) in labels.iter().enumerate() {
        if u != v {
            let x = oracle.dist(v, u);
            sums[label as usize] += x;
            total += x;
        }
    }
    total
}

/// The per-pair [`DistanceOracle::numerators_into`]: one `dist` per `v`.
fn numerators_each<O: DistanceOracle + ?Sized>(
    oracle: &O,
    u: usize,
    vs: Range<usize>,
    den: u32,
    out: &mut [u32],
) {
    for (out, v) in out.iter_mut().zip(vs) {
        *out = (oracle.dist(u, v) * f64::from(den)).round() as u32;
    }
}

/// The default [`DistanceOracle::pair_totals`]: each row's numerators in
/// segments of the oracle's preferred band, into one scratch buffer per
/// row job, no stored matrix.
fn stream_totals<O: DistanceOracle + Sync + ?Sized>(oracle: &O) -> Option<PairTotals> {
    let (n, den, band) = (oracle.len(), oracle.exact_scale()?, oracle.preferred_band());
    Some(parallel::sum_jobs(parallel::row_ranges(n), |rows| {
        let (mut nums, mut totals) = (vec![0u32; band], PairTotals::default());
        for u in rows {
            for lo in (u + 1..n).step_by(band) {
                let vs = lo..(lo + band).min(n);
                let nums = &mut nums[..vs.len()];
                oracle.numerators_into(u, vs, den, nums);
                totals = totals.add(PairTotals::of(nums, den));
            }
        }
        totals
    }))
}

/// The per-pair [`DistanceOracle::restrict`]: the subset's distances
/// evaluated in parallel and coded like [`DenseOracle::from_fn_sync`].
fn restrict_each<O: DistanceOracle + Sync>(oracle: &O, subset: &[usize]) -> DenseOracle {
    debug_assert!(distinct(subset), "restrict: subset repeats an object");
    DenseOracle::from_fn_sync(subset.len(), |u, v| oracle.dist(subset[u], subset[v]))
        .with_num_clusterings(oracle.num_clusterings())
}

/// Copy the upper triangle of the row-major `n × n` matrix `codes` onto
/// its lower triangle. Rows are mirrored in blocks of `TILE`: each block's
/// lower entries left of the diagonal block are gathered tile by tile
/// from the rows above, so the column being read and the row segment being
/// written both stay cache-resident.
fn mirror_upper(codes: &mut [u16], n: usize) {
    const TILE: usize = 128;
    for first in (0..n).step_by(TILE) {
        let (above, block) = codes.split_at_mut(first * n);
        let rows = first..(first + TILE).min(n);
        for cols in (0..first).step_by(TILE) {
            let cols = cols..(cols + TILE).min(first);
            for v in rows.clone() {
                let out = &mut block[(v - first) * n..][cols.clone()];
                for (entry, u) in out.iter_mut().zip(cols.clone()) {
                    *entry = above[u * n + v];
                }
            }
        }
        for v in rows.clone() {
            for u in first..v {
                block[(v - first) * n + u] = block[(u - first) * n + v];
            }
        }
    }
}

/// A precomputed symmetric distance matrix: a row-major `n × n` matrix of
/// `u16` codes and a table mapping each code to its distance `X_uv`.
///
/// Every row is contiguous, so a scan of all distances from one object
/// ([`DistanceOracle::accumulate_row`]) streams `2n` bytes. Code 0 is the
/// diagonal and always maps to `0.0`. A matrix built from input
/// clusterings codes each pair as `missing·(m+1) + sep` and its table
/// holds the exact [`CorrelationInstance`] value for those counts; a matrix
/// built from arbitrary values ([`DenseOracle::from_fn`] and friends)
/// assigns codes in `(u asc, v asc)` first-appearance order, so codes
/// never depend on the thread count. A matrix with more than
/// [`MAX_DISTANCE_CODES`] distinct values (many distinct weights, a
/// caller's continuous distances, over 255 partial inputs) keeps its
/// condensed `f64` values instead, read pair by pair. Either way `dist`
/// returns the bits the source produced.
#[derive(Clone, Debug)]
pub struct DenseOracle {
    n: usize,
    // A coded matrix holds `n²` codes into `table` and no `values`; an
    // uncoded one holds no codes and the condensed upper triangle
    // (`condensed_index`) in `values`. Not an enum: the bounds check of
    // the code lookup doubles as the test of which one this is, so `dist`
    // on a coded matrix costs no more than with codes alone (an enum
    // match made pair loops 1.8× slower on an x86-64 host).
    codes: Vec<u16>,
    table: Vec<f64>,
    values: Vec<f64>,
    // Set on matrices built from clusterings whose distances are all exact
    // fractions `k/den`: coded ones, whose table it decodes, and those of
    // over 65 535 total inputs, which keep values.
    scale: Option<Scale>,
    // Counted by the fill of a matrix with a scale, dropped by any
    // mutation.
    totals: Option<PairTotals>,
    m: Option<usize>,
    // Keeps the matrix's bytes on the owning budget's MemGauge for as long
    // as the oracle lives; None for ungoverned constructions.
    charge: Option<Arc<MemCharge>>,
}

impl DenseOracle {
    /// The oracle on no objects.
    fn empty() -> Self {
        Self::coded(0, Vec::new(), vec![0.0])
    }

    /// A matrix of `n²` `codes` into `table`.
    fn coded(n: usize, codes: Vec<u16>, table: Vec<f64>) -> Self {
        DenseOracle {
            n,
            codes,
            table,
            values: Vec::new(),
            scale: None,
            totals: None,
            m: None,
            charge: None,
        }
    }

    /// A matrix that keeps the condensed `values` as they are.
    fn uncoded(n: usize, values: Vec<f64>) -> Self {
        DenseOracle {
            n,
            codes: Vec::new(),
            table: Vec::new(),
            values,
            scale: None,
            totals: None,
            m: None,
            charge: None,
        }
    }

    /// Code the condensed `values` (pairs `u < v` in `(u asc, v asc)`
    /// order), or keep them when they hold more than
    /// [`MAX_DISTANCE_CODES`] distinct values: the one constructor for
    /// matrices of arbitrary values.
    fn from_condensed(n: usize, values: Vec<f64>) -> Self {
        let mut codes = vec![0u16; n * n];
        let mut table = vec![0.0];
        let mut index: HashMap<u64, u16> = HashMap::from([(0.0f64.to_bits(), 0)]);
        // Runs of equal values are common; skip the hash for them.
        let mut last = (0.0f64.to_bits(), 0u16);
        let mut next = 0;
        for u in 0..n {
            let row = u * n;
            for v in u + 1..n {
                let d = values[next];
                next += 1;
                let bits = d.to_bits();
                if bits != last.0 {
                    let code = match index.get(&bits) {
                        Some(&code) => code,
                        None if table.len() < MAX_DISTANCE_CODES => {
                            let code = table.len() as u16;
                            index.insert(bits, code);
                            table.push(d);
                            code
                        }
                        None => return Self::uncoded(n, values),
                    };
                    last = (bits, code);
                }
                codes[row + v] = last.1;
            }
        }
        mirror_upper(&mut codes, n);
        Self::coded(n, codes, table)
    }

    /// Build from a distance function evaluated on every pair `u < v`,
    /// serially in `(u asc, v asc)` order, so `f` may be a stateful
    /// `FnMut` closure.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let values: Vec<f64> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .map(|(u, v)| {
                let d = f(u, v);
                debug_assert!((0.0..=1.0).contains(&d), "distance {d} out of [0,1]");
                d
            })
            .collect();
        Self::from_condensed(n, values)
    }

    /// Build from a pure distance function, evaluating the `n(n−1)/2` pairs
    /// in parallel row chunks (see [`crate::parallel`]). Produces exactly
    /// the same matrix as [`DenseOracle::from_fn`] at any thread count.
    pub(crate) fn from_fn_sync(n: usize, f: impl Fn(usize, usize) -> f64 + Sync) -> Self {
        let pair = |u, v| {
            let d = f(u, v);
            debug_assert!((0.0..=1.0).contains(&d), "distance {d} out of [0,1]");
            d
        };
        let fill = parallel::try_fill_upper(
            n,
            Layout::Condensed,
            n,
            || (),
            parallel::pairwise(pair),
            drop,
            &RunBudget::unlimited(),
        );
        // An unlimited budget never trips.
        Self::from_condensed(n, fill.unwrap_or_default().0)
    }

    /// Validating variant of [`DenseOracle::from_fn`]: every distance is
    /// checked to be finite and in `[0, 1]` — a real check, unlike the
    /// `debug_assert!` in the unchecked constructors — so corrupted inputs
    /// (NaN weights, out-of-range values) surface as typed errors instead
    /// of silently poisoning every downstream cost.
    pub fn try_from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> AggResult<Self> {
        let mut values = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for u in 0..n {
            for v in (u + 1)..n {
                let d = f(u, v);
                if !(0.0..=1.0).contains(&d) {
                    return Err(AggError::invalid_instance(format!(
                        "distance X[{u},{v}] = {d} out of [0,1]"
                    )));
                }
                values.push(d);
            }
        }
        Ok(Self::from_condensed(n, values))
    }

    /// Validating variant of [`DenseOracle::from_clusterings`]: empty input
    /// and mismatched object counts come back as typed errors instead of
    /// panics.
    pub fn try_from_clusterings(clusterings: &[Clustering]) -> AggResult<Self> {
        Ok(CorrelationInstance::try_from_clusterings(clusterings)?.dense_oracle())
    }

    /// Validating variant of [`DenseOracle::from_weighted_clusterings`]:
    /// length mismatches, NaN or negative weights, and an all-zero weight
    /// vector come back as typed errors instead of panics.
    pub fn try_from_weighted_clusterings(
        clusterings: &[Clustering],
        weights: &[f64],
    ) -> AggResult<Self> {
        check_weights(clusterings, weights)?;
        Ok(DenseOracle::from_weighted_clusterings(clusterings, weights))
    }

    /// Build directly from total clusterings: `X_uv` is the fraction of
    /// clusterings separating `u` and `v`. The same build as
    /// [`CorrelationInstance::dense_oracle`].
    ///
    /// # Panics
    /// Panics if `clusterings` is empty or they disagree on the object
    /// count.
    pub fn from_clusterings(clusterings: &[Clustering]) -> Self {
        CorrelationInstance::from_clusterings(clusterings).dense_oracle()
    }

    /// Build from *weighted* clusterings: `X_uv` is the weight fraction of
    /// clusterings separating `u` and `v` — the natural generalization
    /// where some inputs are more trusted than others (e.g. a clustering
    /// algorithm run with better-validated parameters). Weights must be
    /// non-negative with a positive sum; the resulting distances still
    /// satisfy the triangle inequality.
    ///
    /// The distance is computed in its canonical grouped form
    /// `Σ_g w_g · sep_g / Σ w` over equal-weight groups in
    /// first-appearance order ([`kernels::weight_groups`]): groups of at
    /// least [`kernels::MIN_PACKED_GROUP`] clusterings become packed SWAR
    /// blocks, smaller groups stay on a scalar tail (counted by the
    /// `kernels_fallback_scalar` metric).
    ///
    /// # Panics
    /// Panics on what [`DenseOracle::try_from_weighted_clusterings`]
    /// returns as errors, in the same words.
    pub fn from_weighted_clusterings(clusterings: &[Clustering], weights: &[f64]) -> Self {
        assert_valid(check_weights(clusterings, weights));
        let total: f64 = weights.iter().sum();
        let n = clusterings[0].len();
        let _span = crate::span!("dense_build", n = n, m = clusterings.len());
        enum Block {
            Packed(f64, LabelMatrix),
            Scalar(f64, Vec<usize>),
        }
        let blocks: Vec<Block> = kernels::weight_groups(weights)
            .into_iter()
            .map(|(w, members)| {
                if members.len() >= kernels::MIN_PACKED_GROUP {
                    Block::Packed(w, LabelMatrix::from_total_indexed(clusterings, &members))
                } else {
                    Block::Scalar(w, members)
                }
            })
            .collect();
        let tail_members: usize = blocks
            .iter()
            .map(|b| match b {
                Block::Scalar(_, ms) => ms.len(),
                Block::Packed(..) => 0,
            })
            .sum();
        // The tightest preferred band across the packed blocks keeps the
        // widest block's stripe L1-resident; scalar-only inputs fall back
        // to the default.
        let band = blocks
            .iter()
            .filter_map(|b| match b {
                Block::Packed(_, matrix) => Some(matrix.preferred_band()),
                Block::Scalar(..) => None,
            })
            .min()
            .unwrap_or(kernels::PACKED_BAND);
        let fill = parallel::try_fill_upper(
            n,
            Layout::Condensed,
            band,
            || vec![0u32; band],
            |counts: &mut Vec<u32>, u, vs, seg: &mut [f64]| {
                let counts = &mut counts[..seg.len()];
                seg.fill(0.0);
                // Blocks accumulate in first-appearance order — the canonical
                // op order shared with `kernels::reference::xuv_weighted`.
                for block in &blocks {
                    match block {
                        Block::Packed(w, matrix) => {
                            matrix.sep_row_into(u, vs.start, counts);
                            for (entry, &c) in seg.iter_mut().zip(counts.iter()) {
                                *entry += w * c as f64;
                            }
                        }
                        Block::Scalar(w, members) => {
                            for (entry, v) in seg.iter_mut().zip(vs.clone()) {
                                let sep = members
                                    .iter()
                                    .filter(|&&i| !clusterings[i].same_cluster(u, v))
                                    .count();
                                *entry += w * sep as f64;
                            }
                        }
                    }
                }
                for entry in seg.iter_mut() {
                    *entry /= total;
                    debug_assert!((0.0..=1.0).contains(entry), "distance {entry} out of [0,1]");
                }
            },
            drop,
            &RunBudget::unlimited(),
        );
        // An unlimited budget never trips.
        let (values, _) = fill.unwrap_or_default();
        let pairs = values.len() as u64;
        if tail_members < clusterings.len() {
            crate::telemetry::metrics()
                .oracle_packed_evals
                .add_if_enabled(pairs);
        }
        if tail_members > 0 {
            crate::telemetry::metrics()
                .kernels_fallback_scalar
                .add_if_enabled(pairs * tail_members as u64);
        }
        Self::from_condensed(n, values).with_num_clusterings(Some(clusterings.len()))
    }

    /// Tag the matrix with the proven scale of its distances.
    fn with_scale(mut self, scale: Option<Scale>) -> Self {
        self.scale = scale;
        self
    }

    /// Tag the oracle with the number of source clusterings.
    pub fn with_num_clusterings(mut self, m: Option<usize>) -> Self {
        self.m = m;
        self
    }

    /// Bytes this oracle holds against a budget's
    /// [`crate::robust::MemGauge`], when it was built through a governed
    /// path ([`CorrelationInstance::try_dense_oracle`]).
    pub fn mem_charge_bytes(&self) -> Option<u64> {
        self.charge.as_ref().map(|c| c.bytes())
    }

    /// Mutable access to one entry (test/bench construction helper). A
    /// value the matrix has not held before gets the next free code; past
    /// [`MAX_DISTANCE_CODES`] distinct values the matrix keeps its values
    /// instead. A value that is no `k/den` drops the exact scale, and any
    /// edit drops the pair totals the fill counted (so
    /// [`DistanceOracle::pair_totals`] streams them again).
    ///
    /// # Panics
    /// Panics if `u == v` or `d` is not in `[0, 1]`.
    pub fn set(&mut self, u: usize, v: usize, d: f64) {
        assert_ne!(u, v, "diagonal is fixed at zero");
        assert!((0.0..=1.0).contains(&d), "distance {d} out of [0,1]");
        let n = self.n;
        self.totals = None;
        if self.is_coded() {
            let found = self.table.iter().position(|x| x.to_bits() == d.to_bits());
            if found.is_some() || self.table.len() < MAX_DISTANCE_CODES {
                let code = found.unwrap_or(self.table.len()) as u16;
                if found.is_none() {
                    self.table.push(d);
                    // A table built from clusterings already codes every
                    // `k/den` in [0, 1], so a new value is never one.
                    self.scale = None;
                }
                self.codes[u * n + v] = code;
                self.codes[v * n + u] = code;
                return;
            }
            self.values = (0..n)
                .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
                .map(|(a, b)| self.value(a, b))
                .collect();
            self.codes = Vec::new();
            self.table = Vec::new();
            self.scale = None;
        }
        self.scale = self
            .scale
            .take()
            .filter(|scale| numerator(d, scale.den).is_some());
        self.values[condensed_index(n, u.min(v), u.max(v))] = d;
    }

    /// `true` when the matrix holds codes rather than values (a matrix on
    /// no objects holds neither, and counts as coded).
    fn is_coded(&self) -> bool {
        self.values.is_empty() && self.codes.len() == self.n * self.n
    }

    /// `X_uv`, uncounted. A coded matrix answers from its codes; an
    /// uncoded one has none, so the lookup falls through to the values.
    #[inline]
    fn value(&self, u: usize, v: usize) -> f64 {
        debug_assert!(u < self.n && v < self.n);
        match self.codes.get(u * self.n + v) {
            Some(&code) => self.table[usize::from(code)],
            None => condensed_value(&self.values, self.n, u, v),
        }
    }
}

/// `X_uv` from a condensed upper triangle over `n` objects.
#[cold]
#[inline(never)]
fn condensed_value(values: &[f64], n: usize, u: usize, v: usize) -> f64 {
    match u.cmp(&v) {
        Ordering::Less => values[condensed_index(n, u, v)],
        Ordering::Greater => values[condensed_index(n, v, u)],
        Ordering::Equal => 0.0,
    }
}

impl DistanceOracle for DenseOracle {
    #[inline]
    fn len(&self) -> usize {
        self.n
    }

    #[inline]
    fn dist(&self, u: usize, v: usize) -> f64 {
        // Gated dense-hit counter: a relaxed load and an untaken branch
        // when metrics are off, keeping the O(1) lookup hot path intact.
        crate::telemetry::metrics()
            .oracle_dense_evals
            .incr_if_enabled();
        self.value(u, v)
    }

    /// One contiguous scan of row `v`'s codes. The diagonal entry is code
    /// 0, whose `+0.0` leaves any sum but `−0.0` bit-for-bit unchanged (a
    /// sum that starts at `+0.0` never becomes `−0.0`), so the scan needs
    /// no `u ≠ v` test. Counts `n` dense reads, the diagonal included; a
    /// matrix of `f64` values reads pair by pair and counts `n − 1`.
    fn accumulate_row(&self, v: usize, labels: &[u32], sums: &mut [f64]) -> f64 {
        if !self.is_coded() {
            return accumulate_each(self, v, labels, sums);
        }
        let (n, codes, table) = (self.n, &self.codes, &self.table);
        crate::telemetry::metrics()
            .oracle_dense_evals
            .add_if_enabled(n as u64);
        let mut total = 0.0;
        for (&code, &label) in codes[v * n..(v + 1) * n].iter().zip(labels) {
            let x = table[usize::from(code)];
            sums[label as usize] += x;
            total += x;
        }
        total
    }

    fn exact_scale(&self) -> Option<u32> {
        self.scale.as_ref().map(|scale| scale.den)
    }

    /// The totals the fill counted, else [`DistanceOracle::pair_totals`]'s
    /// streaming pass.
    fn pair_totals(&self) -> Option<PairTotals> {
        self.totals.or_else(|| stream_totals(self))
    }

    /// One contiguous slice of row `u`'s codes, decoded through the
    /// code → numerator table. Counts one dense read per pair.
    fn numerators_into(&self, u: usize, vs: Range<usize>, den: u32, out: &mut [u32]) {
        match &self.scale {
            Some(scale) if scale.den == den && self.is_coded() => {
                crate::telemetry::metrics()
                    .oracle_dense_evals
                    .add_if_enabled(out.len() as u64);
                let row = &self.codes[u * self.n..(u + 1) * self.n];
                for (out, &code) in out.iter_mut().zip(&row[vs]) {
                    *out = scale.nums[usize::from(code)];
                }
            }
            _ => numerators_each(self, u, vs, den, out),
        }
    }

    fn num_clusterings(&self) -> Option<usize> {
        self.m
    }

    /// Copies the codes of the subset's pairs and keeps the table.
    fn restrict(&self, subset: &[usize]) -> DenseOracle {
        if !self.is_coded() {
            return restrict_each(self, subset);
        }
        debug_assert!(distinct(subset), "restrict: subset repeats an object");
        let (n, s, all) = (self.n, subset.len(), &self.codes);
        let mut codes = vec![0u16; s * s];
        for (out, &a) in codes.chunks_mut(s.max(1)).zip(subset) {
            let row = &all[a * n..(a + 1) * n];
            for (code, &b) in out.iter_mut().zip(subset) {
                *code = row[b];
            }
        }
        crate::telemetry::metrics()
            .oracle_dense_evals
            .add_if_enabled((s * s.saturating_sub(1) / 2) as u64);
        Self::coded(s, codes, self.table.clone())
            .with_scale(self.scale.clone())
            .with_num_clusterings(self.m)
    }
}

/// A correlation-clustering instance built from `m` input clusterings —
/// the bridge between Problem 1 (clustering aggregation) and Problem 2
/// (correlation clustering) — and its lazy oracle, which computes `X_uv`
/// from the labels on each call, honoring a [`MissingPolicy`] for partial
/// clusterings.
///
/// Construction validates the inputs and transposes them into a packed
/// [`LabelMatrix`] once; the caller's label vectors are not kept. Each
/// `dist` call XOR-scans two label rows through the packed SWAR kernels
/// ([`crate::kernels`]): lookup is `O(m)` and memory `O(nm)`, which suits
/// SAMPLING on large datasets where only a sparse set of pairs is ever
/// queried. [`CorrelationInstance::dense_oracle`] precomputes every pair.
#[derive(Clone, Debug)]
pub struct CorrelationInstance {
    n: usize,
    // Number of input clusterings.
    m: usize,
    policy: MissingPolicy,
    packed: LabelMatrix,
    // Some input lacks a label somewhere.
    partial: bool,
    // The proven scale of the code table, shared by every dense matrix
    // built from this instance.
    scale: Option<Scale>,
}

/// The lazy oracle's former name, which the benchmark harness still uses:
/// delete with the next benchmark change.
pub type ClusteringsOracle = CorrelationInstance;

impl CorrelationInstance {
    /// Build from total clusterings.
    ///
    /// # Panics
    /// Panics on what [`CorrelationInstance::try_from_clusterings`]
    /// returns as errors, in the same words.
    pub fn from_clusterings(inputs: &[Clustering]) -> Self {
        assert_valid(object_count(inputs.iter().map(Clustering::len)).map(drop));
        Self::pack_total(inputs)
    }

    /// Validating variant of [`CorrelationInstance::from_clusterings`]:
    /// empty input and mismatched object counts come back as typed errors.
    pub fn try_from_clusterings(inputs: &[Clustering]) -> AggResult<Self> {
        object_count(inputs.iter().map(Clustering::len))?;
        Ok(Self::pack_total(inputs))
    }

    /// The instance over validated total inputs, under the default policy
    /// (no label is missing, so it never applies). A total label packs as
    /// its `PartialClustering::from_total` would.
    fn pack_total(inputs: &[Clustering]) -> Self {
        let all: Vec<usize> = (0..inputs.len()).collect();
        let packed = LabelMatrix::from_total_indexed(inputs, &all);
        Self::assemble(packed, false, MissingPolicy::default())
    }

    /// Build from partial clusterings with an explicit missing-value policy.
    ///
    /// # Panics
    /// Panics on what [`CorrelationInstance::try_from_partial`] returns as
    /// errors, in the same words, except inputs missing every label.
    pub fn from_partial(inputs: Vec<PartialClustering>, policy: MissingPolicy) -> Self {
        assert_valid(Self::check(&inputs, policy));
        Self::pack(&inputs, policy)
    }

    /// [`CorrelationInstance::from_partial`] under the name the benchmark
    /// harness uses: delete with the next benchmark change.
    pub fn new(inputs: Vec<PartialClustering>, policy: MissingPolicy) -> Self {
        Self::from_partial(inputs, policy)
    }

    /// Validating variant of [`CorrelationInstance::from_partial`]: empty
    /// input, mismatched object counts, an out-of-range coin probability,
    /// inputs whose labels are missing *everywhere* (no pair carries any
    /// information, so no consensus is defined) come back as typed errors
    /// instead of panics or garbage.
    pub fn try_from_partial(
        inputs: Vec<PartialClustering>,
        policy: MissingPolicy,
    ) -> AggResult<Self> {
        Self::check(&inputs, policy)?;
        if !inputs[0].is_empty() && inputs.iter().all(|c| c.num_missing() == c.len()) {
            return Err(AggError::degenerate(
                "every label is missing in every input clustering",
            ));
        }
        Ok(Self::pack(&inputs, policy))
    }

    /// The checks every partial constructor makes: the inputs' object
    /// count and the policy's parameter.
    fn check(inputs: &[PartialClustering], policy: MissingPolicy) -> AggResult<()> {
        object_count(inputs.iter().map(PartialClustering::len))?;
        policy.validate()
    }

    /// The instance over validated partial inputs.
    fn pack(inputs: &[PartialClustering], policy: MissingPolicy) -> Self {
        let partial = inputs.iter().any(|c| c.num_missing() > 0);
        Self::assemble(LabelMatrix::from_partial(inputs), partial, policy)
    }

    /// The instance over packed labels: proves the scale of
    /// [`CorrelationInstance::xuv_table`] once.
    fn assemble(packed: LabelMatrix, partial: bool, policy: MissingPolicy) -> Self {
        let mut instance = CorrelationInstance {
            n: packed.len(),
            m: packed.lanes(),
            policy,
            packed,
            partial,
            scale: None,
        };
        let table = instance.xuv_table();
        instance.scale = table.and_then(|table| Scale::of(&table, instance.m));
        instance
    }

    /// A copy of this instance, under the lazy oracle's name the benchmark
    /// harness uses: delete with the next benchmark change.
    pub fn lazy_oracle(&self) -> Self {
        self.clone()
    }

    /// Number of input clusterings `m`.
    pub fn num_clusterings(&self) -> usize {
        self.m
    }

    /// The missing-value policy in effect.
    pub fn policy(&self) -> MissingPolicy {
        self.policy
    }

    /// The packed label matrix serving this oracle's lookups.
    pub fn packed(&self) -> &LabelMatrix {
        &self.packed
    }

    /// Heap bytes held by the packed label matrix (charged against the
    /// budget's [`crate::robust::MemGauge`] on governed paths).
    pub fn packed_bytes(&self) -> u64 {
        self.packed.bytes()
    }

    /// Entries of the code → `X_uv` table of this oracle's dense matrices
    /// — `m + 1` for total inputs, `(m + 1)²` for partial ones — or `None`
    /// when that is more than [`MAX_DISTANCE_CODES`] (over 65 535 total or
    /// 255 partial inputs) and the matrices hold `f64` values instead.
    /// The one place this is decided.
    fn code_count(&self) -> Option<usize> {
        let m = self.m;
        let count = if self.partial {
            (m + 1) * (m + 1)
        } else {
            m + 1
        };
        (count <= MAX_DISTANCE_CODES).then_some(count)
    }

    /// Bytes of this oracle's dense matrix, code table included: `2n²`
    /// plus 8 per code, or `8·n(n−1)/2` for a matrix of `f64` values.
    /// [`CorrelationInstance::try_dense_oracle`] reserves exactly this.
    pub fn dense_bytes(&self) -> u64 {
        let n = self.n as u64;
        match self.code_count() {
            Some(count) => 2 * n * n + 8 * count as u64,
            None => 4 * n * n.saturating_sub(1),
        }
    }

    /// The distance of a pair that `sep` inputs separate and `missing`
    /// inputs cannot judge (a label missing on either side). This is the
    /// one place counts become distances: [`DistanceOracle::dist`] and the
    /// code table of every dense matrix built from this oracle share it.
    #[inline]
    fn xuv(&self, sep: u32, missing: u32) -> f64 {
        match self.policy {
            MissingPolicy::Ignore => {
                let defined = self.m - missing as usize;
                if defined == 0 {
                    0.5
                } else {
                    f64::from(sep) / defined as f64
                }
            }
            // A clustering missing a label on either side separates the
            // pair with probability 1 − p; the expected separation count
            // is accumulated in closed form (the canonical shape shared
            // with `kernels::reference::xuv_partial`).
            MissingPolicy::Coin(p) => {
                (f64::from(sep) + f64::from(missing) * (1.0 - p)) / self.m as f64
            }
        }
    }

    /// The code of a pair that `sep` inputs separate and `missing` cannot
    /// judge: `missing·(m+1) + sep`. Only meaningful when
    /// [`CorrelationInstance::code_count`] is `Some`.
    #[inline]
    fn code(&self, sep: u32, missing: u32) -> u16 {
        (missing * (self.m as u32 + 1) + sep) as u16
    }

    /// `xuv(sep, missing)` at index `missing·(m + 1) + sep`, for every
    /// count a pair can take: the `m + 1` of total inputs at any `m` (the
    /// code limit bounds codes, not the scale), the `(m + 1)²` of partial
    /// ones while they fit codes. Entry 0 (`sep = missing = 0`) is `0.0`.
    /// While [`CorrelationInstance::code_count`] admits codes, this is the
    /// code → `X_uv` table of the oracle's dense matrices, entry
    /// [`CorrelationInstance::code`]`(sep, missing)` holding `xuv(sep,
    /// missing)`.
    fn xuv_table(&self) -> Option<Vec<f64>> {
        let per_missing = self.m + 1;
        let count = if self.partial {
            self.code_count()?
        } else {
            per_missing
        };
        let entry = |i: usize| self.xuv((i % per_missing) as u32, (i / per_missing) as u32);
        Some((0..count).map(entry).collect())
    }

    /// `(den, w_sep, w_miss)` when every pair's numerator is exactly
    /// `w_sep·sep + w_miss·missing` over the proven scale `den`: total
    /// inputs, and `Coin(p)` inputs whose scale is proven (`Coin(½)` has
    /// `den = 2m`, `w_sep = 2`, `w_miss = 1`). `Ignore` with missing labels
    /// divides by a per-pair count of judging inputs, which no fixed
    /// weights reproduce once two inputs can be missing.
    fn lane_weights(&self) -> Option<(u32, u32, u32)> {
        let scale = self.scale.as_ref()?;
        let m = self.m as u32;
        let num = |sep: u32, missing: u32| scale.nums[(missing * (m + 1) + sep) as usize];
        let max_missing = if self.partial { m } else { 0 };
        let w_sep = num(1, 0);
        let w_miss = if self.partial { num(0, 1) } else { 0 };
        let linear = (0..=max_missing).all(|missing| {
            (0..=m - missing).all(|sep| num(sep, missing) == sep * w_sep + missing * w_miss)
        });
        linear.then_some((scale.den, w_sep, w_miss))
    }

    /// Precompute the full distance matrix (`O(n² m)` time,
    /// [`CorrelationInstance::dense_bytes`] bytes) from the packed label
    /// rows, in cache-blocked bands: all-total inputs through the batched
    /// separation kernel, partial inputs per pair.
    pub fn dense_oracle(&self) -> DenseOracle {
        let _span = crate::span!("dense_build", n = self.n, m = self.m);
        self.to_dense()
    }

    /// Budgeted variant of [`CorrelationInstance::dense_oracle`]: the
    /// matrix and its code table ([`CorrelationInstance::dense_bytes`]) are
    /// reserved against the budget's memory cap first —
    /// [`Interrupt::MemoryExceeded`] if they do not fit, letting the caller
    /// degrade to reading this instance itself — and the `O(n² m)` fill
    /// then polls `budget` between row chunks and reports the interrupt
    /// instead of blowing through a deadline on a large instance. The
    /// returned oracle holds its memory charge for as long as it lives.
    pub fn try_dense_oracle(&self, budget: &RunBudget) -> Result<DenseOracle, Interrupt> {
        let _span = crate::span!("dense_build", n = self.n, m = self.m);
        let charge = budget.try_reserve(self.dense_bytes())?;
        // The fill streams the packed labels: observe them on the gauge
        // (high-water accounting) for its duration, without holding them
        // against the cap afterwards.
        let packed_charge = budget.mem_gauge().charge(self.packed_bytes());
        let dense = self.try_dense(budget)?;
        drop(packed_charge);
        Ok(DenseOracle {
            charge: Some(Arc::new(charge)),
            ..dense
        })
    }

    /// Every upper-triangle pair, written as `entry(sep, missing)` by
    /// [`parallel::try_fill_upper`] in `layout` and the matrix's preferred
    /// band. With `scale`, each job also sums its pairs' numerators into
    /// its own [`PairTotals`], and the jobs' integer totals are added up,
    /// so they are the same at any thread count.
    ///
    /// Total inputs go through the batched `sep_row_into` kernel with one
    /// scratch count buffer per worker job (counted by
    /// `kernels_row_batches`) and `missing = 0`; partial inputs count each
    /// pair with `sep_missing`, and count as lazy evaluations too.
    fn try_fill_counts<T: Copy + Default + Send>(
        &self,
        layout: Layout,
        entry: impl Fn(u32, u32) -> T + Sync,
        scale: Option<&Scale>,
        budget: &RunBudget,
    ) -> Result<(Vec<T>, Option<PairTotals>), Interrupt> {
        let band = self.preferred_band();
        let metrics = crate::telemetry::metrics();
        // A job's segment buffer is dropped when it ends; only its totals
        // are kept.
        let scratch = || (vec![0u32; band], PairTotals::default());
        let totals_only = |(_, totals): (Vec<u32>, PairTotals)| totals;
        let (data, jobs) = if self.partial {
            parallel::try_fill_upper(
                self.n,
                layout,
                band,
                scratch,
                |(codes, totals): &mut (Vec<u32>, PairTotals), u, vs, seg: &mut [T]| {
                    let codes = &mut codes[..seg.len()];
                    for ((out, code), v) in seg.iter_mut().zip(codes.iter_mut()).zip(vs) {
                        let (sep, missing) = self.packed.sep_missing(u, v);
                        *out = entry(sep, missing);
                        *code = u32::from(self.code(sep, missing));
                    }
                    // A second pass: looking the numerators up inside the
                    // pair loop above made the whole fill twice as slow.
                    if let Some(scale) = scale {
                        // At most 4096 pairs of numerators `≤ den ≤ 512`.
                        let (mut num, mut bound) = (0u32, 0u32);
                        for &code in codes.iter() {
                            let k = scale.nums[code as usize];
                            num += k;
                            bound += k.min(scale.den - k);
                        }
                        totals.num += u64::from(num);
                        totals.bound += u64::from(bound);
                    }
                    metrics.oracle_lazy_evals.add_if_enabled(seg.len() as u64);
                    metrics.oracle_packed_evals.add_if_enabled(seg.len() as u64);
                },
                totals_only,
                budget,
            )?
        } else {
            let m = self.m as u32;
            let fill = parallel::try_fill_upper(
                self.n,
                layout,
                band,
                scratch,
                |(counts, totals): &mut (Vec<u32>, PairTotals), u, vs, seg: &mut [T]| {
                    let counts = &mut counts[..seg.len()];
                    self.packed.sep_row_into(u, vs.start, counts);
                    if scale.is_none() {
                        for (out, &sep) in seg.iter_mut().zip(counts.iter()) {
                            *out = entry(sep, 0);
                        }
                        return;
                    }
                    // Total inputs prove `den = m`, where a pair's numerator
                    // is its count of separating inputs. A segment of at
                    // most 4096 pairs sums numerators `≤ m ≤ 65 535` in
                    // `u32`, inside the writing loop, which keeps it vector.
                    let (mut num, mut bound) = (0u32, 0u32);
                    for (out, &sep) in seg.iter_mut().zip(counts.iter()) {
                        *out = entry(sep, 0);
                        num += sep;
                        bound += sep.min(m - sep);
                    }
                    totals.num += u64::from(num);
                    totals.bound += u64::from(bound);
                },
                totals_only,
                budget,
            )?;
            let pairs = self.n * self.n.saturating_sub(1) / 2;
            metrics.oracle_packed_evals.add_if_enabled(pairs as u64);
            fill
        };
        let totals = scale.map(|_| jobs.into_iter().sum());
        Ok((data, totals))
    }

    /// The dense matrix of this instance: the upper triangle's codes filled
    /// under `budget`, then mirrored onto the lower triangle — or its
    /// condensed values, when the codes do not fit.
    fn try_dense(&self, budget: &RunBudget) -> Result<DenseOracle, Interrupt> {
        let m = Some(self.m);
        let Some(table) = self.code_count().and_then(|_| self.xuv_table()) else {
            let xuv = |sep, missing| self.xuv(sep, missing);
            let (values, _) = self.try_fill_counts(Layout::Condensed, xuv, None, budget)?;
            return Ok(DenseOracle::uncoded(self.n, values)
                .with_scale(self.scale.clone())
                .with_num_clusterings(m));
        };
        let code = |sep, missing| self.code(sep, missing);
        let scale = self.scale.as_ref();
        let (mut codes, totals) = self.try_fill_counts(Layout::Square, code, scale, budget)?;
        mirror_upper(&mut codes, self.n);
        Ok(DenseOracle {
            totals,
            ..DenseOracle::coded(self.n, codes, table)
                .with_scale(self.scale.clone())
                .with_num_clusterings(m)
        })
    }
}

/// Sums over the upper triangle's pairs of their numerators `num =
/// den·X_uv` over a proven scale, from [`DistanceOracle::pair_totals`] or
/// counted by the dense fill and by the linkage triangle's fill. The cost
/// of splitting every pair apart and the lower bound follow from them
/// without reading a pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PairTotals {
    /// `Σ num`.
    pub num: u64,
    /// `Σ min(num, den − num)`: `den` times the per-pair lower bound.
    pub bound: u64,
}

impl PairTotals {
    /// The totals of the numerators `nums` at scale `den`.
    pub(crate) fn of(nums: &[u32], den: u32) -> Self {
        let (mut num, mut bound) = (0u64, 0u64);
        for &k in nums {
            num += u64::from(k);
            bound += u64::from(k.min(den - k));
        }
        PairTotals { num, bound }
    }

    /// The totals of two disjoint sets of pairs.
    pub(crate) fn add(self, other: Self) -> Self {
        PairTotals {
            num: self.num + other.num,
            bound: self.bound + other.bound,
        }
    }

    /// `Σ_{u<v} (den − num)` over the `n(n−1)/2` pairs of `n` objects these
    /// totals count: `den` times the cost of splitting every pair apart.
    pub(crate) fn split_numerator(self, n: usize, den: u32) -> u64 {
        let pairs = (n as u64) * (n.saturating_sub(1) as u64) / 2;
        u64::from(den) * pairs - self.num
    }
}

impl Sum for PairTotals {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(PairTotals::default(), PairTotals::add)
    }
}

impl DistanceOracle for CorrelationInstance {
    #[inline]
    fn len(&self) -> usize {
        self.n
    }

    fn dist(&self, u: usize, v: usize) -> f64 {
        // Each lazy lookup is an O(m) recomputation — the quantity the
        // SAMPLING scaling claim is measured in. It is served by the
        // packed kernel, so it also counts as a packed evaluation.
        crate::telemetry::metrics()
            .oracle_lazy_evals
            .incr_if_enabled();
        if u == v {
            return 0.0;
        }
        crate::telemetry::metrics()
            .oracle_packed_evals
            .incr_if_enabled();
        let (sep, missing) = self.packed.sep_missing(u, v);
        self.xuv(sep, missing)
    }

    fn exact_scale(&self) -> Option<u32> {
        self.scale.as_ref().map(|scale| scale.den)
    }

    /// Straight from the packed label rows at the proven scale: total
    /// inputs through the batched `sep_row_into` kernel (at `den = m` a
    /// pair's numerator is its count of separating inputs), partial inputs
    /// per pair through `sep_missing` and the code → numerator table
    /// (`2·sep + missing` under `Coin(½)`). The counters move once per
    /// call, as in the dense fill; any other `den` rounds `dist` per pair.
    fn numerators_into(&self, u: usize, vs: Range<usize>, den: u32, out: &mut [u32]) {
        let Some(scale) = self.scale.as_ref().filter(|scale| scale.den == den) else {
            return numerators_each(self, u, vs, den, out);
        };
        let metrics = crate::telemetry::metrics();
        metrics.oracle_packed_evals.add_if_enabled(out.len() as u64);
        if !self.partial {
            debug_assert_eq!(den as usize, self.m);
            self.packed.sep_row_into(u, vs.start, out);
            return;
        }
        metrics.oracle_lazy_evals.add_if_enabled(out.len() as u64);
        for (out, v) in out.iter_mut().zip(vs.clone()) {
            let (sep, missing) = self.packed.sep_missing(u, v);
            *out = u32::from(self.code(sep, missing));
        }
        // A second pass, as in the dense fill: the lookup inside the pair
        // loop above slows it down.
        for out in out.iter_mut() {
            *out = scale.nums[*out as usize];
        }
        // The diagonal is 0 whatever labels `u` is missing.
        if vs.contains(&u) {
            out[u - vs.start] = 0;
        }
    }

    fn num_clusterings(&self) -> Option<usize> {
        Some(self.m)
    }

    fn cluster_counts(&self, members: &[usize], labels: &[u32]) -> Option<ClusterCounts<'_>> {
        let (den, w_sep, w_miss) = self.lane_weights()?;
        Some(ClusterCounts::new(
            &self.packed,
            members,
            labels,
            den,
            w_sep,
            w_miss,
        ))
    }

    fn preferred_band(&self) -> usize {
        self.packed.preferred_band()
    }

    /// The dense build of [`CorrelationInstance::dense_oracle`].
    fn to_dense(&self) -> DenseOracle {
        // An unlimited budget never trips.
        self.try_dense(&RunBudget::unlimited())
            .unwrap_or_else(|_| DenseOracle::empty())
    }

    /// The dense matrix of the subset's own oracle: its packed label rows
    /// gathered, the policy and scale kept, built like every dense matrix
    /// of this oracle (so with its pair totals when the scale is proven).
    fn restrict(&self, subset: &[usize]) -> DenseOracle {
        debug_assert!(distinct(subset), "restrict: subset repeats an object");
        CorrelationInstance {
            n: subset.len(),
            m: self.m,
            policy: self.policy,
            packed: self.packed.rows(subset),
            partial: self.partial,
            scale: self.scale.clone(),
        }
        .to_dense()
    }
}

/// Per-cluster label counts of a fixed set of clustered members, built by
/// [`DistanceOracle::cluster_counts`]: the exact numerators
/// `N_C = Σ_{u ∈ C} den·X_vu` of any other object `v` come from `v`'s `m`
/// labels instead of `|members|` pair reads.
///
/// Each input `j` splits cluster `C`'s members into those sharing `v`'s
/// label (numerator 0), those missing a label (`w_miss` each) and the rest
/// (`w_sep` each); where `v` itself is missing every member adds
/// `w_miss`. So `N_C` is `|C|·w` per input less what the members sharing
/// `v`'s label save, read from one inverted list per `(input, label)` of
/// `(cluster, count)` pairs. Memory is one entry per distinct
/// `(input, label, cluster)` and `(input, cluster)` with missing labels
/// among the members, plus one offset per input and label up to the
/// largest label a member carries: `O(s·m + Σ_j k_j)` for `s` members.
#[derive(Clone, Debug)]
pub struct ClusterCounts<'a> {
    packed: &'a LabelMatrix,
    den: u32,
    w_sep: i64,
    w_miss: i64,
    sizes: Vec<i64>,
    // The list of input `j`'s members with lane code `c` is
    // `same[starts[first[j] + c]..starts[first[j] + c + 1]]`, for lane
    // codes below `first[j + 1] − first[j] − 1`.
    first: Vec<usize>,
    starts: Vec<usize>,
    same: Vec<(u32, u32)>,
    // Input `j`'s members missing a label: `missing[missing_at[j]..
    // missing_at[j + 1]]`, and their per-cluster total over all inputs.
    missing_at: Vec<usize>,
    missing: Vec<(u32, u32)>,
    missing_total: Vec<i64>,
}

impl<'a> ClusterCounts<'a> {
    /// Count `members` (rows of `packed`) by input, lane code and cluster.
    fn new(
        packed: &'a LabelMatrix,
        members: &[usize],
        labels: &[u32],
        den: u32,
        w_sep: u32,
        w_miss: u32,
    ) -> Self {
        debug_assert_eq!(members.len(), labels.len());
        let m = packed.lanes();
        let clusters = labels.iter().map(|&l| l as usize + 1).max().unwrap_or(0);
        let mut sizes = vec![0i64; clusters];
        for &l in labels {
            sizes[l as usize] += 1;
        }
        let mut counts = ClusterCounts {
            packed,
            den,
            w_sep: i64::from(w_sep),
            w_miss: i64::from(w_miss),
            sizes,
            first: Vec::with_capacity(m + 1),
            starts: Vec::new(),
            same: Vec::new(),
            missing_at: Vec::with_capacity(m + 1),
            missing: Vec::new(),
            missing_total: vec![0; clusters],
        };
        let mut keys: Vec<(u32, u32)> = Vec::with_capacity(members.len());
        for j in 0..m {
            keys.clear();
            keys.extend(
                members
                    .iter()
                    .zip(labels)
                    .map(|(&u, &l)| (packed.lane_code(u, j), l)),
            );
            keys.sort_unstable();
            counts.first.push(counts.starts.len());
            counts.missing_at.push(counts.missing.len());
            let mut runs = keys.chunk_by(|a, b| a == b).peekable();
            for code in 0..=keys.last().map_or(0, |k| k.0) {
                counts.starts.push(counts.same.len());
                while let Some(run) = runs.next_if(|run| run[0].0 == code) {
                    let entry = (run[0].1, run.len() as u32);
                    if code == 0 {
                        counts.missing_total[entry.0 as usize] += i64::from(entry.1);
                        counts.missing.push(entry);
                    } else {
                        counts.same.push(entry);
                    }
                }
            }
            counts.starts.push(counts.same.len());
        }
        counts.first.push(counts.starts.len());
        counts.missing_at.push(counts.missing.len());
        counts
    }

    /// The scale `den` of the numerators.
    pub fn den(&self) -> u32 {
        self.den
    }

    /// Number of clusters: one more than the largest member label.
    pub fn num_clusters(&self) -> usize {
        self.sizes.len()
    }

    /// Write `N_C = Σ_{u ∈ C} round(den·X_vu)` for every cluster `C` to
    /// `out` (one slot per cluster), for an object `v` that is not a
    /// member. Reads `v`'s labels only; no pair is evaluated.
    pub fn numerators_into(&self, v: usize, out: &mut [i64]) {
        debug_assert_eq!(out.len(), self.sizes.len());
        let (w_sep, w_miss) = (self.w_sep, self.w_miss);
        let gap = w_miss - w_sep;
        for (out, &missing) in out.iter_mut().zip(&self.missing_total) {
            *out = gap * missing;
        }
        let mut present = 0i64;
        for j in 0..self.packed.lanes() {
            let code = self.packed.lane_code(v, j);
            if code == 0 {
                for &(c, k) in &self.missing[self.missing_at[j]..self.missing_at[j + 1]] {
                    out[c as usize] -= gap * i64::from(k);
                }
                continue;
            }
            present += 1;
            let at = self.first[j] + code as usize;
            if at + 1 < self.first[j + 1] {
                for &(c, k) in &self.same[self.starts[at]..self.starts[at + 1]] {
                    out[c as usize] -= w_sep * i64::from(k);
                }
            }
        }
        let absent = self.packed.lanes() as i64 - present;
        let per_member = w_sep * present + w_miss * absent;
        for (out, &size) in out.iter_mut().zip(&self.sizes) {
            *out += per_member * size;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(labels: &[u32]) -> Clustering {
        Clustering::from_labels(labels.to_vec())
    }

    /// The three clusterings of Figure 1.
    fn figure1() -> Vec<Clustering> {
        vec![
            c(&[0, 0, 1, 1, 2, 2]),
            c(&[0, 1, 0, 1, 2, 3]),
            c(&[0, 1, 0, 1, 2, 2]),
        ]
    }

    #[test]
    fn figure2_distances() {
        // Figure 2: solid edges = 1/3, dashed = 2/3, dotted = 1.
        let oracle = DenseOracle::from_clusterings(&figure1());
        let third = 1.0 / 3.0;
        // v1–v3, v2–v4, v5–v6 are solid (1/3).
        assert!((oracle.dist(0, 2) - third).abs() < 1e-12);
        assert!((oracle.dist(1, 3) - third).abs() < 1e-12);
        assert!((oracle.dist(4, 5) - third).abs() < 1e-12);
        // v1–v2, v3–v4 are dashed (2/3).
        assert!((oracle.dist(0, 1) - 2.0 * third).abs() < 1e-12);
        assert!((oracle.dist(2, 3) - 2.0 * third).abs() < 1e-12);
        // v1–v4 crosses all clusterings (1).
        assert!((oracle.dist(0, 3) - 1.0).abs() < 1e-12);
        assert_eq!(oracle.num_clusterings(), Some(3));
    }

    #[test]
    fn dense_and_lazy_agree() {
        let cs = figure1();
        let dense = DenseOracle::from_clusterings(&cs);
        let lazy = CorrelationInstance::from_clusterings(&cs);
        for u in 0..6 {
            for v in 0..6 {
                assert!((dense.dist(u, v) - lazy.dist(u, v)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn oracle_symmetry_and_diagonal() {
        let oracle = DenseOracle::from_clusterings(&figure1());
        for u in 0..6 {
            assert_eq!(oracle.dist(u, u), 0.0);
            for v in 0..6 {
                assert_eq!(oracle.dist(u, v), oracle.dist(v, u));
            }
        }
    }

    #[test]
    fn triangle_inequality_of_xuv() {
        let oracle = DenseOracle::from_clusterings(&figure1());
        for u in 0..6 {
            for v in 0..6 {
                for w in 0..6 {
                    assert!(oracle.dist(u, w) <= oracle.dist(u, v) + oracle.dist(v, w) + 1e-12);
                }
            }
        }
    }

    #[test]
    fn restrict_renumbers() {
        let oracle = DenseOracle::from_clusterings(&figure1());
        let sub = oracle.restrict(&[0, 3, 5]);
        assert_eq!(sub.len(), 3);
        assert!((sub.dist(0, 1) - oracle.dist(0, 3)).abs() < 1e-12);
        assert!((sub.dist(1, 2) - oracle.dist(3, 5)).abs() < 1e-12);
    }

    #[test]
    fn missing_policy_ignore() {
        // Two clusterings; the second is missing on object 1.
        let p1 = PartialClustering::from_labels(vec![Some(0), Some(0), Some(1)]);
        let p2 = PartialClustering::from_labels(vec![Some(0), None, Some(0)]);
        let o = CorrelationInstance::from_partial(vec![p1, p2], MissingPolicy::Ignore);
        // Pair (0,1): only clustering 1 is informative, it co-clusters.
        assert_eq!(o.dist(0, 1), 0.0);
        // Pair (0,2): both informative; c1 separates, c2 joins.
        assert_eq!(o.dist(0, 2), 0.5);
    }

    #[test]
    fn missing_policy_ignore_no_information() {
        let p1 = PartialClustering::from_labels(vec![None, Some(0)]);
        let p2 = PartialClustering::from_labels(vec![Some(0), None]);
        let o = CorrelationInstance::from_partial(vec![p1, p2], MissingPolicy::Ignore);
        assert_eq!(o.dist(0, 1), 0.5);
    }

    #[test]
    fn missing_policy_coin() {
        let p1 = PartialClustering::from_labels(vec![Some(0), Some(0), Some(1)]);
        let p2 = PartialClustering::from_labels(vec![Some(0), None, Some(0)]);
        let o = CorrelationInstance::from_partial(
            vec![p1.clone(), p2.clone()],
            MissingPolicy::Coin(0.5),
        );
        // Pair (0,1): c1 joins (0), c2 missing (expected 0.5) → X = 0.25.
        assert!((o.dist(0, 1) - 0.25).abs() < 1e-12);
        // With p = 1 the coin always reports "together": X = 0.
        let o1 = CorrelationInstance::from_partial(vec![p1, p2], MissingPolicy::Coin(1.0));
        assert_eq!(o1.dist(0, 1), 0.0);
    }

    #[test]
    fn instance_round_trip() {
        let inst = CorrelationInstance::from_clusterings(&figure1());
        assert_eq!(inst.len(), 6);
        assert_eq!(inst.num_clusterings(), 3);
        let dense = inst.dense_oracle();
        for u in 0..6 {
            for v in 0..6 {
                assert!((dense.dist(u, v) - inst.dist(u, v)).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "disagree on the object count: 2 vs 3")]
    fn mismatched_lengths_rejected() {
        let _ = DenseOracle::from_clusterings(&[c(&[0, 1]), c(&[0, 1, 2])]);
    }

    #[test]
    fn uniform_weights_match_unweighted() {
        let cs = figure1();
        let unweighted = DenseOracle::from_clusterings(&cs);
        let weighted = DenseOracle::from_weighted_clusterings(&cs, &[2.0, 2.0, 2.0]);
        for u in 0..6 {
            for v in 0..6 {
                assert!((unweighted.dist(u, v) - weighted.dist(u, v)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn integer_weights_equal_repetition() {
        let cs = figure1();
        let weighted = DenseOracle::from_weighted_clusterings(&cs, &[2.0, 1.0, 1.0]);
        let repeated = DenseOracle::from_clusterings(&[
            cs[0].clone(),
            cs[0].clone(),
            cs[1].clone(),
            cs[2].clone(),
        ]);
        for u in 0..6 {
            for v in 0..6 {
                assert!((weighted.dist(u, v) - repeated.dist(u, v)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn zero_weight_excludes_a_clustering() {
        let cs = figure1();
        let weighted = DenseOracle::from_weighted_clusterings(&cs, &[0.0, 1.0, 1.0]);
        let reduced = DenseOracle::from_clusterings(&cs[1..]);
        for u in 0..6 {
            for v in 0..6 {
                assert!((weighted.dist(u, v) - reduced.dist(u, v)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn weighted_triangle_inequality() {
        let cs = figure1();
        let oracle = DenseOracle::from_weighted_clusterings(&cs, &[0.5, 2.5, 1.0]);
        for u in 0..6 {
            for v in 0..6 {
                for w in 0..6 {
                    assert!(oracle.dist(u, w) <= oracle.dist(u, v) + oracle.dist(v, w) + 1e-12);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive value")]
    fn all_zero_weights_rejected() {
        let _ = DenseOracle::from_weighted_clusterings(&figure1(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "weight NaN is negative or NaN")]
    fn nan_weight_rejected_with_try_wording() {
        let _ = DenseOracle::from_weighted_clusterings(&figure1(), &[1.0, f64::NAN, 1.0]);
    }

    #[test]
    #[should_panic(expected = "weight -2 is negative or NaN")]
    fn negative_weight_rejected_with_try_wording() {
        let _ = DenseOracle::from_weighted_clusterings(&figure1(), &[1.0, -2.0, 1.0]);
    }

    #[test]
    fn try_from_fn_rejects_out_of_range_and_nan() {
        assert!(DenseOracle::try_from_fn(3, |_, _| 0.5).is_ok());
        let too_big = DenseOracle::try_from_fn(3, |_, _| 1.5);
        assert!(matches!(too_big, Err(AggError::InvalidInstance { .. })));
        let nan = DenseOracle::try_from_fn(3, |_, _| f64::NAN);
        assert!(matches!(nan, Err(AggError::InvalidInstance { .. })));
    }

    #[test]
    fn try_from_clusterings_validates() {
        assert!(DenseOracle::try_from_clusterings(&figure1()).is_ok());
        assert!(matches!(
            DenseOracle::try_from_clusterings(&[]),
            Err(AggError::Degenerate { .. })
        ));
        let mismatched = vec![c(&[0, 0, 1]), c(&[0, 1])];
        assert!(matches!(
            DenseOracle::try_from_clusterings(&mismatched),
            Err(AggError::InvalidInstance { .. })
        ));
    }

    #[test]
    fn try_from_weighted_clusterings_validates() {
        let cs = figure1();
        assert!(DenseOracle::try_from_weighted_clusterings(&cs, &[1.0, 2.0, 3.0]).is_ok());
        assert!(matches!(
            DenseOracle::try_from_weighted_clusterings(&cs, &[1.0, 2.0]),
            Err(AggError::InvalidInstance { .. })
        ));
        assert!(matches!(
            DenseOracle::try_from_weighted_clusterings(&cs, &[1.0, -1.0, 1.0]),
            Err(AggError::InvalidInstance { .. })
        ));
        assert!(matches!(
            DenseOracle::try_from_weighted_clusterings(&cs, &[1.0, f64::NAN, 1.0]),
            Err(AggError::InvalidInstance { .. })
        ));
        assert!(matches!(
            DenseOracle::try_from_weighted_clusterings(&cs, &[0.0, 0.0, 0.0]),
            Err(AggError::InvalidInstance { .. })
        ));
    }

    #[test]
    fn try_from_partial_validates() {
        let good: Vec<PartialClustering> = figure1()
            .iter()
            .map(PartialClustering::from_total)
            .collect();
        assert!(CorrelationInstance::try_from_partial(good, MissingPolicy::Ignore).is_ok());
        assert!(matches!(
            CorrelationInstance::try_from_partial(vec![], MissingPolicy::Ignore),
            Err(AggError::Degenerate { .. })
        ));
        let all_missing = vec![PartialClustering::from_labels(vec![None, None, None])];
        assert!(matches!(
            CorrelationInstance::try_from_partial(all_missing, MissingPolicy::Ignore),
            Err(AggError::Degenerate { .. })
        ));
        let bad_coin = vec![PartialClustering::from_total(&c(&[0, 1]))];
        assert!(matches!(
            CorrelationInstance::try_from_partial(bad_coin, MissingPolicy::Coin(1.5)),
            Err(AggError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn try_dense_oracle_matches_dense_when_unlimited() {
        let instance = CorrelationInstance::from_clusterings(&figure1());
        let dense = instance.dense_oracle();
        let tried = instance.try_dense_oracle(&RunBudget::unlimited()).unwrap();
        for u in 0..6 {
            for v in 0..6 {
                assert!((dense.dist(u, v) - tried.dist(u, v)).abs() < 1e-12);
            }
        }
        assert_eq!(tried.num_clusterings(), Some(3));
    }

    #[test]
    fn try_dense_oracle_reports_cancellation() {
        let instance = CorrelationInstance::from_clusterings(&figure1());
        let token = crate::robust::CancelToken::new();
        token.cancel();
        let budget = RunBudget::unlimited().with_cancel_token(token);
        assert!(instance.try_dense_oracle(&budget).is_err());
    }

    #[test]
    fn try_coin_validates_nan_and_range() {
        assert!(MissingPolicy::try_coin(0.0).is_ok());
        assert!(MissingPolicy::try_coin(1.0).is_ok());
        for bad in [f64::NAN, -0.1, 1.1, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    MissingPolicy::try_coin(bad),
                    Err(AggError::InvalidParameter { .. })
                ),
                "coin {bad} should be rejected"
            );
        }
        let inputs = vec![PartialClustering::from_total(&c(&[0, 1]))];
        assert!(matches!(
            CorrelationInstance::try_from_partial(inputs, MissingPolicy::Coin(f64::NAN)),
            Err(AggError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn total_inputs_pack_as_their_partial_views() {
        // `from_clusterings` packs the totals' labels directly, the partial
        // route packs `PartialClustering::from_total`: the same words and
        // scale, the same distances and numerators, for `u16` lanes and,
        // past 65 535 clusters, `u32` lanes.
        let singletons = Clustering::from_labels((0..70_000).collect());
        let wide = vec![
            singletons.clone(),
            Clustering::from_labels(vec![0; 70_000]),
            singletons,
        ];
        let narrow: Vec<Clustering> = (1..=7)
            .map(|i| Clustering::from_labels((0..97).map(|v| (v * i / 3) % 5).collect()))
            .collect();
        for totals in [figure1(), narrow, wide] {
            let direct = CorrelationInstance::from_clusterings(&totals);
            let partial = totals.iter().map(PartialClustering::from_total).collect();
            let via = CorrelationInstance::from_partial(partial, MissingPolicy::Ignore);
            assert_eq!(direct.packed, via.packed);
            assert_eq!(direct.scale, via.scale);
            assert_eq!(
                (direct.n, direct.m, direct.partial),
                (via.n, via.m, via.partial)
            );
            let n = direct.len().min(120);
            let den = direct.exact_scale().expect("total inputs prove den = m");
            let (mut a, mut b) = (vec![0u32; n], vec![0u32; n]);
            for u in 0..n {
                for v in 0..n {
                    assert_eq!(direct.dist(u, v).to_bits(), via.dist(u, v).to_bits());
                }
                direct.numerators_into(u, 0..n, den, &mut a);
                via.numerators_into(u, 0..n, den, &mut b);
                assert_eq!(a, b, "row {u}");
            }
        }
    }

    /// A distance function over `n` objects whose `(u asc, v asc)` values
    /// are `0, 1, …, cap` (then `cap` again) in units of 2⁻¹⁶: `cap + 1`
    /// distinct values, `0.0` among them.
    fn counting(cap: usize) -> impl FnMut(usize, usize) -> f64 {
        let mut next = 0usize;
        move |_, _| {
            let d = next.min(cap) as f64 / 65_536.0;
            next += 1;
            d
        }
    }

    /// Every pair of `oracle` reads the bits of `expected`, from `dist`,
    /// from `accumulate_row` and from a restriction to every third object.
    fn assert_reads(oracle: &DenseOracle, expected: impl Fn(usize, usize) -> f64) {
        let n = oracle.len();
        for u in 0..n {
            for v in 0..n {
                let want = if u == v { 0.0 } else { expected(u, v) };
                assert_eq!(oracle.dist(u, v).to_bits(), want.to_bits(), "X[{u},{v}]");
            }
        }
        let labels: Vec<u32> = (0..n as u32).map(|u| u % 7).collect();
        for v in (0..n).step_by(37) {
            let (mut sums, mut each) = (vec![0.0; 7], vec![0.0; 7]);
            let total = oracle.accumulate_row(v, &labels, &mut sums);
            let total_each = accumulate_each(oracle, v, &labels, &mut each);
            assert_eq!(total.to_bits(), total_each.to_bits(), "T_{v}");
            assert_eq!(sums, each, "M({v}, ·)");
        }
        let subset: Vec<usize> = (0..n).step_by(3).collect();
        let sub = oracle.restrict(&subset);
        for (i, &a) in subset.iter().enumerate() {
            for (j, &b) in subset.iter().enumerate() {
                assert_eq!(sub.dist(i, j).to_bits(), oracle.dist(a, b).to_bits());
            }
        }
    }

    #[test]
    fn past_the_code_limit_a_matrix_keeps_its_values() {
        // 400 objects → 79 800 pairs. 65 536 distinct values fit in codes
        // (0.0 is the diagonal's code); with one more the matrix keeps its
        // condensed values, and every reader sees the same bits.
        let n = 400;
        let at = |cap: usize| {
            move |u: usize, v: usize| {
                let k = condensed_index(n, u.min(v), u.max(v));
                k.min(cap) as f64 / 65_536.0
            }
        };
        let fits = DenseOracle::try_from_fn(n, counting(65_535)).expect("in range");
        assert!(fits.is_coded());
        assert_reads(&fits, at(65_535));
        let past = DenseOracle::try_from_fn(n, counting(65_536)).expect("in range");
        assert!(!past.is_coded());
        assert_reads(&past, at(65_536));
        assert!(!DenseOracle::from_fn(n, counting(65_536)).is_coded());
        let sync = DenseOracle::from_fn_sync(n, at(65_536));
        assert!(!sync.is_coded());
        assert_reads(&sync, at(65_536));
    }

    #[test]
    fn set_past_the_code_limit_keeps_the_values() {
        let n = 400;
        let mut oracle = DenseOracle::from_fn(n, counting(65_535));
        assert!(oracle.is_coded());
        let before = oracle.clone();
        // Already a code: the matrix stays coded.
        oracle.set(0, 1, 0.5);
        assert!(oracle.is_coded());
        // Value number 65 537: the matrix switches to values.
        oracle.set(3, 1, 0.1);
        assert!(!oracle.is_coded());
        oracle.set(7, 9, 0.25);
        assert_reads(&oracle, |u, v| match (u.min(v), u.max(v)) {
            (0, 1) => 0.5,
            (1, 3) => 0.1,
            (7, 9) => 0.25,
            _ => before.dist(u, v),
        });
    }

    #[test]
    fn the_exact_scale_survives_only_exact_edits() {
        let inputs = [
            c(&[0, 0, 1, 1, 2]),
            c(&[0, 1, 1, 2, 2]),
            c(&[0, 0, 0, 1, 1]),
        ];
        let mut oracle = DenseOracle::from_clusterings(&inputs);
        assert_eq!(oracle.exact_scale(), Some(3));
        assert_eq!(oracle.restrict(&[4, 0, 2]).exact_scale(), Some(3));
        // Another multiple of ⅓ keeps the scale and decodes to its
        // numerator; a value new to the table drops it.
        oracle.set(0, 4, 1.0 / 3.0);
        assert_eq!(oracle.exact_scale(), Some(3));
        let mut nums = [0u32; 5];
        oracle.numerators_into(0, 0..5, 3, &mut nums);
        assert_eq!(nums, [0, 1, 2, 3, 1]);
        oracle.set(0, 1, 0.25);
        assert_eq!(oracle.exact_scale(), None);
        assert_eq!(oracle.restrict(&[0, 1]).exact_scale(), None);
        // Matrices of caller values never claim a scale.
        assert_eq!(DenseOracle::from_fn(3, |_, _| 0.5).exact_scale(), None);
    }

    #[test]
    fn many_distinct_weights_build_a_value_matrix() {
        // 20 power-of-two weights: Σ w_g·sep_g / Σw takes up to 2²⁰
        // values, and 400 objects' 79 800 pairs under hashed two-cluster
        // inputs take more than 65 536 of them.
        let n = 400;
        let hashed = |v: u64, g: u64| {
            let x = v.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ g.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
            ((x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 63) as u32
        };
        let cs: Vec<Clustering> = (0..20)
            .map(|g| Clustering::from_labels((0..n as u64).map(|v| hashed(v, g)).collect()))
            .collect();
        let weights: Vec<f64> = (0..20).map(|g| f64::from(1u32 << g)).collect();
        let oracle = DenseOracle::try_from_weighted_clusterings(&cs, &weights).expect("valid");
        assert!(!oracle.is_coded());
        assert_reads(&oracle, |u, v| {
            kernels::reference::xuv_weighted(&cs, &weights, u, v)
        });
    }

    /// Inputs whose labels are `(v·(i+1)/3) mod 5`, with object 0 missing
    /// everywhere when `partial`.
    fn varied_inputs(n: usize, m: usize, partial: bool) -> Vec<PartialClustering> {
        (0..m)
            .map(|i| {
                let labels = (0..n).map(|v| ((v * (i + 1) / 3) % 5) as u32);
                let labels = labels
                    .enumerate()
                    .map(|(v, l)| (v > 0 || !partial).then_some(l));
                PartialClustering::from_labels(labels.collect())
            })
            .collect()
    }

    #[test]
    fn inputs_too_many_for_codes_build_value_matrices() {
        // Partial inputs need (m + 1)² codes, total inputs m + 1: 256
        // partial or 65 536 total inputs take f64 values, which the memory
        // reservation counts instead of codes.
        let n = 6;
        for (m, partial, coded) in [
            (255, true, true),
            (256, true, false),
            (65_535, false, true),
            (65_536, false, false),
        ] {
            let inputs = varied_inputs(n, m, partial);
            let instance = CorrelationInstance::try_from_partial(inputs, MissingPolicy::Ignore)
                .expect("valid");
            let bytes = if coded {
                let codes = if partial { (m + 1) * (m + 1) } else { m + 1 };
                2 * 36 + 8 * codes as u64
            } else {
                8 * 15
            };
            assert_eq!(instance.dense_bytes(), bytes, "m = {m}");
            let budget = RunBudget::unlimited();
            let dense = instance.try_dense_oracle(&budget).expect("unlimited");
            assert_eq!(dense.mem_charge_bytes(), Some(bytes), "m = {m}");
            assert_eq!(dense.is_coded(), coded, "m = {m}");
            // Total inputs prove `den = m` at any `m`; partial inputs past
            // the code limit prove no scale.
            let scale = (!partial).then_some(m as u32);
            assert_eq!(instance.exact_scale(), scale, "m = {m}");
            assert_eq!(dense.exact_scale(), scale, "m = {m}");
            assert_eq!(instance.pair_totals(), dense.pair_totals(), "m = {m}");
            assert_eq!(instance.pair_totals().is_some(), !partial, "m = {m}");
            assert_reads(&dense, |u, v| instance.dist(u, v));
            assert_reads(&instance.restrict(&[5, 0, 3, 1]), |u, v| {
                instance.dist([5, 0, 3, 1][u], [5, 0, 3, 1][v])
            });
        }
    }

    #[test]
    fn governed_build_is_identical_across_thread_counts() {
        let n = 150;
        for partial in [false, true] {
            for policy in [MissingPolicy::Ignore, MissingPolicy::Coin(0.3)] {
                let instance =
                    CorrelationInstance::from_partial(varied_inputs(n, 7, partial), policy);
                for threads in [1usize, 2, 4] {
                    let budget =
                        RunBudget::unlimited().with_mem_limit_bytes(instance.dense_bytes());
                    let dense = crate::parallel::with_num_threads(threads, || {
                        instance.try_dense_oracle(&budget).expect("fits exactly")
                    });
                    assert_reads(&dense, |u, v| instance.dist(u, v));
                }
            }
        }
    }

    #[test]
    fn partial_inputs_are_refused_at_exactly_their_dense_footprint() {
        // m = 3 partial inputs need (m + 1)² = 16 codes next to the 2n²
        // bytes of the matrix; the cap admits that total and nothing less.
        let n = 20;
        let instance =
            CorrelationInstance::from_partial(varied_inputs(n, 3, true), MissingPolicy::Ignore);
        let need = instance.dense_bytes();
        assert_eq!(need, 2 * 400 + 8 * 16);
        let tight = RunBudget::unlimited().with_mem_limit_bytes(need - 1);
        match instance.try_dense_oracle(&tight) {
            Err(Interrupt::MemoryExceeded { requested, limit }) => {
                assert_eq!((requested, limit), (need, need - 1));
            }
            other => panic!("expected MemoryExceeded, got {other:?}"),
        }
        assert_eq!(tight.mem_gauge().used_bytes(), 0);
        let exact = RunBudget::unlimited().with_mem_limit_bytes(need);
        let built = instance.try_dense_oracle(&exact).expect("fits exactly");
        assert_eq!(exact.mem_gauge().used_bytes(), need);
        drop(built);
        assert_eq!(exact.mem_gauge().used_bytes(), 0);
    }

    #[test]
    fn try_dense_oracle_refuses_over_the_memory_cap() {
        let instance = CorrelationInstance::from_clusterings(&figure1());
        // 6 objects → 6² u16 codes → 72 bytes, plus the 4-entry code table
        // of m = 3 total inputs (32 bytes); a cap below that refuses.
        assert_eq!(instance.dense_bytes(), 72 + 32);
        let tight = RunBudget::unlimited().with_mem_limit_bytes(103);
        match instance.try_dense_oracle(&tight) {
            Err(Interrupt::MemoryExceeded { requested, limit }) => {
                assert_eq!(requested, 104);
                assert_eq!(limit, 103);
            }
            other => panic!("expected MemoryExceeded, got {other:?}"),
        }
        // Nothing stays charged after a refusal.
        assert_eq!(tight.mem_gauge().used_bytes(), 0);

        // A cap with room admits the matrix and holds the charge while the
        // oracle lives.
        let roomy = RunBudget::unlimited().with_mem_limit_bytes(200);
        let built = instance.try_dense_oracle(&roomy).expect("fits");
        assert_eq!(built.mem_charge_bytes(), Some(104));
        assert_eq!(roomy.mem_gauge().used_bytes(), 104);
        drop(built);
        assert_eq!(roomy.mem_gauge().used_bytes(), 0);
    }
}
