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
//! * [`DenseOracle`] — a precomputed condensed `n(n−1)/2` matrix
//!   (`O(1)` lookups, `O(n²)` memory), or
//! * [`ClusteringsOracle`] — on-the-fly computation from the `m` label
//!   vectors (`O(m)` lookups, `O(nm)` memory), which is what makes
//!   [`crate::algorithms::sampling`] scale to millions of objects.

use std::ops::Range;
use std::sync::Arc;

use crate::clustering::{Clustering, PartialClustering};
use crate::error::{AggError, AggResult};
use crate::kernels::{self, LabelMatrix};
use crate::parallel;
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
    /// override this with the matrix's tier-tuned figure
    /// ([`LabelMatrix::preferred_band`]); anything else gets the generic
    /// default.
    fn preferred_band(&self) -> usize {
        kernels::PACKED_BAND
    }

    /// Materialize into a [`DenseOracle`] (no-op cost model for algorithms
    /// that touch all pairs anyway). Pairs are evaluated in parallel when
    /// the `parallel` feature is enabled.
    fn to_dense(&self) -> DenseOracle
    where
        Self: Sized + Sync,
    {
        DenseOracle::from_fn_sync(self.len(), |u, v| self.dist(u, v))
            .with_num_clusterings(self.num_clusterings())
    }

    /// Dense oracle restricted to a subset of the objects, renumbered
    /// `0..subset.len()`.
    fn restrict(&self, subset: &[usize]) -> DenseOracle
    where
        Self: Sized + Sync,
    {
        DenseOracle::from_fn_sync(subset.len(), |u, v| self.dist(subset[u], subset[v]))
            .with_num_clusterings(self.num_clusterings())
    }
}

/// Index into the condensed upper-triangle representation for `u < v`.
#[inline]
pub(crate) fn condensed_index(n: usize, u: usize, v: usize) -> usize {
    debug_assert!(u < v && v < n);
    u * (2 * n - u - 1) / 2 + (v - u - 1)
}

/// A precomputed symmetric distance matrix stored as a condensed
/// upper-triangle `Vec<f64>` of length `n(n−1)/2`.
#[derive(Clone, Debug)]
pub struct DenseOracle {
    n: usize,
    data: Vec<f64>,
    m: Option<usize>,
    // Keeps the matrix's bytes on the owning budget's MemGauge for as long
    // as the oracle lives; None for ungoverned constructions.
    charge: Option<Arc<MemCharge>>,
}

impl DenseOracle {
    /// Build from a distance function evaluated on every pair `u < v`,
    /// serially in `(u asc, v asc)` order. Kept for stateful `FnMut`
    /// closures; prefer [`DenseOracle::from_fn_sync`] for pure distance
    /// functions, which fills the triangle in parallel.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for u in 0..n {
            for v in (u + 1)..n {
                let d = f(u, v);
                debug_assert!((0.0..=1.0).contains(&d), "distance {d} out of [0,1]");
                data.push(d);
            }
        }
        DenseOracle {
            n,
            data,
            m: None,
            charge: None,
        }
    }

    /// Build from a pure distance function, filling the `n(n−1)/2` triangle
    /// in parallel row chunks (see [`crate::parallel`]). Produces exactly
    /// the same matrix as [`DenseOracle::from_fn`] at any thread count.
    pub fn from_fn_sync(n: usize, f: impl Fn(usize, usize) -> f64 + Sync) -> Self {
        let pair = |u, v| {
            let d = f(u, v);
            debug_assert!((0.0..=1.0).contains(&d), "distance {d} out of [0,1]");
            d
        };
        let fill = parallel::try_fill_condensed(
            n,
            0..n,
            n,
            || (),
            parallel::pairwise(pair),
            &RunBudget::unlimited(),
        );
        DenseOracle {
            n,
            // An unlimited budget never trips.
            data: fill.unwrap_or_default(),
            m: None,
            charge: None,
        }
    }

    /// Validating variant of [`DenseOracle::from_fn`]: every distance is
    /// checked to be finite and in `[0, 1]` — a real check, unlike the
    /// `debug_assert!` in the unchecked constructors — so corrupted inputs
    /// (NaN weights, out-of-range values) surface as typed errors instead
    /// of silently poisoning every downstream cost.
    pub fn try_from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> AggResult<Self> {
        let mut data = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for u in 0..n {
            for v in (u + 1)..n {
                let d = f(u, v);
                if !(0.0..=1.0).contains(&d) {
                    return Err(AggError::invalid_instance(format!(
                        "distance X[{u},{v}] = {d} out of [0,1]"
                    )));
                }
                data.push(d);
            }
        }
        Ok(DenseOracle {
            n,
            data,
            m: None,
            charge: None,
        })
    }

    /// Validating variant of [`DenseOracle::from_clusterings`]: empty input
    /// and mismatched object counts come back as typed errors instead of
    /// panics.
    pub fn try_from_clusterings(clusterings: &[Clustering]) -> AggResult<Self> {
        if clusterings.is_empty() {
            return Err(AggError::degenerate("need at least one input clustering"));
        }
        let n = clusterings[0].len();
        if let Some(bad) = clusterings.iter().find(|c| c.len() != n) {
            return Err(AggError::invalid_instance(format!(
                "input clusterings disagree on the object count: {} vs {}",
                n,
                bad.len()
            )));
        }
        Ok(DenseOracle::from_clusterings(clusterings))
    }

    /// Validating variant of [`DenseOracle::from_weighted_clusterings`]:
    /// length mismatches, NaN or negative weights, and an all-zero weight
    /// vector come back as typed errors instead of panics.
    pub fn try_from_weighted_clusterings(
        clusterings: &[Clustering],
        weights: &[f64],
    ) -> AggResult<Self> {
        if clusterings.is_empty() {
            return Err(AggError::degenerate("need at least one input clustering"));
        }
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
                "weights must sum to a positive finite value, got {total}"
            )));
        }
        let n = clusterings[0].len();
        if let Some(bad) = clusterings.iter().find(|c| c.len() != n) {
            return Err(AggError::invalid_instance(format!(
                "input clusterings disagree on the object count: {} vs {}",
                n,
                bad.len()
            )));
        }
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
    /// Panics on length mismatch, NaN or negative weights, or all-zero
    /// weights (same wording as the errors of
    /// [`DenseOracle::try_from_weighted_clusterings`]).
    pub fn from_weighted_clusterings(clusterings: &[Clustering], weights: &[f64]) -> Self {
        assert_eq!(
            clusterings.len(),
            weights.len(),
            "one weight per clustering required"
        );
        assert!(!clusterings.is_empty(), "need at least one clustering");
        let bad = weights.iter().find(|w| w.is_nan() || **w < 0.0);
        assert!(
            bad.is_none(),
            "weight {} is negative or NaN",
            bad.copied().unwrap_or(f64::NAN)
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let n = clusterings[0].len();
        assert!(
            clusterings.iter().all(|c| c.len() == n),
            "all clusterings must cover the same objects"
        );
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
        let fill = parallel::try_fill_condensed(
            n,
            0..n,
            band,
            || vec![0u32; band],
            |counts: &mut Vec<u32>, u, vs, seg| {
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
            &RunBudget::unlimited(),
        );
        // An unlimited budget never trips.
        let data = fill.unwrap_or_default();
        let pairs = (n * n.saturating_sub(1) / 2) as u64;
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
        DenseOracle {
            n,
            data,
            m: Some(clusterings.len()),
            charge: None,
        }
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

    /// Mutable access to one entry (test/bench construction helper).
    ///
    /// # Panics
    /// Panics if `u == v`.
    pub fn set(&mut self, u: usize, v: usize, d: f64) {
        assert_ne!(u, v, "diagonal is fixed at zero");
        assert!((0.0..=1.0).contains(&d), "distance {d} out of [0,1]");
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        let idx = condensed_index(self.n, a, b);
        self.data[idx] = d;
    }

    /// Sum of distances from `u` to every other object (the vertex weight
    /// used by the BALLS ordering).
    pub fn total_weight(&self, u: usize) -> f64 {
        (0..self.n)
            .filter(|&v| v != u)
            .map(|v| self.dist(u, v))
            .sum()
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
        if u == v {
            return 0.0;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.data[condensed_index(self.n, a, b)]
    }

    fn num_clusterings(&self) -> Option<usize> {
        self.m
    }
}

/// Lazy oracle computing `X_uv` from the input clusterings on each call,
/// honoring a [`MissingPolicy`] for partial clusterings.
///
/// Lookup is `O(m)`; memory is `O(nm)` — suitable for the SAMPLING
/// algorithm on large datasets where only a sparse set of pairs is ever
/// queried. Lookups are served by the packed SWAR kernels
/// ([`crate::kernels`]): construction transposes the inputs into a
/// [`LabelMatrix`] once, and each `dist` call XOR-scans two label rows
/// instead of chasing `m` separate label vectors.
#[derive(Clone, Debug)]
pub struct ClusteringsOracle {
    clusterings: Vec<PartialClustering>,
    n: usize,
    policy: MissingPolicy,
    packed: LabelMatrix,
}

impl ClusteringsOracle {
    /// Build from partial clusterings with the given missing-value policy.
    pub fn new(clusterings: Vec<PartialClustering>, policy: MissingPolicy) -> Self {
        assert!(!clusterings.is_empty(), "need at least one clustering");
        let n = clusterings[0].len();
        assert!(
            clusterings.iter().all(|c| c.len() == n),
            "all clusterings must cover the same objects"
        );
        if let MissingPolicy::Coin(p) = policy {
            assert!(
                (0.0..=1.0).contains(&p),
                "coin probability {p} out of [0,1]"
            );
        }
        let packed = LabelMatrix::from_partial(&clusterings);
        ClusteringsOracle {
            clusterings,
            n,
            policy,
            packed,
        }
    }

    /// Validating variant of [`ClusteringsOracle::new`]: empty input,
    /// mismatched object counts, and an out-of-range coin probability come
    /// back as typed errors instead of panics.
    pub fn try_new(clusterings: Vec<PartialClustering>, policy: MissingPolicy) -> AggResult<Self> {
        if clusterings.is_empty() {
            return Err(AggError::degenerate("need at least one input clustering"));
        }
        let n = clusterings[0].len();
        if let Some(bad) = clusterings.iter().find(|c| c.len() != n) {
            return Err(AggError::invalid_instance(format!(
                "input clusterings disagree on the object count: {} vs {}",
                n,
                bad.len()
            )));
        }
        policy.validate()?;
        let packed = LabelMatrix::from_partial(&clusterings);
        Ok(ClusteringsOracle {
            clusterings,
            n,
            policy,
            packed,
        })
    }

    /// Build from total clusterings (no missing labels).
    pub fn from_total(clusterings: &[Clustering]) -> Self {
        ClusteringsOracle::new(
            clusterings
                .iter()
                .map(PartialClustering::from_total)
                .collect(),
            MissingPolicy::default(),
        )
    }

    /// The input clusterings.
    pub fn clusterings(&self) -> &[PartialClustering] {
        &self.clusterings
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

    /// The condensed `X_uv` values of `rows` (pairs `(u, v)` with `u` in
    /// `rows`, `u < v < n`, in row-major order), filled under `budget` by
    /// [`parallel::try_fill_condensed`] in the matrix's preferred band.
    ///
    /// This is the one place packed separation counts become distances.
    /// When every input labels every object, `X_uv` reduces to `sep / m`
    /// under either [`MissingPolicy`] ([`MissingPolicy::Ignore`]:
    /// `defined == m`; [`MissingPolicy::Coin`]: `missing == 0` contributes
    /// exactly `+0.0`), bit-for-bit, so rows go through the batched
    /// `sep_row_into` kernel with one scratch count buffer per worker job
    /// (counted by `kernels_row_batches`). Genuinely partial inputs stay on
    /// the per-pair [`DistanceOracle::dist`] path.
    pub(crate) fn try_fill_rows(
        &self,
        rows: Range<usize>,
        budget: &RunBudget,
    ) -> Result<Vec<f64>, Interrupt> {
        let band = self.preferred_band();
        if self.clusterings.iter().any(|c| c.num_missing() > 0) {
            let pair = |u, v| self.dist(u, v);
            return parallel::try_fill_condensed(
                self.n,
                rows,
                band,
                || (),
                parallel::pairwise(pair),
                budget,
            );
        }
        let m = self.clusterings.len() as f64;
        let data = parallel::try_fill_condensed(
            self.n,
            rows,
            band,
            || vec![0u32; band],
            |counts: &mut Vec<u32>, u, vs, seg| {
                let counts = &mut counts[..seg.len()];
                self.packed.sep_row_into(u, vs.start, counts);
                for (entry, &c) in seg.iter_mut().zip(counts.iter()) {
                    *entry = f64::from(c) / m;
                }
            },
            budget,
        )?;
        crate::telemetry::metrics()
            .oracle_packed_evals
            .add_if_enabled(data.len() as u64);
        Ok(data)
    }
}

impl DistanceOracle for ClusteringsOracle {
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
        match self.policy {
            MissingPolicy::Ignore => {
                let defined = self.clusterings.len() - missing as usize;
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
                (f64::from(sep) + f64::from(missing) * (1.0 - p)) / self.clusterings.len() as f64
            }
        }
    }

    fn num_clusterings(&self) -> Option<usize> {
        Some(self.clusterings.len())
    }

    fn preferred_band(&self) -> usize {
        self.packed.preferred_band()
    }
}

/// A correlation-clustering instance built from input clusterings — the
/// bridge between Problem 1 (clustering aggregation) and Problem 2
/// (correlation clustering).
///
/// Holds the inputs and hands out either oracle flavor.
#[derive(Clone, Debug)]
pub struct CorrelationInstance {
    inputs: Vec<PartialClustering>,
    policy: MissingPolicy,
    n: usize,
}

impl CorrelationInstance {
    /// Build from total clusterings.
    pub fn from_clusterings(inputs: &[Clustering]) -> Self {
        Self::from_partial(
            inputs.iter().map(PartialClustering::from_total).collect(),
            MissingPolicy::default(),
        )
    }

    /// Build from partial clusterings with an explicit missing-value policy.
    pub fn from_partial(inputs: Vec<PartialClustering>, policy: MissingPolicy) -> Self {
        assert!(!inputs.is_empty(), "need at least one clustering");
        let n = inputs[0].len();
        assert!(
            inputs.iter().all(|c| c.len() == n),
            "all clusterings must cover the same objects"
        );
        CorrelationInstance { inputs, policy, n }
    }

    /// Validating variant of [`CorrelationInstance::from_partial`]: empty
    /// input, mismatched object counts, an out-of-range coin probability,
    /// and inputs whose labels are missing *everywhere* (no pair carries
    /// any information, so no consensus is defined) come back as typed
    /// errors instead of panics or garbage.
    pub fn try_from_partial(
        inputs: Vec<PartialClustering>,
        policy: MissingPolicy,
    ) -> AggResult<Self> {
        if inputs.is_empty() {
            return Err(AggError::degenerate("need at least one input clustering"));
        }
        let n = inputs[0].len();
        if let Some(bad) = inputs.iter().find(|c| c.len() != n) {
            return Err(AggError::invalid_instance(format!(
                "input clusterings disagree on the object count: {} vs {}",
                n,
                bad.len()
            )));
        }
        policy.validate()?;
        if n > 0 && inputs.iter().all(|c| c.num_missing() == c.len()) {
            return Err(AggError::degenerate(
                "every label is missing in every input clustering",
            ));
        }
        Ok(CorrelationInstance { inputs, policy, n })
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if there are no objects.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of input clusterings `m`.
    pub fn num_clusterings(&self) -> usize {
        self.inputs.len()
    }

    /// The input clusterings.
    pub fn inputs(&self) -> &[PartialClustering] {
        &self.inputs
    }

    /// Precompute the full distance matrix (`O(n² m)` time, `O(n²)` space)
    /// from the packed label rows, in cache-blocked bands: all-total inputs
    /// through the batched separation kernel, partial inputs per pair.
    pub fn dense_oracle(&self) -> DenseOracle {
        let _span = crate::span!("dense_build", n = self.n, m = self.inputs.len());
        let fill = self
            .lazy_oracle()
            .try_fill_rows(0..self.n, &RunBudget::unlimited());
        DenseOracle {
            n: self.n,
            // An unlimited budget never trips.
            data: fill.unwrap_or_default(),
            m: Some(self.inputs.len()),
            charge: None,
        }
    }

    /// A lazy per-pair oracle (`O(m)` per lookup).
    pub fn lazy_oracle(&self) -> ClusteringsOracle {
        ClusteringsOracle::new(self.inputs.clone(), self.policy)
    }

    /// The bytes [`CorrelationInstance::try_dense_oracle`] would need for
    /// this instance's condensed `n(n−1)/2` matrix.
    pub fn dense_bytes(&self) -> u64 {
        (self.n as u64) * (self.n.saturating_sub(1) as u64) / 2 * 8
    }

    /// Budgeted variant of [`CorrelationInstance::dense_oracle`]: the
    /// `O(n²)` allocation is reserved against the budget's memory cap
    /// first — [`Interrupt::MemoryExceeded`] if it does not fit, letting
    /// the caller degrade to the `O(nm)` lazy oracle — and the `O(n² m)`
    /// fill then polls `budget` between row chunks and reports the
    /// interrupt instead of blowing through a deadline on a large instance.
    /// The returned oracle holds its memory charge for as long as it lives.
    pub fn try_dense_oracle(&self, budget: &RunBudget) -> Result<DenseOracle, Interrupt> {
        let _span = crate::span!("dense_build", n = self.n, m = self.inputs.len());
        let charge = budget.try_reserve(self.dense_bytes())?;
        let lazy = self.lazy_oracle();
        // The packed label matrix is transient scratch for the fill:
        // observe it on the gauge (high-water accounting) for the fill's
        // duration without holding it against the cap afterwards.
        let packed_charge = budget.mem_gauge().charge(lazy.packed_bytes());
        let data = lazy.try_fill_rows(0..self.n, budget)?;
        drop(packed_charge);
        Ok(DenseOracle {
            n: self.n,
            data,
            m: Some(self.inputs.len()),
            charge: Some(Arc::new(charge)),
        })
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
        let lazy = ClusteringsOracle::from_total(&cs);
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
        let o = ClusteringsOracle::new(vec![p1, p2], MissingPolicy::Ignore);
        // Pair (0,1): only clustering 1 is informative, it co-clusters.
        assert_eq!(o.dist(0, 1), 0.0);
        // Pair (0,2): both informative; c1 separates, c2 joins.
        assert_eq!(o.dist(0, 2), 0.5);
    }

    #[test]
    fn missing_policy_ignore_no_information() {
        let p1 = PartialClustering::from_labels(vec![None, Some(0)]);
        let p2 = PartialClustering::from_labels(vec![Some(0), None]);
        let o = ClusteringsOracle::new(vec![p1, p2], MissingPolicy::Ignore);
        assert_eq!(o.dist(0, 1), 0.5);
    }

    #[test]
    fn missing_policy_coin() {
        let p1 = PartialClustering::from_labels(vec![Some(0), Some(0), Some(1)]);
        let p2 = PartialClustering::from_labels(vec![Some(0), None, Some(0)]);
        let o = ClusteringsOracle::new(vec![p1.clone(), p2.clone()], MissingPolicy::Coin(0.5));
        // Pair (0,1): c1 joins (0), c2 missing (expected 0.5) → X = 0.25.
        assert!((o.dist(0, 1) - 0.25).abs() < 1e-12);
        // With p = 1 the coin always reports "together": X = 0.
        let o1 = ClusteringsOracle::new(vec![p1, p2], MissingPolicy::Coin(1.0));
        assert_eq!(o1.dist(0, 1), 0.0);
    }

    #[test]
    fn instance_round_trip() {
        let inst = CorrelationInstance::from_clusterings(&figure1());
        assert_eq!(inst.len(), 6);
        assert_eq!(inst.num_clusterings(), 3);
        let dense = inst.dense_oracle();
        let lazy = inst.lazy_oracle();
        for u in 0..6 {
            for v in 0..6 {
                assert!((dense.dist(u, v) - lazy.dist(u, v)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn total_weight() {
        let oracle = DenseOracle::from_clusterings(&figure1());
        let w0: f64 = (1..6).map(|v| oracle.dist(0, v)).sum();
        assert!((oracle.total_weight(0) - w0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "same objects")]
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
            CorrelationInstance::try_from_partial(inputs.clone(), MissingPolicy::Coin(f64::NAN)),
            Err(AggError::InvalidParameter { .. })
        ));
        assert!(matches!(
            ClusteringsOracle::try_new(inputs, MissingPolicy::Coin(f64::NAN)),
            Err(AggError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn try_dense_oracle_refuses_over_the_memory_cap() {
        let instance = CorrelationInstance::from_clusterings(&figure1());
        // 6 objects → 15 pairs → 120 bytes; cap below that refuses.
        assert_eq!(instance.dense_bytes(), 120);
        let tight = RunBudget::unlimited().with_mem_limit_bytes(119);
        match instance.try_dense_oracle(&tight) {
            Err(Interrupt::MemoryExceeded { requested, limit }) => {
                assert_eq!(requested, 120);
                assert_eq!(limit, 119);
            }
            other => panic!("expected MemoryExceeded, got {other:?}"),
        }
        // Nothing stays charged after a refusal.
        assert_eq!(tight.mem_gauge().used_bytes(), 0);

        // A cap with room admits the matrix and holds the charge while the
        // oracle lives.
        let roomy = RunBudget::unlimited().with_mem_limit_bytes(200);
        let built = instance.try_dense_oracle(&roomy).expect("fits");
        assert_eq!(built.mem_charge_bytes(), Some(120));
        assert_eq!(roomy.mem_gauge().used_bytes(), 120);
        drop(built);
        assert_eq!(roomy.mem_gauge().used_bytes(), 0);
    }
}
