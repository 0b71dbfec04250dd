//! Bit-packed disagreement kernels with runtime SIMD dispatch
//! (DESIGN.md §6f–§6g).
//!
//! Every pipeline stage funnels through per-pair separation counts: "how
//! many of the `m` input clusterings separate objects `u` and `v`?" The
//! scalar path answers by chasing `m` separate label vectors per pair — an
//! `O(n²·m)` walk with terrible locality. This module transposes the
//! inputs once into a cache-contiguous n×m row-major [`LabelMatrix`] of
//! packed lanes and answers each pair by XOR-ing the two objects' label
//! rows, reducing with the widest implementation the host CPU supports:
//! AVX2 or SSE2+POPCNT vector compares on `x86-64`, NEON on `aarch64`
//! (see [`dispatch`] and [`simd`]), or the dependency-free SWAR ("SIMD
//! within a register") kernels below on any other target. All tiers
//! produce exact integer counts, so every tier is bit-identical.
//!
//! ## Lane layout
//!
//! * Each object `v` owns one row of `ceil(m / lanes_per_word)` logical
//!   words, stored with a row *stride* rounded up to [`STRIDE_WORDS`]
//!   words (one 256-bit vector) so the SIMD tiers can always load whole
//!   vector groups without overrunning the allocation. Padding words are
//!   zero in every row: their XOR is zero, so they never count.
//! * Lane `j` of row `v` holds the *lane code* of clustering `j` at `v`:
//!   `label + 1`, with `0` reserved for "missing". The uniform `+1` offset
//!   lets total and partial clusterings share one encoding, and makes
//!   "either side missing" detectable as a zero lane.
//! * Lanes are `u16` (4 per word) while every clustering has at most
//!   65 535 clusters — the largest lane code equals the cluster count — and
//!   fall back to `u32` lanes (2 per word) beyond that. The SIMD tiers
//!   serve `u16` lanes only; a `u32` matrix runs the SWAR kernels below on
//!   every tier (the scalar tier excepted).
//! * A per-word *valid-lane mask* (every bit of each real lane set, all
//!   bits of each padding lane clear) keeps padding out of missing-lane
//!   counts; the SIMD tiers AND it directly against compare masks, the
//!   SWAR tier uses its high bits.
//!
//! ## Exact nonzero-lane detection (SWAR tier)
//!
//! The classic byte-zero trick `(x − k·1) & !x & hi` is *not* exact per
//! lane (a borrow from one lane can leak into the next), so the kernels
//! use the carry-safe form: for `u16` lanes,
//!
//! ```text
//! nonzero(x) = (((x & 0x7fff…) + 0x7fff…) | x) & 0x8000…
//! ```
//!
//! The add can only carry *within* a lane (the high bit of each lane is
//! masked off before adding), so the high bit of every lane is set iff the
//! lane is nonzero.
//!
//! ## Popcount-free reduction (SWAR tier)
//!
//! Counting the set high bits with `count_ones` would compile to a ~15-op
//! software popcount on baseline `x86-64` (no `-C target-feature=+popcnt`
//! is assumed). The kernels instead shift each word's indicator bits down
//! to lane position 0 and *accumulate* them across the row's words — every
//! lane of the accumulator becomes a per-lane hit counter — then collapse
//! the accumulator with one widening multiply (`acc · 0x0001000100010001`
//! puts the sum of all four `u16` lanes in the top 16 bits). Three ops per
//! word plus two per row, all plain integer ALU. Accumulation is chunked
//! every [`HSUM16_CHUNK`] words so neither the lane counters nor the final
//! sum can overflow, keeping the count exact for any clustering count.
//! The SIMD tiers instead use hardware `popcnt` over compare masks — see
//! the [`simd`] module docs for that counting scheme.
//!
//! ## Weighted blocks
//!
//! [`weight_groups`] groups equal-weight clusterings (by exact bit
//! pattern) in first-appearance order; each large group becomes one packed
//! [`LabelMatrix`] block and the small remainder stays on a scalar tail
//! (counted by the `kernels_fallback_scalar` metric). The canonical
//! weighted distance is `Σ_g w_g·sep_g / Σ w` with groups accumulated in
//! first-appearance order — the [`mod@reference`] implementations use the same
//! form, which is what makes packed-vs-naive comparisons exact to the bit.

use crate::clustering::{Clustering, PartialClustering};

pub mod dispatch;
pub mod simd;

use dispatch::Tier;

/// `u16` lanes per `u64` word.
pub const U16_LANES: usize = 4;
/// `u32` lanes per `u64` word.
pub const U32_LANES: usize = 2;
/// Largest lane code (= cluster count) representable in a `u16` lane.
pub const MAX_U16_CODE: u64 = u16::MAX as u64;

/// Row strides are rounded up to this many words (one 256-bit AVX2
/// vector) so every SIMD tier can load whole vector groups from any row.
pub const STRIDE_WORDS: usize = 4;

/// Column band width (in matrix rows) for cache-blocked condensed fills
/// over packed rows when no [`LabelMatrix`] is available to ask its
/// tier-aware band.
pub const PACKED_BAND: usize = 512;

/// Equal-weight groups smaller than this stay on the scalar tail instead
/// of getting their own packed block (one block per full `u16` word of
/// lanes is the break-even point).
pub const MIN_PACKED_GROUP: usize = 4;

const LO15: u64 = 0x7fff_7fff_7fff_7fff;
const HI16: u64 = 0x8000_8000_8000_8000;
const LO31: u64 = 0x7fff_ffff_7fff_ffff;
const HI32: u64 = 0x8000_0000_8000_0000;

/// Horizontal-sum multiplier for four `u16` accumulator lanes.
const SUM16: u64 = 0x0001_0001_0001_0001;

/// Words per horizontal-sum chunk for `u16` lanes: each 16-bit lane
/// counter stays < 2¹⁴·1 + … ≤ 16 383 and the four-lane total ≤ 65 532,
/// so both the accumulator and the multiply reduction are exact.
pub const HSUM16_CHUNK: usize = 16_383;

/// Collapse a 4×16-bit lane accumulator into the total count. Exact while
/// the four lanes sum below 2¹⁶ (guaranteed by [`HSUM16_CHUNK`]).
#[inline(always)]
fn hsum16(acc: u64) -> u32 {
    ((acc.wrapping_mul(SUM16) >> 48) & 0xffff) as u32
}

/// Collapse a 2×32-bit lane accumulator into the total count. Exact while
/// the two lanes sum below 2³² (rows are far shorter than 2³¹ words).
#[inline(always)]
fn hsum32(acc: u64) -> u32 {
    acc.wrapping_add(acc >> 32) as u32
}

/// High bit of every nonzero `u16` lane of `x` (carry-safe SWAR).
#[inline(always)]
fn nonzero16(x: u64) -> u64 {
    (((x & LO15) + LO15) | x) & HI16
}

/// High bit of every nonzero `u32` lane of `x` (carry-safe SWAR).
#[inline(always)]
fn nonzero32(x: u64) -> u64 {
    (((x & LO31) + LO31) | x) & HI32
}

/// Width of the packed lanes in a [`LabelMatrix`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneWidth {
    /// 4 × 16-bit lanes per word (cluster counts ≤ 65 535).
    U16,
    /// 2 × 32-bit lanes per word (some clustering exceeds 65 535 clusters).
    U32,
}

/// The `m` input clusterings transposed into one cache-contiguous n×m
/// row-major matrix of packed lane codes (see the module docs for the
/// layout). Row `v` answers "which cluster does each input place `v` in?"
/// in `ceil(m / lanes)` consecutive words (strided to [`STRIDE_WORDS`]).
#[derive(Clone, Debug, PartialEq)]
pub struct LabelMatrix {
    n: usize,
    lanes: usize,
    words_per_row: usize,
    /// Allocated words per row: `words_per_row` rounded up to
    /// [`STRIDE_WORDS`]; the excess is zero in every row.
    stride: usize,
    width: LaneWidth,
    /// Kernel tier resolved via [`dispatch::selected`] on the thread that
    /// built the matrix, pinned for the matrix's lifetime so worker
    /// threads run the same code path the constructor chose.
    tier: Tier,
    words: Vec<u64>,
    /// Per-word mask with every bit of each *real* (non-padding) lane set,
    /// `stride` words long.
    valid: Vec<u64>,
}

impl LabelMatrix {
    fn build(n: usize, m: usize, max_code: u64, code: impl Fn(usize, usize) -> u64) -> Self {
        let width = if max_code <= MAX_U16_CODE {
            LaneWidth::U16
        } else {
            LaneWidth::U32
        };
        let (lanes_per_word, lane_bits) = match width {
            LaneWidth::U16 => (U16_LANES, 16),
            LaneWidth::U32 => (U32_LANES, 32),
        };
        let words_per_row = m.div_ceil(lanes_per_word.max(1));
        let stride = words_per_row.next_multiple_of(STRIDE_WORDS);
        let mut words = vec![0u64; n * stride];
        if stride > 0 {
            for (v, row) in words.chunks_mut(stride).enumerate() {
                for j in 0..m {
                    row[j / lanes_per_word] |= code(j, v) << ((j % lanes_per_word) * lane_bits);
                }
            }
        }
        let lane_mask = (1u128 << lane_bits) as u64 - 1;
        let mut valid = vec![0u64; stride];
        for j in 0..m {
            valid[j / lanes_per_word] |= lane_mask << ((j % lanes_per_word) * lane_bits);
        }
        let tier = dispatch::selected();
        crate::telemetry::record_dispatch_tier(tier);
        LabelMatrix {
            n,
            lanes: m,
            words_per_row,
            stride,
            width,
            tier,
            words,
            valid,
        }
    }

    /// Pack the subset `members` of `clusterings` (one lane per member, in
    /// `members` order) — the building block for equal-weight blocks.
    ///
    /// # Panics
    /// Panics on an out-of-range member index or mismatched object counts.
    pub fn from_total_indexed(clusterings: &[Clustering], members: &[usize]) -> Self {
        let n = members.first().map_or(0, |&i| clusterings[i].len());
        assert!(
            members.iter().all(|&i| clusterings[i].len() == n),
            "all clusterings must cover the same objects"
        );
        let max_code = members
            .iter()
            .map(|&i| clusterings[i].max_lane_code())
            .max()
            .unwrap_or(0);
        LabelMatrix::build(n, members.len(), max_code, |j, v| {
            clusterings[members[j]].lane_code(v)
        })
    }

    /// Pack partial clusterings; missing labels become zero lanes.
    ///
    /// # Panics
    /// Panics if the clusterings disagree on the object count.
    pub fn from_partial(clusterings: &[PartialClustering]) -> Self {
        let n = clusterings.first().map_or(0, |c| c.len());
        assert!(
            clusterings.iter().all(|c| c.len() == n),
            "all clusterings must cover the same objects"
        );
        let max_code = clusterings
            .iter()
            .map(|c| c.max_lane_code())
            .max()
            .unwrap_or(0);
        LabelMatrix::build(n, clusterings.len(), max_code, |j, v| {
            clusterings[j].lane_code(v)
        })
    }

    /// Number of objects (rows).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the matrix has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of packed clusterings (lanes per row).
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The lane width chosen at construction.
    #[inline]
    pub fn width(&self) -> LaneWidth {
        self.width
    }

    /// The kernel tier this matrix dispatches to (resolved at build time
    /// on the constructing thread).
    #[inline]
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// The rows `subset`, in `subset` order: the packed labels of those
    /// objects, with this matrix's lanes, width and tier.
    pub(crate) fn rows(&self, subset: &[usize]) -> LabelMatrix {
        let row = |v: usize| &self.words[v * self.stride..(v + 1) * self.stride];
        LabelMatrix {
            n: subset.len(),
            words: subset.iter().flat_map(|&v| row(v)).copied().collect(),
            valid: self.valid.clone(),
            ..*self
        }
    }

    /// Heap bytes held by the packed words and masks (for `MemGauge`
    /// accounting on governed paths).
    pub fn bytes(&self) -> u64 {
        (self.words.len() as u64 + self.valid.len() as u64) * 8
    }

    /// Cache-block band width (in rows) tuned for this matrix's tier and
    /// row stride: the band should stay L1-resident while a row chunk
    /// streams against it, and the SIMD tiers chew through rows fast
    /// enough that a wider band amortizes the per-band loop overhead.
    pub(crate) fn preferred_band(&self) -> usize {
        let row_bytes = self.stride.max(STRIDE_WORDS) * 8;
        let target_bytes = match self.tier {
            Tier::Scalar | Tier::Swar => 16 * 1024,
            Tier::Sse2 | Tier::Avx2 | Tier::Neon => 32 * 1024,
        };
        (target_bytes / row_bytes).clamp(64, 4096)
    }

    #[inline(always)]
    fn lane_bits(&self) -> usize {
        match self.width {
            LaneWidth::U16 => 16,
            LaneWidth::U32 => 32,
        }
    }

    /// Logical row `v`: the `words_per_row` words holding real lanes.
    #[inline(always)]
    fn row(&self, v: usize) -> &[u64] {
        &self.words[v * self.stride..v * self.stride + self.words_per_row]
    }

    /// The lane code of clustering `j` at row `v`: `label + 1`, or 0 where
    /// the label is missing.
    #[inline]
    pub(crate) fn lane_code(&self, v: usize, j: usize) -> u32 {
        debug_assert!(j < self.lanes);
        let bits = self.lane_bits();
        let word = self.words[v * self.stride + j * bits / 64];
        ((word >> (j * bits % 64)) & (u64::MAX >> (64 - bits))) as u32
    }

    /// Stride-padded row `v` (what the SIMD kernels load).
    #[inline(always)]
    fn padded_row(&self, v: usize) -> &[u64] {
        &self.words[v * self.stride..(v + 1) * self.stride]
    }

    /// Hand a row batch to this matrix's SIMD tier. Returns `false` when
    /// the lanes are `u32` (SWAR on every tier), the tier is universal
    /// (scalar/SWAR) or compiled out on this arch, or the tier is SSE2 and
    /// a row holds at most 4 words, in which case the caller runs the
    /// portable path. SSE2 compares a row's whole padded stride in 128-bit
    /// groups while the SWAR unroll touches only the real words, which is
    /// as fast or faster for rows of up to 4 words (DESIGN §6g).
    #[inline]
    fn sep_rows_simd(&self, a: &[u64], rows: &[u64], out: &mut [u32]) -> bool {
        if self.width != LaneWidth::U16 {
            return false;
        }
        match self.tier {
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => {
                // SAFETY: `self.tier` passed `Tier::is_available` when it
                // was selected (dispatch.rs never yields an unavailable
                // tier), so AVX2 is present; `a` and each row of `rows`
                // are exactly `stride` words, a positive multiple of 4.
                unsafe { simd::x86::sep_rows16_avx2(a, rows, self.stride, out) }
                true
            }
            #[cfg(target_arch = "x86_64")]
            Tier::Sse2 if self.words_per_row > 4 => {
                // SAFETY: as above — SSE2+POPCNT available, stride-sized
                // slices (stride is a multiple of 4, hence of 2).
                unsafe { simd::x86::sep_rows16_sse2(a, rows, self.stride, out) }
                true
            }
            #[cfg(target_arch = "aarch64")]
            Tier::Neon => {
                // SAFETY: NEON confirmed available at tier selection;
                // stride-sized slices as above.
                unsafe { simd::neon::sep_rows16_neon(a, rows, self.stride, out) }
                true
            }
            _ => false,
        }
    }

    /// `sep_missing` on this matrix's SIMD tier, or `None` for `u32` lanes
    /// or a universal tier (see [`LabelMatrix::sep_rows_simd`]).
    #[inline]
    fn sep_missing_simd(&self, u: usize, v: usize) -> Option<(u32, u32)> {
        if self.width != LaneWidth::U16 {
            return None;
        }
        let (a, b) = (self.padded_row(u), self.padded_row(v));
        match self.tier {
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => {
                // SAFETY: tier availability checked at selection; `a`,
                // `b`, and `valid` are exactly `stride` words, a positive
                // multiple of 4.
                Some(unsafe { simd::x86::sep_missing16_avx2(a, b, &self.valid, self.stride) })
            }
            #[cfg(target_arch = "x86_64")]
            Tier::Sse2 => {
                // SAFETY: as above (SSE2+POPCNT).
                Some(unsafe { simd::x86::sep_missing16_sse2(a, b, &self.valid, self.stride) })
            }
            #[cfg(target_arch = "aarch64")]
            Tier::Neon => {
                // SAFETY: as above (NEON).
                Some(unsafe { simd::neon::sep_missing16_neon(a, b, &self.valid, self.stride) })
            }
            _ => None,
        }
    }

    /// Number of lanes whose codes differ between rows `u` and `v` — the
    /// universal SWAR pair kernel behind [`LabelMatrix::sep_row_into`] for
    /// `u16` rows of more than 4 words and for every `u32` row.
    fn sep_swar(&self, u: usize, v: usize) -> u32 {
        let (a, b) = (self.row(u), self.row(v));
        match self.width {
            LaneWidth::U16 => {
                let mut count = 0u32;
                for (ca, cb) in a.chunks(HSUM16_CHUNK).zip(b.chunks(HSUM16_CHUNK)) {
                    let mut acc = 0u64;
                    for (&x, &y) in ca.iter().zip(cb) {
                        acc += nonzero16(x ^ y) >> 15;
                    }
                    count += hsum16(acc);
                }
                count
            }
            LaneWidth::U32 => {
                let mut acc = 0u64;
                for (&x, &y) in a.iter().zip(b) {
                    acc += nonzero32(x ^ y) >> 31;
                }
                hsum32(acc)
            }
        }
    }

    /// Batch kernel behind the dense fills: writes into `out[i]` the
    /// number of lanes whose codes differ between rows `u` and `lo + i`.
    /// For total clusterings that is exactly the number of inputs
    /// separating the pair (a zero "missing" lane differs from any present
    /// lane; [`LabelMatrix::sep_missing`] tells the two apart). Row `u` is
    /// loaded into registers once and the `v` rows stream sequentially
    /// through the packed words; the SIMD tiers compare a whole vector
    /// group of `u16` lanes per op, the SWAR tier dispatches short `u16`
    /// rows (≤ 4 words) to fully unrolled inner loops.
    ///
    /// # Panics
    /// Panics if `lo + out.len()` exceeds the number of rows.
    pub(crate) fn sep_row_into(&self, u: usize, lo: usize, out: &mut [u32]) {
        crate::telemetry::metrics()
            .kernels_row_batches
            .incr_if_enabled();
        if self.words_per_row == 0 || out.is_empty() {
            out.fill(0);
            return;
        }
        let a = self.padded_row(u);
        let rows = &self.words[lo * self.stride..(lo + out.len()) * self.stride];
        if self.sep_rows_simd(a, rows, out) {
            return;
        }
        if self.tier == Tier::Scalar {
            for (i, o) in out.iter_mut().enumerate() {
                *o = simd::sep_pair_scalar(self.row(u), self.row(lo + i), self.lane_bits());
            }
            return;
        }
        match (self.width, self.words_per_row) {
            (LaneWidth::U16, 1) => sep_rows16::<1>(a, rows, self.stride, out),
            (LaneWidth::U16, 2) => sep_rows16::<2>(a, rows, self.stride, out),
            (LaneWidth::U16, 3) => sep_rows16::<3>(a, rows, self.stride, out),
            (LaneWidth::U16, 4) => sep_rows16::<4>(a, rows, self.stride, out),
            _ => {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = self.sep_swar(u, lo + i);
                }
            }
        }
    }

    /// `(separated, missing)` lane counts for the pair `(u, v)`:
    /// `separated` counts lanes where both codes are present and differ,
    /// `missing` counts lanes where either side is the zero "missing" code
    /// (padding lanes are masked out of both).
    #[inline]
    pub fn sep_missing(&self, u: usize, v: usize) -> (u32, u32) {
        if self.words_per_row == 0 {
            return (0, 0);
        }
        match self.tier {
            Tier::Scalar => simd::sep_missing_scalar(
                self.row(u),
                self.row(v),
                &self.valid[..self.words_per_row],
                self.lane_bits(),
            ),
            Tier::Swar => self.sep_missing_swar(u, v),
            _ => self
                .sep_missing_simd(u, v)
                .unwrap_or_else(|| self.sep_missing_swar(u, v)),
        }
    }

    /// The universal SWAR `sep_missing` kernel.
    fn sep_missing_swar(&self, u: usize, v: usize) -> (u32, u32) {
        let (a, b) = (self.row(u), self.row(v));
        let mut sep = 0u32;
        let mut missing = 0u32;
        match self.width {
            LaneWidth::U16 => {
                for ((ca, cb), cok) in a
                    .chunks(HSUM16_CHUNK)
                    .zip(b.chunks(HSUM16_CHUNK))
                    .zip(self.valid.chunks(HSUM16_CHUNK))
                {
                    let mut sep_acc = 0u64;
                    let mut miss_acc = 0u64;
                    for ((&x, &y), &ok) in ca.iter().zip(cb).zip(cok) {
                        let zero_either = (HI16 ^ nonzero16(x)) | (HI16 ^ nonzero16(y));
                        let miss = zero_either & ok & HI16;
                        sep_acc += (nonzero16(x ^ y) & !miss) >> 15;
                        miss_acc += miss >> 15;
                    }
                    sep += hsum16(sep_acc);
                    missing += hsum16(miss_acc);
                }
            }
            LaneWidth::U32 => {
                let mut sep_acc = 0u64;
                let mut miss_acc = 0u64;
                for ((&x, &y), &ok) in a.iter().zip(b).zip(&self.valid) {
                    let zero_either = (HI32 ^ nonzero32(x)) | (HI32 ^ nonzero32(y));
                    let miss = zero_either & ok & HI32;
                    sep_acc += (nonzero32(x ^ y) & !miss) >> 31;
                    miss_acc += miss >> 31;
                }
                sep = hsum32(sep_acc);
                missing = hsum32(miss_acc);
            }
        }
        (sep, missing)
    }
}

/// Unrolled `u16`-lane row-batch kernel (SWAR tier): `rows` is
/// `out.len()` consecutive `stride`-word label rows whose first `W` words
/// carry real lanes, compared against the fixed row `a`. `W ≤ 4` keeps
/// every lane counter ≤ 4, so a single horizontal sum per row is exact.
#[inline(always)]
fn sep_rows16<const W: usize>(a: &[u64], rows: &[u64], stride: usize, out: &mut [u32]) {
    let mut fixed = [0u64; W];
    fixed.copy_from_slice(&a[..W]);
    for (o, row) in out.iter_mut().zip(rows.chunks_exact(stride)) {
        let mut acc = 0u64;
        for j in 0..W {
            acc += nonzero16(fixed[j] ^ row[j]) >> 15;
        }
        *o = hsum16(acc);
    }
}

/// Group clustering indices by weight (exact bit equality, NaN never
/// merges) in first-appearance order — the canonical grouping both the
/// packed weighted oracle and [`reference::xuv_weighted`] accumulate in,
/// so the two agree to the bit.
pub fn weight_groups(weights: &[f64]) -> Vec<(f64, Vec<usize>)> {
    let mut groups: Vec<(u64, f64, Vec<usize>)> = Vec::new();
    for (i, &w) in weights.iter().enumerate() {
        let bits = w.to_bits();
        match groups.iter_mut().find(|(b, _, _)| *b == bits) {
            Some((_, _, members)) => members.push(i),
            None => groups.push((bits, w, vec![i])),
        }
    }
    groups.into_iter().map(|(_, w, ms)| (w, ms)).collect()
}

/// Scalar reference implementations of the canonical per-pair distances —
/// deliberately independent of the packed kernels (plain `same_cluster` /
/// `label` walks) so the differential conformance suite compares two
/// genuinely different code paths.
pub mod reference {
    use super::weight_groups;
    use crate::clustering::{Clustering, PartialClustering};
    use crate::instance::MissingPolicy;

    /// `X_uv` for total clusterings: the fraction separating the pair.
    pub fn xuv_total(clusterings: &[Clustering], u: usize, v: usize) -> f64 {
        if u == v {
            return 0.0;
        }
        let sep = clusterings.iter().filter(|c| !c.same_cluster(u, v)).count();
        sep as f64 / clusterings.len() as f64
    }

    /// Canonical weighted `X_uv`: `Σ_g w_g·sep_g / Σ w` over equal-weight
    /// groups in first-appearance order (see [`weight_groups`]).
    pub fn xuv_weighted(clusterings: &[Clustering], weights: &[f64], u: usize, v: usize) -> f64 {
        if u == v {
            return 0.0;
        }
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0f64;
        for (w, members) in weight_groups(weights) {
            let sep = members
                .iter()
                .filter(|&&i| !clusterings[i].same_cluster(u, v))
                .count();
            acc += w * sep as f64;
        }
        acc / total
    }

    /// Canonical `X_uv` for partial clusterings under `policy`:
    /// `Ignore` divides separated-by by defined-on (½ when nothing is
    /// defined); `Coin(p)` computes `(sep + missing·(1 − p)) / m`.
    pub fn xuv_partial(
        clusterings: &[PartialClustering],
        policy: MissingPolicy,
        u: usize,
        v: usize,
    ) -> f64 {
        if u == v {
            return 0.0;
        }
        let mut sep = 0usize;
        let mut missing = 0usize;
        for c in clusterings {
            match (c.label(u), c.label(v)) {
                (Some(lu), Some(lv)) => {
                    if lu != lv {
                        sep += 1;
                    }
                }
                _ => missing += 1,
            }
        }
        match policy {
            MissingPolicy::Ignore => {
                let defined = clusterings.len() - missing;
                if defined == 0 {
                    0.5
                } else {
                    sep as f64 / defined as f64
                }
            }
            MissingPolicy::Coin(p) => {
                (sep as f64 + missing as f64 * (1.0 - p)) / clusterings.len() as f64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(labels: &[u32]) -> Clustering {
        Clustering::from_labels(labels.to_vec())
    }

    /// Every clustering packed, one lane each, in input order.
    fn pack_total(clusterings: &[Clustering]) -> LabelMatrix {
        let all: Vec<usize> = (0..clusterings.len()).collect();
        LabelMatrix::from_total_indexed(clusterings, &all)
    }

    #[test]
    fn nonzero_lane_detection_is_exact() {
        // The borrow-prone patterns that break the classic (x-k)&!x trick.
        for lanes in [
            [0u64, 0, 0, 0],
            [1, 0, 0, 0],
            [0x8000, 0x0001, 0, 0xffff],
            [0xffff, 0xffff, 0xffff, 0xffff],
            [0, 0x8000, 0, 1],
        ] {
            let word = lanes
                .iter()
                .enumerate()
                .fold(0u64, |w, (i, &l)| w | (l << (i * 16)));
            let mask = nonzero16(word);
            for (i, &l) in lanes.iter().enumerate() {
                let hi = mask >> (i * 16 + 15) & 1;
                assert_eq!(hi == 1, l != 0, "lane {i} of {lanes:?}");
            }
        }
        for lanes in [[0u64, 0], [1, 0], [0x8000_0000, 1], [u32::MAX as u64, 0]] {
            let word = lanes
                .iter()
                .enumerate()
                .fold(0u64, |w, (i, &l)| w | (l << (i * 32)));
            let mask = nonzero32(word);
            for (i, &l) in lanes.iter().enumerate() {
                let hi = mask >> (i * 32 + 31) & 1;
                assert_eq!(hi == 1, l != 0, "lane {i} of {lanes:?}");
            }
        }
    }

    #[test]
    fn sep_counts_match_scalar_on_small_instances() {
        let cs = vec![
            c(&[0, 0, 1, 1, 2, 2]),
            c(&[0, 1, 0, 1, 2, 3]),
            c(&[0, 1, 0, 1, 2, 2]),
            c(&[0, 0, 0, 0, 0, 0]),
            c(&[0, 1, 2, 3, 4, 5]),
        ];
        for tier in dispatch::reachable_tiers() {
            let mx = dispatch::with_forced_tier(tier, || pack_total(&cs));
            assert_eq!(mx.tier(), tier);
            assert_eq!(mx.width(), LaneWidth::U16);
            assert_eq!(mx.lanes(), 5);
            let mut out = [0u32; 6];
            for u in 0..6 {
                mx.sep_row_into(u, 0, &mut out);
                for (v, &got) in out.iter().enumerate() {
                    let expected = cs.iter().filter(|ci| !ci.same_cluster(u, v)).count() as u32;
                    assert_eq!(got, expected, "tier {} pair ({u},{v})", tier.name());
                }
            }
        }
    }

    #[test]
    fn row_batches_match_pairwise_under_every_tier() {
        let n = 37usize;
        let cs: Vec<Clustering> = (0..9)
            .map(|j| {
                c(&(0..n)
                    .map(|v| ((v * (j + 2) + j) % 5) as u32)
                    .collect::<Vec<_>>())
            })
            .collect();
        for tier in dispatch::reachable_tiers() {
            let mx = dispatch::with_forced_tier(tier, || pack_total(&cs));
            for u in 0..n {
                // Every window start, so batches begin mid-matrix too.
                for lo in [0, u, n - 1] {
                    let mut out = vec![0u32; n - lo];
                    mx.sep_row_into(u, lo, &mut out);
                    for (i, &got) in out.iter().enumerate() {
                        let v = lo + i;
                        let expected = cs.iter().filter(|ci| !ci.same_cluster(u, v)).count();
                        assert_eq!(
                            got as usize,
                            expected,
                            "tier {} batch ({u},{v})",
                            tier.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sep_missing_masks_padding_lanes() {
        // m = 5 lanes → 3 padding lanes in the second word; both objects
        // missing everywhere must report missing = 5, not more.
        let ps: Vec<PartialClustering> = (0..5)
            .map(|_| PartialClustering::from_labels(vec![None, None]))
            .collect();
        for tier in dispatch::reachable_tiers() {
            let mx = dispatch::with_forced_tier(tier, || LabelMatrix::from_partial(&ps));
            assert_eq!(mx.sep_missing(0, 1), (0, 5), "tier {}", tier.name());
        }
    }

    #[test]
    fn sep_missing_separates_present_from_missing() {
        let ps = vec![
            PartialClustering::from_labels(vec![Some(0), Some(1), Some(0)]),
            PartialClustering::from_labels(vec![Some(0), None, Some(0)]),
            PartialClustering::from_labels(vec![None, Some(2), Some(2)]),
        ];
        for tier in dispatch::reachable_tiers() {
            let mx = dispatch::with_forced_tier(tier, || LabelMatrix::from_partial(&ps));
            // (0,1): c0 separates; c1 missing on 1; c2 missing on 0.
            assert_eq!(mx.sep_missing(0, 1), (1, 2), "tier {}", tier.name());
            // (0,2): c0 joins, c1 joins, c2 missing on 0.
            assert_eq!(mx.sep_missing(0, 2), (0, 1), "tier {}", tier.name());
            // (1,2): c0 separates, c1 missing on 1, c2 joins (both label 2).
            assert_eq!(mx.sep_missing(1, 2), (1, 1), "tier {}", tier.name());
        }
    }

    #[test]
    fn u32_row_batches_and_missing_counts_match_scalar_under_every_tier() {
        // Input 0 is an ID column: 65 536 clusters, so its largest lane
        // code (65 536) forces u32 lanes. The others have 5 clusters, and
        // the odd ones miss a label on every 7th object.
        let n = 65_536usize;
        let ps: Vec<PartialClustering> = (0..9)
            .map(|j| {
                PartialClustering::from_labels(
                    (0..n)
                        .map(|v| match j {
                            0 => Some(v as u32),
                            _ if j % 2 == 1 && v % 7 == j % 7 => None,
                            _ => Some(((v * (j + 2) + j) % 5) as u32),
                        })
                        .collect(),
                )
            })
            .collect();
        // Rows at both ends of the matrix and two in between.
        let rows = [0usize, 1, 4_097, n - 1];
        let mut expected = vec![0u32; n];
        let mut got = vec![0u32; n];
        // m = 1, 3, 5, 7, 9 gives 1 to 5 words of two u32 lanes per row.
        for m in (1..=9).step_by(2) {
            let inputs = &ps[..m];
            let scalar =
                dispatch::with_forced_tier(Tier::Scalar, || LabelMatrix::from_partial(inputs));
            assert_eq!(scalar.width(), LaneWidth::U32);
            assert_eq!(scalar.words_per_row, m.div_ceil(U32_LANES));
            let tiers: Vec<(Tier, LabelMatrix)> = dispatch::reachable_tiers()
                .into_iter()
                .map(|t| {
                    (
                        t,
                        dispatch::with_forced_tier(t, || LabelMatrix::from_partial(inputs)),
                    )
                })
                .collect();
            for &u in &rows {
                scalar.sep_row_into(u, 0, &mut expected);
                // The scalar tier itself against a walk over the labels.
                for v in (0..n).step_by(331).chain([n - 1]) {
                    let (mut sep, mut missing) = (0, 0);
                    for p in inputs {
                        match (p.label(u), p.label(v)) {
                            (Some(a), Some(b)) => sep += u32::from(a != b),
                            _ => missing += 1,
                        }
                    }
                    let differ = inputs.iter().filter(|p| p.label(u) != p.label(v)).count();
                    assert_eq!(expected[v] as usize, differ, "m={m} scalar ({u},{v})");
                    assert_eq!(scalar.sep_missing(u, v), (sep, missing), "m={m} ({u},{v})");
                }
                for (tier, mx) in &tiers {
                    let name = tier.name();
                    assert_eq!(mx.width(), LaneWidth::U32);
                    mx.sep_row_into(u, 0, &mut got);
                    assert!(
                        got == expected,
                        "m={m} tier {name} row {u}: batch != scalar"
                    );
                    // A window that starts and ends mid-matrix.
                    let (lo, hi) = (n / 3, n / 3 + 1_000);
                    mx.sep_row_into(u, lo, &mut got[..hi - lo]);
                    assert_eq!(got[..hi - lo], expected[lo..hi], "m={m} tier {name}");
                    for v in (0..n).step_by(97).chain([u, n - 1]) {
                        assert_eq!(
                            mx.sep_missing(u, v),
                            scalar.sep_missing(u, v),
                            "m={m} tier {name} pair ({u},{v})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stride_pads_rows_to_whole_vector_groups() {
        let cs = vec![c(&[0, 1, 2]); 5]; // m = 5 → 2 logical words, u16
        let mx = pack_total(&cs);
        assert_eq!(mx.words_per_row, 2);
        assert_eq!(mx.stride, STRIDE_WORDS);
        assert_eq!(mx.valid.len(), STRIDE_WORDS);
        // Padding words carry no valid lanes; the first word is fully
        // valid, the second has one real lane.
        assert_eq!(mx.valid[0], u64::MAX);
        assert_eq!(mx.valid[1], 0xffff);
        assert_eq!(mx.valid[2], 0);
        assert_eq!(mx.valid[3], 0);
        let band = mx.preferred_band();
        assert!((64..=4096).contains(&band), "band {band}");
    }

    #[test]
    fn weight_groups_keep_first_appearance_order() {
        let groups = weight_groups(&[2.0, 1.0, 2.0, 0.5, 1.0]);
        assert_eq!(
            groups,
            vec![(2.0, vec![0, 2]), (1.0, vec![1, 4]), (0.5, vec![3]),]
        );
        // NaN weights never merge (bit-exact grouping is only for equal
        // bit patterns, and the try_ constructors reject NaN upstream).
        assert_eq!(weight_groups(&[]).len(), 0);
    }

    #[test]
    fn empty_and_trivial_matrices() {
        let mx = pack_total(&[]);
        assert!(mx.is_empty());
        assert_eq!(mx.lanes(), 0);
        let one = pack_total(&[c(&[0])]);
        assert_eq!(one.len(), 1);
        assert!(one.bytes() > 0);
    }
}
