//! `#[target_feature]` SIMD implementations of the disagreement kernels,
//! plus the per-lane scalar reference tier (DESIGN.md §6g).
//!
//! ## Layout contract (shared with [`crate::kernels::LabelMatrix`])
//!
//! * Every label row occupies exactly `stride` consecutive `u64` words,
//!   where `stride` is a multiple of [`crate::kernels::STRIDE_WORDS`]
//!   (4 words — one 256-bit vector). Words past the row's logical
//!   `words_per_row` are **zero in every row**, so a vector op covering
//!   them sees equal (zero ⊕ zero) lanes and counts nothing.
//! * `valid` holds one *full-lane* mask word per row word: every bit of a
//!   real lane set, every bit of a padding lane clear. Missing-lane
//!   counts AND against it, so padding can never count as missing.
//!
//! ## Safety argument
//!
//! Every `unsafe fn` here is unsafe for exactly one reason: it compiles
//! with `#[target_feature(enable = ...)]`, so calling it on a CPU without
//! that feature is undefined behavior (illegal instruction). There is no
//! pointer arithmetic beyond in-bounds slice indexing (all accesses go
//! through safe slice ops; the intrinsics take unaligned pointers derived
//! from in-bounds subslices). The single call-site rule: a tier's kernels
//! are only reachable through a [`super::dispatch::Tier`] that
//! [`super::dispatch::Tier::is_available`] confirmed on this host, which
//! is exactly the required feature check.
//!
//! ## Counting scheme
//!
//! Every kernel here reads `u16` lanes; a matrix with `u32` lanes runs the
//! portable SWAR kernels on every tier. A vector compare (`cmpeq` on
//! 16-bit lanes) turns each lane into all-ones (equal) or all-zeros
//! (different); `movemask` (x86) collapses that to one bit per byte, so
//! each differing lane contributes exactly 2 set bits to the inverted
//! mask, and one `popcnt` per vector plus a final shift yields the exact
//! lane count — the "vectorized compare + masked popcount reduction".
//! NEON has no movemask; the lanes are shifted down to bit 0 and
//! accumulated per lane (flushed well before a lane could saturate), then
//! horizontally added with `vaddlv`.

// The scalar tier: one lane at a time, no SWAR tricks — a third
// independent implementation (after SWAR and the per-clustering
// reference walks) that the differential suite can force via
// `AGGCLUST_SIMD=scalar`.

/// Per-lane scalar separation count between two rows of `width`-bit lanes.
pub fn sep_pair_scalar(a: &[u64], b: &[u64], lane_bits: usize) -> u32 {
    let lanes = 64 / lane_bits;
    let mask = (1u128 << lane_bits) as u64 - 1;
    let mut count = 0u32;
    for (&x, &y) in a.iter().zip(b) {
        for lane in 0..lanes {
            let shift = lane * lane_bits;
            if (x >> shift) & mask != (y >> shift) & mask {
                count += 1;
            }
        }
    }
    count
}

/// Per-lane scalar `(separated, missing)` counts (see
/// [`crate::kernels::LabelMatrix::sep_missing`]).
pub fn sep_missing_scalar(a: &[u64], b: &[u64], valid: &[u64], lane_bits: usize) -> (u32, u32) {
    let lanes = 64 / lane_bits;
    let mask = (1u128 << lane_bits) as u64 - 1;
    let (mut sep, mut missing) = (0u32, 0u32);
    for ((&x, &y), &ok) in a.iter().zip(b).zip(valid) {
        for lane in 0..lanes {
            let shift = lane * lane_bits;
            if (ok >> shift) & mask == 0 {
                continue; // padding lane
            }
            let (cx, cy) = ((x >> shift) & mask, (y >> shift) & mask);
            if cx == 0 || cy == 0 {
                missing += 1;
            } else if cx != cy {
                sep += 1;
            }
        }
    }
    (sep, missing)
}

#[cfg(target_arch = "x86_64")]
pub mod x86 {
    //! SSE2+POPCNT and AVX2 kernels. All loads are unaligned (`loadu`)
    //! from in-bounds `&[u64]` subslices.
    use core::arch::x86_64::*;

    /// Differing-lane bit count of one 256-bit group: 2 bits per
    /// differing `u16` lane, 0 for equal (and padding) lanes.
    ///
    /// # Safety
    /// Requires AVX2. `a` and `b` must each hold ≥ 4 readable words.
    #[inline]
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn neq16_bits_avx2(a: *const u64, b: *const u64) -> u32 {
        // SAFETY: caller guarantees 4 in-bounds words at both pointers;
        // loadu has no alignment requirement.
        let va = _mm256_loadu_si256(a as *const __m256i);
        let vb = _mm256_loadu_si256(b as *const __m256i);
        let eq = _mm256_cmpeq_epi16(_mm256_xor_si256(va, vb), _mm256_setzero_si256());
        !(_mm256_movemask_epi8(eq) as u32)
    }

    /// Batch row kernel, AVX2, `u16` lanes: `out[i] = sep(a, rows[i])`.
    /// `rows` holds `out.len()` consecutive `stride`-word rows.
    ///
    /// # Safety
    /// Requires AVX2 (guaranteed by tier selection). `stride` must be a
    /// positive multiple of 4, `a.len() == stride`, and
    /// `rows.len() == out.len() * stride`.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn sep_rows16_avx2(a: &[u64], rows: &[u64], stride: usize, out: &mut [u32]) {
        debug_assert_eq!(a.len(), stride);
        debug_assert_eq!(rows.len(), out.len() * stride);
        if stride == 4 {
            // The dominant shape (m ≤ 16 clusterings): the fixed row is
            // one register, each v row one load + compare + popcount.
            // SAFETY: stride == 4 == a.len(), so 4 words are in bounds.
            let va = _mm256_loadu_si256(a.as_ptr() as *const __m256i);
            for (o, row) in out.iter_mut().zip(rows.chunks_exact(4)) {
                // SAFETY: chunks_exact(4) yields 4 in-bounds words.
                let vb = _mm256_loadu_si256(row.as_ptr() as *const __m256i);
                let eq = _mm256_cmpeq_epi16(_mm256_xor_si256(va, vb), _mm256_setzero_si256());
                *o = (!(_mm256_movemask_epi8(eq) as u32)).count_ones() / 2;
            }
            return;
        }
        for (o, row) in out.iter_mut().zip(rows.chunks_exact(stride)) {
            let mut neq_bits = 0u32;
            for g in (0..stride).step_by(4) {
                // SAFETY: g + 4 <= stride == a.len() == row.len().
                neq_bits += neq16_bits_avx2(a[g..].as_ptr(), row[g..].as_ptr()).count_ones();
            }
            *o = neq_bits / 2;
        }
    }

    /// `(separated, missing)` lane counts, AVX2, `u16` lanes. `valid`
    /// holds full-lane masks (padding lanes all-zero).
    ///
    /// # Safety
    /// Requires AVX2. `a`, `b`, and `valid` must each hold exactly
    /// `stride` words, `stride` a positive multiple of 4.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn sep_missing16_avx2(
        a: &[u64],
        b: &[u64],
        valid: &[u64],
        stride: usize,
    ) -> (u32, u32) {
        debug_assert!(a.len() == stride && b.len() == stride && valid.len() == stride);
        let zero = _mm256_setzero_si256();
        let (mut sep_bits, mut miss_bits) = (0u32, 0u32);
        for g in (0..stride).step_by(4) {
            // SAFETY: g + 4 <= stride bounds all three subslices.
            let va = _mm256_loadu_si256(a[g..].as_ptr() as *const __m256i);
            let vb = _mm256_loadu_si256(b[g..].as_ptr() as *const __m256i);
            let vv = _mm256_loadu_si256(valid[g..].as_ptr() as *const __m256i);
            let zx = _mm256_cmpeq_epi16(va, zero);
            let zy = _mm256_cmpeq_epi16(vb, zero);
            let miss = _mm256_and_si256(_mm256_or_si256(zx, zy), vv);
            let eq = _mm256_cmpeq_epi16(_mm256_xor_si256(va, vb), zero);
            let mm_miss = _mm256_movemask_epi8(miss) as u32;
            let mm_eq = _mm256_movemask_epi8(eq) as u32;
            miss_bits += mm_miss.count_ones();
            sep_bits += (!mm_eq & !mm_miss).count_ones();
        }
        (sep_bits / 2, miss_bits / 2)
    }

    /// Batch row kernel, SSE2+POPCNT, `u16` lanes: two words per 128-bit
    /// compare, `movemask` 16 bits, hardware `popcnt` reduction. The SSE2
    /// tier calls it only for rows of more than 4 words; shorter rows go
    /// to the SWAR unroll, which skips the padding words.
    ///
    /// # Safety
    /// Requires SSE2 and POPCNT (guaranteed by tier selection). Same
    /// slice contract as [`sep_rows16_avx2`] (`stride` a positive
    /// multiple of 4, so also of 2).
    #[target_feature(enable = "sse2,popcnt")]
    pub unsafe fn sep_rows16_sse2(a: &[u64], rows: &[u64], stride: usize, out: &mut [u32]) {
        debug_assert_eq!(a.len(), stride);
        debug_assert_eq!(rows.len(), out.len() * stride);
        for (o, row) in out.iter_mut().zip(rows.chunks_exact(stride)) {
            let mut neq_bits = 0u32;
            for g in (0..stride).step_by(2) {
                // SAFETY: g + 2 <= stride bounds both subslices.
                let va = _mm_loadu_si128(a[g..].as_ptr() as *const __m128i);
                let vb = _mm_loadu_si128(row[g..].as_ptr() as *const __m128i);
                let eq = _mm_cmpeq_epi16(_mm_xor_si128(va, vb), _mm_setzero_si128());
                neq_bits += (!(_mm_movemask_epi8(eq) as u32) & 0xffff).count_ones();
            }
            *o = neq_bits / 2;
        }
    }

    /// `(separated, missing)` lane counts, SSE2+POPCNT, `u16` lanes.
    ///
    /// # Safety
    /// Requires SSE2 and POPCNT. Same slice contract as
    /// [`sep_missing16_avx2`].
    #[target_feature(enable = "sse2,popcnt")]
    pub unsafe fn sep_missing16_sse2(
        a: &[u64],
        b: &[u64],
        valid: &[u64],
        stride: usize,
    ) -> (u32, u32) {
        debug_assert!(a.len() == stride && b.len() == stride && valid.len() == stride);
        let zero = _mm_setzero_si128();
        let (mut sep_bits, mut miss_bits) = (0u32, 0u32);
        for g in (0..stride).step_by(2) {
            // SAFETY: g + 2 <= stride bounds all three subslices.
            let va = _mm_loadu_si128(a[g..].as_ptr() as *const __m128i);
            let vb = _mm_loadu_si128(b[g..].as_ptr() as *const __m128i);
            let vv = _mm_loadu_si128(valid[g..].as_ptr() as *const __m128i);
            let zx = _mm_cmpeq_epi16(va, zero);
            let zy = _mm_cmpeq_epi16(vb, zero);
            let miss = _mm_and_si128(_mm_or_si128(zx, zy), vv);
            let eq = _mm_cmpeq_epi16(_mm_xor_si128(va, vb), zero);
            let mm_miss = _mm_movemask_epi8(miss) as u32;
            let mm_eq = _mm_movemask_epi8(eq) as u32;
            miss_bits += mm_miss.count_ones();
            sep_bits += (!mm_eq & !mm_miss & 0xffff).count_ones();
        }
        (sep_bits / 2, miss_bits / 2)
    }
}

#[cfg(target_arch = "aarch64")]
pub mod neon {
    //! NEON kernels: 128-bit compares, per-lane accumulators flushed via
    //! `vaddlv` widening horizontal adds (NEON has no movemask).
    use core::arch::aarch64::*;

    /// Groups (of 2 words / 8 `u16` lanes) between accumulator flushes:
    /// each lane gains at most 1 per group, so `u16` lane counters stay
    /// exact far below this bound.
    const FLUSH_GROUPS: usize = 16_384;

    /// Batch row kernel, NEON, `u16` lanes.
    ///
    /// # Safety
    /// Requires NEON (guaranteed by tier selection). `stride` must be a
    /// positive multiple of 4 (so also of 2), `a.len() == stride`, and
    /// `rows.len() == out.len() * stride`.
    #[target_feature(enable = "neon")]
    pub unsafe fn sep_rows16_neon(a: &[u64], rows: &[u64], stride: usize, out: &mut [u32]) {
        debug_assert_eq!(a.len(), stride);
        debug_assert_eq!(rows.len(), out.len() * stride);
        for (o, row) in out.iter_mut().zip(rows.chunks_exact(stride)) {
            let mut count = 0u32;
            let mut acc = vdupq_n_u16(0);
            let mut pending = 0usize;
            for g in (0..stride).step_by(2) {
                // SAFETY: g + 2 <= stride bounds both subslices.
                let va = vld1q_u16(a[g..].as_ptr() as *const u16);
                let vb = vld1q_u16(row[g..].as_ptr() as *const u16);
                let neq = vmvnq_u16(vceqq_u16(va, vb));
                acc = vaddq_u16(acc, vshrq_n_u16::<15>(neq));
                pending += 1;
                if pending == FLUSH_GROUPS {
                    count += vaddlvq_u16(acc);
                    acc = vdupq_n_u16(0);
                    pending = 0;
                }
            }
            *o = count + vaddlvq_u16(acc);
        }
    }

    /// `(separated, missing)` lane counts, NEON, `u16` lanes.
    ///
    /// # Safety
    /// Requires NEON. `a`, `b`, and `valid` must each hold exactly
    /// `stride` words, `stride` a positive multiple of 4.
    #[target_feature(enable = "neon")]
    pub unsafe fn sep_missing16_neon(
        a: &[u64],
        b: &[u64],
        valid: &[u64],
        stride: usize,
    ) -> (u32, u32) {
        debug_assert!(a.len() == stride && b.len() == stride && valid.len() == stride);
        let (mut sep, mut missing) = (0u32, 0u32);
        let mut sep_acc = vdupq_n_u16(0);
        let mut miss_acc = vdupq_n_u16(0);
        let mut pending = 0usize;
        for g in (0..stride).step_by(2) {
            // SAFETY: g + 2 <= stride bounds all three subslices.
            let va = vld1q_u16(a[g..].as_ptr() as *const u16);
            let vb = vld1q_u16(b[g..].as_ptr() as *const u16);
            let vv = vld1q_u16(valid[g..].as_ptr() as *const u16);
            let zero = vdupq_n_u16(0);
            let miss = vandq_u16(vorrq_u16(vceqq_u16(va, zero), vceqq_u16(vb, zero)), vv);
            let neq = vmvnq_u16(vceqq_u16(va, vb));
            let sep_lanes = vbicq_u16(neq, miss); // neq AND NOT miss
            sep_acc = vaddq_u16(sep_acc, vshrq_n_u16::<15>(sep_lanes));
            miss_acc = vaddq_u16(miss_acc, vshrq_n_u16::<15>(miss));
            pending += 1;
            if pending == FLUSH_GROUPS {
                sep += vaddlvq_u16(sep_acc);
                missing += vaddlvq_u16(miss_acc);
                sep_acc = vdupq_n_u16(0);
                miss_acc = vdupq_n_u16(0);
                pending = 0;
            }
        }
        (sep + vaddlvq_u16(sep_acc), missing + vaddlvq_u16(miss_acc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_pair_counts_lanes_exactly() {
        // Two words of u16 lanes: [1,2,3,0] vs [1,9,3,0] → 1 differing.
        let a = [0x0000_0003_0002_0001u64, 0];
        let b = [0x0000_0003_0009_0001u64, 0];
        assert_eq!(sep_pair_scalar(&a, &b, 16), 1);
        assert_eq!(sep_pair_scalar(&a, &a, 16), 0);
        // u32 lanes: [1,2] vs [9,2] → 1 differing.
        let a = [0x0000_0002_0000_0001u64];
        let b = [0x0000_0002_0000_0009u64];
        assert_eq!(sep_pair_scalar(&a, &b, 32), 1);
    }

    #[test]
    fn scalar_missing_respects_valid_mask() {
        // One word, lanes [0, 5, 5, 7] vs [3, 0, 5, 8]; only the first
        // three lanes are valid.
        let a = [0x0007_0005_0005_0000u64];
        let b = [0x0008_0005_0000_0003u64];
        let valid = [0x0000_ffff_ffff_ffffu64];
        // lane0: a missing; lane1: b missing; lane2: equal; lane3 padding.
        assert_eq!(sep_missing_scalar(&a, &b, &valid, 16), (0, 2));
    }
}
