//! Shared corruption-sweep helpers for fault-injection tests.
//!
//! The checkpoint and end-to-end fault suites all sweep the same two
//! corruption families over serialized artifacts: truncation at every
//! prefix length (torn write) and single-bit flips (media decay, bad RAM).
//! Before this module each suite carried its own copy of the loops; they
//! drifted in which bits they flipped and which cuts they tried. The loops
//! live here once and every suite calls them.
//!
//! The module is compiled into the library (not `#[cfg(test)]`) because the
//! workspace integration tests link against `aggclust_core` as an external
//! crate and could not see a test-only module. It has no runtime callers;
//! the fs-facade lint and the panic lint both apply to it like any other
//! non-test code.

/// All eight bit positions of a byte, for exhaustive single-bit-flip sweeps.
pub const ALL_BITS: [u8; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

/// A spot-check subset of bit positions (low, middle, high) for sweeps where
/// an exhaustive `byte x bit` product would be too slow — e.g. when every
/// probe reruns a full consensus pipeline.
pub const SPOT_BITS: [u8; 3] = [0, 3, 7];

/// Calls `check(len, prefix)` for every proper prefix of `bytes`, from the
/// empty prefix up to `bytes.len() - 1`. Models a torn write that stopped
/// after `len` bytes; decoders must reject (or transparently rebuild) every
/// one of them, never panic.
pub fn for_each_truncation(bytes: &[u8], mut check: impl FnMut(usize, &[u8])) {
    for len in 0..bytes.len() {
        check(len, &bytes[..len]);
    }
}

/// Calls `check(byte, bit, corrupted)` for every byte index of `bytes`
/// crossed with every bit position in `bits`. The buffer passed to `check`
/// differs from `bytes` in exactly that one bit; the flip is undone before
/// the next probe so only one copy of the input is ever made.
pub fn for_each_bit_flip(bytes: &[u8], bits: &[u8], mut check: impl FnMut(usize, u8, &[u8])) {
    let mut corrupted = bytes.to_vec();
    for byte in 0..bytes.len() {
        for &bit in bits {
            corrupted[byte] ^= 1 << bit;
            check(byte, bit, &corrupted);
            corrupted[byte] ^= 1 << bit;
        }
    }
}

/// The splitmix64 step: advances `state` and returns the next 64-bit output.
/// This is the same generator the failpoint plans use for `prob=` coins, so
/// chaos tests can derive per-plan seeds that match injection behaviour.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncation_visits_every_prefix_once() {
        let bytes = [1u8, 2, 3, 4, 5];
        let mut seen = Vec::new();
        for_each_truncation(&bytes, |len, prefix| {
            assert_eq!(prefix, &bytes[..len]);
            seen.push(len);
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bit_flip_touches_exactly_one_bit_and_restores() {
        let bytes = [0u8, 0xff, 0x5a];
        let mut probes = 0usize;
        for_each_bit_flip(&bytes, &ALL_BITS, |byte, bit, corrupted| {
            probes += 1;
            for (i, (&a, &b)) in bytes.iter().zip(corrupted).enumerate() {
                if i == byte {
                    assert_eq!(a ^ (1 << bit), b);
                } else {
                    assert_eq!(a, b, "probe {byte}:{bit} leaked into byte {i}");
                }
            }
        });
        assert_eq!(probes, bytes.len() * 8);
    }

    #[test]
    fn splitmix64_is_deterministic_and_advances() {
        let mut a = 7u64;
        let mut b = 7u64;
        let first = splitmix64(&mut a);
        assert_eq!(first, splitmix64(&mut b));
        assert_ne!(first, splitmix64(&mut a));
    }
}
