//! Runtime SIMD tier selection for the disagreement kernels.
//!
//! The SWAR kernels in [`crate::kernels`] are the *universal* path: plain
//! `u64` arithmetic, exact on any target with baseline codegen. On hosts
//! with wider registers the same per-pair counts can be answered with one
//! vector compare per 4 words (16 `u16` lanes), so this module picks —
//! **once per process** — the widest implementation the CPU actually
//! supports and hands it to every [`crate::kernels::LabelMatrix`] built
//! afterwards:
//!
//! | Tier | Requires | Width per op |
//! |---|---|---|
//! | [`Tier::Avx2`] | `x86-64` with AVX2 | 4 × `u64` words (16 `u16` lanes) |
//! | [`Tier::Sse2`] | `x86-64` with SSE2 **and** POPCNT | 2 × `u64` words |
//! | [`Tier::Neon`] | `aarch64` with NEON | 2 × `u64` words |
//! | [`Tier::Swar`] | any | 1 × `u64` word (SWAR) |
//! | [`Tier::Scalar`] | any | one lane at a time (reference-grade) |
//!
//! The SIMD tiers have kernels for `u16` lanes only; a matrix with `u32`
//! lanes runs the SWAR kernels on every tier but the scalar one.
//!
//! Selection order: a scoped [`with_forced_tier`] override (the
//! conformance suites) beats the `AGGCLUST_SIMD` environment variable
//! (`auto`, `scalar`, `swar`, `sse2`, `avx2`, `neon`; read once), which
//! beats feature detection (`is_x86_feature_detected!` /
//! `is_aarch64_feature_detected!`). Forcing a tier the host cannot run,
//! or a value that names no tier, falls back to detection with a warning —
//! silently emitting illegal instructions is never an option. The tier
//! actually used is recorded in the `kernels_dispatch_tier` metric, so run
//! reports and traces state which code path produced their numbers.
//!
//! Every tier returns **bit-identical distances**: the conformance suites
//! (`kernel_conformance.rs`, `kernel_metamorphic.rs`) run their full size
//! grids under every tier reachable on the host and compare `f64::to_bits`.

use std::cell::Cell;
use std::sync::OnceLock;

/// A kernel implementation tier, from portable reference to widest SIMD.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// One lane at a time — the slow, obviously-correct packed walk.
    Scalar,
    /// SWAR on plain `u64` words (the universal fallback).
    Swar,
    /// SSE2 vector compares + POPCNT reductions (`x86-64`).
    Sse2,
    /// AVX2: 4 words / 16 `u16` lanes per vector op (`x86-64`).
    Avx2,
    /// NEON 128-bit vector compares (`aarch64`).
    Neon,
}

/// Every tier, in ascending width order.
pub const ALL_TIERS: [Tier; 5] = [Tier::Scalar, Tier::Swar, Tier::Sse2, Tier::Avx2, Tier::Neon];

impl Tier {
    /// Stable lower-case name (`AGGCLUST_SIMD` value, metric label).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Swar => "swar",
            Tier::Sse2 => "sse2",
            Tier::Avx2 => "avx2",
            Tier::Neon => "neon",
        }
    }

    /// Numeric code stored in the `kernels_dispatch_tier` metric
    /// (0 is reserved for "no kernel ran yet").
    pub fn code(self) -> u64 {
        match self {
            Tier::Scalar => 1,
            Tier::Swar => 2,
            Tier::Sse2 => 3,
            Tier::Avx2 => 4,
            Tier::Neon => 5,
        }
    }

    /// Parse a tier name (the non-`auto` `AGGCLUST_SIMD` values).
    pub fn from_name(s: &str) -> Option<Tier> {
        ALL_TIERS.into_iter().find(|t| t.name() == s)
    }

    /// `true` if this tier can execute on the current host.
    pub fn is_available(self) -> bool {
        match self {
            Tier::Scalar | Tier::Swar => true,
            #[cfg(target_arch = "x86_64")]
            Tier::Sse2 => is_x86_feature_detected!("sse2") && is_x86_feature_detected!("popcnt"),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt"),
            #[cfg(target_arch = "aarch64")]
            Tier::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
            _ => false,
            #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
            _ => false,
        }
    }
}

/// The metric label for a stored tier code (`"none"` before any kernel
/// has run).
pub fn tier_code_name(code: u64) -> &'static str {
    ALL_TIERS
        .into_iter()
        .find(|t| t.code() == code)
        .map_or("none", Tier::name)
}

/// The widest tier the host supports (what `AGGCLUST_SIMD=auto` picks).
fn best_available() -> Tier {
    ALL_TIERS
        .into_iter()
        .rev()
        .find(|t| t.is_available())
        .unwrap_or(Tier::Swar)
}

/// Every tier that can run on this host, ascending — what the
/// tier-parameterized conformance suites iterate over.
pub fn reachable_tiers() -> Vec<Tier> {
    ALL_TIERS.into_iter().filter(|t| t.is_available()).collect()
}

/// CPU features relevant to tier selection that this host actually has
/// (recorded in the run report's host block).
pub fn detected_features() -> Vec<&'static str> {
    let mut features = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, present) in [
            ("sse2", is_x86_feature_detected!("sse2")),
            ("ssse3", is_x86_feature_detected!("ssse3")),
            ("sse4.2", is_x86_feature_detected!("sse4.2")),
            ("popcnt", is_x86_feature_detected!("popcnt")),
            ("avx", is_x86_feature_detected!("avx")),
            ("avx2", is_x86_feature_detected!("avx2")),
        ] {
            if present {
                features.push(name);
            }
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            features.push("neon");
        }
    }
    features
}

thread_local! {
    static TIER_OVERRIDE: Cell<Option<Tier>> = const { Cell::new(None) };
}

/// `(resolved tier, honoured request)` from `AGGCLUST_SIMD`, read once.
static ENV_TIER: OnceLock<(Tier, &'static str)> = OnceLock::new();

fn env_tier() -> &'static (Tier, &'static str) {
    ENV_TIER.get_or_init(|| {
        let spec = std::env::var("AGGCLUST_SIMD").unwrap_or_default();
        let requested = spec.trim().to_ascii_lowercase();
        match requested.as_str() {
            "" | "auto" => (best_available(), "auto"),
            name => match Tier::from_name(name) {
                Some(t) if t.is_available() => (t, t.name()),
                Some(t) => {
                    crate::warn!(
                        "AGGCLUST_SIMD tier is not available on this host; using detection",
                        requested = t.name(),
                        selected = best_available().name()
                    );
                    (best_available(), t.name())
                }
                // The run falls back to detection, so it reports the
                // request it honoured; the raw value is in the warning.
                None => {
                    crate::warn!(
                        "unknown AGGCLUST_SIMD value; expected auto|scalar|swar|sse2|avx2|neon",
                        requested = requested.as_str(),
                        selected = best_available().name()
                    );
                    (best_available(), "auto")
                }
            },
        }
    })
}

/// The tier new [`crate::kernels::LabelMatrix`] builds will use on this
/// thread: scoped override > `AGGCLUST_SIMD` > detection.
pub fn selected() -> Tier {
    if let Some(t) = TIER_OVERRIDE.get() {
        return t;
    }
    env_tier().0
}

/// What the user asked for: the `AGGCLUST_SIMD` tier name, or `"auto"`
/// when it is unset, `auto`, or not a tier name (the run then uses
/// detection, after a warning that names the raw value).
pub fn requested() -> &'static str {
    env_tier().1
}

/// Run `f` with the dispatch tier pinned to `tier` on the current thread,
/// restoring the previous selection afterwards (also on panic). Matrices
/// *built* inside `f` keep the forced tier for their whole lifetime; the
/// override does not retroactively change existing matrices. Intended for
/// the conformance suites; production callers should use the
/// `AGGCLUST_SIMD` environment variable.
///
/// # Panics
/// Panics if `tier` cannot run on this host (forcing it would execute
/// illegal instructions); iterate [`reachable_tiers`] instead of
/// [`ALL_TIERS`].
pub fn with_forced_tier<R>(tier: Tier, f: impl FnOnce() -> R) -> R {
    assert!(
        tier.is_available(),
        "tier {} is not available on this host",
        tier.name()
    );
    struct Restore(Option<Tier>);
    impl Drop for Restore {
        fn drop(&mut self) {
            TIER_OVERRIDE.set(self.0);
        }
    }
    let _restore = Restore(TIER_OVERRIDE.replace(Some(tier)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universal_tiers_are_always_available() {
        assert!(Tier::Scalar.is_available());
        assert!(Tier::Swar.is_available());
        assert!(reachable_tiers().contains(&Tier::Scalar));
        assert!(reachable_tiers().contains(&Tier::Swar));
        assert!(best_available() >= Tier::Swar);
    }

    #[test]
    fn names_and_codes_round_trip() {
        for tier in ALL_TIERS {
            assert_eq!(Tier::from_name(tier.name()), Some(tier));
            assert_eq!(tier_code_name(tier.code()), tier.name());
        }
        assert_eq!(tier_code_name(0), "none");
        assert_eq!(Tier::from_name("auto"), None);
    }

    #[test]
    fn forced_tier_is_scoped_and_restored() {
        let outer = selected();
        let inner = with_forced_tier(Tier::Scalar, selected);
        assert_eq!(inner, Tier::Scalar);
        assert_eq!(selected(), outer);
        // Nested overrides unwind in order.
        with_forced_tier(Tier::Swar, || {
            assert_eq!(selected(), Tier::Swar);
            with_forced_tier(Tier::Scalar, || assert_eq!(selected(), Tier::Scalar));
            assert_eq!(selected(), Tier::Swar);
        });
    }
}
