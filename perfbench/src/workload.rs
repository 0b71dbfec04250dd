//! Workload definitions and their seeded inputs.
//!
//! Every workload aggregates m = 10 clusterings of a planted 12-cluster
//! truth in which 20 % of the labels were redrawn at random. Inputs are a
//! pure function of `(workload, seed)`: they come from a SplitMix64 stream
//! private to this benchmark, so a change to the program's own RNG never
//! changes what the benchmark feeds it.

use aggclust_core::algorithms::{Algorithm, LocalSearchParams};
use aggclust_core::ConsensusBuilder;
use std::fmt::Write as _;

/// Input clusterings per instance.
pub const M: usize = 10;
/// Clusters in the planted truth.
pub const TRUTH_K: u64 = 12;
/// Share of labels redrawn uniformly at random in each input.
pub const NOISE: f64 = 0.20;
/// Objects in the fixed subsample that prices a SAMPLING result.
pub const SUBSAMPLE: usize = 5_000;

/// The pipeline a workload runs.
///
/// LOCALSEARCH needs four to six passes to converge on these inputs,
/// depending on the seed, and each pass is a fifth of an ls-5k job. So
/// that a job's work does not depend on the seed, ls-5k stops after
/// [`LS_MAX_PASSES`] passes and agglo-partial-5k skips the refinement
/// pass (three or four passes, again by seed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pipeline {
    /// LOCALSEARCH from singletons for [`LS_MAX_PASSES`] passes, no
    /// refinement pass.
    LocalSearch,
    /// AGGLOMERATIVE, no refinement pass.
    Agglomerative,
    /// The default `ConsensusBuilder`, which takes its SAMPLING path above
    /// [`SAMPLING_THRESHOLD`] objects.
    Sampling,
}

/// LOCALSEARCH passes in an ls-5k job; no seed converges in fewer.
pub const LS_MAX_PASSES: usize = 3;

/// The LOCALSEARCH parameters of [`Pipeline::LocalSearch`].
pub fn local_search_params() -> LocalSearchParams {
    LocalSearchParams {
        max_passes: LS_MAX_PASSES,
        ..LocalSearchParams::default()
    }
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Objects.
    pub n: usize,
    /// Share of labels left missing (`?` in the CSV).
    pub missing: f64,
    /// What the job runs.
    pub pipeline: Pipeline,
    /// Worker threads the job is pinned to.
    pub threads: usize,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "ls-5k",
        n: 5_000,
        missing: 0.0,
        pipeline: Pipeline::LocalSearch,
        threads: 1,
    },
    Spec {
        name: "agglo-partial-5k",
        n: 5_000,
        missing: 0.15,
        pipeline: Pipeline::Agglomerative,
        threads: 2,
    },
    Spec {
        name: "sampling-50k",
        n: 50_000,
        missing: 0.0,
        pipeline: Pipeline::Sampling,
        threads: 1,
    },
];

impl Spec {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload at another size (tests use small copies).
    #[cfg(test)]
    pub fn with_n(self, n: usize) -> Spec {
        Spec { n, ..self }
    }

    /// The consensus builder the job calls, configured as the CLI's
    /// `aggregate` would be for this workload.
    pub fn builder(&self) -> ConsensusBuilder {
        match self.pipeline {
            Pipeline::LocalSearch => ConsensusBuilder::new()
                .algorithm(Algorithm::LocalSearch(local_search_params()))
                .refine(false),
            Pipeline::Agglomerative => ConsensusBuilder::new().refine(false),
            Pipeline::Sampling => ConsensusBuilder::new(),
        }
    }

    /// `true` when the builder will take its SAMPLING path.
    pub fn samples(&self) -> bool {
        self.pipeline == Pipeline::Sampling && self.n > SAMPLING_THRESHOLD
    }
}

/// `ConsensusBuilder`'s default sampling threshold and sample size.
pub const SAMPLING_THRESHOLD: usize = 6_000;
/// See [`SAMPLING_THRESHOLD`].
pub const SAMPLE_SIZE: usize = 1_600;

/// SplitMix64: a small, fast, fully specified generator.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`, separated from other streams by `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        SplitMix64(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..k`.
    pub fn below(&mut self, k: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(k)) >> 64) as u64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

const INPUT_SALT: u64 = 1;
const SUBSAMPLE_SALT: u64 = 2;

/// The workload's input label matrix, one column per input clustering.
pub fn generate(spec: &Spec, seed: u64) -> Vec<Vec<Option<u32>>> {
    let mut rng = SplitMix64::new(seed, INPUT_SALT);
    let truth: Vec<u32> = (0..spec.n).map(|_| rng.below(TRUTH_K) as u32).collect();
    (0..M)
        .map(|_| {
            truth
                .iter()
                .map(|&t| {
                    let label = if rng.chance(NOISE) {
                        rng.below(TRUTH_K) as u32
                    } else {
                        t
                    };
                    (!rng.chance(spec.missing)).then_some(label)
                })
                .collect()
        })
        .collect()
}

/// Render a label matrix as the CLI's CSV input: one row per object, `?`
/// for a missing label.
pub fn render_csv(columns: &[Vec<Option<u32>>]) -> String {
    let n = columns.first().map_or(0, Vec::len);
    let mut out = String::with_capacity(n * columns.len() * 3);
    for v in 0..n {
        for (i, column) in columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match column[v] {
                Some(label) => {
                    let _ = write!(out, "{label}");
                }
                None => out.push('?'),
            }
        }
        out.push('\n');
    }
    out
}

/// Sorted indices of `k` distinct objects out of `n`, drawn from `seed`.
pub fn subsample(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed, SUBSAMPLE_SALT);
    let mut pool: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = i + rng.below((n - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool.sort_unstable();
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        for spec in WORKLOADS {
            let spec = spec.with_n(2_000);
            let a = render_csv(&generate(&spec, 7));
            assert_eq!(a, render_csv(&generate(&spec, 7)), "{}", spec.name);
            assert_ne!(a, render_csv(&generate(&spec, 8)), "{}", spec.name);
        }
    }

    #[test]
    fn full_size_sampling_inputs_repeat_exactly() {
        let spec = Spec::by_name("sampling-50k").unwrap();
        let a = generate(&spec, 3);
        assert_eq!(a.len(), M);
        assert!(a.iter().all(|c| c.len() == 50_000));
        assert_eq!(a, generate(&spec, 3));
    }

    #[test]
    fn inputs_have_the_stated_shape() {
        let spec = Spec::by_name("agglo-partial-5k").unwrap();
        let columns = generate(&spec, 11);
        let cells = (M * spec.n) as f64;
        let missing = columns.iter().flatten().filter(|l| l.is_none()).count() as f64;
        assert!((missing / cells - 0.15).abs() < 0.01, "{}", missing / cells);
        assert!(columns
            .iter()
            .flatten()
            .flatten()
            .all(|&l| u64::from(l) < TRUTH_K));
        let total = generate(&Spec::by_name("ls-5k").unwrap(), 11);
        assert!(total.iter().flatten().all(Option::is_some));
    }

    #[test]
    fn subsample_is_a_pure_function_of_the_seed() {
        let a = subsample(50_000, SUBSAMPLE, 5);
        assert_eq!(a, subsample(50_000, SUBSAMPLE, 5));
        assert_ne!(a, subsample(50_000, SUBSAMPLE, 6));
        assert_eq!(a.len(), SUBSAMPLE);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&v| v < 50_000));
    }

    #[test]
    fn csv_marks_missing_labels() {
        let csv = render_csv(&[vec![Some(1), None], vec![Some(0), Some(2)]]);
        assert_eq!(csv, "1,0\n?,2\n");
    }
}
