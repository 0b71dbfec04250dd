//! # aggclust-bench
//!
//! The experiment harness: one binary per table/figure of the paper
//! (`fig3_robustness`, `fig4_correct_k`, `table2_votes`, `table3_mushrooms`,
//! `census_sampling`, `fig5_sampling`, `ablations`). This library holds
//! the shared plumbing: aligned table rendering, timing helpers, and the
//! standard algorithm roster used by the table experiments. Option parsing and the telemetry bootstrap come from
//! `aggclust-cli`, so the experiment binaries read the same flags as
//! `aggclust`.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod plot;
pub mod roster;
pub mod table;

use aggclust_baselines::kmeans::{kmeans, KMeansInit, KMeansParams};
use aggclust_cli::error::CliError;
use aggclust_core::algorithms::sampling::{sampling, SamplingDetails, SamplingParams};
use aggclust_core::algorithms::Algorithm;
use aggclust_core::clustering::Clustering;
use aggclust_core::instance::DistanceOracle;
use aggclust_core::{AggResult, RunBudget, RunCtx};
use aggclust_data::synth2d::{gaussian_with_noise, LabeledPoints};
use std::time::Instant;

/// Run `algorithm` on `oracle` under an unlimited budget. A parameter the
/// algorithm rejects ends the process the way `aggclust` does: an
/// `error:` line and exit code 2.
pub fn run<O: DistanceOracle + Sync + ?Sized>(algorithm: &Algorithm, oracle: &O) -> Clustering {
    or_exit(algorithm.run(oracle, &mut RunCtx::new(&RunBudget::unlimited()))).clustering
}

/// SAMPLING on `oracle` under an unlimited budget, with its phase details.
/// Errors end the process as in [`run`].
pub fn run_sampling<O: DistanceOracle + Sync>(
    oracle: &O,
    params: &SamplingParams,
) -> SamplingDetails {
    or_exit(sampling(
        oracle,
        params,
        &mut RunCtx::new(&RunBudget::unlimited()),
    ))
}

fn or_exit<T>(result: AggResult<T>) -> T {
    result.unwrap_or_else(|e| CliError::from(e).exit())
}

/// The Figure 4 input for `k*` = `k_star`: `k*` Gaussian clusters of 100
/// points in the unit square plus 20% uniform background noise, and the
/// nine k-means clusterings (`k = 2..10`) to aggregate.
pub fn fig4_inputs(k_star: usize, seed: u64) -> (LabeledPoints, Vec<Clustering>) {
    let data = gaussian_with_noise(k_star, 100, 0.2, 0.025, seed + k_star as u64);
    let rows = data.rows();
    // Each a single randomly seeded run (Matlab-2005 defaults, as in the
    // paper). The run-to-run variability matters: different runs merge
    // *different* cluster pairs when k < k*, so no wrong merge reaches a
    // majority.
    let inputs = (2..=10)
        .map(|k| {
            let params = KMeansParams {
                n_init: 1,
                init: KMeansInit::Random,
                ..KMeansParams::new(k, seed + k as u64)
            };
            kmeans(&rows, &params).clustering
        })
        .collect();
    (data, inputs)
}

/// Run a closure and return its result together with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}
