//! # aggclust-bench
//!
//! The experiment harness: one binary per table/figure of the paper
//! (`fig3_robustness`, `fig4_correct_k`, `table2_votes`, `table3_mushrooms`,
//! `census_sampling`, `fig5_sampling`, `ablations`) plus Criterion
//! micro-benchmarks. This library holds the shared plumbing: aligned table
//! rendering, timing helpers, and the standard algorithm roster used by the
//! table experiments. Option parsing and the telemetry bootstrap come from
//! `aggclust-cli`, so the experiment binaries read the same flags as
//! `aggclust`.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod plot;
pub mod roster;
pub mod table;

use std::time::Instant;

/// Run a closure and return its result together with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}
