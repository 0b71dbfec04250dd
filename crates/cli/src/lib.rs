//! Library surface of the `aggclust` CLI.
//!
//! The label-matrix CSV parser, the `--key value` option parser, the
//! exit-code error type and the telemetry bootstrap. `aggclust` and the
//! experiment binaries of `aggclust-bench` share them, so every binary
//! reads its options and reports its run the same way; integration tests
//! exercise the exact parsing code the binary runs, without shelling out.

#![warn(clippy::all)]

pub mod args;
pub mod csv;
pub mod error;
pub mod telemetry;
