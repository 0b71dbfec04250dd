//! The JSON parser behind the `aggclust-trace` tool, shared with the
//! tests that read the repository's committed JSON records.

pub mod json;
