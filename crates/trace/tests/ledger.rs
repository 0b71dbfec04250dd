//! The committed performance ledger, `BENCH_layers.json` (written by
//! `ci/layers.sh`), must hold a checked run of every benchmark workload,
//! each with the host block that produced it, and the per-layer metrics
//! the documentation cites from its traced rows.

use aggclust_trace::json::{self, Json};
use std::path::Path;

const WORKLOADS: [&str; 3] = ["ls-5k", "agglo-partial-5k", "sampling-50k"];

/// Metrics every `--trace 1` row must carry.
const LAYER_METRICS: [&str; 4] = [
    "instance.ns_per_pair",
    "local_search.time_s",
    "parallel.build_speedup",
    "trace.overhead_ratio",
];

/// The value at `path` below `doc`, one object key per step.
fn at<'a>(doc: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(doc, |j, key| j.get(key))
}

#[test]
fn every_row_is_a_checked_run_with_its_host() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_layers.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("BENCH_layers.json: {e}"));
    let rows = doc.as_arr().expect("the ledger is an array of rows");

    for workload in WORKLOADS {
        for trace in [false, true] {
            let found = rows.iter().any(|row| {
                at(row, &["context", "workload"]).and_then(Json::as_str) == Some(workload)
                    && at(row, &["context", "trace"]) == Some(&Json::Bool(trace))
            });
            assert!(found, "{workload}: no row with trace {trace}");
        }
    }
    for (i, row) in rows.iter().enumerate() {
        let selected = at(row, &["context", "host", "simd_selected"]).and_then(Json::as_str);
        assert!(selected.is_some(), "row {i}: no host.simd_selected");
        let correct = at(row, &["result", "correct"]);
        assert_eq!(correct, Some(&Json::Bool(true)), "row {i}");
        let failed = at(row, &["result", "failed"]).and_then(Json::as_u64);
        assert_eq!(failed, Some(0), "row {i}");
        if at(row, &["context", "trace"]) == Some(&Json::Bool(true)) {
            for name in LAYER_METRICS {
                let metric = at(row, &["result", "metrics", name]);
                assert!(metric.is_some(), "row {i}: no {name}");
            }
        }
    }
}
