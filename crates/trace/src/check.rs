//! `aggclust-trace check`: schema validation of a run report and of the
//! JSONL trace beside it.
//!
//! The rules are shape rules — which keys exist, what type each value has,
//! and how values must relate — so the checker needs no copy of the metric
//! names: the core crate's golden registry test owns those. A report that
//! passes is flattened to one `path value` line per leaf
//! (`metrics.spill_tiles_read 12`, `faults.0 cli.input delay #1`), which
//! lets a CI script state a scenario's expectations as `awk` one-liners.

use crate::json::{self, Json};
use std::collections::{BTreeMap, BTreeSet};

/// SIMD dispatch tiers a report may name.
const TIERS: [&str; 6] = ["scalar", "swar", "sse2", "avx2", "avx512", "neon"];

/// Event levels a trace may carry.
const LEVELS: [&str; 5] = ["error", "warn", "info", "debug", "trace"];

/// Buckets in every histogram the main binary renders.
const HISTOGRAM_BUCKETS: usize = 9;

/// Span and event counts of a trace that passed [`check_trace`].
#[derive(Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Spans opened (each one also closed).
    pub spans: u64,
    /// One-shot events.
    pub events: u64,
}

/// Return `Err(format!(...))` from the enclosing function unless `$ok`.
macro_rules! ensure {
    ($ok:expr, $($message:tt)+) => {
        if !$ok {
            return Err(format!($($message)+));
        }
    };
}

fn uint(value: Option<&Json>) -> Option<u64> {
    value.and_then(Json::as_u64)
}

/// `Some(bucket sum)` when `value` is a histogram: nine uints.
fn histogram_sum(value: &Json) -> Option<u64> {
    let items = value.as_arr()?;
    if items.len() != HISTOGRAM_BUCKETS {
        return None;
    }
    items
        .iter()
        .try_fold(0u64, |sum, item| sum.checked_add(item.as_u64()?))
}

/// Validate a `--trace-out` JSONL stream: every line a record of a known
/// type with `ts_ns` / `tid` / `fields`; events carry a level and a
/// message; span ids are unique; every `span_end` closes an open
/// `span_start` of the same name and carries `elapsed_ns`; at least one
/// span was traced and none is left open.
pub fn check_trace(text: &str) -> Result<TraceSummary, String> {
    let mut open: BTreeMap<u64, String> = BTreeMap::new();
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut summary = TraceSummary::default();
    for (index, line) in text.lines().enumerate() {
        let at = index + 1;
        let record = json::parse(line).map_err(|e| format!("trace line {at}: invalid JSON {e}"))?;
        let text_field = |key: &str| record.get(key).and_then(Json::as_str);
        ensure!(
            uint(record.get("ts_ns")).is_some(),
            "trace line {at}: bad ts_ns"
        );
        ensure!(
            uint(record.get("tid")).is_some_and(|t| t >= 1),
            "trace line {at}: bad tid"
        );
        ensure!(
            record.get("fields").and_then(Json::as_obj).is_some(),
            "trace line {at}: bad fields"
        );
        match text_field("type") {
            Some("event") => {
                ensure!(
                    text_field("level").is_some_and(|l| LEVELS.contains(&l)),
                    "trace line {at}: bad level"
                );
                ensure!(
                    text_field("message").is_some(),
                    "trace line {at}: bad message"
                );
                summary.events += 1;
            }
            Some(kind @ ("span_start" | "span_end")) => {
                let name = text_field("span").ok_or(format!("trace line {at}: bad span"))?;
                let id = uint(record.get("id")).ok_or(format!("trace line {at}: bad id"))?;
                if kind == "span_start" {
                    ensure!(seen.insert(id), "trace line {at}: span id {id} reused");
                    open.insert(id, name.to_string());
                    summary.spans += 1;
                } else {
                    ensure!(
                        open.remove(&id).as_deref() == Some(name),
                        "trace line {at}: span_end {name:?} (id {id}) has no matching span_start"
                    );
                    ensure!(
                        uint(record.get("elapsed_ns")).is_some(),
                        "trace line {at}: bad elapsed_ns"
                    );
                }
            }
            other => return Err(format!("trace line {at}: unknown type {other:?}")),
        }
    }
    ensure!(summary.spans > 0, "trace: no spans were traced");
    let unclosed: Vec<&str> = open.values().map(String::as_str).collect();
    ensure!(
        unclosed.is_empty(),
        "trace: spans never closed: {}",
        unclosed.join(", ")
    );
    Ok(summary)
}

/// Validate an `aggclust-run-report-v1` document and return it parsed.
///
/// * the schema tag;
/// * the host block: `arch` / `os` non-empty, `cpus` ≥ 1, `features` a
///   string array, `simd_requested` a tier or `auto`, `simd_selected` a
///   tier;
/// * metrics: `kernels_dispatch_tier` is a tier equal to
///   `host.simd_selected`; `ls_improvement` is a number; every other
///   metric is a uint or a nine-bucket uint histogram;
/// * timings: per span `count` > 0, `self_ns` ≤ `total_ns`, `max_ns` ≤
///   `total_ns`, and `ns_hist` sums to `count`;
/// * faults: a string array as long as `metrics.faults_injected`.
pub fn check_report(text: &str) -> Result<Json, String> {
    let doc = json::parse(text).map_err(|e| format!("report: invalid JSON {e}"))?;
    ensure!(
        doc.get("schema").and_then(Json::as_str) == Some("aggclust-run-report-v1"),
        "report: bad schema tag"
    );

    let host = doc
        .get("host")
        .and_then(Json::as_obj)
        .ok_or("report: missing host block")?;
    let text_field = |key: &str| host.get(key).and_then(Json::as_str);
    for key in ["arch", "os"] {
        ensure!(
            text_field(key).is_some_and(|s| !s.is_empty()),
            "host: bad {key}"
        );
    }
    ensure!(
        uint(host.get("cpus")).is_some_and(|c| c >= 1),
        "host: bad cpus"
    );
    let features = host.get("features").and_then(Json::as_arr);
    ensure!(
        features.is_some_and(|f| f.iter().all(|x| x.as_str().is_some())),
        "host: bad features"
    );
    ensure!(
        text_field("simd_requested").is_some_and(|t| t == "auto" || TIERS.contains(&t)),
        "host: bad simd_requested"
    );
    let selected = text_field("simd_selected")
        .filter(|t| TIERS.contains(t))
        .ok_or("host: bad simd_selected")?;

    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("report: missing metrics block")?;
    let tier = metrics.get("kernels_dispatch_tier").and_then(Json::as_str);
    ensure!(
        tier.is_some_and(|t| TIERS.contains(&t)),
        "metrics: kernels_dispatch_tier {tier:?} is not a tier name"
    );
    ensure!(
        tier == Some(selected),
        "metrics: kernels_dispatch_tier {tier:?} != host simd_selected {selected:?}"
    );
    for (key, value) in metrics {
        let ok = match key.as_str() {
            "kernels_dispatch_tier" => true,
            "ls_improvement" => value.as_f64().is_some(),
            _ => value.as_u64().is_some() || histogram_sum(value).is_some(),
        };
        ensure!(ok, "metrics: bad value for {key}");
    }

    let timings = doc
        .get("timings")
        .and_then(Json::as_obj)
        .ok_or("report: missing timings block")?;
    for (name, span) in timings {
        let field =
            |key: &str| uint(span.get(key)).ok_or_else(|| format!("timings.{name}: bad {key}"));
        let (count, total_ns) = (field("count")?, field("total_ns")?);
        ensure!(count > 0, "timings.{name}: zero count");
        ensure!(
            field("self_ns")? <= total_ns,
            "timings.{name}: self_ns exceeds total_ns"
        );
        ensure!(
            field("max_ns")? <= total_ns,
            "timings.{name}: max_ns exceeds total_ns"
        );
        ensure!(
            span.get("ns_hist").and_then(histogram_sum) == Some(count),
            "timings.{name}: ns_hist is not nine uints summing to count"
        );
    }

    let faults = doc
        .get("faults")
        .and_then(Json::as_arr)
        .ok_or("report: missing faults array")?;
    ensure!(
        faults
            .iter()
            .all(|f| f.as_str().is_some_and(|s| !s.is_empty())),
        "faults: entries must be non-empty strings"
    );
    let injected = uint(metrics.get("faults_injected"));
    ensure!(
        injected == Some(faults.len() as u64),
        "faults: {} entries but metrics.faults_injected is {injected:?}",
        faults.len()
    );
    Ok(doc)
}

/// One `path value` line per leaf of `doc`: object keys in sorted order,
/// array elements by index (`metrics.ls_delta_hist.3 31`), strings
/// unquoted, exact integers as integers and other numbers in Rust's
/// round-trip float form (`884323.0`).
pub fn flatten(doc: &Json) -> String {
    fn walk(out: &mut String, path: &str, value: &Json) {
        let child = |key: &str| {
            if path.is_empty() {
                key.to_string()
            } else {
                format!("{path}.{key}")
            }
        };
        let leaf = match value {
            Json::Obj(map) => {
                for (key, item) in map {
                    walk(out, &child(key), item);
                }
                return;
            }
            Json::Arr(items) => {
                for (i, item) in items.iter().enumerate() {
                    walk(out, &child(&i.to_string()), item);
                }
                return;
            }
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Num(_, Some(exact)) => exact.to_string(),
            Json::Num(x, None) => format!("{x:?}"),
            Json::Str(s) => s.clone(),
        };
        out.push_str(path);
        out.push(' ');
        out.push_str(&leaf);
        out.push('\n');
    }
    let mut out = String::new();
    walk(&mut out, "", doc);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = concat!(
        r#"{"type":"span_start","ts_ns":10,"tid":1,"span":"consensus","id":1,"fields":{"n":4}}"#,
        "\n",
        r#"{"type":"event","ts_ns":11,"tid":1,"level":"info","message":"hi","fields":{}}"#,
        "\n",
        r#"{"type":"span_start","ts_ns":12,"tid":1,"span":"local_search","id":2,"fields":{}}"#,
        "\n",
        r#"{"type":"span_end","ts_ns":20,"tid":1,"span":"local_search","id":2,"elapsed_ns":8,"fields":{}}"#,
        "\n",
        r#"{"type":"span_end","ts_ns":30,"tid":1,"span":"consensus","id":1,"elapsed_ns":20,"fields":{"n":4}}"#,
        "\n",
    );

    const REPORT: &str = concat!(
        r#"{"schema":"aggclust-run-report-v1","#,
        r#""host":{"arch":"x86_64","os":"linux","cpus":2,"features":["sse2"],"#,
        r#""simd_requested":"auto","simd_selected":"swar"},"#,
        r#""timings":{"local_search":{"count":2,"total_ns":100,"self_ns":80,"max_ns":60,"#,
        r#""ns_hist":[0,0,2,0,0,0,0,0,0]}},"#,
        r#""faults":["cli.input delay #1"],"#,
        r#""metrics":{"oracle_dense_evals":42,"kernels_dispatch_tier":"swar","#,
        r#""ls_improvement":884323.0,"ls_delta_hist":[0,0,0,1,2,3,0,0,0],"faults_injected":1}}"#,
    );

    fn report_fails(from: &str, to: &str, expect: &str) {
        let doctored = REPORT.replacen(from, to, 1);
        assert_ne!(doctored, REPORT, "doctoring {from:?} changed nothing");
        let err = check_report(&doctored).expect_err("doctored report passed");
        assert!(err.contains(expect), "{err:?} does not mention {expect:?}");
    }

    #[test]
    fn well_formed_inputs_pass_and_flatten() {
        assert_eq!(
            check_trace(TRACE),
            Ok(TraceSummary {
                spans: 2,
                events: 1
            })
        );
        let flat = flatten(&check_report(REPORT).expect("valid report"));
        for line in [
            "host.simd_selected swar",
            "host.features.0 sse2",
            "metrics.oracle_dense_evals 42",
            "metrics.ls_improvement 884323.0",
            "metrics.ls_delta_hist.5 3",
            "timings.local_search.self_ns 80",
            "faults.0 cli.input delay #1",
        ] {
            assert!(
                flat.lines().any(|l| l == line),
                "missing {line:?} in\n{flat}"
            );
        }
    }

    #[test]
    fn unbalanced_span_fails() {
        let unclosed: String = TRACE.lines().take(4).map(|l| format!("{l}\n")).collect();
        assert!(check_trace(&unclosed).unwrap_err().contains("never closed"));
        let misnamed = TRACE.replace(
            r#""span":"consensus","id":1,"elapsed_ns""#,
            r#""span":"balls","id":1,"elapsed_ns""#,
        );
        assert!(check_trace(&misnamed)
            .unwrap_err()
            .contains("no matching span_start"));
        let reused = TRACE.replace(r#""id":2"#, r#""id":1"#);
        assert!(check_trace(&reused).unwrap_err().contains("reused"));
        assert!(check_trace("").unwrap_err().contains("no spans"));
        let no_elapsed = TRACE.replace(r#""elapsed_ns":8,"#, "");
        assert!(check_trace(&no_elapsed).unwrap_err().contains("elapsed_ns"));
        let bad_level = TRACE.replace(r#""level":"info""#, r#""level":"loud""#);
        assert!(check_trace(&bad_level).unwrap_err().contains("bad level"));
        let bad_tid = TRACE.replace(r#""tid":1,"level""#, r#""tid":0,"level""#);
        assert!(check_trace(&bad_tid).unwrap_err().contains("bad tid"));
    }

    #[test]
    fn bad_tier_fails() {
        report_fails(
            r#""kernels_dispatch_tier":"swar""#,
            r#""kernels_dispatch_tier":"none""#,
            "not a tier name",
        );
        report_fails(
            r#""kernels_dispatch_tier":"swar""#,
            r#""kernels_dispatch_tier":"avx2""#,
            "!= host simd_selected",
        );
        report_fails(
            r#""simd_selected":"swar""#,
            r#""simd_selected":"mmx""#,
            "simd_selected",
        );
        report_fails(r#""cpus":2"#, r#""cpus":0"#, "host: bad cpus");
        report_fails(
            r#""schema":"aggclust-run-report-v1""#,
            r#""schema":"v2""#,
            "schema",
        );
    }

    #[test]
    fn self_time_above_total_fails() {
        report_fails(
            r#""self_ns":80"#,
            r#""self_ns":101"#,
            "self_ns exceeds total_ns",
        );
        report_fails(
            r#""max_ns":60"#,
            r#""max_ns":101"#,
            "max_ns exceeds total_ns",
        );
        report_fails(r#""count":2"#, r#""count":0"#, "zero count");
    }

    #[test]
    fn histogram_sum_off_count_fails() {
        report_fails("[0,0,2,0,0,0,0,0,0]", "[0,0,1,0,0,0,0,0,0]", "ns_hist");
        report_fails("[0,0,2,0,0,0,0,0,0]", "[0,0,2,0,0,0,0,0]", "ns_hist");
    }

    #[test]
    fn faults_out_of_step_with_counter_fails() {
        report_fails(
            r#""faults_injected":1"#,
            r#""faults_injected":2"#,
            "faults:",
        );
        report_fails(r#"["cli.input delay #1"]"#, "[7]", "faults:");
        report_fails(r#""faults":["#, r#""faults_missing":["#, "missing faults");
    }

    #[test]
    fn non_uint_counter_fails() {
        report_fails(
            r#""oracle_dense_evals":42"#,
            r#""oracle_dense_evals":42.0"#,
            "oracle_dense_evals",
        );
        report_fails(
            r#""oracle_dense_evals":42"#,
            r#""oracle_dense_evals":-42"#,
            "oracle_dense_evals",
        );
        report_fails("[0,0,0,1,2,3,0,0,0]", "[0,0,0,1,2,3,0,0]", "ls_delta_hist");
        report_fails(
            r#""ls_improvement":884323.0"#,
            r#""ls_improvement":null"#,
            "ls_improvement",
        );
    }
}
