//! `aggclust-run-report-v1` ingestion and the regression diff.
//!
//! A run report is one JSON object:
//! `{"schema":"aggclust-run-report-v1","host":{...},"timings":{...},
//!   "faults":[...],"metrics":{...}}` — counters are plain numbers,
//! histograms arrays, timings per-span `{count,total_ns,self_ns,max_ns,
//! ns_hist}` objects.
//!
//! The diff compares two reports under a perf-gate policy:
//!
//! * **Counters are deterministic** for a pinned workload (same input,
//!   seed, thread count), so gated counters are compared *exactly* by
//!   default — any drift in either direction means the algorithm did
//!   different work, which is precisely what a perf gate wants to catch
//!   before wall-clock noise can hide it.
//! * **Timings are machine-dependent**, so they are gated on *self-time
//!   shares* (a span's fraction of total self time), which transfer
//!   across hosts, with a generous percentage-point tolerance; small
//!   spans below `--min-ns` are never gated (pure noise).
//! * **Nothing gated may vanish.** A gated counter or a baseline span the
//!   current report no longer carries fails the gate: a quantity that
//!   cannot be compared must not pass as unchanged.

use crate::json::{self, Json};
use std::collections::BTreeMap;

/// Per-span timing aggregate from a report's `timings` block.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Timing {
    /// Number of times the span closed.
    pub count: u64,
    /// Summed wall-clock inside the span.
    pub total_ns: u64,
    /// Summed wall-clock minus same-thread child spans.
    pub self_ns: u64,
    /// Longest single occurrence.
    pub max_ns: u64,
}

/// A parsed run report.
#[derive(Debug)]
pub struct RunReport {
    /// Scalar counters and gauges from the `metrics` block.
    pub counters: BTreeMap<String, u64>,
    /// Per-span timing aggregates from the `timings` block.
    pub timings: BTreeMap<String, Timing>,
    /// Armed-failpoint injections recorded during the run.
    pub faults: Vec<String>,
}

impl RunReport {
    /// Parse a report from its JSON text.
    pub fn parse(text: &str) -> Result<RunReport, String> {
        let doc = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        match doc.get("schema").and_then(Json::as_str) {
            Some("aggclust-run-report-v1") => {}
            Some(other) => return Err(format!("unsupported schema {other:?}")),
            None => return Err("missing \"schema\" field".to_string()),
        }
        let mut counters = BTreeMap::new();
        if let Some(metrics) = doc.get("metrics").and_then(Json::as_obj) {
            for (key, value) in metrics {
                // Histograms (arrays) are distribution data, not gate
                // material; scalars are.
                if let Some(v) = value.as_u64() {
                    counters.insert(key.clone(), v);
                }
            }
        }
        let mut timings = BTreeMap::new();
        if let Some(block) = doc.get("timings").and_then(Json::as_obj) {
            for (name, span) in block {
                let field = |k: &str| span.get(k).and_then(Json::as_u64).unwrap_or(0);
                timings.insert(
                    name.clone(),
                    Timing {
                        count: field("count"),
                        total_ns: field("total_ns"),
                        self_ns: field("self_ns"),
                        max_ns: field("max_ns"),
                    },
                );
            }
        }
        let faults = doc
            .get("faults")
            .and_then(Json::as_arr)
            .map(|items| {
                items
                    .iter()
                    .filter_map(|f| f.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default();
        Ok(RunReport {
            counters,
            timings,
            faults,
        })
    }

    /// Sum of all spans' self time — the denominator for timing shares.
    pub fn total_self_ns(&self) -> u64 {
        self.timings
            .values()
            .fold(0u64, |acc, t| acc.saturating_add(t.self_ns))
    }
}

/// Tolerances for [`diff`].
#[derive(Clone, Debug)]
pub struct DiffOptions {
    /// Allowed relative drift for gated counters, in percent (0 = exact).
    pub counter_tolerance_pct: f64,
    /// Allowed change of a span's self-time *share*, in percentage points.
    pub share_tolerance_pts: f64,
    /// Optional absolute wall-clock gate: fail when a span's `total_ns`
    /// grows by more than this percentage. Off by default — absolute time
    /// only compares within one machine.
    pub time_tolerance_pct: Option<f64>,
    /// Spans whose baseline self time is below this are never gated.
    pub min_ns: u64,
    /// Gate only these counters (`None` = every counter). A gated counter
    /// the current report lacks, or a named one the baseline lacks, fails.
    pub gate_counters: Option<Vec<String>>,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            counter_tolerance_pct: 0.0,
            share_tolerance_pts: 15.0,
            time_tolerance_pct: None,
            min_ns: 1_000_000,
            gate_counters: None,
        }
    }
}

/// The outcome of comparing two reports.
#[derive(Debug, Default)]
pub struct DiffResult {
    /// Human-readable comparison lines (all compared keys, changed first).
    pub lines: Vec<String>,
    /// One line per gated quantity outside tolerance; empty = gate passes.
    pub regressions: Vec<String>,
}

fn pct_change(before: u64, after: u64) -> f64 {
    if before == 0 {
        if after == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        100.0 * (after as f64 - before as f64) / before as f64
    }
}

/// Compare `after` against the `before` baseline under `opts`.
pub fn diff(before: &RunReport, after: &RunReport, opts: &DiffOptions) -> DiffResult {
    let mut result = DiffResult::default();

    let named = |name: &str| {
        opts.gate_counters
            .as_ref()
            .is_some_and(|list| list.iter().any(|g| g == name))
    };
    let gated = |name: &str| opts.gate_counters.is_none() || named(name);

    let mut counter_keys: Vec<&String> = before.counters.keys().collect();
    for key in after.counters.keys() {
        if !before.counters.contains_key(key) {
            counter_keys.push(key);
        }
    }
    counter_keys.sort();
    for key in counter_keys {
        let b = before.counters.get(key).copied();
        let a = after.counters.get(key).copied();
        let (b, a) = match (b, a) {
            (Some(b), Some(a)) => (b, a),
            // A gated counter the current run no longer reports, or one
            // named for gating that the baseline lacks, can no longer be
            // compared: the gate fails rather than pass unchecked. A new
            // counter that nothing gates is only reported.
            _ => {
                let side = if b.is_some() { "baseline" } else { "current" };
                result
                    .lines
                    .push(format!("counter {key}: only in {side} report"));
                if (b.is_some() && gated(key)) || named(key) {
                    result.regressions.push(format!(
                        "counter {key} is gated but only in the {side} report"
                    ));
                }
                continue;
            }
        };
        let pct = pct_change(b, a);
        if a != b {
            result
                .lines
                .push(format!("counter {key}: {b} -> {a} ({pct:+.1}%)"));
        }
        if gated(key) && pct.abs() > opts.counter_tolerance_pct {
            result.regressions.push(format!(
                "counter {key} drifted {pct:+.1}% ({b} -> {a}), tolerance {}%",
                opts.counter_tolerance_pct
            ));
        }
    }

    let before_total = before.total_self_ns().max(1);
    let after_total = after.total_self_ns().max(1);
    for (name, b) in &before.timings {
        let a = match after.timings.get(name) {
            Some(a) => *a,
            None => {
                result
                    .lines
                    .push(format!("timing {name}: missing from current report"));
                result.regressions.push(format!(
                    "timing {name}: baseline span missing from current report"
                ));
                continue;
            }
        };
        let b_share = 100.0 * b.self_ns as f64 / before_total as f64;
        let a_share = 100.0 * a.self_ns as f64 / after_total as f64;
        let share_delta = a_share - b_share;
        let time_pct = pct_change(b.total_ns, a.total_ns);
        result.lines.push(format!(
            "timing {name}: self share {b_share:.1}% -> {a_share:.1}% ({share_delta:+.1} pts), total {} -> {} ({time_pct:+.1}%)",
            crate::spans::human_ns(b.total_ns),
            crate::spans::human_ns(a.total_ns),
        ));
        // Tiny spans are timer noise; gate only what carries real time on
        // either side.
        if b.self_ns < opts.min_ns && a.self_ns < opts.min_ns {
            continue;
        }
        if share_delta > opts.share_tolerance_pts {
            result.regressions.push(format!(
                "timing {name} self share grew {share_delta:+.1} pts ({b_share:.1}% -> {a_share:.1}%), tolerance {} pts",
                opts.share_tolerance_pts
            ));
        }
        if let Some(tol) = opts.time_tolerance_pct {
            if time_pct > tol {
                result.regressions.push(format!(
                    "timing {name} total grew {time_pct:+.1}% ({} -> {}), tolerance {tol}%",
                    crate::spans::human_ns(b.total_ns),
                    crate::spans::human_ns(a.total_ns),
                ));
            }
        }
    }
    for name in after.timings.keys() {
        if !before.timings.contains_key(name) {
            result
                .lines
                .push(format!("timing {name}: new span (no baseline)"));
        }
    }

    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(counters: &[(&str, u64)], timings: &[(&str, u64, u64)]) -> RunReport {
        RunReport {
            counters: counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            timings: timings
                .iter()
                .map(|(k, total, selfv)| {
                    (
                        k.to_string(),
                        Timing {
                            count: 1,
                            total_ns: *total,
                            self_ns: *selfv,
                            max_ns: *total,
                        },
                    )
                })
                .collect(),
            faults: Vec::new(),
        }
    }

    #[test]
    fn parses_report_blocks() {
        let text = r#"{"schema":"aggclust-run-report-v1","host":{"arch":"x86_64"},
            "timings":{"balls":{"count":2,"total_ns":100,"self_ns":80,"max_ns":60,"ns_hist":[0,2]}},
            "faults":["snapshot.write torn #1"],
            "metrics":{"oracle_dense_evals":42,"checkpoint_bytes_hist":[1,2,3]}}"#;
        let r = RunReport::parse(text).unwrap();
        assert_eq!(r.counters.get("oracle_dense_evals"), Some(&42));
        assert!(
            !r.counters.contains_key("checkpoint_bytes_hist"),
            "histograms are not counters"
        );
        assert_eq!(r.timings["balls"].self_ns, 80);
        assert_eq!(r.faults, vec!["snapshot.write torn #1".to_string()]);
    }

    #[test]
    fn whole_valued_float_metric_is_not_a_counter() {
        let with_improvement = |value: &str| {
            let text = format!(
                r#"{{"schema":"aggclust-run-report-v1","metrics":{{"ls_moves":5,"ls_improvement":{value}}}}}"#
            );
            RunReport::parse(&text).unwrap()
        };
        let base = with_improvement("884323.0");
        assert_eq!(base.counters.get("ls_moves"), Some(&5));
        assert!(!base.counters.contains_key("ls_improvement"));
        for after in ["884324.0", "884323.5"] {
            let d = diff(&base, &with_improvement(after), &DiffOptions::default());
            assert!(d.regressions.is_empty(), "{after}: {:?}", d.regressions);
            assert!(d.lines.is_empty(), "{after}: {:?}", d.lines);
        }
    }

    #[test]
    fn rejects_wrong_schema() {
        assert!(RunReport::parse(r#"{"schema":"v2"}"#).is_err());
        assert!(RunReport::parse(r#"{}"#).is_err());
    }

    #[test]
    fn exact_counter_gate_trips_both_directions() {
        let before = report(&[("evals", 100)], &[]);
        let regressed = report(&[("evals", 150)], &[]);
        let improved = report(&[("evals", 50)], &[]);
        let opts = DiffOptions::default();
        assert_eq!(diff(&before, &regressed, &opts).regressions.len(), 1);
        assert_eq!(diff(&before, &improved, &opts).regressions.len(), 1);
        assert!(diff(&before, &before, &opts).regressions.is_empty());
    }

    #[test]
    fn counter_tolerance_and_gate_list() {
        let before = report(&[("evals", 100), ("retries", 2)], &[]);
        let after = report(&[("evals", 104), ("retries", 7)], &[]);
        let opts = DiffOptions {
            counter_tolerance_pct: 5.0,
            gate_counters: Some(vec!["evals".to_string()]),
            ..DiffOptions::default()
        };
        // evals drifted 4% (within 5%), retries is not gated at all.
        assert!(diff(&before, &after, &opts).regressions.is_empty());
    }

    #[test]
    fn vanished_counters_and_spans_fail_the_gate() {
        let before = report(
            &[("evals", 100), ("moves", 5)],
            &[("work", 10_000, 10_000), ("tail", 1_000, 1_000)],
        );
        let opts = DiffOptions {
            gate_counters: Some(vec!["moves".to_string(), "passes".to_string()]),
            ..DiffOptions::default()
        };
        // `moves` is gated and gone; `passes` is gated and the baseline
        // never had it; `tail` is a baseline span the current run lacks
        // (tiny spans are exempt from share gating, not from vanishing).
        let after = report(
            &[("evals", 100), ("passes", 3)],
            &[("work", 10_000, 10_000)],
        );
        let d = diff(&before, &after, &opts);
        assert_eq!(d.regressions.len(), 3, "{:?}", d.regressions);
        for name in ["moves", "passes", "tail"] {
            assert!(
                d.regressions.iter().any(|r| r.contains(name)),
                "{name}: {:?}",
                d.regressions
            );
        }
        // An ungated counter may come and go, and a new span is reported
        // without failing.
        let after = report(
            &[("moves", 5), ("fresh", 1)],
            &[
                ("work", 10_000, 10_000),
                ("tail", 1_000, 1_000),
                ("new", 1, 1),
            ],
        );
        let d = diff(&before, &after, &opts);
        assert!(d.regressions.is_empty(), "{:?}", d.regressions);
        // With no gate list every counter is gated, so a vanished one fails
        // but a new one does not.
        let after = report(
            &[("evals", 100), ("fresh", 1)],
            &[("work", 10_000, 10_000), ("tail", 1_000, 1_000)],
        );
        let d = diff(&before, &after, &DiffOptions::default());
        assert_eq!(d.regressions.len(), 1, "{:?}", d.regressions);
        assert!(d.regressions[0].contains("moves"));
    }

    #[test]
    fn share_gate_ignores_tiny_spans_and_catches_growth() {
        let before = report(
            &[],
            &[
                ("big", 50_000_000, 50_000_000),
                ("other", 50_000_000, 50_000_000),
                ("tiny", 1_000, 500),
            ],
        );
        // `big` grows from ~50% to ~90% of self time: regression. `tiny`
        // doubles but stays under min_ns, so it is never gated.
        let after = report(
            &[],
            &[
                ("big", 90_000_000, 90_000_000),
                ("other", 10_000_000, 10_000_000),
                ("tiny", 2_000, 1_000),
            ],
        );
        let opts = DiffOptions {
            share_tolerance_pts: 5.0,
            ..DiffOptions::default()
        };
        let d = diff(&before, &after, &opts);
        assert_eq!(d.regressions.len(), 1, "{:?}", d.regressions);
        assert!(d.regressions[0].contains("big"));
    }

    #[test]
    fn absolute_time_gate_is_opt_in() {
        let before = report(&[], &[("work", 100_000_000, 100_000_000)]);
        let after = report(&[], &[("work", 300_000_000, 300_000_000)]);
        let defaults = DiffOptions::default();
        assert!(
            diff(&before, &after, &defaults).regressions.is_empty(),
            "share unchanged, absolute gate off by default"
        );
        let opts = DiffOptions {
            time_tolerance_pct: Some(50.0),
            ..DiffOptions::default()
        };
        assert_eq!(diff(&before, &after, &opts).regressions.len(), 1);
    }
}
