//! The perf gate must be able to fail. Doctored copies of the committed
//! baseline, diffed against the undoctored one under the flags
//! `ci/perf-gate.sh` passes, must trip it; the baseline against itself
//! must pass.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_file(relative: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(relative)
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The counter list `ci/perf-gate.sh` gates, read from the script so the
/// two cannot drift apart.
fn gated_counters() -> String {
    read(&repo_file("ci/perf-gate.sh"))
        .lines()
        .find_map(|l| l.strip_prefix("GATED_COUNTERS="))
        .expect("ci/perf-gate.sh sets GATED_COUNTERS")
        .to_string()
}

/// Rewrite the integer after every `"key":` in `text` to
/// `f(owner, value)`, where `owner` names the enclosing object (the nearest
/// preceding `"owner":{`).
fn rewrite(text: &str, key: &str, f: impl Fn(&str, u64) -> u64) -> String {
    let needle = format!("\"{key}\":");
    let mut out = String::new();
    let mut rest = text;
    while let Some(at) = rest.find(&needle) {
        out.push_str(&rest[..at + needle.len()]);
        rest = &rest[at + needle.len()..];
        let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
        let value: u64 = rest[..digits].parse().expect("an integer value");
        let brace = out.rfind("\":{").expect("an enclosing object");
        let owner = &out[out[..brace].rfind('"').expect("a quoted key") + 1..brace];
        let doctored = f(owner, value);
        out.push_str(&doctored.to_string());
        rest = &rest[digits..];
    }
    out.push_str(rest);
    out
}

/// Remove the member `"key":value` from `text`, with the comma that
/// separates it from its neighbour; the value is an integer or an object.
fn drop_member(text: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle).expect("the member is present");
    let value = &text[at + needle.len()..];
    let len = if value.starts_with('{') {
        let mut depth = 0;
        value
            .char_indices()
            .find_map(|(i, c)| {
                depth += match c {
                    '{' => 1,
                    '}' => -1,
                    _ => 0,
                };
                (depth == 0).then_some(i + 1)
            })
            .expect("a closed object")
    } else {
        value.bytes().take_while(u8::is_ascii_digit).count()
    };
    let end = at + needle.len() + len;
    if text[end..].starts_with(',') {
        format!("{}{}", &text[..at], &text[end + 1..])
    } else {
        format!("{}{}", text[..at].trim_end_matches(','), &text[end..])
    }
}

/// Run the gate with `before` as the baseline and `after` as the current
/// run; returns the exit code and stdout.
fn gate(before: &Path, after: &Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_aggclust-trace"))
        .arg("diff")
        .arg("--before")
        .arg(before)
        .arg("--after")
        .arg(after)
        .args(["--gate-counters", &gated_counters()])
        .args(["--share-tolerance-pts", "25", "--min-ns", "20000000"])
        .arg("--fail-on-regression")
        .output()
        .expect("running aggclust-trace");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn doctored_baselines_trip_the_gate() {
    let baseline_path = repo_file("ci/baselines/local_search_n5000.json");
    let baseline = read(&baseline_path);
    let dir = std::env::temp_dir().join(format!("aggclust-perf-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating the temp dir");

    // The run "used to" do half the oracle work: the current run reads as
    // a 2x counter regression.
    let counter = rewrite(&baseline, "oracle_dense_evals", |_, v| v / 2);
    // Every span but local_search "used to" be 50x slower: local_search's
    // self-time share collapses in the baseline and reads as a blow-up.
    let timing = ["total_ns", "self_ns"]
        .iter()
        .fold(baseline.clone(), |text, key| {
            rewrite(
                &text,
                key,
                |span, v| if span == "local_search" { v } else { v * 50 },
            )
        });
    assert_ne!(counter, baseline);
    assert_ne!(timing, baseline);

    for (name, doctored) in [("counter", counter), ("timing", timing)] {
        let path = dir.join(format!("doctored_{name}.json"));
        std::fs::write(&path, doctored).expect("writing a doctored baseline");
        let (code, stdout) = gate(&path, &baseline_path);
        assert_eq!(code, Some(1), "{name} doctoring passed the gate:\n{stdout}");
        assert!(
            stdout.contains("REGRESSION"),
            "{name}: no REGRESSION line:\n{stdout}"
        );
    }

    let (code, stdout) = gate(&baseline_path, &baseline_path);
    assert_eq!(code, Some(0), "baseline against itself failed:\n{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_vanished_counter_or_span_trips_the_gate() {
    let baseline_path = repo_file("ci/baselines/local_search_n5000.json");
    let baseline = read(&baseline_path);
    let dir = std::env::temp_dir().join(format!(
        "aggclust-perf-gate-vanished-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("creating the temp dir");
    assert!(gated_counters().split(',').any(|c| c == "ls_moves"));
    for key in ["ls_moves", "local_search"] {
        let doctored = drop_member(&baseline, key);
        assert!(
            !doctored.contains(&format!("\"{key}\":")),
            "{key} still present"
        );
        let path = dir.join(format!("without_{key}.json"));
        std::fs::write(&path, doctored).expect("writing a doctored report");
        // Missing from the current run: it vanished. A gated counter the
        // baseline lacks fails too (the gate names what it cannot
        // compare); a span new to the current run is only reported.
        let mut cases = vec![(&baseline_path, &path)];
        if key == "ls_moves" {
            cases.push((&path, &baseline_path));
        }
        for (before, after) in cases {
            let (code, stdout) = gate(before, after);
            assert_eq!(code, Some(1), "dropping {key} passed the gate:\n{stdout}");
            assert!(
                stdout
                    .lines()
                    .any(|l| l.starts_with("REGRESSION") && l.contains(key)),
                "{key}: no REGRESSION line names it:\n{stdout}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
