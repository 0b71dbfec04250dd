//! End-to-end tests of the `aggclust` binary.

use std::fs;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_aggclust"))
}

fn tmp(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("aggclust-cli-{name}"));
    fs::write(&path, content).unwrap();
    path
}

/// The Figure-1 instance as a label matrix (columns C1, C2, C3).
const FIGURE1: &str = "0,0,0\n0,1,1\n1,0,0\n1,1,1\n2,2,2\n2,3,2\n";

#[test]
fn demo_prints_the_paper_example() {
    let out = bin().arg("demo").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("5 total disagreements"), "{stdout}");
}

#[test]
fn aggregate_finds_the_figure1_optimum() {
    let input = tmp("fig1.csv", FIGURE1);
    let out = bin()
        .args(["aggregate", "--input", input.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let labels: Vec<&str> = std::str::from_utf8(&out.stdout).unwrap().lines().collect();
    assert_eq!(labels, vec!["0", "1", "0", "1", "2", "2"]);
    fs::remove_file(input).ok();
}

#[test]
fn aggregate_accepts_many_partial_attributes() {
    // 300 columns with one missing cell: too many partial inputs for
    // u16 distance codes, so the dense matrix keeps f64 values. Every
    // column repeats the Figure-1 consensus, so that is the answer.
    let rows = ["0", "1", "0", "1", "2", "2"];
    let mut csv = String::new();
    for (v, label) in rows.iter().enumerate() {
        let cells: Vec<&str> = (0..300)
            .map(|c| if v == 0 && c == 0 { "?" } else { label })
            .collect();
        csv.push_str(&cells.join(","));
        csv.push('\n');
    }
    let input = tmp("wide.csv", &csv);
    let out = bin()
        .args(["aggregate", "--input", input.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let labels: Vec<&str> = std::str::from_utf8(&out.stdout).unwrap().lines().collect();
    assert_eq!(labels, rows);
    fs::remove_file(input).ok();
}

#[test]
fn aggregate_eval_round_trip() {
    let input = tmp("rt.csv", FIGURE1);
    let output = std::env::temp_dir().join("aggclust-cli-rt-labels.txt");
    let status = bin()
        .args([
            "aggregate",
            "--input",
            input.to_str().unwrap(),
            "--output",
            output.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    assert!(status.success());

    let out = bin()
        .args([
            "eval",
            "--input",
            input.to_str().unwrap(),
            "--candidate",
            output.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("clusters:         3"), "{stdout}");
    assert!(stdout.contains("E_D = m·d(C):     5.0"), "{stdout}");
    fs::remove_file(input).ok();
    fs::remove_file(output).ok();
}

#[test]
fn all_algorithms_run() {
    let input = tmp("algos.csv", FIGURE1);
    for algo in [
        "agglomerative",
        "balls",
        "furthest",
        "local-search",
        "pivot",
        "annealing",
    ] {
        let out = bin()
            .args([
                "aggregate",
                "--input",
                input.to_str().unwrap(),
                "--algorithm",
                algo,
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "{algo} failed");
        let lines = out.stdout.split(|&b| b == b'\n').filter(|l| !l.is_empty());
        assert_eq!(lines.count(), 6, "{algo} wrong label count");
    }
    fs::remove_file(input).ok();
}

#[test]
fn diagnose_reports_histogram() {
    let input = tmp("diag.csv", FIGURE1);
    let out = bin()
        .args(["diagnose", "--input", input.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("histogram"), "{stdout}");
    assert!(stdout.contains("outlier candidates"), "{stdout}");
    fs::remove_file(input).ok();
}

#[test]
fn missing_values_and_header_flags() {
    let input = tmp("hdr.csv", "c1,c2\n0,0\n0,?\n1,1\n1,1\n");
    let out = bin()
        .args([
            "aggregate",
            "--input",
            input.to_str().unwrap(),
            "--header",
            "--missing",
            "ignore",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{:?}", out);
    fs::remove_file(input).ok();
}

#[test]
fn unknown_command_fails_gracefully() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown command"));
}

#[test]
fn missing_input_is_an_error_not_a_panic() {
    let out = bin()
        .args(["aggregate", "--input", "/nonexistent/file.csv"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.starts_with("error:"), "{stderr}");
}

#[test]
fn sampled_aggregation_runs() {
    // Repeat the figure-1 rows to get a bigger instance and force sampling.
    let mut big = String::new();
    for _ in 0..40 {
        big.push_str(FIGURE1);
    }
    let input = tmp("big.csv", &big);
    let out = bin()
        .args([
            "aggregate",
            "--input",
            input.to_str().unwrap(),
            "--sample",
            "60",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("(sampled)"), "{stderr}");
    fs::remove_file(input).ok();
}

#[test]
fn help_documents_exit_codes_and_budget_flags() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("EXIT CODES"), "{stdout}");
    assert!(stdout.contains("--deadline-ms"), "{stdout}");
    assert!(stdout.contains("--max-iters"), "{stdout}");
}

#[test]
fn exit_code_2_on_usage_errors() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin().args(["aggregate"]).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "--input missing should be usage"
    );
    let input = tmp("usage.csv", FIGURE1);
    let out = bin()
        .args([
            "aggregate",
            "--input",
            input.to_str().unwrap(),
            "--algorithm",
            "quantum",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .args([
            "aggregate",
            "--input",
            input.to_str().unwrap(),
            "--separator",
            "ab",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    fs::remove_file(input).ok();
}

#[test]
fn exit_code_3_on_io_errors() {
    let out = bin()
        .args(["aggregate", "--input", "/nonexistent/file.csv"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn exit_code_4_on_parse_errors_with_line_and_column() {
    let input = tmp("ragged.csv", "0,1\n0\n1,1\n");
    let out = bin()
        .args(["aggregate", "--input", input.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("line 2, column 2"), "{stderr}");
    fs::remove_file(input).ok();
}

#[test]
fn exit_code_5_on_mismatched_candidate() {
    let input = tmp("ev5.csv", FIGURE1);
    let cand = tmp("ev5-cand.txt", "0\n1\n");
    let out = bin()
        .args([
            "eval",
            "--input",
            input.to_str().unwrap(),
            "--candidate",
            cand.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(5));
    fs::remove_file(input).ok();
    fs::remove_file(cand).ok();
}

#[test]
fn exit_code_6_on_degenerate_all_missing_input() {
    let input = tmp("allmiss.csv", "?,?\n?,?\n?,?\n");
    let out = bin()
        .args(["aggregate", "--input", input.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(6));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("error: degenerate input"), "{stderr}");
    fs::remove_file(input).ok();
}

#[test]
fn exit_code_7_still_writes_anytime_labels() {
    let input = tmp("budget7.csv", FIGURE1);
    let out = bin()
        .args([
            "aggregate",
            "--input",
            input.to_str().unwrap(),
            "--max-iters",
            "0",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(7), "{:?}", out);
    // Anytime contract: a valid labeling is still written for all 6 objects.
    let labels: Vec<&str> = std::str::from_utf8(&out.stdout).unwrap().lines().collect();
    assert_eq!(labels.len(), 6);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("warning:"), "{stderr}");
    fs::remove_file(input).ok();
}

#[test]
fn unlimited_budget_flags_preserve_the_optimum() {
    let input = tmp("budget-ok.csv", FIGURE1);
    let out = bin()
        .args([
            "aggregate",
            "--input",
            input.to_str().unwrap(),
            "--deadline-ms",
            "60000",
            "--max-iters",
            "1000000",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{:?}", out);
    let labels: Vec<&str> = std::str::from_utf8(&out.stdout).unwrap().lines().collect();
    assert_eq!(labels, vec!["0", "1", "0", "1", "2", "2"]);
    fs::remove_file(input).ok();
}

/// Deterministic label matrix with planted blocks plus disagreement — big
/// enough that LOCALSEARCH needs several passes.
fn planted_csv(n: usize, k: usize) -> String {
    let mut csv = String::new();
    for v in 0..n {
        let base = v % k;
        let b = (base + usize::from(v % 5 == 0)) % k;
        let c = (base + usize::from(v % 7 == 0)) % k;
        csv.push_str(&format!("{base},{b},{c}\n"));
    }
    csv
}

/// The tentpole acceptance path: SIGKILL a checkpointing run mid-flight,
/// resume from the checkpoint, and get bit-identical labels and cost to the
/// same run left uninterrupted.
#[cfg(unix)]
#[test]
fn sigkill_and_resume_is_bit_identical() {
    let input = tmp("kill.csv", &planted_csv(1500, 9));
    let dir = std::env::temp_dir();
    let ckpt = dir.join("aggclust-cli-kill.ckpt");
    let ref_out = dir.join("aggclust-cli-kill-ref.txt");
    let res_out = dir.join("aggclust-cli-kill-res.txt");
    let victim_out = dir.join("aggclust-cli-kill-victim.txt");
    fs::remove_file(&ckpt).ok();

    let base_args = |out: &std::path::Path| {
        vec![
            "aggregate".to_string(),
            "--input".to_string(),
            input.to_str().unwrap().to_string(),
            "--algorithm".to_string(),
            "local-search".to_string(),
            "--no-refine".to_string(),
            "--output".to_string(),
            out.to_str().unwrap().to_string(),
        ]
    };

    // Reference: the same run, uninterrupted, no checkpointing.
    let reference = bin().args(base_args(&ref_out)).output().unwrap();
    assert!(reference.status.success(), "{reference:?}");

    // Victim: checkpointing every 5 ms, killed hard (SIGKILL — no handler
    // can run, exactly like a crash or OOM kill).
    let mut victim = bin()
        .args(base_args(&victim_out))
        .args(["--checkpoint", ckpt.to_str().unwrap()])
        .args(["--checkpoint-every-ms", "5"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(150));
    if victim.try_wait().unwrap().is_none() {
        victim.kill().unwrap(); // SIGKILL on unix
    }
    victim.wait().unwrap();

    // Resume. If the kill landed before the first checkpoint the CLI warns
    // and starts fresh — the final labels must be identical either way.
    let resumed = bin()
        .args(base_args(&res_out))
        .args(["--checkpoint", ckpt.to_str().unwrap()])
        .args(["--resume"])
        .output()
        .unwrap();
    assert!(resumed.status.success(), "{resumed:?}");
    assert_eq!(
        fs::read(&ref_out).unwrap(),
        fs::read(&res_out).unwrap(),
        "resumed labels differ from uninterrupted labels"
    );
    // Bit-identical cost too: both summaries print "(cost X, lower bound Y)".
    let cost_of = |stderr: &[u8]| {
        let text = String::from_utf8_lossy(stderr).to_string();
        let at = text
            .find("(cost ")
            .unwrap_or_else(|| panic!("no cost in {text}"));
        text[at..].split(')').next().unwrap().to_string()
    };
    assert_eq!(cost_of(&reference.stderr), cost_of(&resumed.stderr));
    // Converged success removes the checkpoint.
    assert!(!ckpt.exists(), "checkpoint survived a converged run");
    for p in [&input, &ref_out, &res_out, &victim_out] {
        fs::remove_file(p).ok();
    }
}

#[test]
fn interrupted_run_leaves_a_checkpoint_and_resume_completes() {
    // Deterministic interrupt (iteration cap) instead of timing: exit 7
    // leaves a resumable checkpoint behind; --resume finishes the job and
    // matches the uninterrupted run exactly.
    let input = tmp("ckpt7.csv", &planted_csv(400, 7));
    let dir = std::env::temp_dir();
    let ckpt = dir.join("aggclust-cli-ckpt7.ckpt");
    let ref_out = dir.join("aggclust-cli-ckpt7-ref.txt");
    let res_out = dir.join("aggclust-cli-ckpt7-res.txt");
    fs::remove_file(&ckpt).ok();

    let run = |extra: &[&str], out: &std::path::Path| {
        let mut args = vec![
            "aggregate",
            "--input",
            input.to_str().unwrap(),
            "--algorithm",
            "local-search",
            "--no-refine",
        ];
        args.extend_from_slice(extra);
        let out_s = out.to_str().unwrap();
        args.extend_from_slice(&["--output", out_s]);
        bin().args(&args).output().unwrap()
    };

    let reference = run(&[], &ref_out);
    assert!(reference.status.success());

    let capped = run(
        &[
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--checkpoint-every-ms",
            "0",
            "--max-iters",
            "500",
        ],
        &res_out,
    );
    assert_eq!(capped.status.code(), Some(7), "{capped:?}");
    assert!(ckpt.exists(), "interrupted run left no checkpoint");

    let resumed = run(
        &["--checkpoint", ckpt.to_str().unwrap(), "--resume"],
        &res_out,
    );
    assert!(resumed.status.success(), "{resumed:?}");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(stderr.contains("resuming from checkpoint"), "{stderr}");
    assert_eq!(fs::read(&ref_out).unwrap(), fs::read(&res_out).unwrap());
    assert!(!ckpt.exists());
    for p in [&input, &ref_out, &res_out] {
        fs::remove_file(p).ok();
    }
}

#[test]
fn corrupt_checkpoint_warns_and_starts_fresh() {
    let input = tmp("corrupt-ck.csv", &planted_csv(120, 5));
    let ckpt = std::env::temp_dir().join("aggclust-cli-corrupt.ckpt");
    fs::write(&ckpt, b"garbage, not a snapshot").unwrap();
    let out = bin()
        .args([
            "aggregate",
            "--input",
            input.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--resume",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unusable") && stderr.contains("starting fresh"),
        "{stderr}"
    );
    fs::remove_file(input).ok();
    fs::remove_file(ckpt).ok();
}

#[test]
fn resume_without_checkpoint_is_a_usage_error() {
    let input = tmp("resume-usage.csv", FIGURE1);
    let out = bin()
        .args(["aggregate", "--input", input.to_str().unwrap(), "--resume"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    fs::remove_file(input).ok();
}

#[test]
fn mem_budget_degrades_to_the_lazy_oracle_with_identical_labels() {
    // n = 800: the dense matrix needs 800²·2 ≈ 1.3 MB of u16 codes, over
    // a 1 MB cap. The run must complete through the lazy oracle, warn, and
    // produce exactly the labels of the uncapped run.
    let input = tmp("mem.csv", &planted_csv(800, 8));
    let run = |extra: &[&str]| {
        let mut args = vec![
            "aggregate",
            "--input",
            input.to_str().unwrap(),
            "--algorithm",
            "local-search",
        ];
        args.extend_from_slice(extra);
        bin().args(&args).output().unwrap()
    };
    let unlimited = run(&[]);
    assert!(unlimited.status.success());
    let capped = run(&["--mem-budget-mb", "1"]);
    assert!(capped.status.success(), "{capped:?}");
    let stderr = String::from_utf8_lossy(&capped.stderr);
    assert!(stderr.contains("lazy oracle"), "{stderr}");
    assert_eq!(unlimited.stdout, capped.stdout);
    fs::remove_file(input).ok();
}

#[test]
fn mem_budget_degrades_agglomerative_to_sampling() {
    // n = 800: as above, the ≈ 1.3 MB dense matrix is over the 1 MB cap.
    let input = tmp("mem-agg.csv", &planted_csv(800, 8));
    let out = bin()
        .args([
            "aggregate",
            "--input",
            input.to_str().unwrap(),
            "--mem-budget-mb",
            "1",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("degrading to SAMPLING"), "{stderr}");
    assert!(stderr.contains("(sampled)"), "{stderr}");
    fs::remove_file(input).ok();
}

#[test]
fn coin_probability_is_validated_at_the_flag() {
    let input = tmp("coinp.csv", "0,0\n0,?\n1,1\n1,1\n");
    for (spec, want) in [
        ("coin:0.3", Some(0)),
        ("coin:1.5", Some(2)),
        ("coin:-0.1", Some(2)),
        ("coin:nan", Some(2)),
        ("coin:abc", Some(2)),
        ("dice", Some(2)),
    ] {
        let out = bin()
            .args([
                "aggregate",
                "--input",
                input.to_str().unwrap(),
                "--missing",
                spec,
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), want, "--missing {spec}: {out:?}");
    }
    fs::remove_file(input).ok();
}

#[test]
fn thread_count_does_not_change_the_labels() {
    let input = tmp("threads.csv", &planted_csv(300, 6));
    let run = |threads: &str| {
        let out = bin()
            .args([
                "aggregate",
                "--input",
                input.to_str().unwrap(),
                "--threads",
                threads,
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "--threads {threads}: {out:?}");
        out.stdout
    };
    let single = run("1");
    assert_eq!(single, run("2"));
    assert_eq!(single, run("8"));
    fs::remove_file(input).ok();
}

#[test]
fn help_documents_the_robustness_flags() {
    let out = bin().arg("help").output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    for flag in [
        "--checkpoint PATH",
        "--checkpoint-every-ms",
        "--resume",
        "--mem-budget-mb",
        "--threads",
        "coin:P",
    ] {
        assert!(stdout.contains(flag), "help is missing {flag}");
    }
    assert!(stdout.contains("9   memory budget exceeded"), "{stdout}");
}

#[test]
fn exact_flag_solves_small_instances() {
    let input = tmp("exact.csv", FIGURE1);
    let out = bin()
        .args(["aggregate", "--input", input.to_str().unwrap(), "--exact"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{:?}", out);
    let labels: Vec<&str> = std::str::from_utf8(&out.stdout).unwrap().lines().collect();
    assert_eq!(labels, vec!["0", "1", "0", "1", "2", "2"]);
    fs::remove_file(input).ok();
}
