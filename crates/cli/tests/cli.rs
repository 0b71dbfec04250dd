//! End-to-end tests of the `aggclust` binary.

use aggclust_core::instance::{CorrelationInstance, MissingPolicy};
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

/// `eval` prices a candidate on the lazy oracle and prints the numbers the
/// dense matrix gives, for total inputs, `Coin(½)` with missing labels
/// (exact integers over the scale) and `Ignore` with missing labels (one
/// `f64` pass with the bits of the dense matrix's two).
#[test]
fn eval_prints_the_dense_price_under_every_policy() {
    use aggclust_core::cost::{correlation_cost, lower_bound};
    use aggclust_core::instance::{CorrelationInstance, MissingPolicy};
    // 300 objects, 44 850 pairs: several chunks of the pair pass.
    let n = 300u32;
    let row = |v: u32, missing: bool| -> String {
        (0..5u32)
            .map(|j| {
                if missing && v % (4 + j) == 1 {
                    "?".to_string()
                } else {
                    ((v * (j + 2) / 9 + u32::from(v.is_multiple_of(5 + j))) % 7).to_string()
                }
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    let labels: String = (0..n).map(|v| format!("{}\n", v % 7)).collect();
    let candidate = tmp("eval-candidate.txt", &labels);
    let cases = [
        ("total", false, "coin", MissingPolicy::Coin(0.5)),
        ("coin", true, "coin", MissingPolicy::Coin(0.5)),
        ("ignore", true, "ignore", MissingPolicy::Ignore),
    ];
    for (name, missing, flag, policy) in cases {
        let csv: String = (0..n).map(|v| row(v, missing) + "\n").collect();
        let input = tmp(&format!("eval-{name}.csv"), &csv);
        let out = bin()
            .args(["eval", "--input", input.to_str().unwrap()])
            .args([
                "--candidate",
                candidate.to_str().unwrap(),
                "--missing",
                flag,
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "{name}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let inputs = aggclust_cli::csv::parse_label_matrix(&csv, ',', false).unwrap();
        let m = inputs.len() as f64;
        let dense = CorrelationInstance::try_from_partial(inputs, policy)
            .unwrap()
            .dense_oracle();
        let c = aggclust_core::Clustering::from_labels((0..n).map(|v| v % 7).collect());
        let (cost, lb) = (correlation_cost(&dense, &c), lower_bound(&dense));
        for line in [
            format!("cost d(C):        {cost:.4}"),
            format!("lower bound:      {lb:.4}"),
            format!("gap to bound:     {:.2}%", 100.0 * (cost - lb) / lb),
            format!("E_D = m·d(C):     {:.1}", cost * m),
        ] {
            assert!(stdout.contains(&line), "{name}: {line:?} not in {stdout}");
        }
        fs::remove_file(input).ok();
    }
    fs::remove_file(candidate).ok();
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
fn flags_the_command_does_not_take_are_usage_errors() {
    let input = tmp("unknown-flag.csv", FIGURE1);
    let input = input.to_str().unwrap();
    for args in [
        vec!["aggregate", "--input", input, "--bogus-flag", "x"],
        vec!["aggregate", "--input", input, "--spill-dir", "tiles"],
        vec![
            "eval",
            "--input",
            input,
            "--candidate",
            input,
            "--output",
            "x",
        ],
        vec!["diagnose", "--input", input, "--seed", "3"],
        vec!["demo", "--input", input],
    ] {
        let out = bin().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let flag = args[args.len() - 2];
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
    fs::remove_file(input).ok();
}

/// The `--flag` names `aggclust help` lists under the section headed
/// `heading`, in order.
fn help_options(heading: &str) -> Vec<String> {
    let out = bin().arg("help").output().unwrap();
    let help = String::from_utf8(out.stdout).unwrap();
    let section = help
        .split("\n\n")
        .find(|s| s.starts_with(heading))
        .unwrap_or_else(|| panic!("help has no {heading} section"));
    section
        .lines()
        .filter_map(|line| line.strip_prefix("    --"))
        .map(|rest| rest.split_whitespace().next().unwrap().to_string())
        .collect()
}

#[test]
fn every_option_help_lists_is_taken_by_its_command() {
    let input = tmp("listed-flags.csv", FIGURE1);
    let input = input.to_str().unwrap();
    let common = help_options("COMMON OPTIONS:");
    let aggregate = help_options("AGGREGATE OPTIONS:");
    let eval = help_options("EVAL OPTIONS:");
    assert!(
        common.len() >= 10 && aggregate.len() >= 10,
        "{common:?} {aggregate:?}"
    );
    assert_eq!(eval, ["candidate"]);
    let refused = |base: &[&str], flag: &str| {
        // Bare flags keep this independent of each option's value syntax:
        // the run may still fail, but never because the flag is unknown.
        let out = bin().args(base).arg(format!("--{flag}")).output().unwrap();
        String::from_utf8_lossy(&out.stderr).contains("does not take")
    };
    let aggregate_base = ["aggregate", "--input", input, "--output", "/dev/null"];
    let eval_base = ["eval", "--input", input, "--candidate", input];
    assert!(
        refused(&aggregate_base, "bogus"),
        "the probe must see refusals"
    );
    for flag in common.iter().chain(&aggregate) {
        assert!(
            !refused(&aggregate_base, flag),
            "aggregate refuses --{flag}"
        );
    }
    for flag in common.iter().chain(&eval) {
        assert!(!refused(&eval_base, flag), "eval refuses --{flag}");
    }
    fs::remove_file(input).ok();
}

#[test]
fn a_refused_flag_stops_the_run_before_it_writes_anything() {
    let input = tmp("refused-before-write.csv", FIGURE1);
    let output = std::env::temp_dir().join("aggclust-cli-refused-labels.txt");
    let checkpoint = std::env::temp_dir().join("aggclust-cli-refused.ckpt");
    fs::remove_file(&output).ok();
    fs::remove_file(&checkpoint).ok();
    let out = bin()
        .args(["aggregate", "--input", input.to_str().unwrap(), "--output"])
        .arg(&output)
        .arg("--checkpoint")
        .arg(&checkpoint)
        .args(["--spill-dir", "tiles"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--spill-dir"));
    assert!(!output.exists(), "labels were written");
    assert!(!checkpoint.exists(), "a checkpoint was written");
    assert!(!std::path::Path::new("tiles").exists());
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

/// `metrics.mem_high_water_bytes` of a `--metrics-out` run report.
fn high_water(report: &str) -> u64 {
    let key = "\"mem_high_water_bytes\":";
    let at = report.find(key).expect("report carries the high-water") + key.len();
    let digits: String = report[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

#[test]
fn diagnose_builds_its_matrix_under_the_memory_cap() {
    // n = 800: the dense matrix needs 800²·2 ≈ 1.3 MB of u16 codes. The
    // uncapped run charges exactly what the governed build reserves; a
    // 1 MB cap refuses it, and the instance itself answers with the same
    // numbers.
    let csv = planted_csv(800, 8);
    let input = tmp("diag-mem.csv", &csv);
    let run = |tag: &str, extra: &[&str]| {
        let report = std::env::temp_dir().join(format!("aggclust-cli-diag-mem-{tag}.json"));
        let mut args = vec![
            "diagnose",
            "--input",
            input.to_str().unwrap(),
            "--metrics-out",
            report.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        let out = bin().args(&args).output().unwrap();
        assert!(out.status.success(), "{extra:?}: {out:?}");
        let water = high_water(&fs::read_to_string(&report).unwrap());
        fs::remove_file(report).ok();
        (out, water)
    };
    let inputs = aggclust_cli::csv::parse_label_matrix(&csv, ',', false).unwrap();
    let instance = CorrelationInstance::try_from_partial(inputs, MissingPolicy::default()).unwrap();
    // The matrix and its code table, and the packed labels its fill reads.
    let charged = instance.dense_bytes() + instance.packed_bytes();
    let (uncapped, water) = run("uncapped", &[]);
    assert_eq!(water, charged);
    let (capped, water) = run("capped", &["--mem-budget-mb", "1"]);
    assert!(water <= 1 << 20, "high-water {water} over the 1 MB cap");
    let stderr = String::from_utf8_lossy(&capped.stderr);
    assert!(stderr.contains("lazy oracle"), "{stderr}");
    assert_eq!(capped.stdout, uncapped.stdout);
    fs::remove_file(input).ok();
}

#[test]
fn mem_budget_labels_do_not_depend_on_the_thread_count() {
    // The lazy-oracle path of a capped run writes the uncapped labels
    // byte for byte at every thread count.
    let input = tmp("mem-threads.csv", &planted_csv(800, 8));
    let run = |extra: &[&str]| {
        let mut args = vec![
            "aggregate",
            "--input",
            input.to_str().unwrap(),
            "--algorithm",
            "balls",
        ];
        args.extend_from_slice(extra);
        let out = bin().args(&args).output().unwrap();
        assert!(out.status.success(), "{extra:?}: {out:?}");
        out
    };
    let uncapped = run(&[]).stdout;
    for threads in ["1", "2", "4"] {
        let capped = run(&["--mem-budget-mb", "1", "--threads", threads]);
        let stderr = String::from_utf8_lossy(&capped.stderr);
        assert!(
            stderr.contains("lazy oracle"),
            "--threads {threads}: {stderr}"
        );
        assert_eq!(capped.stdout, uncapped, "--threads {threads}");
    }
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
fn balls_alpha_outside_the_unit_interval_is_a_usage_error() {
    let input = tmp("alpha.csv", FIGURE1);
    for (alpha, want) in [
        ("0.25", Some(0)),
        ("2", Some(2)),
        ("nan", Some(2)),
        ("-0.5", Some(2)),
    ] {
        let out = bin()
            .args(["aggregate", "--input", input.to_str().unwrap()])
            .args(["--algorithm", "balls", "--alpha", alpha])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), want, "--alpha {alpha}: {stderr}");
        assert!(!stderr.contains("panicked"), "--alpha {alpha}: {stderr}");
        if want == Some(2) {
            assert!(stderr.contains("alpha"), "--alpha {alpha}: {stderr}");
        }
    }
    fs::remove_file(input).ok();
    // The flag is checked before the input is read: a bad α on a missing
    // file is a usage error about α, not an I/O error.
    let out = bin()
        .args(["aggregate", "--input", "/nonexistent/aggclust-alpha.csv"])
        .args(["--algorithm", "balls", "--alpha", "2"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("alpha"), "{stderr}");
    assert!(!stderr.contains("reading"), "{stderr}");
}

#[test]
fn a_retired_simd_tier_name_falls_back_to_detection() {
    use aggclust_core::kernels::dispatch::{reachable_tiers, Tier, ALL_TIERS};
    let input = tmp("simd.csv", FIGURE1);
    let report = std::env::temp_dir().join("aggclust-cli-simd-report.json");
    let trace = std::env::temp_dir().join("aggclust-cli-simd-trace.jsonl");
    let out = bin()
        .env("AGGCLUST_SIMD", "avx512")
        .args(["aggregate", "--input", input.to_str().unwrap()])
        .args(["--metrics-out", report.to_str().unwrap()])
        .args(["--trace-out", trace.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let names = ALL_TIERS.map(Tier::name).join("|");
    assert!(
        stderr.contains(&format!(
            "warning: unknown AGGCLUST_SIMD value; expected auto|{names}"
        )),
        "{stderr}"
    );
    // The warning event keeps the raw value.
    let events = fs::read_to_string(&trace).unwrap();
    assert!(events.contains(r#""requested":"avx512""#), "{events}");
    let json = fs::read_to_string(&report).unwrap();
    // The run honoured detection, so the report says `auto`, which
    // `aggclust-trace check` accepts.
    assert!(json.contains(r#""simd_requested":"auto""#), "{json}");
    let selected = json
        .split("\"simd_selected\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap();
    assert!(
        reachable_tiers().iter().any(|t| t.name() == selected),
        "{selected} in {json}"
    );
    fs::remove_file(input).ok();
    fs::remove_file(report).ok();
    fs::remove_file(trace).ok();
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

#[test]
fn a_mistyped_aggclust_log_is_a_usage_error_unless_the_flag_wins() {
    let input = tmp("log-env.csv", FIGURE1);
    let run = |extra: &[&str]| {
        bin()
            .env("AGGCLUST_LOG", "loud")
            .args(["aggregate", "--input", input.to_str().unwrap()])
            .args(extra)
            .output()
            .unwrap()
    };
    let out = run(&[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("AGGCLUST_LOG"), "{stderr}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let out = run(&["--log-level", "warn"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    fs::remove_file(input).ok();
}

/// One warning under `--log-level trace --trace-out`, with and without
/// `--progress`: the stderr log, the JSONL trace and the heartbeat lines
/// are all rendered by the one installed collector.
#[test]
fn trace_level_logs_spans_and_the_trace_pairs_them() {
    let input = tmp("trace-level.csv", &planted_csv(300, 6));
    let trace = std::env::temp_dir().join("aggclust-cli-trace-level.jsonl");
    for progress in [false, true] {
        let mut cmd = bin();
        cmd.env("AGGCLUST_SIMD", "avx512")
            .args(["aggregate", "--input", input.to_str().unwrap()])
            .args([
                "--log-level",
                "trace",
                "--trace-out",
                trace.to_str().unwrap(),
            ]);
        if progress {
            cmd.arg("--progress");
        }
        let out = cmd.output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(0),
            "--progress {progress}: {stderr}"
        );
        let lines: Vec<&str> = stderr.lines().collect();
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with("[trace] span consensus opened [n=300 ")),
            "{stderr}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with("[debug] span consensus closed in ")
                    && l.contains(" ms [n=300 ")),
            "{stderr}"
        );
        let warnings = lines
            .iter()
            .filter(|l| l.starts_with("warning: unknown AGGCLUST_SIMD value"))
            .count();
        assert_eq!(warnings, 1, "{stderr}");

        let records = fs::read_to_string(&trace).unwrap();
        let warn_events = records
            .lines()
            .filter(|r| {
                r.starts_with(r#"{"type":"event","#)
                    && r.contains(r#""level":"warn","message":"unknown AGGCLUST_SIMD value"#)
            })
            .count();
        assert_eq!(warn_events, 1, "{records}");
        let ids = |kind: &str| {
            let mut ids: Vec<u64> = records
                .lines()
                .filter(|r| r.starts_with(&format!(r#"{{"type":"{kind}","#)))
                .map(|r| {
                    let rest = r.split(r#","id":"#).nth(1).unwrap();
                    rest.split(',').next().unwrap().parse().unwrap()
                })
                .collect();
            ids.sort_unstable();
            ids
        };
        let starts = ids("span_start");
        assert!(!starts.is_empty(), "{records}");
        assert_eq!(starts, ids("span_end"), "{records}");
    }
    fs::remove_file(input).ok();
    fs::remove_file(trace).ok();
}

#[test]
fn a_fault_plan_reaches_the_trace_file() {
    let input = tmp("trace-fault.csv", FIGURE1);
    let trace = std::env::temp_dir().join("aggclust-cli-trace-fault.jsonl");
    let out = bin()
        .args(["aggregate", "--input", input.to_str().unwrap()])
        .args(["--trace-out", trace.to_str().unwrap()])
        .args(["--fault-plan", "trace.create=io_error"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("creating trace file"), "{stderr}");
    assert!(out.stdout.is_empty(), "{out:?}");
    fs::remove_file(input).ok();
    fs::remove_file(trace).ok();
}
