//! Reproduces **Figure 5** of the paper — the SAMPLING scalability
//! experiments.
//!
//! * `--part mushrooms` (Fig 5 left & middle): on the Mushrooms dataset,
//!   sweep the sample size and report the SAMPLING running time as a
//!   fraction of the non-sampling run, together with the classification
//!   error. Paper shape: at sample 1600 the time fraction drops below 50%
//!   while `E_C` matches the non-sampling algorithms; the number of
//!   clusters found in the sample stays ≈ 10.
//! * `--part scale` (Fig 5 right): generate 5 Gaussian clusters + 20%
//!   uniform noise at n ∈ {50K, 100K, 200K} (add 500K and 1M with
//!   `--full`), cluster with k-means for k = 2..10, aggregate with
//!   SAMPLING (sample 1000) and report the wall-clock time in ms, the
//!   assignment phase's share separately. Paper shape: linear in n,
//!   dominated by the assignment phase.
//!
//! ```text
//! cargo run --release -p aggclust-bench --bin fig5_sampling -- \
//!     [--part mushrooms|scale|all] [--seed N] [--full] [--scale-rows N]
//! ```

use aggclust_baselines::kmeans::{kmeans, KMeansParams};
use aggclust_bench::roster::CategoricalExperiment;
use aggclust_bench::table::{fmt_f, Table};
use aggclust_bench::{run, run_sampling, timed};
use aggclust_cli::args::Args;
use aggclust_core::algorithms::sampling::SamplingParams;
use aggclust_core::algorithms::{AgglomerativeParams, Algorithm};
use aggclust_core::clustering::Clustering;
use aggclust_core::instance::{CorrelationInstance, DistanceOracle};
use aggclust_data::presets::mushrooms_like;
use aggclust_data::synth2d::gaussian_with_noise;
use aggclust_metrics::classification_error;

fn main() {
    let args = Args::from_env();
    let _telemetry = aggclust_cli::telemetry::init(&args).unwrap_or_else(|e| e.exit());
    let part = args.get("part").unwrap_or("all").to_string();
    let seed = args.get_or("seed", 1u64);

    if part == "mushrooms" || part == "all" {
        mushrooms_part(&args, seed);
    }
    if part == "scale" || part == "all" {
        scale_part(&args, seed);
    }
}

/// Figure 5 left & middle: time fraction and E_C vs sample size.
fn mushrooms_part(args: &Args, seed: u64) {
    let rows = args.get_or("rows", 8124usize);
    let (dataset, _) = mushrooms_like(seed);
    let dataset = if rows < dataset.len() {
        dataset.subsample_random(rows, seed)
    } else {
        dataset
    };
    println!(
        "Figure 5 (left, middle) — SAMPLING on Mushrooms (n = {})\n",
        dataset.len()
    );

    let exp = CategoricalExperiment::prepare(dataset);
    let base = Algorithm::Agglomerative(AgglomerativeParams::default());

    // Non-sampling reference run.
    let (reference, ref_secs) = timed(|| run(&base, &exp.oracle));
    let ref_ec = 100.0 * classification_error(&reference, exp.dataset.class_labels());
    println!(
        "non-sampling Agglomerative: k = {}, E_C = {:.1}%, {:.2}s\n",
        reference.num_clusters(),
        ref_ec,
        ref_secs
    );

    let mut table = Table::new(&[
        "sample",
        "k (sample)",
        "k (final)",
        "E_C(%)",
        "time(ms)",
        "time fraction(%)",
    ]);
    for sample in [100usize, 200, 400, 800, 1600, 3200] {
        if sample > exp.dataset.len() {
            continue;
        }
        let params = SamplingParams::new(sample, base.clone(), seed);
        let (details, secs) = timed(|| run_sampling(&exp.oracle, &params));
        let ec = 100.0 * classification_error(&details.clustering, exp.dataset.class_labels());
        table.row(vec![
            sample.to_string(),
            details.sample_clusters.to_string(),
            details.clustering.num_clusters().to_string(),
            fmt_f(ec, 1),
            fmt_f(1e3 * secs, 0),
            fmt_f(100.0 * secs / ref_secs, 1),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nPaper shape: clusters in the sample stay ≈ 10; at sample 1600 the\n\
         running time is < 50% of non-sampling with matching E_C.\n\
         (Time fraction excludes the O(n²·m) distance-matrix build, which is\n\
         shared; the paper plots the same ratio.)\n"
    );
}

/// Figure 5 right: SAMPLING running time vs dataset size.
fn scale_part(args: &Args, seed: u64) {
    let mut sizes: Vec<usize> = vec![50_000, 100_000, 200_000];
    if args.flag("full") {
        sizes = vec![50_000, 100_000, 500_000, 1_000_000];
    }
    if let Some(n) = args.get("scale-rows") {
        sizes = vec![n.parse().unwrap_or_else(|_| {
            eprintln!("error: could not parse --scale-rows value {n:?}"); // lint:allow-eprintln
            std::process::exit(2);
        })];
    }
    println!("Figure 5 (right) — SAMPLING running time vs dataset size\n");

    let mut table = Table::new(&[
        "n",
        "kmeans(ms)",
        "aggregate(ms)",
        "assign(ms)",
        "k (final)",
        "ARI vs truth",
    ]);
    for &n in &sizes {
        // 5 Gaussian clusters + 20% noise, as in the paper.
        let per_cluster = n / 6; // 5 clusters + 20% noise ≈ n total
        let data = gaussian_with_noise(5, per_cluster, 0.2, 0.02, seed);
        let rows = data.rows();

        // k-means for k = 2..10 (single runs — Matlab defaults).
        let (inputs, kmeans_secs) = timed(|| {
            (2..=10)
                .map(|k| {
                    kmeans(
                        &rows,
                        &KMeansParams {
                            n_init: 1,
                            max_iters: 30,
                            ..KMeansParams::new(k, seed + k as u64)
                        },
                    )
                    .clustering
                })
                .collect::<Vec<Clustering>>()
        });

        // Lazy oracle: distances computed on demand from the 9 label
        // vectors — the full matrix would not fit for n = 1M.
        let oracle = CorrelationInstance::from_clusterings(&inputs);
        let params = SamplingParams::new(
            1000,
            Algorithm::Agglomerative(AgglomerativeParams::default()),
            seed,
        );
        let (details, agg_secs) = timed(|| run_sampling(&oracle, &params));

        // ARI over the clustered (non-noise) points.
        let truth_rows: Vec<usize> = (0..oracle.len())
            .filter(|&v| data.truth[v].is_some())
            .collect();
        let ari = aggclust_metrics::pair_counting::adjusted_rand_index(
            &details.clustering.restrict(&truth_rows),
            // truth_rows is filtered to labeled points; 0 is unreachable.
            &Clustering::from_labels(
                truth_rows
                    .iter()
                    .map(|&v| data.truth[v].unwrap_or(0))
                    .collect(),
            ),
        );

        table.row(vec![
            n.to_string(),
            fmt_f(1e3 * kmeans_secs, 0),
            fmt_f(1e3 * agg_secs, 0),
            fmt_f(1e3 * details.assign_time.as_secs_f64(), 0),
            details.clustering.num_clusters().to_string(),
            fmt_f(ari, 3),
        ]);
        aggclust_core::obs::info!(format!("[n = {n} done]"));
    }
    print!("{}", table.render());
    println!(
        "\nPaper shape: the running time grows linearly with n, and the paper\n\
         attributes most of it to assigning the non-sampled points; the five\n\
         correct clusters are identified in the sample. Here assign(ms) is the\n\
         assignment alone and aggregate(ms) the whole SAMPLING run, singleton\n\
         re-aggregation included."
    );
}
