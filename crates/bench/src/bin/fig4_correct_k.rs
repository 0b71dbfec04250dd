//! Reproduces **Figure 4** of the paper: finding the correct number of
//! clusters and the outliers, with no prior knowledge of `k`.
//!
//! For each of three datasets (`k* = 3, 5, 7` Gaussian clusters of 100
//! points in the unit square, plus 20% uniform background noise), run
//! k-means with `k = 2..10`, aggregate the nine resulting clusterings, and
//! report: the number of *main* clusters discovered (the paper's claim is
//! that these are exactly the `k*` correct ones), the purity of the main
//! clusters against the generative truth, and how many background-noise
//! points were isolated into small clusters (outlier detection).
//!
//! ```text
//! cargo run --release -p aggclust-bench --bin fig4_correct_k [-- --seed N]
//! ```

use aggclust_bench::run;
use aggclust_bench::table::{fmt_f, Table};
use aggclust_cli::args::Args;
use aggclust_core::algorithms::{AgglomerativeParams, Algorithm};
use aggclust_core::clustering::Clustering;
use aggclust_core::instance::CorrelationInstance;
use aggclust_metrics::pair_counting::adjusted_rand_index;

/// A cluster is "main" if it holds at least this fraction of the points.
const MAIN_CLUSTER_FRACTION: f64 = 0.08;

fn main() {
    let args = Args::from_env();
    let _telemetry = aggclust_cli::telemetry::init(&args).unwrap_or_else(|e| e.exit());
    let seed = args.get_or("seed", 9u64);

    println!("Figure 4 — identifying the correct clusters and the outliers\n");
    let mut table = Table::new(&[
        "dataset",
        "n",
        "k found",
        "main clusters",
        "main purity(%)",
        "extra = noise(%)",
        "noise isolated(%)",
        "ARI(main) vs truth",
    ]);

    for k_star in [3usize, 5, 7] {
        let (data, inputs) = aggclust_bench::fig4_inputs(k_star, seed);

        let instance = CorrelationInstance::from_clusterings(&inputs);
        let oracle = instance.dense_oracle();
        let aggregate = run(
            &Algorithm::Agglomerative(AgglomerativeParams::paper()),
            &oracle,
        );

        // Main clusters: those holding at least MAIN_CLUSTER_FRACTION of
        // the points.
        let n = data.len();
        let sizes = aggregate.cluster_sizes();
        let main: Vec<usize> = (0..aggregate.num_clusters())
            .filter(|&c| sizes[c] as f64 >= MAIN_CLUSTER_FRACTION * n as f64)
            .collect();

        // Purity of main clusters over the *true* (non-noise) points: each
        // main cluster should correspond to exactly one generative cluster.
        // Background noise that happens to fall inside a cluster's region is
        // visually part of it and not counted against purity (the paper's
        // figure makes the same call implicitly).
        let mut main_true_points = 0usize;
        let mut main_majority = 0usize;
        for &c in &main {
            let mut counts: std::collections::HashMap<u32, usize> =
                std::collections::HashMap::new();
            for v in 0..n {
                if aggregate.label(v) as usize == c {
                    if let Some(t) = data.truth[v] {
                        *counts.entry(t).or_insert(0) += 1;
                        main_true_points += 1;
                    }
                }
            }
            main_majority += counts.values().copied().max().unwrap_or(0);
        }
        let main_purity = 100.0 * main_majority as f64 / main_true_points.max(1) as f64;

        // The paper's outlier claim: the small extra clusters contain only
        // background noise.
        let extra_points = (0..n)
            .filter(|&v| !main.contains(&(aggregate.label(v) as usize)))
            .count();
        let extra_noise = (0..n)
            .filter(|&v| data.truth[v].is_none() && !main.contains(&(aggregate.label(v) as usize)))
            .count();
        let extra_noise_pct = 100.0 * extra_noise as f64 / extra_points.max(1) as f64;
        let noise_total = data.truth.iter().filter(|t| t.is_none()).count();
        let noise_isolated = extra_noise;

        // ARI of the main-cluster points only, against the truth.
        let main_rows: Vec<usize> = (0..n)
            .filter(|&v| main.contains(&(aggregate.label(v) as usize)) && data.truth[v].is_some())
            .collect();
        let agg_main = aggregate.restrict(&main_rows);
        let truth_main = Clustering::from_labels(
            // main_rows is filtered to labeled points; 0 is unreachable.
            main_rows
                .iter()
                .map(|&v| data.truth[v].unwrap_or(0))
                .collect(),
        );
        let ari = adjusted_rand_index(&agg_main, &truth_main);

        table.row(vec![
            format!("k* = {k_star} + 20% noise"),
            n.to_string(),
            aggregate.num_clusters().to_string(),
            main.len().to_string(),
            fmt_f(main_purity, 1),
            fmt_f(extra_noise_pct, 1),
            fmt_f(100.0 * noise_isolated as f64 / noise_total.max(1) as f64, 1),
            fmt_f(ari, 3),
        ]);

        if args.flag("plot") {
            println!("\nk* = {k_star}: aggregated clustering");
            print!(
                "{}",
                aggclust_bench::plot::scatter(&data.points, &aggregate, 72, 20)
            );
        }
    }

    print!("{}", table.render());
    println!(
        "\nPaper: \"the main clusters identified are precisely the correct\n\
         clusters; small additional clusters contain only points from the\n\
         background noise, and they can be clearly characterized as outliers\".\n\
         Success shape: main clusters = k*, purity ≈ 100, high noise isolation."
    );
}
