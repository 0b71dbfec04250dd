//! Reproduces the **Census** experiment of §5.2: the dataset is too large
//! for the quadratic algorithms, so SAMPLING + FURTHEST clusters a sample
//! of 4000 people and assigns the rest.
//!
//! Paper result: 54 clusters, classification error 24%; LIMBO (k = 2,
//! φ = 1.0) reaches 27.6%; ROCK does not scale. Supervised classifiers get
//! 14–21% — clustering is a different task, the number is context.
//!
//! ```text
//! cargo run --release -p aggclust-bench --bin census_sampling \
//!     [-- --rows N] [--sample S] [--seed X] [--uci PATH] [--skip-limbo]
//! ```

use aggclust_baselines::limbo::{limbo, LimboParams};
use aggclust_bench::table::{fmt_f, Table};
use aggclust_bench::{run_sampling, timed};
use aggclust_cli::args::Args;
use aggclust_core::algorithms::sampling::SamplingParams;
use aggclust_core::algorithms::{Algorithm, FurthestParams};
use aggclust_core::instance::{CorrelationInstance, MissingPolicy};
use aggclust_data::presets::census_like_scaled;
use aggclust_data::to_clusterings::heterogeneous_clusterings;
use aggclust_metrics::classification_error;

fn main() {
    let args = Args::from_env();
    let _telemetry = aggclust_cli::telemetry::init(&args).unwrap_or_else(|e| e.exit());
    let seed = args.get_or("seed", 1u64);
    let rows = args.get_or("rows", 32561usize);
    let sample = args.get_or("sample", 4000usize);

    let dataset = match args.get("uci") {
        Some(path) => aggclust_data::uci::load_census(path).unwrap_or_else(|e| {
            eprintln!("error: failed to load UCI census from {path}: {e}"); // lint:allow-eprintln
            std::process::exit(3);
        }),
        None => census_like_scaled(rows, seed).0,
    };
    println!(
        "Census (§5.2) — {} (n = {}, {} categorical + {} numeric attributes)\n",
        dataset.name,
        dataset.len(),
        dataset.attributes().len(),
        dataset.numeric_columns().len()
    );

    // §5.2: "we perform clustering based on the categorical attributes" —
    // the 6 numeric columns are not used for clustering (pass
    // --with-numeric to include them quantile-binned, the §2 heterogeneous
    // treatment).
    let clusterings = if args.flag("with-numeric") {
        heterogeneous_clusterings(&dataset, 10)
    } else {
        aggclust_data::to_clusterings::attribute_clusterings(&dataset)
    };
    println!("{} input clusterings", clusterings.len());
    let oracle = CorrelationInstance::from_partial(clusterings, MissingPolicy::Coin(0.5));

    let params = SamplingParams::new(sample, Algorithm::Furthest(FurthestParams::default()), seed);
    let (details, secs) = timed(|| run_sampling(&oracle, &params));
    let clustering = &details.clustering;
    let ec = classification_error(clustering, dataset.class_labels());

    let mut table = Table::new(&["method", "k", "E_C(%)", "time(s)"]);
    table.row(vec![
        format!("Sampling+Furthest (sample={sample})"),
        clustering.num_clusters().to_string(),
        fmt_f(100.0 * ec, 1),
        fmt_f(secs, 1),
    ]);

    if !args.flag("skip-limbo") {
        let (limbo_c, limbo_secs) = timed(|| limbo(&dataset, LimboParams::new(1.0, 2)));
        let limbo_ec = classification_error(&limbo_c, dataset.class_labels());
        table.row(vec![
            "LIMBO (k=2, phi=1.0)".into(),
            limbo_c.num_clusters().to_string(),
            fmt_f(100.0 * limbo_ec, 1),
            fmt_f(limbo_secs, 1),
        ]);
    }
    print!("{}", table.render());

    println!(
        "\nSampling detail: {} clusters on the sample, {} singletons before\n\
         re-aggregation; phases: cluster {:.1}s, assign {:.1}s, recluster {:.1}s.",
        details.sample_clusters,
        details.singletons_before_recluster,
        details.cluster_time.as_secs_f64(),
        details.assign_time.as_secs_f64(),
        details.recluster_time.as_secs_f64()
    );

    // A glimpse of the fine social-group structure the paper describes
    // ("male Eskimos occupied with farming-fishing", ...): sizes of the
    // discovered clusters.
    let mut sizes = clustering.cluster_sizes();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let head: Vec<String> = sizes.iter().take(12).map(|s| s.to_string()).collect();
    println!(
        "\nLargest clusters: {} ... ({} clusters total)",
        head.join(", "),
        sizes.len()
    );
    println!(
        "\nPaper: Sampling+Furthest on a 4000-person sample → 54 clusters,\n\
         E_C = 24%; LIMBO (k=2, phi=1.0) → 27.6%; ROCK does not scale."
    );
}
