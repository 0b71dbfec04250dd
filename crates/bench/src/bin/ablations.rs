//! Ablation studies for the design choices the paper calls out:
//!
//! 1. **BALLS α sweep** — the paper proves the 3-approximation at `α = ¼`
//!    but observes it "tends to be small as it creates many singleton
//!    clusters" and recommends `α = ⅖` in practice.
//! 2. **LOCALSEARCH as post-processing** — "the LOCALSEARCH can be used as
//!    a clustering algorithm, but also as a post-processing step, to
//!    improve upon an existing solution".
//! 3. **SAMPLING singleton re-aggregation** — the paper's post-processing
//!    step that collects singletons and aggregates them again.
//! 4. **Dense vs lazy oracle** — precomputing the `O(n²)` matrix vs
//!    computing `X_uv` on demand from the label vectors.
//! 5. **Extension algorithms** — CC-PIVOT (Ailon et al.) and simulated
//!    annealing (Filkov–Skiena, the paper's ref 13) against the paper's
//!    roster, plus the BALLS vertex-ordering heuristic.
//!
//! ```text
//! cargo run --release -p aggclust-bench --bin ablations [-- --seed N] [--rows N]
//! ```

use aggclust_bench::roster::CategoricalExperiment;
use aggclust_bench::table::{fmt_f, Table};
use aggclust_bench::{run, run_sampling, timed};
use aggclust_cli::args::Args;
use aggclust_core::algorithms::sampling::SamplingParams;
use aggclust_core::algorithms::{
    AgglomerativeParams, Algorithm, BallsParams, FurthestParams, LocalSearchInit, LocalSearchParams,
};
use aggclust_core::cost::correlation_cost;
use aggclust_core::instance::{CorrelationInstance, DistanceOracle};
use aggclust_data::presets::{mushrooms_like, votes_like};
use aggclust_metrics::classification_error;

fn main() {
    let args = Args::from_env();
    let _telemetry = aggclust_cli::telemetry::init(&args).unwrap_or_else(|e| e.exit());
    let seed = args.get_or("seed", 1u64);
    let rows = args.get_or("rows", 2000usize);

    balls_alpha_sweep(seed);
    local_search_postprocessing(seed, rows);
    sampling_recluster(seed, rows);
    oracle_comparison(seed, rows);
    extension_algorithms(seed);
}

/// Ablation 5: extension algorithms vs the paper's roster (Votes).
fn extension_algorithms(seed: u64) {
    use aggclust_core::algorithms::{AnnealingParams, BallsOrdering, PivotParams};
    println!("\nAblation 5 — extension algorithms and the BALLS ordering (Votes)\n");
    let (dataset, _) = votes_like(seed);
    let exp = CategoricalExperiment::prepare(dataset);
    let algorithms: Vec<(String, Algorithm)> = vec![
        (
            "Agglomerative (paper)".into(),
            Algorithm::Agglomerative(AgglomerativeParams::default()),
        ),
        (
            "LocalSearch (paper)".into(),
            Algorithm::LocalSearch(Default::default()),
        ),
        (
            "Pivot (majority)".into(),
            Algorithm::Pivot(PivotParams::majority(seed)),
        ),
        (
            "Pivot (randomized x9)".into(),
            Algorithm::Pivot(PivotParams::randomized(seed, 9)),
        ),
        (
            "Annealing (Filkov-Skiena)".into(),
            Algorithm::Annealing(AnnealingParams {
                seed,
                sweeps: 60,
                ..Default::default()
            }),
        ),
        (
            "Balls order: increasing (paper)".into(),
            Algorithm::Balls(BallsParams::practical()),
        ),
        (
            "Balls order: decreasing".into(),
            Algorithm::Balls(
                BallsParams::practical().with_ordering(BallsOrdering::DecreasingWeight),
            ),
        ),
        (
            "Balls order: index".into(),
            Algorithm::Balls(BallsParams::practical().with_ordering(BallsOrdering::Index)),
        ),
    ];
    let mut table = Table::new(&["algorithm", "k", "E_C(%)", "E_D", "time(s)"]);
    for (name, algo) in algorithms {
        let row = exp.run(&name, &algo);
        table.row(vec![
            row.name.clone(),
            row.k.to_string(),
            fmt_f(row.ec_percent, 1),
            fmt_f(row.ed, 0),
            fmt_f(row.seconds, 2),
        ]);
    }
    print!("{}", table.render());

    // The input where annealing escapes LocalSearch's local optimum: the
    // Figure 4 k-means clusterings for k* = 3 at that binary's seed.
    let (_, inputs) = aggclust_bench::fig4_inputs(3, FIG4_SEED);
    let oracle = CorrelationInstance::from_clusterings(&inputs).dense_oracle();
    let mut table = Table::new(&["algorithm (Figure 4, k* = 3)", "k", "d(C)", "time(s)"]);
    let annealing = (1..=3u64).map(|seed| {
        (
            format!("Annealing (seed {seed})"),
            Algorithm::Annealing(AnnealingParams {
                seed,
                sweeps: 60,
                ..Default::default()
            }),
        )
    });
    for (name, algo) in [(
        "LocalSearch (paper)".to_string(),
        Algorithm::LocalSearch(Default::default()),
    )]
    .into_iter()
    .chain(annealing)
    {
        let (c, secs) = timed(|| run(&algo, &oracle));
        table.row(vec![
            name,
            c.num_clusters().to_string(),
            fmt_f(correlation_cost(&oracle, &c), 1),
            fmt_f(secs, 2),
        ]);
    }
    println!();
    print!("{}", table.render());
    println!(
        "\nThe extensions bracket the paper's roster: Pivot is the cheapest\n\
         and loosest. Annealing ties LocalSearch on Votes at higher cost in\n\
         time. On the Figure 4 k* = 3 input, annealing at seed 1 escapes\n\
         LocalSearch's local optimum to a lower d(C); seeds 2 and 3 end\n\
         above it."
    );
}

/// The default seed of `fig4_correct_k`.
const FIG4_SEED: u64 = 9;

/// Ablation 1: the α parameter of BALLS on the Votes dataset.
fn balls_alpha_sweep(seed: u64) {
    println!("Ablation 1 — BALLS α sweep (Votes)\n");
    let (dataset, _) = votes_like(seed);
    let exp = CategoricalExperiment::prepare(dataset);
    let mut table = Table::new(&["alpha", "k", "singletons", "E_C(%)", "E_D"]);
    for alpha in [0.1, 0.2, 0.25, 0.3, 0.4, 0.5] {
        let c = run(
            &Algorithm::Balls(BallsParams::with_alpha(alpha)),
            &exp.oracle,
        );
        table.row(vec![
            fmt_f(alpha, 2),
            c.num_clusters().to_string(),
            c.num_singletons().to_string(),
            fmt_f(
                100.0 * classification_error(&c, exp.dataset.class_labels()),
                1,
            ),
            fmt_f(correlation_cost(&exp.oracle, &c), 0),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nPaper: α = ¼ \"tends to be small as it creates many singleton\n\
         clusters; for many of our real datasets α = 2/5 leads to better\n\
         solutions\".\n"
    );
}

/// Ablation 2: LOCALSEARCH as a post-processor for every other algorithm.
fn local_search_postprocessing(seed: u64, rows: usize) {
    println!("Ablation 2 — LocalSearch as post-processing (Mushrooms, n = {rows})\n");
    let (dataset, _) = mushrooms_like(seed);
    let dataset = dataset.subsample_random(rows, seed);
    let exp = CategoricalExperiment::prepare(dataset);

    let algorithms: Vec<(&str, Algorithm)> = vec![
        (
            "Agglomerative",
            Algorithm::Agglomerative(AgglomerativeParams::default()),
        ),
        ("Furthest", Algorithm::Furthest(FurthestParams::default())),
        (
            "Balls (a=0.25)",
            Algorithm::Balls(BallsParams::theoretical()),
        ),
        ("Balls (a=0.4)", Algorithm::Balls(BallsParams::practical())),
    ];
    let mut table = Table::new(&[
        "start",
        "E_D before",
        "E_D after",
        "improvement(%)",
        "k after",
    ]);
    for (name, algo) in algorithms {
        let before = run(&algo, &exp.oracle);
        let cost_before = correlation_cost(&exp.oracle, &before);
        let refine = Algorithm::LocalSearch(LocalSearchParams {
            init: LocalSearchInit::Given(before),
            max_passes: 100,
        });
        let after = run(&refine, &exp.oracle);
        let cost_after = correlation_cost(&exp.oracle, &after);
        table.row(vec![
            name.to_string(),
            fmt_f(cost_before, 0),
            fmt_f(cost_after, 0),
            fmt_f(100.0 * (cost_before - cost_after) / cost_before, 2),
            after.num_clusters().to_string(),
        ]);
    }
    print!("{}", table.render());
    println!("\nLocalSearch never worsens a solution (each accepted move strictly\nlowers d(C)); the gain shows how far each start is from a local optimum.\n");
}

/// Ablation 3: the SAMPLING singleton re-aggregation pass.
fn sampling_recluster(seed: u64, rows: usize) {
    println!("Ablation 3 — SAMPLING singleton re-aggregation (Mushrooms, n = {rows})\n");
    let (dataset, _) = mushrooms_like(seed);
    let dataset = dataset.subsample_random(rows, seed);
    let exp = CategoricalExperiment::prepare(dataset);
    let mut table = Table::new(&["variant", "sample", "k", "singletons", "E_C(%)", "E_D"]);
    for sample in [200usize, 800] {
        for recluster in [false, true] {
            let mut params = SamplingParams::new(
                sample,
                Algorithm::Agglomerative(AgglomerativeParams::default()),
                seed,
            );
            params.recluster_singletons = recluster;
            let details = run_sampling(&exp.oracle, &params);
            let c = &details.clustering;
            table.row(vec![
                if recluster {
                    "with recluster"
                } else {
                    "without"
                }
                .to_string(),
                sample.to_string(),
                c.num_clusters().to_string(),
                c.num_singletons().to_string(),
                fmt_f(
                    100.0 * classification_error(c, exp.dataset.class_labels()),
                    1,
                ),
                fmt_f(correlation_cost(&exp.oracle, c), 0),
            ]);
        }
    }
    print!("{}", table.render());
    println!("\nPaper: \"at the end of the assignment phase there are too many\nsingleton clusters; therefore we collect all singleton clusters and run\nthe clustering aggregation again on this subset\".\n");
}

/// Ablation 4: dense precomputed matrix vs lazy per-pair oracle.
fn oracle_comparison(seed: u64, rows: usize) {
    println!("Ablation 4 — dense vs lazy oracle (Mushrooms, n = {rows})\n");
    let (dataset, _) = mushrooms_like(seed);
    let dataset = dataset.subsample_random(rows, seed);
    let exp = CategoricalExperiment::prepare(dataset);
    let algo = Algorithm::Balls(BallsParams::practical());

    let (dense_result, dense_secs) = timed(|| run(&algo, &exp.oracle));
    let (lazy_result, lazy_secs) = timed(|| run(&algo, &exp.instance));
    assert_eq!(dense_result, lazy_result, "oracles must agree");

    let mut table = Table::new(&["oracle", "lookup cost", "Balls time(s)", "memory"]);
    table.row(vec![
        "dense (precomputed)".into(),
        "O(1)".into(),
        fmt_f(dense_secs, 3),
        format!(
            "O(n²) = {} MB",
            exp.oracle.len() * (exp.oracle.len() - 1) / 2 * 8 / 1_000_000
        ),
    ]);
    table.row(vec![
        "lazy (label vectors)".into(),
        format!("O(m) = O({})", exp.instance.num_clusterings()),
        fmt_f(lazy_secs, 3),
        "O(n·m)".into(),
    ]);
    print!("{}", table.render());
    println!(
        "\nIdentical results; the dense oracle trades O(n²) memory for O(1)\n\
         lookups (right choice up to ~10⁴ objects), the lazy oracle is what\n\
         lets SAMPLING run on 10⁶ objects."
    );
}
