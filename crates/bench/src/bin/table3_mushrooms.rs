//! Reproduces **Table 3** (Mushrooms results) and **Table 1** (the
//! confusion matrix of the AGGLOMERATIVE clustering) of the paper.
//!
//! ```text
//! cargo run --release -p aggclust-bench --bin table3_mushrooms \
//!     [-- --scale N] [--seed S] [--uci PATH] [--skip-comparators]
//! ```
//!
//! By default the full 8124-row mushrooms-like preset is used; `--scale N`
//! subsamples N rows for quicker runs. ROCK and LIMBO run at the paper's
//! parameter choices (θ = 0.8, k ∈ {2, 7, 9}; φ = 0.3, k ∈ {2, 7, 9}).

use aggclust_baselines::limbo::{limbo, LimboParams};
use aggclust_baselines::rock::{rock, RockParams};
use aggclust_bench::roster::CategoricalExperiment;
use aggclust_bench::table::{fmt_ed, fmt_f, Table};
use aggclust_bench::timed;
use aggclust_cli::args::Args;
use aggclust_data::presets::mushrooms_like;
use aggclust_metrics::confusion_matrix;

fn main() {
    let args = Args::from_env();
    let _telemetry = aggclust_cli::telemetry::init(&args).unwrap_or_else(|e| e.exit());
    let seed = args.get_or("seed", 1u64);

    let dataset = match args.get("uci") {
        Some(path) => aggclust_data::uci::load_mushrooms(path).unwrap_or_else(|e| {
            eprintln!("error: failed to load UCI mushrooms from {path}: {e}"); // lint:allow-eprintln
            std::process::exit(3);
        }),
        None => mushrooms_like(seed).0,
    };
    let dataset = match args.get("scale") {
        Some(_) => {
            let n = args.get_or("scale", 2000usize);
            dataset.subsample_random(n, seed)
        }
        None => dataset,
    };
    println!(
        "Table 3 — Mushrooms dataset ({}, n = {}, {} attributes, {} missing values)\n",
        dataset.name,
        dataset.len(),
        dataset.attributes().len(),
        dataset.num_missing()
    );

    let (exp, prep_secs) = timed(|| CategoricalExperiment::prepare(dataset));
    aggclust_core::obs::info!(format!("[prepared dense oracle in {prep_secs:.1}s]"));

    let mut table = Table::new(&["algorithm", "k", "E_C(%)", "E_D", "time(s)"]);
    let push = |table: &mut Table, row: &aggclust_bench::roster::RosterRow| {
        table.row(vec![
            row.name.clone(),
            row.k.to_string(),
            fmt_f(row.ec_percent, 1),
            fmt_ed(row.ed),
            fmt_f(row.seconds, 2),
        ]);
    };

    let class = exp.class_row();
    table.row(vec![
        class.name.clone(),
        class.k.to_string(),
        fmt_f(class.ec_percent, 1),
        fmt_ed(class.ed),
        "-".into(),
    ]);
    table.row(vec![
        "Lower bound".into(),
        "-".into(),
        "-".into(),
        fmt_ed(exp.lower_bound_ed()),
        "-".into(),
    ]);

    let mut agglomerative_clustering = None;
    for row in exp.standard_rows() {
        if row.name == "Agglomerative" {
            agglomerative_clustering = Some(row.clustering.clone());
        }
        push(&mut table, &row);
        aggclust_core::obs::info!(format!("[{} done in {:.1}s]", row.name, row.seconds));
    }

    if !args.flag("skip-comparators") {
        for k in [2usize, 7, 9] {
            let (r, secs) = timed(|| rock(&exp.dataset, RockParams::new(0.8, k)));
            let row = exp.evaluate(&format!("ROCK (k={k}, t=0.8)"), r, secs);
            push(&mut table, &row);
            aggclust_core::obs::info!(format!("[ROCK k={k} done in {secs:.1}s]"));
        }
        for k in [2usize, 7, 9] {
            let (r, secs) = timed(|| limbo(&exp.dataset, LimboParams::new(0.3, k)));
            let row = exp.evaluate(&format!("LIMBO (k={k}, phi=0.3)"), r, secs);
            push(&mut table, &row);
            aggclust_core::obs::info!(format!("[LIMBO k={k} done in {secs:.1}s]"));
        }
    }

    print!("{}", table.render());

    // Table 1: confusion matrix of the AGGLOMERATIVE clustering.
    if let Some(c) = agglomerative_clustering {
        let cm = confusion_matrix(&c, exp.dataset.class_labels());
        println!("\nTable 1 — confusion matrix of the Agglomerative clustering:");
        print!("{}", cm.render(&exp.dataset.class_names()));
        println!(
            "\nPaper (Table 1):        c1      c2      c3      c4      c5      c6      c7\n\
             poisonous              808       0    1296    1768       0      36       8\n\
             edible                2864    1056       0      96     192       0       0"
        );
    }

    println!(
        "\nPaper (Table 3): class 2/0/13.537M; lower bound 8.388M; Best 5/35.4/8.542M;\n\
         Agglo 7/11.1/9.990M; Furthest 9/10.4/10.169M; Balls 10/14.2/11.448M;\n\
         LocalSearch 10/10.7/9.929M; ROCK k=2 48.2/16.777M, k=7 25.9/10.568M,\n\
         k=9 9.9/10.312M; LIMBO k=2 10.9/13.011M, k=7 4.2/10.505M, k=9 4.2/10.360M."
    );
}
