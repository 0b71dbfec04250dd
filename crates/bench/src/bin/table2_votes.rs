//! Reproduces **Table 2** of the paper: clustering the Votes dataset by
//! aggregating its 16 attribute clusterings, compared against ROCK and
//! LIMBO.
//!
//! ```text
//! cargo run --release -p aggclust-bench --bin table2_votes [-- --seed N] [--uci PATH]
//! ```
//!
//! With `--uci PATH` pointing at `house-votes-84.data` the real UCI data is
//! used; otherwise the calibrated `votes_like` preset (435 rows, 16 binary
//! attributes, 288 missing values).

use aggclust_baselines::limbo::{limbo, LimboParams};
use aggclust_baselines::rock::{rock, RockParams};
use aggclust_bench::roster::CategoricalExperiment;
use aggclust_bench::table::{fmt_ed, fmt_f, Table};
use aggclust_bench::timed;
use aggclust_cli::args::Args;
use aggclust_data::presets::votes_like;

fn main() {
    let args = Args::from_env();
    let _telemetry = aggclust_cli::telemetry::init(&args).unwrap_or_else(|e| e.exit());
    let seed = args.get_or("seed", 1u64);

    let dataset = match args.get("uci") {
        Some(path) => aggclust_data::uci::load_votes(path).unwrap_or_else(|e| {
            eprintln!("error: failed to load UCI votes from {path}: {e}"); // lint:allow-eprintln
            std::process::exit(3);
        }),
        None => votes_like(seed).0,
    };
    println!(
        "Table 2 — Votes dataset ({}, n = {}, {} attributes, {} missing values)\n",
        dataset.name,
        dataset.len(),
        dataset.attributes().len(),
        dataset.num_missing()
    );

    let exp = CategoricalExperiment::prepare(dataset);

    let mut table = Table::new(&["algorithm", "k", "E_C(%)", "E_D", "time(s)"]);
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

    for row in exp.standard_rows() {
        table.row(vec![
            row.name.clone(),
            row.k.to_string(),
            fmt_f(row.ec_percent, 1),
            fmt_ed(row.ed),
            fmt_f(row.seconds, 2),
        ]);
    }

    // ROCK with the paper's suggested θ = 0.73 at k = 2.
    let (rock_result, rock_secs) = timed(|| rock(&exp.dataset, RockParams::new(0.73, 2)));
    let row = exp.evaluate("ROCK (k=2, t=0.73)", rock_result, rock_secs);
    table.row(vec![
        row.name.clone(),
        row.k.to_string(),
        fmt_f(row.ec_percent, 1),
        fmt_ed(row.ed),
        fmt_f(row.seconds, 2),
    ]);

    // LIMBO with the paper's φ = 0.0 at k = 2.
    let (limbo_result, limbo_secs) = timed(|| limbo(&exp.dataset, LimboParams::new(0.0, 2)));
    let row = exp.evaluate("LIMBO (k=2, phi=0.0)", limbo_result, limbo_secs);
    table.row(vec![
        row.name.clone(),
        row.k.to_string(),
        fmt_f(row.ec_percent, 1),
        fmt_ed(row.ed),
        fmt_f(row.seconds, 2),
    ]);

    print!("{}", table.render());
    println!(
        "\nPaper (Table 2): class 2/0/34184; lower bound 28805; Best 3/15.1/31211;\n\
         Agglo 2/14.7/30408; Furthest 2/13.3/30259; Balls 2/13.3/30181;\n\
         LocalSearch 2/11.9/29967; ROCK 2/11/32486; LIMBO 2/11/30147."
    );
}
