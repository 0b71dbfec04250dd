//! Scaling benchmarks for the five aggregation algorithms on
//! correlated instances (hidden blocks + noise), n ∈ {100, 400, 1000}.

use aggclust_bench::run;
use aggclust_core::algorithms::{
    best::best_clustering, AgglomerativeParams, Algorithm, BallsParams, FurthestParams,
    LocalSearchParams,
};
use aggclust_core::clustering::Clustering;
use aggclust_core::instance::DenseOracle;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn correlated_inputs(n: usize, m: usize, k: u32, seed: u64) -> Vec<Clustering> {
    let mut rng = StdRng::seed_from_u64(seed);
    let truth: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k)).collect();
    (0..m)
        .map(|_| {
            let mut labels = truth.clone();
            for _ in 0..(n / 10) {
                let v = rng.gen_range(0..n);
                labels[v] = rng.gen_range(0..k);
            }
            Clustering::from_labels(labels)
        })
        .collect()
}

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregation");
    group.sample_size(10);
    for &n in &[100usize, 400, 1_000] {
        let inputs = correlated_inputs(n, 8, 6, 42);
        let oracle = DenseOracle::from_clusterings(&inputs);
        group.bench_with_input(BenchmarkId::new("best_clustering", n), &n, |b, _| {
            b.iter(|| best_clustering(black_box(&inputs)))
        });
        let roster = [
            ("balls", Algorithm::Balls(BallsParams::practical())),
            (
                "agglomerative",
                Algorithm::Agglomerative(AgglomerativeParams::paper()),
            ),
            ("furthest", Algorithm::Furthest(FurthestParams::default())),
            (
                "local_search",
                Algorithm::LocalSearch(LocalSearchParams::default()),
            ),
        ];
        for (name, algorithm) in &roster {
            group.bench_with_input(BenchmarkId::new(*name, n), &n, |b, _| {
                b.iter(|| run(algorithm, black_box(&oracle)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_algorithms);
criterion_main!(benches);
