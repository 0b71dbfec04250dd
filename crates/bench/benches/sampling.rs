//! Benchmarks for the SAMPLING meta-algorithm: end-to-end time vs the
//! non-sampling base algorithm, across sample sizes (the Figure-5-left
//! trade-off as a microbenchmark).

use aggclust_bench::{run, run_sampling};
use aggclust_core::algorithms::sampling::SamplingParams;
use aggclust_core::algorithms::{AgglomerativeParams, Algorithm};
use aggclust_core::clustering::Clustering;
use aggclust_core::instance::{ClusteringsOracle, DenseOracle};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn block_inputs(n: usize, m: usize, k: u32, seed: u64) -> Vec<Clustering> {
    let mut rng = StdRng::seed_from_u64(seed);
    let truth: Vec<u32> = (0..n).map(|v| (v as u32) % k).collect();
    (0..m)
        .map(|_| {
            let mut labels = truth.clone();
            for _ in 0..(n / 20) {
                let v = rng.gen_range(0..n);
                labels[v] = rng.gen_range(0..k);
            }
            Clustering::from_labels(labels)
        })
        .collect()
}

fn bench_sampling(c: &mut Criterion) {
    let n = 4_000;
    let cs = block_inputs(n, 8, 6, 3);
    let dense = DenseOracle::from_clusterings(&cs);
    let lazy = ClusteringsOracle::from_total(&cs);
    let base = Algorithm::Agglomerative(AgglomerativeParams::default());

    let mut group = c.benchmark_group("sampling");
    group.sample_size(10);
    group.bench_function("full_agglomerative_n4000", |b| {
        b.iter(|| run(&base, black_box(&dense)))
    });
    for &s in &[100usize, 400, 1_600] {
        let params = SamplingParams::new(s, base.clone(), 1);
        group.bench_with_input(BenchmarkId::new("dense_oracle", s), &s, |b, _| {
            b.iter(|| run_sampling(black_box(&dense), black_box(&params)))
        });
        group.bench_with_input(BenchmarkId::new("lazy_oracle", s), &s, |b, _| {
            b.iter(|| run_sampling(black_box(&lazy), black_box(&params)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sampling);
criterion_main!(benches);
