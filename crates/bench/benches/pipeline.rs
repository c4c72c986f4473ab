//! Criterion benchmarks of the composite stages: GBM training, path
//! extraction (combination mining), and the SAFE pipeline end-to-end —
//! plus the ablation the §IV-D analysis implies: SAFE cost as the miner's
//! tree count K grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use safe_core::combine::{mine_combinations, rank_combinations_observed};
use safe_core::{Safe, SafeConfig};
use safe_datagen::synth::{generate, SyntheticConfig};
use safe_gbm::booster::Gbm;
use safe_gbm::config::GbmConfig;
use safe_stats::par::Parallelism;

fn dataset(n: usize) -> safe_data::dataset::Dataset {
    generate(&SyntheticConfig {
        n_rows: n,
        dim: 20,
        n_signal: 6,
        n_interactions: 4,
        ..Default::default()
    })
}

fn bench_gbm_train(c: &mut Criterion) {
    let mut group = c.benchmark_group("gbm_train_miner");
    group.sample_size(10);
    for n in [2_000usize, 8_000] {
        let ds = dataset(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| Gbm::new(GbmConfig::miner()).fit(&ds, None).unwrap())
        });
    }
    group.finish();
}

fn bench_mining(c: &mut Criterion) {
    let mut group = c.benchmark_group("combination_mining");
    group.sample_size(10);
    let ds = dataset(4_000);
    let model = Gbm::new(GbmConfig::miner()).fit(&ds, None).unwrap();
    group.bench_function("mine_paths", |b| b.iter(|| mine_combinations(&model, 2)));
    let combos = mine_combinations(&model, 2);
    group.bench_function("rank_by_gain_ratio", |b| {
        b.iter(|| rank_combinations_observed(combos.clone(), &ds, 30, Parallelism::auto()).unwrap())
    });
    group.finish();
}

fn bench_safe_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("safe_pipeline");
    group.sample_size(10);
    for n in [2_000usize, 8_000] {
        let ds = dataset(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| Safe::paper().fit(&ds, None).unwrap())
        });
    }
    group.finish();
}

fn bench_safe_vs_trees(c: &mut Criterion) {
    // Ablation: Eq. 13 says cost is governed by K (miner trees). Sweep K.
    let mut group = c.benchmark_group("safe_tree_count_ablation");
    group.sample_size(10);
    let ds = dataset(4_000);
    for k in [5usize, 20, 40] {
        let config = SafeConfig {
            miner: GbmConfig { n_rounds: k, ..GbmConfig::miner() },
            ..SafeConfig::paper()
        };
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| Safe::new(config.clone()).fit(&ds, None).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gbm_train,
    bench_mining,
    bench_safe_end_to_end,
    bench_safe_vs_trees
);
criterion_main!(benches);
