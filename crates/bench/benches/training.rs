//! Offline-path costs: forest training, NLP baseline training, corpus
//! preparation (the retraining cadence of Fig. 10 must be cheap enough to
//! run every 10 days — §8 "given the cheap cost of re-training, we
//! recommend frequent retraining").

use bench::{bench_examples, bench_monitoring, bench_world};
use criterion::{criterion_group, criterion_main, Criterion};
use ml::forest::{ForestConfig, RandomForest};
use nlp::NlpRouter;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use scout::{Scout, ScoutBuildConfig, ScoutConfig};
use std::hint::black_box;

fn forest_training(c: &mut Criterion) {
    // Synthetic 600×200 matrix, mirroring the Scout's feature shape.
    let n = 600;
    let d = 200;
    let x: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|j| ((i * 31 + j * 17) % 97) as f64 / 97.0)
                .collect()
        })
        .collect();
    let y: Vec<usize> = (0..n).map(|i| usize::from((i * 31) % 97 > 48)).collect();
    c.bench_function("random_forest_fit_600x200", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(3);
            black_box(RandomForest::fit(
                black_box(&x),
                &y,
                2,
                ForestConfig {
                    n_trees: 40,
                    ..Default::default()
                },
                &mut rng,
            ))
        })
    });
}

fn nlp_training(c: &mut Criterion) {
    let world = bench_world();
    let texts: Vec<String> = world.incidents.iter().map(|i| i.text()).collect();
    let teams: Vec<usize> = world
        .incidents
        .iter()
        .map(|i| i.owner.id().0 as usize)
        .collect();
    c.bench_function("nlp_router_fit", |b| {
        b.iter(|| black_box(NlpRouter::fit(black_box(&texts), &teams, 11)))
    });
}

fn corpus_preparation(c: &mut Criterion) {
    let world = bench_world();
    let mon = bench_monitoring(&world);
    let exs: Vec<_> = bench_examples(&world).into_iter().take(60).collect();
    let build = ScoutBuildConfig::default();
    c.bench_function("scout_prepare_60_incidents", |b| {
        b.iter(|| {
            black_box(Scout::prepare(
                &ScoutConfig::phynet(),
                &build,
                black_box(&exs),
                &mon,
            ))
        })
    });
}

criterion_group! {
    name = benches;
    // Three samples under BENCH_SMOKE=1, as `pipeline`: enough to keep
    // every offline path here compiling and running in
    // `scripts/bench_smoke.sh`.
    config = Criterion::default().sample_size(if bench::smoke() { 3 } else { 10 });
    targets = forest_training, nlp_training, corpus_preparation
}
criterion_main!(benches);
