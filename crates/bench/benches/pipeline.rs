//! Latency of the Scout's online path (§6 reports 1.79 ± 0.85 minutes per
//! call in production, dominated by remote data pulls; here the monitoring
//! plane is in-process, so these numbers isolate the compute).

use bench::{bench_monitoring, bench_scout, bench_world};
use criterion::{criterion_group, criterion_main, Criterion};
use ml::cpd::{detect_change_points, detect_change_points_fast, CpdConfig, FAST_THRESHOLD};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use retex::Regex;
use scout::{Extractor, FeatureLayout, Featurizer, ScoutConfig};
use std::hint::black_box;

fn online_path(c: &mut Criterion) {
    let world = bench_world();
    let mon = bench_monitoring(&world);
    let (scout, corpus) = bench_scout(&world, &mon);
    let item = corpus
        .items
        .iter()
        .find(|i| i.trainable())
        .expect("trainable incident");

    c.bench_function("scout_inference_end_to_end", |b| {
        b.iter(|| black_box(scout.predict_prepared(black_box(item), &mon)))
    });

    let config = ScoutConfig::phynet();
    let extractor = Extractor::new(&config, &world.topology);
    let text = item.example.text.clone();
    c.bench_function("component_extraction", |b| {
        b.iter(|| black_box(extractor.extract(black_box(&text))))
    });

    let layout = FeatureLayout::build(&config, &[]);
    let fz = Featurizer::new(&layout, &mon, cloudsim::SimDuration::hours(2));
    let extracted = extractor.extract(&text);
    c.bench_function("feature_construction", |b| {
        b.iter(|| black_box(fz.features(black_box(&extracted), item.example.time)))
    });
}

fn regex_engine(c: &mut Criterion) {
    let re = Regex::new(r"\b(vm|srv)-\d+\.c\d+\.dc\d+\b").unwrap();
    let hay =
        "noise ".repeat(50) + "then vm-3.c10.dc3 and srv-7.c2.dc1 appear" + &" tail".repeat(50);
    c.bench_function("retex_find_iter", |b| {
        b.iter(|| black_box(re.find_iter(black_box(&hay)).count()))
    });
}

fn change_point_detection(c: &mut Criterion) {
    let series: Vec<f64> = (0..24)
        .map(|i| if i < 14 { 0.5 } else { 1.5 } + 0.05 * ((i as f64) * 1.7).sin())
        .collect();
    c.bench_function("cpd_permutation_24", |b| {
        let mut rng = SmallRng::seed_from_u64(1);
        b.iter(|| {
            black_box(detect_change_points(
                black_box(&series),
                &CpdConfig::default(),
                &mut rng,
            ))
        })
    });
    c.bench_function("cpd_fast_24", |b| {
        b.iter(|| {
            black_box(detect_change_points_fast(
                black_box(&series),
                4,
                FAST_THRESHOLD,
            ))
        })
    });
}

criterion_group! {
    name = benches;
    // Three samples under BENCH_SMOKE=1: enough to keep every kernel here
    // compiling and running in `scripts/bench_smoke.sh`.
    config = Criterion::default().sample_size(if bench::smoke() { 3 } else { 20 });
    targets = online_path, regex_engine, change_point_detection
}
criterion_main!(benches);
