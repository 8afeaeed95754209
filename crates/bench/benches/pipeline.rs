//! Latency of the Scout's online path (§6 reports 1.79 ± 0.85 minutes per
//! call in production, dominated by remote data pulls; here the monitoring
//! plane is in-process, so these numbers isolate the compute), reported
//! as `BENCH_pipeline.json`.
//!
//! Kernels: the whole online predict of one prepared incident, and its
//! stages in isolation — component extraction, feature construction, the
//! regex engine extraction rests on, and change-point detection (the
//! permutation test and the fast scan) over one 24-point series.

use bench::{bench_monitoring, bench_scout, bench_world, kernel_report, smoke, Kernel};
use ml::cpd::{detect_change_points, detect_change_points_fast, CpdConfig, FAST_THRESHOLD};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use retex::Regex;
use scout::{Extractor, FeatureLayout, Featurizer, ScoutConfig};
use std::hint::black_box;

fn main() {
    let world = bench_world();
    let mon = bench_monitoring(&world);
    let (scout, corpus) = bench_scout(&world, &mon);
    let item = corpus
        .items
        .iter()
        .find(|i| i.trainable())
        .expect("trainable incident");

    let config = ScoutConfig::phynet();
    let extractor = Extractor::new(&config, &world.topology);
    let text = item.example.text.clone();
    let layout = FeatureLayout::build(&config, &[]);
    let fz = Featurizer::new(&layout, &mon, cloudsim::SimDuration::hours(2));
    let extracted = extractor.extract(&text);

    let re = Regex::new(r"\b(vm|srv)-\d+\.c\d+\.dc\d+\b").unwrap();
    let hay =
        "noise ".repeat(50) + "then vm-3.c10.dc3 and srv-7.c2.dc1 appear" + &" tail".repeat(50);

    let series: Vec<f64> = (0..24)
        .map(|i| if i < 14 { 0.5 } else { 1.5 } + 0.05 * ((i as f64) * 1.7).sin())
        .collect();
    let mut rng = SmallRng::seed_from_u64(1);

    // Calls per rep put each rep near a millisecond or more.
    let kernels = vec![
        Kernel::new("scout_inference_end_to_end", 64, || {
            scout.predict_prepared(black_box(item), &mon)
        }),
        Kernel::new("component_extraction", 256, || {
            extractor.extract(black_box(&text))
        }),
        Kernel::new("feature_construction", 8, || {
            fz.features(black_box(&extracted), item.example.time)
        }),
        Kernel::new("retex_find_iter", 512, || {
            re.find_iter(black_box(&hay)).count()
        }),
        Kernel::new("cpd_permutation_24", 4, || {
            detect_change_points(black_box(&series), &CpdConfig::default(), &mut rng)
        }),
        Kernel::new("cpd_fast_24", 512, || {
            detect_change_points_fast(black_box(&series), 4, FAST_THRESHOLD)
        }),
    ];
    kernel_report("pipeline", if smoke() { 3 } else { 20 }, kernels);
}
