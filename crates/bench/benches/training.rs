//! Offline-path costs: forest training, NLP baseline training, corpus
//! preparation (the retraining cadence of Fig. 10 must be cheap enough to
//! run every 10 days — §8 "given the cheap cost of re-training, we
//! recommend frequent retraining"), reported as `BENCH_training.json`.
//!
//! Each kernel takes milliseconds, so a rep is one call.

use bench::{bench_examples, bench_monitoring, bench_world, kernel_report, smoke, Kernel};
use ml::forest::{ForestConfig, RandomForest};
use nlp::NlpRouter;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use scout::{Scout, ScoutBuildConfig, ScoutConfig};
use std::hint::black_box;

fn main() {
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

    let world = bench_world();
    let texts: Vec<String> = world.incidents.iter().map(|i| i.text()).collect();
    let teams: Vec<usize> = world
        .incidents
        .iter()
        .map(|i| i.owner.id().0 as usize)
        .collect();

    let mon = bench_monitoring(&world);
    let exs: Vec<_> = bench_examples(&world).into_iter().take(60).collect();
    let build = ScoutBuildConfig::default();

    let kernels = vec![
        Kernel::new("random_forest_fit_600x200", 1, || {
            let mut rng = SmallRng::seed_from_u64(3);
            let config = ForestConfig {
                n_trees: 40,
                ..Default::default()
            };
            RandomForest::fit(black_box(&x), &y, 2, config, &mut rng)
        }),
        Kernel::new("nlp_router_fit", 1, || {
            NlpRouter::fit(black_box(&texts), &teams, 11)
        }),
        Kernel::new("scout_prepare_60_incidents", 1, || {
            Scout::prepare(&ScoutConfig::phynet(), &build, black_box(&exs), &mon)
        }),
    ];
    kernel_report("training", if smoke() { 3 } else { 10 }, kernels);
}
