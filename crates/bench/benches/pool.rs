//! Sequential vs pooled timings for the two hottest paths — forest
//! training and CPD+ cluster featurization — reported as
//! `BENCH_pool.json` so CI and the docs can cite real numbers.
//!
//! Not a Criterion harness: the in-workspace Criterion shim prints
//! statistics but does not return them, and this bench needs the raw
//! medians to build the JSON report. Timing is done directly with
//! `Instant` over a fixed repetition count (median of reps).

use bench::{bench_monitoring, bench_world, median, reps_s, rounded, rows, smoke, write_report};
use ml::forest::{ForestConfig, RandomForest};
use obs::json::Obj;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use scout::cpdplus::{CpdFeatureLayout, CpdPlus, CpdPlusConfig};
use scout::extract::Extractor;
use scout::ScoutConfig;
use std::hint::black_box;

struct Row {
    name: &'static str,
    sequential_ms: f64,
    pooled_ms: f64,
}

fn main() {
    let smoke = smoke();
    let (n, d, trees, reps) = if smoke {
        (60, 10, 8, 3)
    } else {
        (600, 100, 40, 7)
    };
    let threads = pool::Pool::global().threads();
    let pooled = pool::Pool::global();
    let sequential = pool::Pool::new(1);
    let mut timings = Vec::new();

    // Hot path 1: forest training.
    let x: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|j| ((i * 31 + j * 17) % 97) as f64 / 97.0)
                .collect()
        })
        .collect();
    let y: Vec<usize> = (0..n).map(|i| usize::from((i * 31) % 97 > 48)).collect();
    let w = vec![1.0; n];
    let cfg = ForestConfig {
        n_trees: trees,
        ..ForestConfig::default()
    };
    let fit = |p: &pool::Pool| {
        let secs = reps_s(reps, || {
            let mut rng = SmallRng::seed_from_u64(3);
            RandomForest::fit_weighted_on(p, black_box(&x), &y, &w, 2, cfg.clone(), &mut rng)
        });
        median(&secs) * 1e3
    };
    timings.push(Row {
        name: "forest_fit",
        sequential_ms: fit(&sequential),
        pooled_ms: fit(pooled),
    });

    // Hot path 2: CPD+ cluster featurization (fan-out over every covered
    // device of a cluster mention).
    let world = bench_world();
    let mon = bench_monitoring(&world);
    let scfg = ScoutConfig::phynet();
    let ex = Extractor::new(&scfg, &world.topology);
    let model = CpdPlus::new(
        CpdPlusConfig::default(),
        CpdFeatureLayout::build(&scfg, &[]),
    );
    let found = ex.extract("widespread problems in c0.dc0");
    let t = world
        .faults
        .first()
        .map(|f| f.start + cloudsim::SimDuration::hours(1))
        .unwrap_or(cloudsim::SimTime::from_hours(100));
    let cpd_reps = if smoke { 1 } else { 3 };
    let cluster = |p: &pool::Pool| {
        let secs = reps_s(cpd_reps, || {
            model.cluster_features_on(
                p,
                black_box(&found),
                t,
                &mon,
                cloudsim::SimDuration::hours(2),
            )
        });
        median(&secs) * 1e3
    };
    timings.push(Row {
        name: "cluster_cpd",
        sequential_ms: cluster(&sequential),
        pooled_ms: cluster(pooled),
    });

    let speedup = |r: &Row| r.sequential_ms / r.pooled_ms.max(1e-9);
    for r in &timings {
        println!(
            "{:<12} sequential {:>9.3} ms   pooled({threads}) {:>9.3} ms   speedup {:.2}x",
            r.name,
            r.sequential_ms,
            r.pooled_ms,
            speedup(r)
        );
    }
    let benches = rows(&timings, |r| {
        Obj::new()
            .str("name", r.name)
            .num("sequential_ms", rounded(r.sequential_ms, 3))
            .num("pooled_ms", rounded(r.pooled_ms, 3))
            .num("speedup", rounded(speedup(r), 3))
    });
    write_report(
        "pool",
        reps,
        Obj::new()
            .uint("threads", threads as u64)
            .raw("benches", &benches),
    );
}
