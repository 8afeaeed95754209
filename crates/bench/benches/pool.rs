//! Sequential vs pooled timings for the two hottest paths — forest
//! training and CPD+ cluster featurization — reported as
//! `BENCH_pool.json` so CI and the docs can cite real numbers.
//!
//! Each row runs one untimed call per arm, then times the sequential and
//! pooled arms interleaved over a fixed repetition count
//! ([`paired_reps`]), so a cold start or drift on a shared machine lands
//! on both arms alike: the times are medians of reps, the speedup the
//! median of the per-pair ratios.

use bench::{
    bench_monitoring, bench_world, median, paired_reps, rounded, rows, smoke, time_s, write_report,
};
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
    speedup: f64,
}

/// Time `run` on a one-worker pool against the global pool, `reps`
/// interleaved pairs after one untimed call on each.
fn paired_row<R>(name: &'static str, reps: usize, run: impl Fn(&pool::Pool) -> R) -> Row {
    let sequential = pool::Pool::new(1);
    let arms = [&sequential, pool::Pool::global()];
    for p in arms {
        black_box(run(p));
    }
    let secs = paired_reps(reps, arms.len(), |arm| time_s(|| run(arms[arm])));
    let ratios: Vec<f64> = secs[0].iter().zip(&secs[1]).map(|(s, p)| s / p).collect();
    Row {
        name,
        sequential_ms: median(&secs[0]) * 1e3,
        pooled_ms: median(&secs[1]) * 1e3,
        speedup: median(&ratios),
    }
}

fn main() {
    let smoke = smoke();
    let (n, d, trees, reps) = if smoke {
        (60, 10, 8, 3)
    } else {
        (600, 100, 40, 7)
    };
    let threads = pool::Pool::global().threads();
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
    timings.push(paired_row("forest_fit", reps, |p| {
        let mut rng = SmallRng::seed_from_u64(3);
        RandomForest::fit_weighted_on(p, black_box(&x), &y, &w, 2, cfg.clone(), &mut rng)
    }));

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
    timings.push(paired_row("cluster_cpd", cpd_reps, |p| {
        model.cluster_features_on(
            p,
            black_box(&found),
            t,
            &mon,
            cloudsim::SimDuration::hours(2),
        )
    }));

    for r in &timings {
        println!(
            "{:<12} sequential {:>9.3} ms   pooled({threads}) {:>9.3} ms   speedup {:.2}x",
            r.name, r.sequential_ms, r.pooled_ms, r.speedup
        );
    }
    let benches = rows(&timings, |r| {
        Obj::new()
            .str("name", r.name)
            .num("sequential_ms", rounded(r.sequential_ms, 3))
            .num("pooled_ms", rounded(r.pooled_ms, 3))
            .num("speedup", rounded(r.speedup, 3))
    });
    write_report(
        "pool",
        reps,
        Obj::new()
            .uint("threads", threads as u64)
            .raw("benches", &benches),
    );
}
