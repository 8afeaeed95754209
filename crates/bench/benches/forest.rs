//! The forest kernels serving runs, one row at a time, reported as
//! `BENCH_forest.json`.
//!
//! A Scout answers one incident per request, so the served forest cost
//! is one row's descent through every tree (`predict_proba_into`, the
//! only kernel; batch scoring is a pool map of it) plus, for the
//! explanation, one row's feature contributions. Each is timed per row,
//! sequentially on one thread, on two forests:
//!
//!  - `phynet` — the PhyNet Scout's own forest, fitted exactly as a
//!    served Scout's is (`Scout::train` with the default build), scoring
//!    the feature rows of the corpus it was trained on;
//!  - `paper_scale` — a synthetic 100-tree, depth ≤ 16 forest over
//!    44-wide rows shaped like the featurizer's output, grown to the
//!    depth cap.
//!
//! Arms, interleaved per rep:
//!
//!  - `walk` — the enum-tree walk (`predict_proba_walk`), kept as the
//!    bit-identity oracle: ~64-byte `Node` enums, a match per level;
//!  - `flat` — the per-row descent over the node-major tables;
//!  - `contrib` — `feature_contributions` for class 1.
//!
//! Flat and walk are bit-identical (proptest-enforced in
//! `ml/tests/flat_prop.rs`); the bench re-asserts it on every row before
//! timing. Every run asserts flat ≥ 1x walk on both forests; the
//! headline figures come from the full run's `BENCH_forest.json`.

use bench::{
    bench_examples, bench_monitoring, median, min, paired_reps, rounded, rows, serving_world,
    smoke, smoke_build, time_s, write_report,
};
use ml::forest::{ForestConfig, RandomForest};
use obs::json::Obj;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scout::{Scout, ScoutBuildConfig, ScoutConfig};
use std::hint::black_box;

/// Rows scored per timed pass, cycling through a forest's row set.
const PASS_ROWS: usize = 4096;

const ARMS: [&str; 3] = ["walk", "flat", "contrib"];

/// Synthetic training set shaped like Scout feature rows: blocks of
/// pooled time-series stats (level, spread, order stats) with a
/// nonlinear label rule so the trees actually grow toward the depth cap.
fn training_data(n: usize, d: usize, rng: &mut SmallRng) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..d)
            .map(|j| {
                let scale = if j % 11 == 0 { 100.0 } else { 1.0 };
                rng.gen_range(0.0..scale)
            })
            .collect();
        // Heavily overlapping classes: the forest grows to the depth cap
        // (paper-scale trees) instead of separating the data early.
        let signal = row[0] / 100.0 + (row[3] - row[7]).abs() + row[d / 2] * row[d - 1];
        let noise: f64 = rng.gen_range(0.0..1.5);
        y.push(usize::from(signal + noise > 1.85));
        x.push(row);
    }
    (x, y)
}

/// The served PhyNet Scout's forest and the feature rows of its corpus.
fn phynet(smoke: bool) -> (RandomForest, Vec<Vec<f64>>) {
    let world = serving_world(smoke);
    let mon = bench_monitoring(&world);
    let build = if smoke {
        smoke_build()
    } else {
        ScoutBuildConfig::default()
    };
    let (scout, corpus) = Scout::train(ScoutConfig::phynet(), build, &bench_examples(&world), &mon);
    let rows = corpus
        .items
        .into_iter()
        .filter_map(|item| item.features)
        .collect();
    (scout.forest().clone(), rows)
}

/// A paper-scale synthetic forest (the repo's `ForestConfig::default`,
/// 100 trees in a full run) and fresh rows from the same distribution.
fn paper_scale(smoke: bool) -> (RandomForest, Vec<Vec<f64>>) {
    // Smoke shrinks the forest, not the pass, so a pass stays well above
    // timer noise and the flat ≥ 1x gate reads a real difference.
    let (train_n, n_trees) = if smoke { (200, 16) } else { (8000, 100) };
    let n_features = 44; // four telemetry blocks x 11 pooled stats
    let mut rng = SmallRng::seed_from_u64(7);
    let (x, y) = training_data(train_n, n_features, &mut rng);
    let config = ForestConfig {
        n_trees,
        ..ForestConfig::default()
    };
    let forest = RandomForest::fit(&x, &y, 2, config, &mut rng);
    let (rows, _) = training_data(PASS_ROWS, n_features, &mut rng);
    (forest, rows)
}

/// Per-row nanoseconds of each arm (best of `reps`), and the median of
/// the per-rep paired walk/flat ratios.
struct ForestStats {
    name: &'static str,
    n_trees: usize,
    n_features: usize,
    distinct_rows: usize,
    row_ns: [f64; 3],
    speedup: f64,
}

fn measure(
    name: &'static str,
    forest: &RandomForest,
    set: &[Vec<f64>],
    reps: usize,
) -> ForestStats {
    assert!(!set.is_empty(), "{name}: no feature rows to score");
    for (i, x) in set.iter().enumerate() {
        let walk = forest.predict_proba_walk(x);
        let flat = forest.predict_proba(x);
        assert!(
            walk.iter()
                .zip(&flat)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{name}: row {i} diverged"
        );
    }
    let row = |k: usize| set[k % set.len()].as_slice();
    let secs = paired_reps(reps, ARMS.len(), |arm| match arm {
        0 => time_s(|| {
            for k in 0..PASS_ROWS {
                black_box(forest.predict_proba_walk(row(k)));
            }
        }),
        1 => time_s(|| {
            let mut out = [0.0; 2];
            for k in 0..PASS_ROWS {
                forest.predict_proba_into(row(k), &mut out);
                black_box(out);
            }
        }),
        _ => time_s(|| {
            for k in 0..PASS_ROWS {
                black_box(forest.feature_contributions(row(k), 1));
            }
        }),
    });
    let ratios: Vec<f64> = secs[0].iter().zip(&secs[1]).map(|(w, f)| w / f).collect();
    ForestStats {
        name,
        n_trees: forest.n_trees(),
        n_features: forest.n_features(),
        distinct_rows: set.len(),
        row_ns: [0, 1, 2].map(|arm| min(&secs[arm]) * 1e9 / PASS_ROWS as f64),
        speedup: median(&ratios),
    }
}

fn main() {
    let smoke = smoke();
    let reps = if smoke { 3 } else { 9 };
    let (served, served_rows) = phynet(smoke);
    let (synthetic, synthetic_rows) = paper_scale(smoke);
    let stats = [
        measure("phynet", &served, &served_rows, reps),
        measure("paper_scale", &synthetic, &synthetic_rows, reps),
    ];

    for s in &stats {
        println!(
            "{:<11} {:>3} trees {:>3} features: walk {:>8.0} ns/row   flat {:>7.0} ns/row   \
             contrib {:>8.0} ns/row   flat speedup {:.2}x (median of {reps} paired reps)",
            s.name, s.n_trees, s.n_features, s.row_ns[0], s.row_ns[1], s.row_ns[2], s.speedup
        );
    }

    // Floor on every run: the flat kernel must never lose to the walk.
    // The full run's speedups are reported in the JSON, not gated here —
    // shared machines are too noisy for a hard multiple.
    for s in &stats {
        assert!(
            s.speedup >= 1.0,
            "{}: flat per-row kernel ({:.0} ns/row) lost to the enum walk ({:.0} ns/row)",
            s.name,
            s.row_ns[1],
            s.row_ns[0]
        );
    }

    let forests = rows(&stats, |s| {
        let arms = ARMS
            .iter()
            .zip(s.row_ns)
            .fold(Obj::new(), |o, (arm, ns)| o.num(arm, rounded(ns, 1)));
        Obj::new()
            .str("name", s.name)
            .uint("n_trees", s.n_trees as u64)
            .uint("n_features", s.n_features as u64)
            .uint("distinct_rows", s.distinct_rows as u64)
            .raw("row_ns", &arms.finish())
            .num("flat_speedup_vs_walk", rounded(s.speedup, 3))
    });
    write_report(
        "forest",
        reps,
        Obj::new()
            .uint("pass_rows", PASS_ROWS as u64)
            .raw("forests", &forests),
    );
}
