//! Forest inference-core throughput: legacy enum-walking batch scoring
//! vs the flattened node-major tables, reported as `BENCH_forest.json`.
//!
//! This isolates the regime the flattening targets: the featcache-warm
//! serving path, where look-back telemetry aggregation is fully
//! amortized by the chunk cache and forest traversal dominates the
//! predict pass. The workload is a paper-scale forest (100 trees, depth
//! ≤ 16) over feature rows shaped like the Scout featurizer's output,
//! scored in large batches:
//!
//!  - `walk` — the legacy path: one enum-walk per (row, tree), a fresh
//!    `Vec<f64>` per tree visit, pointer-chasing through boxed nodes.
//!  - `flat` — the node-major path: branchless lockstep descent over
//!    contiguous packed-node tables, tree-outermost, tiles of rows
//!    advancing level-synchronously (see `ml::flat`).
//!
//! Both paths are bit-identical by construction (proptest-enforced in
//! `ml/tests/flat_prop.rs`); the bench re-asserts it on this workload
//! before timing. Smoke runs assert flat ≥ 1x walk; the headline figure
//! comes from the full run's `BENCH_forest.json`.

use bench::{median, min, paired_reps, rounded, rows, smoke, time_s, write_report};
use ml::forest::{ForestConfig, RandomForest};
use ml::FeatureMatrix;
use obs::json::Obj;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct RunStats {
    name: &'static str,
    pass_ms: f64,
    predictions_per_s: f64,
}

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

/// The legacy per-sample-pooled batch path: one enum walk per row.
fn predict_proba_batch_walk(forest: &RandomForest, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let _span = obs::span!("ml.forest.predict_batch");
    pool::Pool::global().parallel_map(xs, |_, x| forest.predict_proba_walk(x))
}

fn main() {
    let smoke = smoke();
    // Smoke shrinks the forest, not the batch: under ~1k rows a pass is
    // tens of microseconds of pool dispatch and the flat ≥ 1x gate below
    // reads noise.
    let (train_n, n_trees, batch_rows, reps) = if smoke {
        (200, 16, 4096, 3)
    } else {
        (8000, 100, 4096, 9)
    };
    let n_features = 44; // four telemetry blocks x 11 pooled stats

    let mut rng = SmallRng::seed_from_u64(7);
    let (x, y) = training_data(train_n, n_features, &mut rng);
    // The repo's serving defaults — exactly what a deployed Scout's
    // forest looks like (ForestConfig::default, n_trees included).
    let config = ForestConfig {
        n_trees,
        ..ForestConfig::default()
    };
    let forest = RandomForest::fit(&x, &y, 2, config, &mut rng);

    // The scoring batch replicates training-like rows past any cache.
    let batch: Vec<Vec<f64>> = (0..batch_rows)
        .map(|_| training_data(1, n_features, &mut rng).0.pop().unwrap())
        .collect();
    let matrix = FeatureMatrix::from_rows(&batch);

    // Bit-identity sanity on this exact workload before timing anything.
    let walk_out = predict_proba_batch_walk(&forest, &batch);
    let flat_out = forest.predict_proba_matrix(&matrix);
    for (i, row) in walk_out.iter().enumerate() {
        let flat_row = flat_out.row(i);
        for (a, b) in row.iter().zip(flat_row) {
            assert_eq!(a.to_bits(), b.to_bits(), "row {i} diverged");
        }
    }

    // Walk and flat interleave (walk, flat, walk, flat, ...). The headline
    // speedup is the **median of the per-rep paired ratios** — a
    // best-of-walk / best-of-flat quotient would pair timings from
    // different drift windows. Pass times and predictions/s are still
    // best-of-`reps`.
    let secs = paired_reps(reps, 2, |arm| match arm {
        0 => time_s(|| assert_eq!(predict_proba_batch_walk(&forest, &batch).len(), batch_rows)),
        _ => time_s(|| assert_eq!(forest.predict_proba_matrix(&matrix).rows(), batch_rows)),
    });
    let ratios: Vec<f64> = secs[0].iter().zip(&secs[1]).map(|(w, f)| w / f).collect();
    let speedup = median(&ratios);
    let stats = [("walk", min(&secs[0])), ("flat", min(&secs[1]))].map(|(name, best)| RunStats {
        name,
        pass_ms: best * 1e3,
        predictions_per_s: batch_rows as f64 / best,
    });

    for r in &stats {
        println!(
            "{:<5} pass {:>9.3} ms   {:>12.0} predictions/s",
            r.name, r.pass_ms, r.predictions_per_s
        );
    }
    println!(
        "flat speedup: {speedup:.2}x over walk, median of {reps} paired reps \
         ({} trees, {} features, {} rows)",
        forest.trees().len(),
        n_features,
        batch_rows
    );

    // Smoke floor: the flattened path must never lose to the walk.
    // The full run's speedup is reported in the JSON, not gated here —
    // CI machines are too noisy for a hard multiple.
    assert!(
        speedup >= 1.0,
        "flattened path ({:.0}/s) lost to the enum walk ({:.0}/s)",
        stats[1].predictions_per_s,
        stats[0].predictions_per_s
    );

    let configs = rows(&stats, |r| {
        Obj::new()
            .str("name", r.name)
            .num("pass_ms", rounded(r.pass_ms, 3))
            .num("predictions_per_s", rounded(r.predictions_per_s, 0))
    });
    write_report(
        "forest",
        reps,
        Obj::new()
            .uint("n_trees", forest.trees().len() as u64)
            .uint("n_features", n_features as u64)
            .uint("batch_rows", batch_rows as u64)
            .raw("configs", &configs)
            .num("flat_speedup_vs_walk", rounded(speedup, 3)),
    );
}
