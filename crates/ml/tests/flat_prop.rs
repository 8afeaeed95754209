//! Property tests for the flattened node-major forest (the predict hot
//! path). The enum-walking traversal in `tree.rs` is the oracle: every
//! path through the flat tables must reproduce it **bit for bit** —
//! including NaN feature values, which the branchless descent must send
//! right exactly like the oracle's `if x <= t { left } else { right }`.

use ml::forest::{ForestConfig, RandomForest};
use ml::persist::{forest_from_lines, forest_to_text, Lines};
use ml::FeatureMatrix;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Labeled data with both classes present plus a seed for the forest RNG.
fn dataset() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<usize>, u64)> {
    (6usize..40, 1usize..6, 0u64..1 << 32).prop_flat_map(|(n, d, seed)| {
        (
            proptest::collection::vec(proptest::collection::vec(-100.0f64..100.0, d..=d), n..=n),
            proptest::collection::vec(0usize..2, n..=n)
                .prop_filter("both classes", |y| y.contains(&0) && y.contains(&1)),
            Just(seed),
        )
    })
}

fn fit(x: &[Vec<f64>], y: &[usize], seed: u64) -> RandomForest {
    let mut rng = SmallRng::seed_from_u64(seed);
    RandomForest::fit(
        x,
        y,
        2,
        ForestConfig {
            n_trees: 7,
            ..ForestConfig::default()
        },
        &mut rng,
    )
}

/// Corrupt some feature values into NaN / ±inf so descent exercises the
/// non-finite comparison edge on real split thresholds.
fn poison(x: &mut [Vec<f64>], seed: u64) {
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let mut k = seed;
    for row in x.iter_mut() {
        for v in row.iter_mut() {
            k = k
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if k >> 61 == 0 {
                *v = specials[(k >> 32) as usize % specials.len()];
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Single-row flat traversal is bit-identical to the enum walk, even
    /// with NaN/±inf features.
    #[test]
    fn flat_single_row_matches_enum_walk((mut x, y, seed) in dataset()) {
        let f = fit(&x, &y, seed);
        poison(&mut x, seed);
        for xi in &x {
            let walk = f.predict_proba_walk(xi);
            let flat = f.predict_proba(xi);
            prop_assert_eq!(
                walk.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                flat.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    /// Tiled matrix scoring is bit-identical to the walk at every worker
    /// count: results may not depend on tile boundaries or scheduling.
    #[test]
    fn flat_matrix_matches_walk_at_any_worker_count((mut x, y, seed) in dataset()) {
        let f = fit(&x, &y, seed);
        poison(&mut x, seed);
        // Replicate rows past one scoring tile so the ragged tail and
        // multi-tile paths both run.
        let rows: Vec<Vec<f64>> = x.iter().cycle().take(70).cloned().collect();
        let expect: Vec<u64> = rows
            .iter()
            .flat_map(|r| f.predict_proba_walk(r))
            .map(|v| v.to_bits())
            .collect();
        let m = FeatureMatrix::from_rows(&rows);
        for workers in [1usize, 2, 8] {
            let scored = f.predict_proba_matrix_on(&pool::Pool::new(workers), &m);
            let got: Vec<u64> = scored.data().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&expect, &got, "workers={}", workers);
        }
    }

    /// Persistence round-trip: a forest saved in the line format and
    /// loaded back rebuilds flat tables that score bit-identically to the
    /// original's enum walk. Old model files gain the fast path for free.
    #[test]
    fn persisted_forest_round_trips_through_flat_tables((mut x, y, seed) in dataset()) {
        let f = fit(&x, &y, seed);
        let text = forest_to_text(&f);
        let back = forest_from_lines(&mut Lines::new(&text)).unwrap();
        poison(&mut x, seed);
        for xi in &x {
            prop_assert_eq!(
                f.predict_proba_walk(xi).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                back.predict_proba(xi).iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}

/// A persisted header claiming zero trees must be rejected at load: an
/// empty forest would divide by zero when averaging tree distributions.
#[test]
fn zero_tree_model_file_is_rejected() {
    let err = forest_from_lines(&mut Lines::new("forest 0\n")).unwrap_err();
    let msg = format!("{err:?}");
    assert!(msg.contains("at least one tree"), "unexpected error: {msg}");
}

/// A tree header claiming more features than the flattened tables' `u16`
/// index can address is a format error at load, not a panic.
#[test]
fn too_wide_model_file_is_rejected() {
    for width in [65_535, 70_000] {
        let src = format!("forest 1\ntree 2 {width} 1\nL 0.5 0.5\n");
        let err = forest_from_lines(&mut Lines::new(&src)).unwrap_err();
        let msg = format!("{err:?}");
        assert!(msg.contains("too wide"), "unexpected error: {msg}");
    }
    let widest = format!("forest 1\ntree 2 {} 1\nL 0.5 0.5\n", u16::MAX - 1);
    assert!(forest_from_lines(&mut Lines::new(&widest)).is_ok());
}

/// A split line may only name children after itself, but that alone
/// lets two splits share a child. Flattening copies a shared subtree
/// once per path into it, so `levels` such lines would become 2^levels
/// nodes (about 30 lines exhaust memory). Loading rejects any node that
/// is not the child of exactly one split.
#[test]
fn shared_children_model_file_is_rejected() {
    let levels = 16;
    // Node i splits into node i+1 on both sides: a chain read as a DAG.
    let mut same_child = format!("forest 1\ntree 2 1 {}\n", levels + 1);
    // Node i's right child is node i+1's left child.
    let mut crossed = format!("forest 1\ntree 2 1 {}\n", levels + 2);
    for i in 0..levels {
        same_child.push_str(&format!("S 0 0.5 {} {} 0.5 0.5\n", i + 1, i + 1));
        crossed.push_str(&format!("S 0 0.5 {} {} 0.5 0.5\n", i + 1, i + 2));
    }
    same_child.push_str("L 0.5 0.5\n");
    crossed.push_str("L 0.5 0.5\nL 0.5 0.5\n");
    for src in [same_child, crossed] {
        let err = forest_from_lines(&mut Lines::new(&src)).unwrap_err();
        let msg = format!("{err:?}");
        assert!(msg.contains("not exactly one"), "unexpected error: {msg}");
    }
}

/// A valid tree may be a chain as deep as its node count. Flattening
/// must not recurse once per level, or a 100k-level chain (a 3.7 MB
/// file) overflows the stack and aborts the process.
#[test]
fn deep_chain_model_file_loads_and_scores() {
    let depth = 100_000;
    // Split 2i sends `x <= 0` to leaf 2i+1 and the rest to split 2i+2.
    let mut src = format!("forest 1\ntree 2 1 {}\n", 2 * depth + 1);
    for i in 0..depth {
        src.push_str(&format!("S 0 0.0 {} {} 0.5 0.5\n", 2 * i + 1, 2 * i + 2));
        src.push_str("L 1.0 0.0\n");
    }
    src.push_str("L 0.0 1.0\n");
    let forest = forest_from_lines(&mut Lines::new(&src)).unwrap();
    for x in [[-1.0], [1.0], [f64::NAN]] {
        assert_eq!(forest.predict_proba(&x), forest.predict_proba_walk(&x));
    }
    assert_eq!(forest.predict_proba(&[1.0]), vec![0.0, 1.0]);
}

/// Counts in a header are claims, not sizes: a forged count must fail
/// as a short file, not as a `capacity overflow` panic.
#[test]
fn huge_counts_in_model_file_are_errors() {
    let huge = u64::MAX;
    for src in [
        format!("forest 1\ntree 2 1 {huge}\nL 0.5 0.5\n"),
        format!("forest {huge}\ntree 2 1 1\nL 0.5 0.5\n"),
    ] {
        assert!(forest_from_lines(&mut Lines::new(&src)).is_err());
    }
    let src = format!("adaboost {huge}\nalpha 1.0\ntree 2 1 1\nL 0.5 0.5\n");
    assert!(ml::persist::adaboost_from_lines(&mut Lines::new(&src)).is_err());
}

/// A leaf's descent step reads feature 0, so a forest of zero-width
/// rows has no valid input; it is a format error at load.
#[test]
fn zero_feature_model_file_is_rejected() {
    let err = forest_from_lines(&mut Lines::new("forest 1\ntree 2 0 1\nL 0.5 0.5\n")).unwrap_err();
    let msg = format!("{err:?}");
    assert!(
        msg.contains("at least one feature"),
        "unexpected error: {msg}"
    );
}

/// Fitting with `n_trees: 0` is a configuration bug, caught eagerly.
#[test]
#[should_panic(expected = "a forest needs at least one tree")]
fn fitting_zero_trees_panics() {
    let x = vec![vec![0.0], vec![1.0]];
    let y = vec![0, 1];
    let mut rng = SmallRng::seed_from_u64(1);
    RandomForest::fit(
        &x,
        &y,
        2,
        ForestConfig {
            n_trees: 0,
            ..ForestConfig::default()
        },
        &mut rng,
    );
}
