//! Property tests for the retraining weight/window policies
//! (`scout::retrain`). These are the exact transforms the lifecycle
//! controller reuses online, so their algebra is pinned down here:
//!
//! * `WindowPolicy::Sliding` never admits an out-of-window example;
//! * age half-life weights halve per half-life elapsed;
//! * `mistake_boost = 1.0` is a no-op on every weight.

use cloudsim::{SimDuration, SimTime};
use proptest::prelude::*;
use scout::config::ScoutConfig;
use scout::scout::{PreparedCorpus, PreparedExample};
use scout::{Example, ExtractedComponents, FeatureLayout, RetrainConfig, WindowPolicy};

/// A hand-built prepared corpus: featurization is irrelevant to the
/// window/weight algebra, so every item carries a trivial (but present,
/// hence trainable) feature vector unless marked untrainable.
fn corpus(times_min: &[u64], untrainable: &[usize]) -> PreparedCorpus {
    let layout = FeatureLayout::build(&ScoutConfig::phynet(), &[]);
    let items = times_min
        .iter()
        .enumerate()
        .map(|(i, &t)| PreparedExample {
            ordinal: i,
            example: Example::new(format!("incident {i}"), SimTime(t), i % 2 == 0),
            excluded: false,
            extracted: ExtractedComponents::default(),
            component_names: Vec::new(),
            features: if untrainable.contains(&i) {
                None
            } else {
                Some(vec![i as f64])
            },
            cluster_features: None,
        })
        .collect();
    PreparedCorpus {
        items,
        layout: layout.into(),
    }
}

proptest! {
    /// Sliding windows are half-open `[at - w, at)`: nothing older than
    /// the window, nothing at-or-after the retrain instant, and nothing
    /// untrainable is ever selected — while every trainable in-window
    /// example is.
    #[test]
    fn sliding_window_never_trains_out_of_window(
        times in proptest::collection::vec(0u64..50_000, 1..40),
        window_min in 1u64..20_000,
        at_min in 1u64..60_000,
        untrainable_mask in proptest::collection::vec(any::<bool>(), 40),
    ) {
        let untrainable: Vec<usize> = (0..times.len())
            .filter(|&i| untrainable_mask[i])
            .collect();
        let c = corpus(&times, &untrainable);
        let at = SimTime(at_min);
        let cfg = RetrainConfig {
            window: WindowPolicy::Sliding(SimDuration::minutes(window_min)),
            ..RetrainConfig::default()
        };
        let idx = cfg.window_indices(&c, at);
        let start = at.saturating_sub(SimDuration::minutes(window_min));
        for &i in &idx {
            let t = c.items[i].example.time;
            prop_assert!(t >= start, "selected example older than window");
            prop_assert!(t < at, "selected example at/after retrain instant");
            prop_assert!(c.items[i].trainable(), "selected untrainable example");
        }
        // Completeness: everything trainable inside the window is taken.
        let expected = (0..times.len())
            .filter(|&i| {
                let t = c.items[i].example.time;
                t >= start && t < at && c.items[i].trainable()
            })
            .count();
        prop_assert_eq!(idx.len(), expected);
    }

    /// Growing windows only cut at the retrain instant.
    #[test]
    fn growing_window_keeps_all_history(
        times in proptest::collection::vec(0u64..50_000, 1..40),
        at_min in 1u64..60_000,
    ) {
        let c = corpus(&times, &[]);
        let cfg = RetrainConfig { window: WindowPolicy::Growing, ..RetrainConfig::default() };
        let idx = cfg.window_indices(&c, SimTime(at_min));
        let expected = times.iter().filter(|&&t| t < at_min).count();
        prop_assert_eq!(idx.len(), expected);
    }

    /// An example exactly `k` half-lives old weighs `0.5^k`; i.e. one
    /// more half-life of age exactly halves the weight.
    #[test]
    fn age_weights_halve_per_half_life(
        half_life_min in 1u64..10_000,
        k in 0u32..12,
        base_min in 0u64..1_000,
    ) {
        let hl = SimDuration::minutes(half_life_min);
        let cfg = RetrainConfig { age_half_life: Some(hl), ..RetrainConfig::default() };
        let at = SimTime(base_min + half_life_min * (k as u64 + 1));
        let w_k = cfg.weight_at(at, SimTime(at.0 - half_life_min * k as u64), false);
        prop_assert!((w_k - 0.5f64.powi(k as i32)).abs() < 1e-9,
            "k half-lives old should weigh 0.5^k, got {w_k}");
        // One more half-life of age halves it.
        let w_k1 = cfg.weight_at(at, SimTime(at.0 - half_life_min * (k as u64 + 1)), false);
        prop_assert!((w_k1 - w_k / 2.0).abs() < 1e-9);
    }

    /// `mistake_boost = 1.0` leaves every weight untouched, mistaken or
    /// not — including in combination with age decay over a whole
    /// corpus (`weighted_window` output is bit-identical).
    #[test]
    fn unit_mistake_boost_is_a_noop(
        times in proptest::collection::vec(0u64..5_000, 1..30),
        mistaken_mask in proptest::collection::vec(any::<bool>(), 30),
        use_half_life in any::<bool>(),
    ) {
        let c = corpus(&times, &[]);
        let at = SimTime(6_000);
        let hl = if use_half_life { Some(SimDuration::minutes(700)) } else { None };
        let boosted = RetrainConfig {
            mistake_boost: 1.0,
            age_half_life: hl,
            window: WindowPolicy::Growing,
            ..RetrainConfig::default()
        };
        let mistaken = &mistaken_mask[..times.len()];
        let (sub_m, idx_m) = boosted.weighted_window(&c, at, mistaken);
        let (sub_0, idx_0) = boosted.weighted_window(&c, at, &vec![false; times.len()]);
        prop_assert_eq!(idx_m, idx_0);
        for (a, b) in sub_m.items.iter().zip(&sub_0.items) {
            prop_assert_eq!(a.example.weight.to_bits(), b.example.weight.to_bits(),
                "unit boost changed a weight");
        }
        // And a non-unit boost multiplies exactly the mistaken weights.
        let strong = RetrainConfig { mistake_boost: 3.0, ..boosted.clone() };
        let (sub_s, idx_s) = strong.weighted_window(&c, at, mistaken);
        for (slot, &i) in idx_s.iter().enumerate() {
            let expect = sub_0.items[slot].example.weight * if mistaken[i] { 3.0 } else { 1.0 };
            prop_assert!((sub_s.items[slot].example.weight - expect).abs() < 1e-12);
        }
    }
}
