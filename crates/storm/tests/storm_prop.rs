//! Property tests for the storm-control stages.
//!
//! Three contracts from the issue, each the determinism story of one
//! stage:
//!
//! 1. **Fingerprint stability** — normalization-equivalent renderings
//!    of the same incident (case, punctuation, timestamps, counters)
//!    collide; distinct token streams don't.
//! 2. **Token-bucket determinism** — the admit/deny sequence is a pure
//!    function of the arrival stream: replays agree exactly, and one
//!    source's decisions are independent of every other source's
//!    arrivals.
//! 3. **Breaker totality** — any interleaving of gate/record events at
//!    arbitrary (even non-monotone) timestamps reaches a defined state,
//!    never panics, and replays to the same trip/reject history.

use proptest::prelude::*;
use storm::{
    fingerprint, normalize, BreakerConfig, BreakerSet, Gate, SourceThrottle, ThrottleConfig,
};

// Derives perturbation bits from a generated seed — pure, so every case
// replays identically.
use obs::hash::splitmix64 as mix;

/// Render `tokens` as alert text perturbed by `seed`: random case,
/// random punctuation separators, and injected pure-digit noise
/// (timestamps, retry counters) — everything normalization must erase.
fn render_perturbed(tokens: &[String], seed: u64) -> String {
    const SEPS: [&str; 6] = [" ", ", ", "!! ", " - ", "/", ": "];
    let mut out = String::new();
    for (i, token) in tokens.iter().enumerate() {
        if i > 0 {
            let h = mix(seed ^ (i as u64) << 1);
            out.push_str(SEPS[(h % SEPS.len() as u64) as usize]);
            if h & 8 == 0 {
                // Digit debris between tokens: dropped by normalization.
                out.push_str(&format!("{} ", h % 100_000));
            }
        }
        for (j, ch) in token.chars().enumerate() {
            let flip = mix(seed ^ (i as u64) << 20 ^ j as u64) & 1 == 1;
            out.push(if flip { ch.to_ascii_uppercase() } else { ch });
        }
    }
    out
}

/// Lowercase alphabetic tokens of length 2..8 — the survivors of
/// normalization.
fn token_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(proptest::collection::vec(0u8..26, 2..8), 1..8).prop_map(|tokens| {
        tokens
            .iter()
            .map(|letters| letters.iter().map(|&l| (b'a' + l) as char).collect())
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Normalization-equivalent renderings collide; the normalized
    /// stream is exactly the source tokens.
    #[test]
    fn equivalent_renderings_collide(
        tokens in token_strategy(),
        seed_a in 0u64..u64::MAX,
        seed_b in 0u64..u64::MAX,
    ) {
        let a = render_perturbed(&tokens, seed_a);
        let b = render_perturbed(&tokens, seed_b);
        prop_assert_eq!(normalize(&a), tokens.clone(), "rendering {:?}", a);
        prop_assert_eq!(
            fingerprint(&a, "netmon"),
            fingerprint(&b, "netmon"),
            "{:?} vs {:?}", a, b
        );
    }

    /// Distinct token streams (and distinct sources) separate.
    #[test]
    fn distinct_incidents_separate(
        tokens_a in token_strategy(),
        tokens_b in token_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        let a = render_perturbed(&tokens_a, seed);
        let b = render_perturbed(&tokens_b, seed);
        if tokens_a != tokens_b {
            prop_assert_ne!(fingerprint(&a, "netmon"), fingerprint(&b, "netmon"));
        }
        // The source must separate fingerprints too.
        prop_assert_ne!(fingerprint(&a, "netmon"), fingerprint(&a, "pagers"));
    }

    /// The token bucket's decision stream is replay-deterministic and
    /// per-source independent: deleting every other source's arrivals
    /// changes nothing for the survivor.
    #[test]
    fn token_bucket_is_deterministic_and_isolated(
        arrivals in proptest::collection::vec((0usize..4, 0u64..5_000), 0..200),
    ) {
        let config = ThrottleConfig { rate_per_sec: 5, burst: 3, max_sources: 8 };
        let sources = ["alpha", "beta", "gamma", "delta"];

        // Replay determinism: two fresh throttles, same stream, same
        // decisions.
        let mut t1 = SourceThrottle::new(config.clone());
        let mut t2 = SourceThrottle::new(config.clone());
        let d1: Vec<bool> = arrivals
            .iter()
            .map(|&(s, at)| t1.try_acquire(sources[s], at).is_ok())
            .collect();
        let d2: Vec<bool> = arrivals
            .iter()
            .map(|&(s, at)| t2.try_acquire(sources[s], at).is_ok())
            .collect();
        prop_assert_eq!(&d1, &d2);
        prop_assert_eq!(t1.dropped_total(), t2.dropped_total());

        // Isolation: replay only source 0's arrivals; its decisions
        // must match the interleaved run's subsequence exactly.
        let mut solo = SourceThrottle::new(config);
        let solo_decisions: Vec<bool> = arrivals
            .iter()
            .filter(|&&(s, _)| s == 0)
            .map(|&(_, at)| solo.try_acquire(sources[0], at).is_ok())
            .collect();
        let interleaved: Vec<bool> = arrivals
            .iter()
            .zip(&d1)
            .filter(|&(&(s, _), _)| s == 0)
            .map(|(_, &ok)| ok)
            .collect();
        prop_assert_eq!(solo_decisions, interleaved);
    }

    /// Breaker totality: arbitrary event sequences (gate, success,
    /// failure) at arbitrary timestamps never panic, keep every team in
    /// a defined state, and replay bit-identically.
    #[test]
    fn breaker_is_total_and_deterministic(
        events in proptest::collection::vec((0usize..3, 0u8..3, 0u64..20_000), 0..300),
        threshold in 1u32..5,
        open_ms in 1u64..5_000,
        probes in 1u32..4,
    ) {
        let config = BreakerConfig {
            failure_threshold: threshold,
            open_ms,
            half_open_probes: probes,
        };
        let teams = ["Net", "Storage", "DNS"];
        let run = |events: &[(usize, u8, u64)]| {
            let mut set = BreakerSet::new(config.clone());
            let mut gates = Vec::new();
            for &(team, kind, at) in events {
                match kind {
                    0 => gates.push(set.gate(teams[team], at) == Gate::Allow),
                    1 => { set.record(teams[team], true, at); }
                    _ => { set.record(teams[team], false, at); }
                }
            }
            (gates, set.trips_total(), set.rejects_total(),
             teams.iter().map(|t| set.state(t)).collect::<Vec<_>>())
        };
        let a = run(&events);
        let b = run(&events);
        prop_assert_eq!(&a.0, &b.0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
        prop_assert_eq!(&a.3, &b.3);

        // Bounds: a set can never reject more than it was asked, nor
        // trip more often than it saw failures.
        let gate_count = events.iter().filter(|e| e.1 == 0).count() as u64;
        let fail_count = events.iter().filter(|e| e.1 == 2).count() as u64;
        prop_assert!(a.2 <= gate_count);
        prop_assert!(a.1 <= fail_count);
    }
}
