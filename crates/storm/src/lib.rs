//! `storm` — the alert-storm control plane in front of `/v1/route`.
//!
//! An alert storm is the adversarial workload the paper's robustness
//! story (§8) worries about: thousands of near-duplicate firings per
//! minute, correlated gray failures, cascades that page half the fleet
//! at once. Routing every firing through a full fleet fan-out burns the
//! whole serving budget on redundant work and starves the incidents
//! that matter. This crate is the suppression front-end that stands
//! between HTTP admission and the fleet dispatcher, in four stages:
//!
//! 1. **Dedup** ([`DedupTable`]): a content [`fingerprint`] over the
//!    normalized incident text + source collapses repeated firings
//!    within a bounded time window into one routed incident; suppressed
//!    duplicates are answered from the original's cached decision.
//! 2. **Throttling** ([`SourceThrottle`]): per-source token buckets so
//!    one flooding source cannot starve the rest.
//! 3. **Batching** ([`Severity`], [`MAX_BATCH`]): Sev3 incidents share
//!    coalesced fan-out passes of up to [`MAX_BATCH`] (the queue lives in
//!    `serve`, next to the dispatcher it feeds).
//! 4. **Circuit breakers** ([`BreakerSet`]): per-downstream-team
//!    closed/open/half-open circuits over the fan-out's per-team error
//!    outcomes, tripping broken teams out of the fan-out entirely.
//!
//! **Determinism.** No stage reads a clock or a random source: every
//! decision is a pure function of the call sequence and the `now_ms`
//! each call carries, supplied by an injected [`Clock`] (wall for
//! production, [`ManualClock`] for tests). Inside [`StormControl`] each
//! stage sits behind its own mutex, so concurrent requests serialize
//! into *some* arrival order and the decisions are exactly what the
//! sequential replay of that order would produce — the same
//! "bit-identical to the sequential twin" contract the pool, the
//! feature cache, and the sharded fan-out uphold. Non-storm traffic
//! (unique text, within rate, no failing teams) passes every stage
//! untouched, which is what keeps its routing decisions byte-identical
//! with the layer on or off.

mod batch;
mod breaker;
mod clock;
mod dedup;
mod fingerprint;
mod throttle;

pub use batch::{Severity, MAX_BATCH};
pub use breaker::{BreakerConfig, BreakerSet, BreakerState, Gate};
pub use clock::{Clock, ManualClock};
pub use dedup::{DedupConfig, DedupOutcome, DedupTable};
pub use fingerprint::{fingerprint, normalize};
pub use throttle::{SourceThrottle, ThrottleConfig};

use std::sync::Mutex;

/// Source name assumed when a request does not declare one.
pub const DEFAULT_SOURCE: &str = "unknown";

/// The composed storm-control configuration.
#[derive(Debug, Clone, Default)]
pub struct StormConfig {
    pub dedup: DedupConfig,
    pub throttle: ThrottleConfig,
    pub breaker: BreakerConfig,
}

/// The three stateful stages (dedup, throttle, breakers) behind one
/// façade, metered through `obs`.
///
/// Each stage guards its own state with a mutex; the lock acquisition
/// order *is* the decision order, so a concurrent run is always
/// equivalent to some sequential replay (see the crate docs).
pub struct StormControl {
    config: StormConfig,
    clock: Clock,
    dedup: Mutex<DedupTable>,
    throttle: Mutex<SourceThrottle>,
    breakers: Mutex<BreakerSet>,
}

impl StormControl {
    /// A production control plane on the wall clock.
    pub fn new(config: StormConfig) -> StormControl {
        StormControl::with_clock(config, Clock::wall())
    }

    /// A control plane on an explicit clock (tests).
    pub fn with_clock(config: StormConfig, clock: Clock) -> StormControl {
        StormControl {
            dedup: Mutex::new(DedupTable::new(config.dedup.clone())),
            throttle: Mutex::new(SourceThrottle::new(config.throttle.clone())),
            breakers: Mutex::new(BreakerSet::new(config.breaker.clone())),
            config,
            clock,
        }
    }

    pub fn config(&self) -> &StormConfig {
        &self.config
    }

    /// The injected clock's current reading.
    pub fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// Stage 2: admit one request from `source`, or refuse with the
    /// milliseconds until a retry would succeed.
    pub fn admit(&self, source: &str, now_ms: u64) -> Result<(), u64> {
        let mut throttle = self.throttle.lock().unwrap();
        match throttle.try_acquire(source, now_ms) {
            Ok(()) => Ok(()),
            Err(retry_ms) => {
                let dropped = throttle.dropped_total();
                drop(throttle);
                obs::counter("storm.throttle.dropped").inc();
                // One alert at the first drop, then a deterministic
                // milestone cadence — a 100x flood must not flood the
                // flight ring too.
                if dropped == 1 || dropped.is_multiple_of(1000) {
                    obs::flight().alert(
                        "storm-throttle",
                        &format!("source {source:?} over rate; {dropped} dropped so far"),
                    );
                }
                Err(retry_ms)
            }
        }
    }

    /// Stage 1: classify one firing. Returns the fingerprint (for
    /// [`store_decision`](StormControl::store_decision)) and the
    /// dedup outcome.
    pub fn observe(&self, text: &str, source: &str, now_ms: u64) -> (u64, DedupOutcome) {
        let fp = fingerprint(text, source);
        let mut dedup = self.dedup.lock().unwrap();
        let outcome = dedup.observe(fp, now_ms);
        let suppressed = dedup.suppressed_total();
        drop(dedup);
        match &outcome {
            DedupOutcome::Fresh => obs::counter("storm.dedup.fresh").inc(),
            DedupOutcome::Duplicate { duplicates, .. } => {
                obs::counter("storm.dedup.suppressed").inc();
                // First duplicate of a fingerprint = one alert per storm;
                // then a milestone cadence for scale.
                if *duplicates == 1 || suppressed.is_multiple_of(1000) {
                    obs::flight().alert(
                        "storm-dedup",
                        &format!(
                            "fingerprint {fp:016x} suppressing (dup #{duplicates}, {suppressed} total)"
                        ),
                    );
                }
            }
        }
        (fp, outcome)
    }

    /// Cache the rendered decision for `fp` so later duplicates answer
    /// without a fan-out.
    pub fn store_decision(&self, fp: u64, decision: String) {
        self.dedup.lock().unwrap().store_decision(fp, decision);
    }

    /// Stage 4 gate: should `team`'s Scout run?
    pub fn gate(&self, team: &str, now_ms: u64) -> Gate {
        let gate = self.breakers.lock().unwrap().gate(team, now_ms);
        if gate == Gate::Reject {
            obs::counter("storm.breaker.rejected").inc();
        }
        gate
    }

    /// Stage 4 report: how `team`'s Scout fared.
    pub fn record_outcome(&self, team: &str, ok: bool, now_ms: u64) {
        let mut breakers = self.breakers.lock().unwrap();
        let transition = breakers.record(team, ok, now_ms);
        let open = breakers.open_count();
        drop(breakers);
        obs::gauge("storm.breaker.open_count").set(open as f64);
        match transition {
            Some(BreakerState::Open) => {
                obs::counter("storm.breaker.open").inc();
                obs::flight().alert("storm-breaker-open", &format!("team {team:?} tripped open"));
            }
            Some(BreakerState::Closed) => {
                obs::counter("storm.breaker.closed").inc();
                obs::flight().alert(
                    "storm-breaker-close",
                    &format!("team {team:?} recovered, circuit closed"),
                );
            }
            _ => {}
        }
    }

    /// Teams whose circuit is open or half-open, sorted.
    pub fn tripped_teams(&self) -> Vec<String> {
        self.breakers.lock().unwrap().tripped_teams()
    }

    /// Circuits currently not closed.
    pub fn breakers_open(&self) -> usize {
        self.breakers.lock().unwrap().open_count()
    }

    /// Lifetime suppressed-duplicate count.
    pub fn suppressed_total(&self) -> u64 {
        self.dedup.lock().unwrap().suppressed_total()
    }

    /// Lifetime throttle refusals.
    pub fn dropped_total(&self) -> u64 {
        self.throttle.lock().unwrap().dropped_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn control() -> (StormControl, ManualClock) {
        let (clock, handle) = Clock::manual();
        (
            StormControl::with_clock(StormConfig::default(), clock),
            handle,
        )
    }

    #[test]
    fn stages_compose_behind_one_facade() {
        let (storm, clock) = control();
        assert!(storm.admit("netmon", storm.now_ms()).is_ok());
        let (fp, outcome) = storm.observe("switch agg-3 CRC errors", "netmon", storm.now_ms());
        assert!(matches!(outcome, DedupOutcome::Fresh));
        storm.store_decision(fp, "{\"decision\":\"send_to\"}".into());
        clock.advance(10);
        let (fp2, outcome) = storm.observe("SWITCH agg-3 CRC errors!!", "netmon", storm.now_ms());
        assert_eq!(fp, fp2);
        match outcome {
            DedupOutcome::Duplicate {
                duplicates,
                decision,
            } => {
                assert_eq!(duplicates, 1);
                assert!(decision.unwrap().contains("send_to"));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(storm.suppressed_total(), 1);
    }

    #[test]
    fn breaker_facade_trips_and_reports() {
        let (storm, _clock) = control();
        for _ in 0..storm.config().breaker.failure_threshold {
            storm.record_outcome("Flaky", false, storm.now_ms());
        }
        assert_eq!(storm.gate("Flaky", storm.now_ms()), Gate::Reject);
        assert_eq!(storm.gate("Steady", storm.now_ms()), Gate::Allow);
        assert_eq!(storm.tripped_teams(), vec!["Flaky".to_string()]);
        assert_eq!(storm.breakers_open(), 1);
    }
}
