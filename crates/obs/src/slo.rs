//! Declarative SLOs with multi-window burn-rate alerting.
//!
//! An objective declares what fraction of events must be good over a
//! rolling window ("99% of predicts under 250 ms", "99.9% of responses
//! non-5xx"). The engine samples the metrics registry periodically,
//! keeps a short ring of cumulative `(good, total)` snapshots per
//! objective, and computes windowed error rates by *differencing*
//! snapshots — no per-request bookkeeping beyond what the registry
//! already records.
//!
//! # Burn rate
//!
//! The error budget of an objective with target `t` is `1 - t`. The
//! burn rate over a window is
//!
//! ```text
//! burn = windowed_error_rate / (1 - target)
//! ```
//!
//! `burn = 1` exactly exhausts the budget if sustained for the SLO
//! period; `burn = 14.4` exhausts a 30-day budget in ~2 days. Following
//! the multi-window convention, an alert fires only when **both** the
//! fast window (default 5 m — "is it burning *now*?") and the slow
//! window (default 1 h — "has it burned long enough to matter?") exceed
//! the threshold, which suppresses both short blips and stale pages.
//!
//! Alert transitions emit a structured event into the flight recorder
//! (kind `slo-burn`) and every evaluation publishes
//! `slo.<name>.burn_fast` / `slo.<name>.burn_slow` gauges so `/metrics`
//! exposes the burn state continuously.

use crate::json::{Arr, Obj};
use crate::metrics::Registry;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What counts as "good" for one objective.
#[derive(Debug, Clone)]
pub enum Objective {
    /// Fraction of observations in `histogram` at or under `threshold`
    /// must be ≥ `target`.
    Latency {
        /// Registry histogram name (e.g. `serve.latency.predict`).
        histogram: String,
        /// Good/bad boundary, in the histogram's own unit.
        threshold: f64,
        /// Required good fraction in `[0, 1)`.
        target: f64,
    },
    /// Fraction of events under `total_prefix` *not* also under
    /// `bad_prefix` must be ≥ `target` (counter-prefix sums, e.g.
    /// `serve.http.` vs `serve.http.5`).
    Availability {
        /// Counter prefix summing to the event total.
        total_prefix: String,
        /// Counter prefix summing to the bad events.
        bad_prefix: String,
        /// Required good fraction in `[0, 1)`.
        target: f64,
    },
}

impl Objective {
    fn target(&self) -> f64 {
        match self {
            Objective::Latency { target, .. } | Objective::Availability { target, .. } => *target,
        }
    }

    /// Cumulative `(good, total)` as of now, from the registry.
    fn measure(&self, reg: &Registry) -> (u64, u64) {
        match self {
            Objective::Latency {
                histogram,
                threshold,
                ..
            } => reg
                .histogram_count_le(histogram, *threshold)
                .unwrap_or((0, 0)),
            Objective::Availability {
                total_prefix,
                bad_prefix,
                ..
            } => {
                let mut total = 0u64;
                let mut bad = 0u64;
                for (name, v) in reg.counters() {
                    if name.starts_with(total_prefix.as_str()) {
                        total += v;
                    }
                    if name.starts_with(bad_prefix.as_str()) {
                        bad += v;
                    }
                }
                (total.saturating_sub(bad), total)
            }
        }
    }
}

/// A named objective.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// Short identifier (metric- and JSON-safe; e.g. `predict-latency`).
    pub name: String,
    /// The good/bad rule and target.
    pub objective: Objective,
}

/// Engine tunables.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Fast burn window ("is it burning now?").
    pub fast: Duration,
    /// Slow burn window ("has it mattered for a while?").
    pub slow: Duration,
    /// Both windows must burn at ≥ this rate to alert.
    pub burn_alert: f64,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            fast: Duration::from_secs(5 * 60),
            slow: Duration::from_secs(60 * 60),
            // The classic "2% of a 30-day budget in one hour" threshold.
            burn_alert: 14.4,
        }
    }
}

/// One cumulative snapshot for one objective.
#[derive(Debug, Clone, Copy)]
struct Sample {
    at: Duration,
    good: u64,
    total: u64,
}

/// Burn state of one objective at the latest evaluation.
#[derive(Debug, Clone)]
pub struct SloStatus {
    /// Spec name.
    pub name: String,
    /// Required good fraction.
    pub target: f64,
    /// Error rate over the fast window.
    pub error_fast: f64,
    /// Error rate over the slow window.
    pub error_slow: f64,
    /// Burn rate over the fast window.
    pub burn_fast: f64,
    /// Burn rate over the slow window.
    pub burn_slow: f64,
    /// Are both windows over the alert threshold?
    pub alerting: bool,
}

struct Inner {
    rings: Vec<VecDeque<Sample>>,
    statuses: Vec<SloStatus>,
}

/// The evaluation engine: owns the snapshot rings, not the metrics.
pub struct SloEngine {
    specs: Vec<SloSpec>,
    cfg: SloConfig,
    started: Instant,
    inner: Mutex<Inner>,
}

impl SloEngine {
    /// An engine over `specs`.
    pub fn new(specs: Vec<SloSpec>, cfg: SloConfig) -> SloEngine {
        let statuses = specs
            .iter()
            .map(|s| SloStatus {
                name: s.name.clone(),
                target: s.objective.target(),
                error_fast: 0.0,
                error_slow: 0.0,
                burn_fast: 0.0,
                burn_slow: 0.0,
                alerting: false,
            })
            .collect();
        SloEngine {
            inner: Mutex::new(Inner {
                rings: specs.iter().map(|_| VecDeque::new()).collect(),
                statuses,
            }),
            specs,
            cfg,
            started: Instant::now(),
        }
    }

    /// The configured objectives.
    pub fn specs(&self) -> &[SloSpec] {
        &self.specs
    }

    /// Take one snapshot (wall clock) and re-evaluate burn rates.
    pub fn sample(&self, reg: &Registry) {
        self.sample_at(self.started.elapsed(), reg);
    }

    /// [`SloEngine::sample`] at an explicit elapsed time — the testable
    /// form: tests drive hours of burn in microseconds.
    pub fn sample_at(&self, elapsed: Duration, reg: &Registry) {
        let measures: Vec<(u64, u64)> = self
            .specs
            .iter()
            .map(|s| s.objective.measure(reg))
            .collect();
        let mut inner = self.inner.lock().unwrap();
        let Inner { rings, statuses } = &mut *inner;
        for (i, spec) in self.specs.iter().enumerate() {
            let (good, total) = measures[i];
            let ring = &mut rings[i];
            ring.push_back(Sample {
                at: elapsed,
                good,
                total,
            });
            // Keep one sample older than the slow window (the differencing
            // base) plus everything inside it.
            while ring.len() > 2 {
                let second_oldest = ring[1].at;
                if elapsed.saturating_sub(second_oldest) >= self.cfg.slow {
                    ring.pop_front();
                } else {
                    break;
                }
            }
            let target = spec.objective.target();
            let budget = (1.0 - target).max(1e-9);
            let error_fast = windowed_error(ring, elapsed, self.cfg.fast);
            let error_slow = windowed_error(ring, elapsed, self.cfg.slow);
            let burn_fast = error_fast / budget;
            let burn_slow = error_slow / budget;
            let alerting = burn_fast >= self.cfg.burn_alert && burn_slow >= self.cfg.burn_alert;
            let was_alerting = statuses[i].alerting;
            statuses[i] = SloStatus {
                name: spec.name.clone(),
                target,
                error_fast,
                error_slow,
                burn_fast,
                burn_slow,
                alerting,
            };
            crate::gauge(&format!("slo.{}.burn_fast", spec.name)).set(burn_fast);
            crate::gauge(&format!("slo.{}.burn_slow", spec.name)).set(burn_slow);
            if alerting && !was_alerting {
                crate::flight().alert(
                    "slo-burn",
                    &format!(
                        "slo={} burn_fast={burn_fast:.1} burn_slow={burn_slow:.1} target={target}",
                        spec.name
                    ),
                );
            }
        }
    }

    /// The latest per-objective burn state.
    pub fn status(&self) -> Vec<SloStatus> {
        self.inner.lock().unwrap().statuses.clone()
    }

    /// The status list as a JSON array (for `/readyz` detail).
    pub fn render_json(&self) -> String {
        self.status()
            .iter()
            .fold(Arr::new(), |arr, s| {
                arr.raw(
                    &Obj::new()
                        .str("name", &s.name)
                        .num("target", s.target)
                        .num("error_fast", s.error_fast)
                        .num("error_slow", s.error_slow)
                        .num("burn_fast", s.burn_fast)
                        .num("burn_slow", s.burn_slow)
                        .bool("alerting", s.alerting)
                        .finish(),
                )
            })
            .finish()
    }
}

/// Error rate over the trailing `window`: difference the newest sample
/// against the oldest one still inside the window (or the oldest held,
/// early in the engine's life). No events in the window → error 0.
fn windowed_error(ring: &VecDeque<Sample>, now: Duration, window: Duration) -> f64 {
    let Some(&newest) = ring.back() else {
        return 0.0;
    };
    let cutoff = now.saturating_sub(window);
    let base = ring
        .iter()
        .find(|s| s.at >= cutoff)
        .copied()
        .unwrap_or(newest);
    // The base sample itself is the *starting* state: events counted in
    // it happened before the window.
    let total = newest.total.saturating_sub(base.total);
    if total == 0 {
        return 0.0;
    }
    let good = newest.good.saturating_sub(base.good);
    ((total - good.min(total)) as f64) / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    fn latency_engine(target: f64) -> (SloEngine, Registry) {
        let engine = SloEngine::new(
            vec![SloSpec {
                name: "lat".into(),
                objective: Objective::Latency {
                    histogram: "h".into(),
                    threshold: 100.0,
                    target,
                },
            }],
            SloConfig {
                fast: secs(300),
                slow: secs(3600),
                burn_alert: 14.4,
            },
        );
        (engine, Registry::new())
    }

    #[test]
    fn healthy_traffic_does_not_alert() {
        let (engine, reg) = latency_engine(0.99);
        for t in 0..10u64 {
            for _ in 0..100 {
                reg.observe("h", 10.0); // all good
            }
            engine.sample_at(secs(t * 60), &reg);
        }
        let s = &engine.status()[0];
        assert_eq!(s.burn_fast, 0.0);
        assert_eq!(s.burn_slow, 0.0);
        assert!(!s.alerting);
    }

    #[test]
    fn sustained_burn_alerts_on_both_windows() {
        let (engine, reg) = latency_engine(0.99);
        // 50% of observations over threshold → error 0.5, budget 0.01 →
        // burn 50 on any window once sustained.
        for t in 0..80u64 {
            for _ in 0..50 {
                reg.observe("h", 10.0);
                reg.observe("h", 500.0);
            }
            engine.sample_at(secs(t * 60), &reg);
        }
        let s = &engine.status()[0];
        assert!(s.burn_fast > 14.4, "burn_fast={}", s.burn_fast);
        assert!(s.burn_slow > 14.4, "burn_slow={}", s.burn_slow);
        assert!(s.alerting);
    }

    #[test]
    fn short_blip_does_not_alert_slow_window() {
        let (engine, reg) = latency_engine(0.99);
        // 55 minutes of clean traffic…
        for t in 0..55u64 {
            for _ in 0..100 {
                reg.observe("h", 10.0);
            }
            engine.sample_at(secs(t * 60), &reg);
        }
        // …then 4 minutes of total failure: fast window burns, the slow
        // window has absorbed an hour of good events and stays under.
        for t in 55..59u64 {
            for _ in 0..100 {
                reg.observe("h", 500.0);
            }
            engine.sample_at(secs(t * 60), &reg);
        }
        let s = &engine.status()[0];
        assert!(s.burn_fast > 14.4, "burn_fast={}", s.burn_fast);
        assert!(s.burn_slow < 14.4, "burn_slow={}", s.burn_slow);
        assert!(!s.alerting, "multi-window must suppress the blip");
    }

    #[test]
    fn availability_objective_counts_prefixes() {
        let engine = SloEngine::new(
            vec![SloSpec {
                name: "avail".into(),
                objective: Objective::Availability {
                    total_prefix: "http.".into(),
                    bad_prefix: "http.5".into(),
                    target: 0.9,
                },
            }],
            SloConfig {
                fast: secs(60),
                slow: secs(120),
                burn_alert: 2.0,
            },
        );
        let reg = Registry::new();
        engine.sample_at(secs(0), &reg);
        reg.add_counter("http.200", 50);
        reg.add_counter("http.503", 50);
        engine.sample_at(secs(30), &reg);
        let s = &engine.status()[0];
        assert!((s.error_fast - 0.5).abs() < 1e-12, "error={}", s.error_fast);
        // budget 0.1 → burn 5 ≥ 2 on both windows.
        assert!(s.alerting);
    }

    #[test]
    fn no_traffic_is_zero_burn() {
        let (engine, reg) = latency_engine(0.999);
        engine.sample_at(secs(0), &reg);
        engine.sample_at(secs(600), &reg);
        let s = &engine.status()[0];
        assert_eq!(s.burn_fast, 0.0);
        assert!(!s.alerting);
    }

    #[test]
    fn status_json_is_parseable() {
        let (engine, reg) = latency_engine(0.99);
        engine.sample_at(secs(0), &reg);
        let v = crate::json::Value::parse(&engine.render_json()).unwrap();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("name").unwrap().as_str(), Some("lat"));
        assert!(arr[0].get("burn_fast").is_some());
        assert!(arr[0].get("alerting").is_some());
    }
}
