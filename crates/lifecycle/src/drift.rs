//! Drift detection over the labeled feedback stream.
//!
//! The paper's Fig. 10 motivates the whole subsystem: a frozen model's
//! error rate climbs when the incident mix changes ("new type of
//! incident" drift), and only retraining recovers it. This monitor
//! turns that observation into a deterministic trigger. The stream is
//! bucketed by simulation time; each sufficiently-populated bucket
//! contributes one error-rate sample, and a retrain is **armed** when
//! either
//!
//! * change-point detection (`ml::cpd`, the fast deterministic variant)
//!   finds a shift whose post-change mean error exceeds the pre-change
//!   mean by `regress_margin` — the "step change" signature of a new
//!   fault family; or
//! * the last `sustain_buckets` buckets all sit at or above
//!   `degrade_error` — the "slow burn" a single change-point can miss.
//!
//! Everything here is pure arithmetic over the store — no RNG, no wall
//! clock — so replaying the same stream yields the same alarms.

use crate::feedback::FeedbackStore;
use cloudsim::{SimDuration, SimTime};

/// Drift monitor tuning.
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// Bucket width for the error-rate series.
    pub bucket: SimDuration,
    /// Buckets with fewer labeled examples than this contribute no
    /// sample (a quiet day is not evidence of health or drift).
    pub min_bucket_samples: usize,
    /// How many trailing buckets must sit at/above `degrade_error` for
    /// the sustained trigger.
    pub sustain_buckets: usize,
    /// Error rate treated as "degraded" by the sustained trigger.
    pub degrade_error: f64,
    /// Minimum post-minus-pre mean error increase for a change point to
    /// arm a retrain.
    pub regress_margin: f64,
    /// Minimum CPD segment length (buckets).
    pub cpd_min_segment: usize,
    /// CPD detection threshold (z-normalized; see `ml::cpd`).
    pub cpd_threshold: f64,
}

impl Default for DriftConfig {
    fn default() -> DriftConfig {
        DriftConfig {
            bucket: SimDuration::days(5),
            min_bucket_samples: 5,
            sustain_buckets: 3,
            degrade_error: 0.35,
            regress_margin: 0.10,
            cpd_min_segment: 3,
            cpd_threshold: ml::cpd::FAST_THRESHOLD,
        }
    }
}

/// One evaluation of the monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftVerdict {
    /// Should a retrain be armed?
    pub armed: bool,
    /// Did change-point detection (as opposed to the sustained
    /// threshold) fire?
    pub via_cpd: bool,
    /// Error rate of the most recent populated bucket (0 when none).
    pub recent_error: f64,
    /// Number of populated buckets in the series.
    pub buckets: usize,
}

/// Sliding drift monitor. Stateless apart from `ignore_before`, which a
/// promotion or rollback advances so the alarm doesn't re-fire on the
/// previous model's mistakes.
#[derive(Debug)]
pub struct DriftMonitor {
    config: DriftConfig,
    ignore_before: SimTime,
}

impl DriftMonitor {
    /// A monitor watching the stream from the epoch on.
    pub fn new(config: DriftConfig) -> DriftMonitor {
        DriftMonitor {
            config,
            ignore_before: SimTime::EPOCH,
        }
    }

    /// Forget everything before `at` (called after a promotion or
    /// rollback: the new model starts with a clean record).
    pub fn reset(&mut self, at: SimTime) {
        self.ignore_before = at;
    }

    /// Feedback before this instant is ignored.
    pub fn ignore_before(&self) -> SimTime {
        self.ignore_before
    }

    /// The per-bucket error-rate series over complete buckets in
    /// `[ignore_before, now)`, skipping under-populated buckets.
    pub fn error_series(&self, store: &FeedbackStore, now: SimTime) -> Vec<f64> {
        let bucket = self.config.bucket.as_minutes().max(1);
        let start = self.ignore_before;
        if now <= start {
            return Vec::new();
        }
        let complete = now.since(start).as_minutes() / bucket;
        let mut counts = vec![0usize; complete as usize];
        let mut errors = vec![0usize; complete as usize];
        for f in store.slice(start, SimTime(start.0 + complete * bucket)) {
            let slot = (f.time.since(start).as_minutes() / bucket) as usize;
            counts[slot] += 1;
            if f.mistaken() {
                errors[slot] += 1;
            }
        }
        counts
            .iter()
            .zip(&errors)
            .filter(|(&n, _)| n >= self.config.min_bucket_samples)
            .map(|(&n, &e)| e as f64 / n as f64)
            .collect()
    }

    /// Evaluate the stream as of `now`.
    pub fn evaluate(&self, store: &FeedbackStore, now: SimTime) -> DriftVerdict {
        let series = self.error_series(store, now);
        let recent_error = series.last().copied().unwrap_or(0.0);
        let cfg = &self.config;

        // Trigger 1: a change point whose post-change mean error is
        // materially above the pre-change mean.
        let mut via_cpd = false;
        for cp in
            ml::cpd::detect_change_points_fast(&series, cfg.cpd_min_segment, cfg.cpd_threshold)
        {
            let pre = mean(&series[..cp]);
            let post = mean(&series[cp..]);
            if post - pre >= cfg.regress_margin {
                via_cpd = true;
                break;
            }
        }

        // Trigger 2: sustained degradation.
        let sustained = cfg.sustain_buckets > 0
            && series.len() >= cfg.sustain_buckets
            && series[series.len() - cfg.sustain_buckets..]
                .iter()
                .all(|&e| e >= cfg.degrade_error);

        DriftVerdict {
            armed: via_cpd || sustained,
            via_cpd,
            recent_error,
            buckets: series.len(),
        }
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::Feedback;

    /// `per_bucket` examples per day-bucket; `error_from` marks the day
    /// the stream turns bad (every prediction mistaken).
    fn stream(days: u64, per_bucket: usize, error_from: u64) -> FeedbackStore {
        let mut s = FeedbackStore::new(100_000);
        let mut id = 0;
        for day in 0..days {
            for k in 0..per_bucket {
                id += 1;
                let mistaken = day >= error_from;
                s.push(Feedback {
                    incident: id,
                    team: "PhyNet".into(),
                    text: format!("i{id}"),
                    time: SimTime(day * 1440 + k as u64),
                    predicted: !mistaken,
                    label: true,
                    model_version: 1,
                });
            }
        }
        s
    }

    fn daily_config() -> DriftConfig {
        DriftConfig {
            bucket: SimDuration::days(1),
            min_bucket_samples: 4,
            sustain_buckets: 3,
            degrade_error: 0.5,
            regress_margin: 0.2,
            ..DriftConfig::default()
        }
    }

    #[test]
    fn healthy_stream_never_arms() {
        let s = stream(20, 6, u64::MAX);
        let m = DriftMonitor::new(daily_config());
        let v = m.evaluate(&s, SimTime::EPOCH + SimDuration::days(20));
        assert!(!v.armed, "{v:?}");
        assert_eq!(v.buckets, 20);
        assert_eq!(v.recent_error, 0.0);
    }

    #[test]
    fn step_change_arms_via_cpd() {
        let s = stream(20, 6, 12);
        let m = DriftMonitor::new(daily_config());
        let v = m.evaluate(&s, SimTime::EPOCH + SimDuration::days(20));
        assert!(v.armed, "{v:?}");
        assert!(v.via_cpd, "step change should be caught by CPD: {v:?}");
        assert_eq!(v.recent_error, 1.0);
    }

    #[test]
    fn sustained_degradation_arms_without_history() {
        // All-bad from the start: no change point exists, only the
        // sustained trigger can fire.
        let s = stream(4, 6, 0);
        let m = DriftMonitor::new(daily_config());
        let v = m.evaluate(&s, SimTime::EPOCH + SimDuration::days(4));
        assert!(v.armed, "{v:?}");
        assert!(!v.via_cpd);
    }

    #[test]
    fn reset_forgets_the_old_models_mistakes() {
        let s = stream(20, 6, 12);
        let mut m = DriftMonitor::new(daily_config());
        m.reset(SimTime::EPOCH + SimDuration::days(20));
        let v = m.evaluate(&s, SimTime::EPOCH + SimDuration::days(20));
        assert!(!v.armed, "everything pre-reset must be ignored: {v:?}");
        assert_eq!(v.buckets, 0);
    }

    #[test]
    fn sparse_buckets_contribute_no_samples() {
        let s = stream(20, 2, 12); // below min_bucket_samples
        let m = DriftMonitor::new(daily_config());
        let v = m.evaluate(&s, SimTime::EPOCH + SimDuration::days(20));
        assert_eq!(v.buckets, 0);
        assert!(!v.armed);
    }
}
