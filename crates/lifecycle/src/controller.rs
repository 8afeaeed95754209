//! The lifecycle controller: the loop that closes feedback → drift →
//! retrain → shadow gate → promotion → probation → rollback.
//!
//! The controller is deliberately a pure state machine over simulation
//! time: `ingest` appends labeled feedback, `tick(now, …)` advances the
//! loop. Nothing reads the wall clock or an unseeded RNG — training
//! seeds come from `ScoutBuildConfig::seed`, preparation fans out on an
//! order-preserving pool, and all internal state is ordered containers —
//! so a replay of the same feedback stream and tick schedule produces a
//! bit-identical event log at any worker count. That is what makes the
//! promotion/rollback behavior testable against `cloudsim`'s scripted
//! drift.
//!
//! Phases:
//!
//! * **Monitoring** — the drift monitor watches the windowed error
//!   series. When it arms (and the cooldown has passed), the controller
//!   retrains on feedback *older* than the shadow window using the
//!   `scout::retrain` window/weight policies, then shadow-evaluates the
//!   candidate out-of-sample. A win by `promote_margin` publishes it
//!   through the registry hot-swap; anything else is rejected.
//! * **Probation** — after a promotion the controller scores only the
//!   promoted version's own served feedback. Falling more than
//!   `rollback_margin` below the shadow baseline rolls back to the
//!   prior version; surviving the window confirms the promotion. Either
//!   way the monitor restarts with a clean record.

use crate::drift::{DriftConfig, DriftMonitor};
use crate::feedback::{Feedback, FeedbackStore, DEFAULT_STORE_CAP};
use crate::shadow::{self, ShadowReport};
use cloudsim::{SimDuration, SimTime};
use featcache::FeatCache;
use monitoring::MonitoringSystem;
use scout::retrain::RetrainConfig;
use scout::{Scout, ScoutBuildConfig, ScoutConfig, WindowPolicy};
use serve::ModelRegistry;
use std::sync::Arc;
use wal::{FeedbackState, PhaseState, TeamLifecycle};

/// Controller tuning. Defaults follow the paper's Fig. 10 sliding-window
/// regime, scaled to the feedback volumes of one serving team.
#[derive(Debug, Clone)]
pub struct LifecycleConfig {
    /// Team whose registry slot this controller manages.
    pub team: String,
    /// Scout domain configuration used for retrains.
    pub scout: ScoutConfig,
    /// Build (forest, seed, lookback) configuration used for retrains.
    pub build: ScoutBuildConfig,
    /// Drift monitor tuning.
    pub drift: DriftConfig,
    /// Retrain window/weighting policy (`interval` is unused — ticks
    /// are externally driven).
    pub retrain: RetrainConfig,
    /// Trailing window held out of training and used for the shadow
    /// comparison.
    pub shadow_window: SimDuration,
    /// Candidate must beat the live model's shadow MCC by this much.
    pub promote_margin: f64,
    /// Minimum labeled examples in the shadow window for a verdict.
    pub min_shadow: usize,
    /// How long a promoted model is on probation.
    pub probation: SimDuration,
    /// Minimum probation-window feedback (for the promoted version)
    /// before judging it.
    pub min_probation_samples: usize,
    /// Probation MCC more than this far below the shadow baseline
    /// triggers rollback.
    pub rollback_margin: f64,
    /// Minimum gap between lifecycle actions (arms are ignored sooner).
    pub cooldown: SimDuration,
    /// Bound on the labeled feedback stream.
    pub store_cap: usize,
    /// Feature-chunk cache budget for retrain featurization (bytes).
    pub feat_cache_bytes: usize,
}

impl LifecycleConfig {
    /// Defaults for `team` with the given Scout configuration.
    pub fn new(team: &str, scout: ScoutConfig, build: ScoutBuildConfig) -> LifecycleConfig {
        LifecycleConfig {
            team: team.to_string(),
            scout,
            build,
            drift: DriftConfig::default(),
            retrain: RetrainConfig {
                window: WindowPolicy::Sliding(SimDuration::days(60)),
                min_train: 30,
                ..RetrainConfig::default()
            },
            shadow_window: SimDuration::days(10),
            promote_margin: 0.0,
            min_shadow: 10,
            probation: SimDuration::days(10),
            min_probation_samples: 10,
            rollback_margin: 0.15,
            cooldown: SimDuration::days(5),
            store_cap: DEFAULT_STORE_CAP,
            feat_cache_bytes: 32 * 1024 * 1024,
        }
    }
}

/// One observable lifecycle action. `Display` renders the grep-able
/// one-line form used by `scoutctl lifecycle` and the smoke script.
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleEvent {
    /// The drift monitor armed a retrain.
    DriftArmed {
        /// Tick time.
        at: SimTime,
        /// Most recent bucket error rate.
        error: f64,
        /// Change-point (vs sustained) trigger.
        via_cpd: bool,
    },
    /// A retrain was launched.
    RetrainStarted {
        /// Tick time.
        at: SimTime,
        /// Training examples in the (weighted) window.
        train_size: usize,
    },
    /// The candidate lost (or tied under the margin) at the shadow gate.
    CandidateRejected {
        /// Tick time.
        at: SimTime,
        /// Candidate MCC on the shadow window.
        candidate_mcc: f64,
        /// Live MCC on the shadow window.
        live_mcc: f64,
        /// Shadow samples.
        samples: usize,
    },
    /// The candidate won the gate and was published.
    Promoted {
        /// Tick time.
        at: SimTime,
        /// Registry version assigned to the candidate.
        version: u64,
        /// Candidate MCC on the shadow window (the probation baseline).
        candidate_mcc: f64,
        /// Live MCC on the shadow window.
        live_mcc: f64,
    },
    /// The registry changed under the controller (operator reload):
    /// the new version is put on probation like any promotion.
    ExternalPromotion {
        /// Tick time.
        at: SimTime,
        /// The externally-published version.
        version: u64,
    },
    /// Probation failed: the registry was rolled back.
    RolledBack {
        /// Tick time.
        at: SimTime,
        /// The demoted version.
        from: u64,
        /// The restored version.
        to: u64,
        /// The promoted model's probation MCC.
        probation_mcc: f64,
        /// The baseline it had to defend.
        baseline_mcc: f64,
    },
    /// Probation passed: the promotion stands.
    Confirmed {
        /// Tick time.
        at: SimTime,
        /// The confirmed version.
        version: u64,
        /// Probation MCC.
        probation_mcc: f64,
    },
}

fn day(t: SimTime) -> f64 {
    t.0 as f64 / 1440.0
}

impl std::fmt::Display for LifecycleEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LifecycleEvent::DriftArmed { at, error, via_cpd } => write!(
                f,
                "day {:>6.1}  drift armed (error {:.2}, {})",
                day(*at),
                error,
                if *via_cpd { "change-point" } else { "sustained" }
            ),
            LifecycleEvent::RetrainStarted { at, train_size } => write!(
                f,
                "day {:>6.1}  retrain started on {train_size} examples",
                day(*at)
            ),
            LifecycleEvent::CandidateRejected {
                at,
                candidate_mcc,
                live_mcc,
                samples,
            } => write!(
                f,
                "day {:>6.1}  candidate rejected at gate (mcc {candidate_mcc:.3} vs live {live_mcc:.3}, {samples} shadow samples)",
                day(*at)
            ),
            LifecycleEvent::Promoted {
                at,
                version,
                candidate_mcc,
                live_mcc,
            } => write!(
                f,
                "day {:>6.1}  promoted v{version} (shadow mcc {candidate_mcc:.3} vs live {live_mcc:.3})",
                day(*at)
            ),
            LifecycleEvent::ExternalPromotion { at, version } => write!(
                f,
                "day {:>6.1}  external promotion detected: v{version} on probation",
                day(*at)
            ),
            LifecycleEvent::RolledBack {
                at,
                from,
                to,
                probation_mcc,
                baseline_mcc,
            } => write!(
                f,
                "day {:>6.1}  rolled back to v{to} from v{from} (probation mcc {probation_mcc:.3} < baseline {baseline_mcc:.3})",
                day(*at)
            ),
            LifecycleEvent::Confirmed {
                at,
                version,
                probation_mcc,
            } => write!(
                f,
                "day {:>6.1}  promotion confirmed v{version} (probation mcc {probation_mcc:.3})",
                day(*at)
            ),
        }
    }
}

/// The continual-learning controller for one team.
pub struct LifecycleController {
    cfg: LifecycleConfig,
    registry: Arc<ModelRegistry>,
    store: FeedbackStore,
    monitor: DriftMonitor,
    /// Phase and cooldown anchor; `ignore_before` mirrors the monitor's
    /// reset point.
    state: TeamLifecycle,
    feat_cache: FeatCache,
    workers: Option<Arc<pool::Pool>>,
    expected_version: Option<u64>,
    events: Vec<LifecycleEvent>,
    wal: Option<Arc<wal::Wal>>,
}

impl LifecycleController {
    /// A controller managing `cfg.team`'s slot in `registry`.
    pub fn new(cfg: LifecycleConfig, registry: Arc<ModelRegistry>) -> LifecycleController {
        let feat_cache = FeatCache::new(cfg.feat_cache_bytes);
        let store = FeedbackStore::new(cfg.store_cap);
        let monitor = DriftMonitor::new(cfg.drift.clone());
        LifecycleController {
            cfg,
            registry,
            store,
            monitor,
            state: TeamLifecycle::default(),
            feat_cache,
            workers: None,
            expected_version: None,
            events: Vec::new(),
            wal: None,
        }
    }

    /// Run featurization on an explicit pool instead of the global one
    /// (the worker-count determinism tests sweep this).
    pub fn with_workers(mut self, workers: Arc<pool::Pool>) -> LifecycleController {
        self.workers = Some(workers);
        self
    }

    /// Mirror lifecycle decisions into `wal` (log-first durability).
    /// Feedback itself is logged by the serve layer at acceptance time;
    /// the controller contributes the drift/retrain/shadow/probation
    /// trail, and registry mutations arrive through the registry's own
    /// journal.
    pub fn with_wal(mut self, wal: Arc<wal::Wal>) -> LifecycleController {
        self.wal = Some(wal);
        self
    }

    fn log(&self, event: wal::Event) {
        if let Some(w) = self.wal.as_deref() {
            serve::durability::append_or_count(w, &event);
        }
    }

    /// Resume from recovered projections: the labeled stream, phase,
    /// cooldown anchor, and drift-monitor reset point continue exactly
    /// where the crashed process left them. The expected registry
    /// version is re-read from the (already restored) registry, so a
    /// model-directory reload performed *after* this restore is detected
    /// as an external promotion — which an unvetted post-crash reload
    /// genuinely is.
    pub fn restore_from(&mut self, proj: &wal::Projections) {
        let mut stream = FeedbackState::new(self.cfg.store_cap);
        for f in proj
            .feedback
            .items
            .iter()
            .filter(|f| f.team == self.cfg.team)
        {
            stream.insert(f.clone());
        }
        // The projection's total is stream-global; it only transfers
        // exactly when this team owns the whole stream.
        if stream.total == proj.feedback.items.len() as u64 {
            stream.total = proj.feedback.total;
        }
        self.store = FeedbackStore::from(stream);
        if let Some(lc) = proj.lifecycle.get(&self.cfg.team) {
            self.state = lc.clone();
            self.monitor.reset(lc.ignore_before);
        }
        self.expected_version = self.registry.version_of(&self.cfg.team);
    }

    /// The labeled stream accumulated so far.
    pub fn store(&self) -> &FeedbackStore {
        &self.store
    }

    /// Phase, cooldown anchor and drift-monitor reset point — the state
    /// `restore_from` recovers.
    pub fn lifecycle(&self) -> &TeamLifecycle {
        &self.state
    }

    /// Every event the controller has emitted, in order.
    pub fn events(&self) -> &[LifecycleEvent] {
        &self.events
    }

    /// The event log rendered one line per event (the bit-compared
    /// determinism artifact).
    pub fn event_log(&self) -> Vec<String> {
        self.events.iter().map(|e| e.to_string()).collect()
    }

    /// Append one labeled example to the stream. Another team's label
    /// answers "was *that* team responsible", so it is dropped (counted
    /// in `lifecycle.feedback.foreign`) — the same filter
    /// [`LifecycleController::restore_from`] applies.
    pub fn ingest(&mut self, fb: Feedback) {
        if fb.team != self.cfg.team {
            obs::counter("lifecycle.feedback.foreign").inc();
            return;
        }
        obs::counter("lifecycle.feedback.ingested").inc();
        self.store.push(fb);
    }

    /// Advance the loop to `now`. Returns the events emitted by this
    /// tick (also appended to [`LifecycleController::events`]).
    pub fn tick(&mut self, now: SimTime, monitoring: &MonitoringSystem<'_>) -> Vec<LifecycleEvent> {
        let _span = obs::span!("lifecycle.tick");
        let mut out = Vec::new();

        // An operator reload under our feet means an unvetted model is
        // serving: adopt it and put it on probation against the trailing
        // window's observed quality.
        let current = self.registry.version_of(&self.cfg.team);
        if let (Some(cur), Some(expected)) = (current, self.expected_version) {
            if cur != expected
                && !matches!(self.state.phase, PhaseState::Probation { version, .. } if version == cur)
            {
                let baseline = self
                    .store
                    .confusion_in(now.saturating_sub(self.cfg.shadow_window), now)
                    .mcc();
                out.push(LifecycleEvent::ExternalPromotion {
                    at: now,
                    version: cur,
                });
                self.start_probation(now, cur, baseline, true);
            }
        }
        self.expected_version = current;

        match self.state.phase.clone() {
            PhaseState::Monitoring => self.tick_monitoring(now, monitoring, &mut out),
            PhaseState::Probation {
                version,
                started,
                baseline_mcc,
            } => self.tick_probation(now, version, started, baseline_mcc, &mut out),
        }

        self.events.extend(out.iter().cloned());
        out
    }

    fn tick_monitoring(
        &mut self,
        now: SimTime,
        monitoring: &MonitoringSystem<'_>,
        out: &mut Vec<LifecycleEvent>,
    ) {
        let verdict = self.monitor.evaluate(&self.store, now);
        if !verdict.armed {
            return;
        }
        if self.state.last_action > SimTime::EPOCH
            && now.since(self.state.last_action) < self.cfg.cooldown
        {
            obs::counter("lifecycle.drift.cooldown_suppressed").inc();
            return;
        }
        obs::counter("lifecycle.drift.armed").inc();
        out.push(LifecycleEvent::DriftArmed {
            at: now,
            error: verdict.recent_error,
            via_cpd: verdict.via_cpd,
        });
        self.log(wal::Event::DriftArmed {
            team: self.cfg.team.clone(),
            at: now,
            error: verdict.recent_error,
            via_cpd: verdict.via_cpd,
        });

        // Out-of-sample split: train strictly before the shadow window.
        let gate_start = now.saturating_sub(self.cfg.shadow_window);
        let window_start = self.cfg.retrain.window_start(gate_start);
        let (examples, mistaken) = self.store.examples_in(window_start, now);
        let workers: &pool::Pool = match self.workers.as_deref() {
            Some(w) => w,
            None => pool::Pool::global(),
        };
        let corpus = {
            let _span = obs::span!("lifecycle.retrain.prepare");
            Scout::prepare_cached_on(
                workers,
                &self.cfg.scout,
                &self.cfg.build,
                &examples,
                monitoring,
                Some(&self.feat_cache),
            )
        };
        let (weighted, train_idx) = self
            .cfg
            .retrain
            .weighted_window(&corpus, gate_start, &mistaken);
        if train_idx.len() < self.cfg.retrain.min_train.max(4) {
            obs::counter("lifecycle.retrain.skipped_thin").inc();
            self.log(wal::Event::RetrainFinished {
                team: self.cfg.team.clone(),
                at: now,
                outcome: "skipped_thin".into(),
            });
            self.state.last_action = now;
            return;
        }
        obs::counter("lifecycle.retrains").inc();
        out.push(LifecycleEvent::RetrainStarted {
            at: now,
            train_size: train_idx.len(),
        });
        self.log(wal::Event::RetrainStarted {
            team: self.cfg.team.clone(),
            at: now,
            train_size: train_idx.len() as u64,
        });
        let candidate = {
            let _span = obs::span!("lifecycle.retrain.train");
            let all: Vec<usize> = (0..weighted.items.len()).collect();
            Scout::train_prepared(
                self.cfg.scout.clone(),
                self.cfg.build.clone(),
                &weighted,
                &all,
                monitoring,
            )
        };

        let Some(live) = self.registry.get(&self.cfg.team) else {
            self.promote(now, candidate, None, out);
            return;
        };

        let shadow_idx: Vec<usize> = (0..corpus.items.len())
            .filter(|&i| corpus.items[i].example.time >= gate_start)
            .collect();
        let report = shadow::evaluate(&candidate, &live.scout, &corpus, &shadow_idx, monitoring);
        let passed = report.passes(self.cfg.promote_margin, self.cfg.min_shadow);
        self.log(wal::Event::ShadowVerdict {
            team: self.cfg.team.clone(),
            at: now,
            candidate_mcc: report.candidate_mcc(),
            live_mcc: report.live_mcc(),
            samples: report.samples as u64,
            passed,
        });
        if !passed {
            obs::counter("lifecycle.rejections").inc();
            out.push(self.rejected(now, &report));
            self.log(wal::Event::RetrainFinished {
                team: self.cfg.team.clone(),
                at: now,
                outcome: "rejected".into(),
            });
            self.state.last_action = now;
            return;
        }
        self.promote(now, candidate, Some(&report), out);
    }

    /// Publish `candidate` and start its probation. `gate` is the shadow
    /// report it passed; `None` on a cold start, where there is nothing to
    /// shadow against and it is published directly. A pin blocks either;
    /// behind a passed gate the verdict stands but publication does not,
    /// so it is recorded as a rejection.
    fn promote(
        &mut self,
        now: SimTime,
        candidate: Scout,
        gate: Option<&ShadowReport>,
        out: &mut Vec<LifecycleEvent>,
    ) {
        let (candidate_mcc, live_mcc, outcome) = match gate {
            Some(report) => (report.candidate_mcc(), report.live_mcc(), "promoted"),
            None => (0.0, 0.0, "cold_start"),
        };
        let registered = self
            .registry
            .register(&self.cfg.team, candidate, "lifecycle-retrain");
        self.log(wal::Event::RetrainFinished {
            team: self.cfg.team.clone(),
            at: now,
            outcome: if registered.is_ok() {
                outcome.into()
            } else {
                "blocked_pinned".into()
            },
        });
        match registered {
            Ok(version) => {
                obs::counter("lifecycle.promotions").inc();
                out.push(LifecycleEvent::Promoted {
                    at: now,
                    version,
                    candidate_mcc,
                    live_mcc,
                });
                self.start_probation(now, version, candidate_mcc, false);
                self.expected_version = Some(version);
            }
            Err(_) => {
                if let Some(report) = gate {
                    obs::counter("lifecycle.promotion_blocked_pinned").inc();
                    out.push(self.rejected(now, report));
                }
            }
        }
        self.state.last_action = now;
    }

    /// Put `version` on probation against `baseline_mcc` (`external`: an
    /// operator reload, not a promotion of ours).
    fn start_probation(&mut self, now: SimTime, version: u64, baseline_mcc: f64, external: bool) {
        self.log(wal::Event::ProbationStarted {
            team: self.cfg.team.clone(),
            version,
            baseline_mcc,
            external,
            at: now,
        });
        self.state.start_probation(version, baseline_mcc, now);
        self.monitor.reset(now);
    }

    fn rejected(&self, now: SimTime, report: &ShadowReport) -> LifecycleEvent {
        LifecycleEvent::CandidateRejected {
            at: now,
            candidate_mcc: report.candidate_mcc(),
            live_mcc: report.live_mcc(),
            samples: report.samples,
        }
    }

    fn tick_probation(
        &mut self,
        now: SimTime,
        version: u64,
        started: SimTime,
        baseline_mcc: f64,
        out: &mut Vec<LifecycleEvent>,
    ) {
        if now.since(started) < self.cfg.probation {
            return;
        }
        let conf = self.store.confusion_for_version(version, started, now);
        if conf.total() < self.cfg.min_probation_samples {
            // Not enough of the promoted model's own feedback yet; keep
            // waiting rather than judging on noise.
            return;
        }
        let probation_mcc = conf.mcc();
        if probation_mcc < baseline_mcc - self.cfg.rollback_margin {
            match self.registry.rollback(&self.cfg.team) {
                Ok(restored) => {
                    obs::counter("lifecycle.rollbacks").inc();
                    out.push(LifecycleEvent::RolledBack {
                        at: now,
                        from: version,
                        to: restored,
                        probation_mcc,
                        baseline_mcc,
                    });
                    self.expected_version = Some(restored);
                }
                Err(_) => {
                    // History is gone (e.g. a reload consumed it): all we
                    // can do is fall back to monitoring and let the drift
                    // monitor arm a fresh retrain.
                    obs::counter("lifecycle.rollback_unavailable").inc();
                }
            }
            // Logged either way (the `ModelRolledBack` itself arrives
            // through the registry journal when rollback succeeded), so
            // replay reaches Monitoring exactly like the runtime did.
            self.log(wal::Event::ProbationEnded {
                team: self.cfg.team.clone(),
                version,
                probation_mcc,
                confirmed: false,
                at: now,
            });
        } else {
            obs::counter("lifecycle.confirmations").inc();
            out.push(LifecycleEvent::Confirmed {
                at: now,
                version,
                probation_mcc,
            });
            self.log(wal::Event::ProbationEnded {
                team: self.cfg.team.clone(),
                version,
                probation_mcc,
                confirmed: true,
                at: now,
            });
        }
        self.state.end_probation(now);
        self.monitor.reset(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labeled(team: &str) -> Feedback {
        Feedback {
            incident: 1,
            team: team.into(),
            text: "disk latency on sto-1".into(),
            model_version: 1,
            predicted: false,
            label: true,
            time: SimTime(10),
        }
    }

    #[test]
    fn ingest_drops_other_teams_labels() {
        let cfg =
            LifecycleConfig::new("PhyNet", ScoutConfig::phynet(), ScoutBuildConfig::default());
        let mut controller = LifecycleController::new(cfg, Arc::new(ModelRegistry::new()));
        controller.ingest(labeled("Storage"));
        assert!(
            controller.store().is_empty(),
            "a Storage label is not PhyNet's"
        );
        assert_eq!(controller.store().total_ingested(), 0);
        controller.ingest(labeled("PhyNet"));
        assert_eq!(controller.store().len(), 1);
    }
}
