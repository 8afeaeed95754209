//! Deterministic projections: the serving plane's state as a pure fold
//! over the event stream.
//!
//! The projection types are the runtime's own state types: the serve
//! `ServedLog` is a lock around a [`ServedState`], the lifecycle
//! `FeedbackStore` wraps a [`FeedbackState`], a registry slot is a
//! [`Timeline`], and a lifecycle controller holds a [`TeamLifecycle`].
//! [`Projections::apply`] folds each event through the methods the live
//! path calls — [`ServedState::record`]'s capped insert and
//! [`ServedState::resolve`], [`FeedbackState::insert`],
//! [`Timeline::supersede`] and [`Timeline::roll_back_to`],
//! [`TeamLifecycle::start_probation`] and
//! [`TeamLifecycle::end_probation`] — so each eviction, ordering and
//! promotion rule is written once, and the state crash recovery hands
//! back is one the runtime could have built itself.
//!
//! [`Projections::render`] is the canonical form: a single JSON
//! document with fully deterministic field and element order (BTreeMap
//! iteration, insertion-ordered queues, `{:?}` float formatting via
//! `obs::json`). Snapshots are exactly this rendering, and
//! [`Projections::parse`] inverts it, so
//! `render(parse(render(p))) == render(p)` byte-for-byte.

use crate::event::{get_bool, get_f64, get_str, get_u64, int_of, Event, SCHEMA};
use cloudsim::SimTime;
use obs::json::{Arr, Obj, Value};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// How many superseded versions a registry slot retains for rollback.
pub const HISTORY_CAP: usize = 16;

/// Default bound on remembered served predictions.
pub const DEFAULT_SERVED_CAP: usize = 8192;
/// Default bound on retained labeled feedback.
pub const DEFAULT_FEEDBACK_CAP: usize = 16 * 1024;

/// One served prediction, awaiting (or past) its ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedRecord {
    /// Server-assigned incident id (process-unique, starts at 1).
    pub incident: u64,
    /// Team whose Scout answered (registry key as served).
    pub team: String,
    /// The incident text that was classified (retained so resolved
    /// incidents become training examples downstream).
    pub text: String,
    /// Registry version of the model that answered.
    pub model_version: u64,
    /// Did the Scout say "responsible"? (`"predicted"` when rendered.)
    pub predicted_responsible: bool,
    /// Prediction confidence.
    pub confidence: f64,
    /// Simulation time the prediction was made for.
    pub time: SimTime,
    /// Has ground truth already been recorded?
    pub resolved: bool,
}

/// Why a feedback report was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// No served prediction with that incident id (never existed, or
    /// evicted from the bounded log).
    Unknown(u64),
    /// Ground truth was already recorded for this incident.
    AlreadyResolved(u64),
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolveError::Unknown(id) => write!(f, "unknown incident {id}"),
            ResolveError::AlreadyResolved(id) => {
                write!(f, "feedback already recorded for incident {id}")
            }
        }
    }
}

/// The served-prediction log: a bounded FIFO plus the id counter.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedState {
    /// Next incident id [`ServedState::record`] will assign.
    pub next_incident: u64,
    /// Retention bound.
    pub cap: usize,
    /// Retained predictions, oldest first.
    pub records: VecDeque<ServedRecord>,
}

impl ServedState {
    /// An empty log remembering at most `cap` predictions (clamped to at
    /// least 1), assigning ids from 1.
    pub fn new(cap: usize) -> ServedState {
        ServedState {
            next_incident: 1,
            cap: cap.max(1),
            records: VecDeque::new(),
        }
    }

    /// Remember one served prediction under the next incident id,
    /// evicting the oldest when full.
    pub fn record(
        &mut self,
        team: &str,
        text: &str,
        model_version: u64,
        predicted_responsible: bool,
        confidence: f64,
        time: SimTime,
    ) -> &ServedRecord {
        self.insert(ServedRecord {
            incident: self.next_incident,
            team: team.to_string(),
            text: text.to_string(),
            model_version,
            predicted_responsible,
            confidence,
            time,
            resolved: false,
        })
    }

    /// The retention rule behind [`ServedState::record`]: evict the
    /// oldest at the cap, keep `rec`, and keep the counter above its id
    /// (a replayed record carries the id it was logged with).
    fn insert(&mut self, rec: ServedRecord) -> &ServedRecord {
        if self.records.len() >= self.cap {
            self.records.pop_front();
        }
        self.next_incident = self.next_incident.max(rec.incident + 1);
        self.records.push_back(rec);
        self.records.back().expect("just pushed")
    }

    /// Mark `incident` resolved, returning its record as it was before
    /// resolution. Errs when unknown/evicted or already resolved.
    pub fn resolve(&mut self, incident: u64) -> Result<ServedRecord, ResolveError> {
        let rec = self
            .records
            .iter_mut()
            .find(|r| r.incident == incident)
            .ok_or(ResolveError::Unknown(incident))?;
        if rec.resolved {
            return Err(ResolveError::AlreadyResolved(incident));
        }
        let before = rec.clone();
        rec.resolved = true;
        Ok(before)
    }
}

/// One labeled example: a served prediction joined with its ground
/// truth.
#[derive(Debug, Clone, PartialEq)]
pub struct Feedback {
    /// Server-assigned incident id.
    pub incident: u64,
    /// Team whose Scout answered.
    pub team: String,
    /// The incident text that was classified.
    pub text: String,
    /// Registry version of the model that predicted.
    pub model_version: u64,
    /// What the model said: "my team is responsible".
    pub predicted: bool,
    /// Ground truth: `team` actually was responsible.
    pub label: bool,
    /// Simulation time of the prediction.
    pub time: SimTime,
}

impl Feedback {
    /// Did the model get this one wrong?
    pub fn mistaken(&self) -> bool {
        self.predicted != self.label
    }
}

/// The labeled feedback stream: bounded and time-ordered.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackState {
    /// Retention bound.
    pub cap: usize,
    /// Total ever ingested (including evicted).
    pub total: u64,
    /// Retained examples in simulation-time order.
    pub items: VecDeque<Feedback>,
}

impl FeedbackState {
    /// An empty stream retaining at most `cap` examples (clamped to at
    /// least 1).
    pub fn new(cap: usize) -> FeedbackState {
        FeedbackState {
            cap: cap.max(1),
            total: 0,
            items: VecDeque::new(),
        }
    }

    /// Insert one labeled example, keeping the stream time-ordered
    /// (stable for equal times: later arrivals go after earlier ones).
    /// Evicts the oldest example when full.
    pub fn insert(&mut self, fb: Feedback) {
        let pos = self
            .items
            .iter()
            .rposition(|f| f.time <= fb.time)
            .map(|i| i + 1)
            .unwrap_or(0);
        self.items.insert(pos, fb);
        if self.items.len() > self.cap {
            self.items.pop_front();
        }
        self.total += 1;
    }
}

/// An entry a [`Timeline`] can hold: it knows its registry version.
pub trait Versioned {
    /// The registry version.
    fn version(&self) -> u64;
}

impl Versioned for (u64, String) {
    fn version(&self) -> u64 {
        self.0
    }
}

impl<T: Versioned> Versioned for Arc<T> {
    fn version(&self) -> u64 {
        T::version(self)
    }
}

/// One registry slot's promotion stack: the serving entry plus the
/// superseded ones, retained for rollback.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline<T> {
    /// The serving entry, if one is published.
    pub current: Option<T>,
    /// Superseded entries, oldest first, at most [`HISTORY_CAP`].
    pub history: Vec<T>,
}

impl<T> Default for Timeline<T> {
    fn default() -> Self {
        Timeline {
            current: None,
            history: Vec::new(),
        }
    }
}

impl<T: Versioned> Timeline<T> {
    /// Serve `entry`, pushing the current one onto the history (the
    /// oldest falls off past [`HISTORY_CAP`]).
    pub fn supersede(&mut self, entry: T) {
        if let Some(prior) = self.current.replace(entry) {
            self.history.push(prior);
            if self.history.len() > HISTORY_CAP {
                self.history.remove(0);
            }
        }
    }

    /// Serve the retained entry with `version` again (`None`: the most
    /// recently superseded one), discarding every entry newer than it,
    /// and return the demoted entry. `None` leaves the stack untouched:
    /// the history is empty or no longer holds `version`.
    pub fn roll_back_to(&mut self, version: Option<u64>) -> Option<T> {
        let pos = match version {
            None => self.history.len().checked_sub(1)?,
            Some(v) => self.history.iter().rposition(|e| e.version() == v)?,
        };
        self.history.truncate(pos + 1);
        let restored = self.history.pop();
        std::mem::replace(&mut self.current, restored)
    }
}

/// One team's registry projection: its promotion stack and pin.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TeamModels {
    /// `(version, source)` entries.
    pub models: Timeline<(u64, String)>,
    /// Is the team pinned?
    pub pinned: bool,
}

/// The registry projection: version numbering, pins, and per-team
/// promotion timelines.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistryState {
    /// Next version the runtime registry will assign.
    pub next_version: u64,
    /// Bulk-reload epoch.
    pub epoch: u64,
    /// Slots by team name.
    pub teams: BTreeMap<String, TeamModels>,
}

/// Where a team's lifecycle controller is in its loop.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum PhaseState {
    /// Watching for drift.
    #[default]
    Monitoring,
    /// Watching a fresh promotion.
    Probation {
        /// Version under probation.
        version: u64,
        /// When probation started.
        started: SimTime,
        /// Shadow MCC it must defend.
        baseline_mcc: f64,
    },
}

/// One controller's recoverable state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TeamLifecycle {
    /// Current phase.
    pub phase: PhaseState,
    /// Last lifecycle action (cooldown anchor).
    pub last_action: SimTime,
    /// Drift-monitor reset point.
    pub ignore_before: SimTime,
}

impl TeamLifecycle {
    /// Put `version` on probation against `baseline_mcc` at `at`; the
    /// cooldown and the drift monitor restart there.
    pub fn start_probation(&mut self, version: u64, baseline_mcc: f64, at: SimTime) {
        self.phase = PhaseState::Probation {
            version,
            started: at,
            baseline_mcc,
        };
        self.ignore_before = at;
        self.last_action = at;
    }

    /// End probation at `at` (confirmed or rolled back): back to
    /// monitoring with a clean record.
    pub fn end_probation(&mut self, at: SimTime) {
        self.phase = PhaseState::Monitoring;
        self.ignore_before = at;
        self.last_action = at;
    }
}

/// Every projection, folded together: the full recoverable state of the
/// serving plane at one log position.
#[derive(Debug, Clone, PartialEq)]
pub struct Projections {
    /// Sequence number of the last applied event (0 = genesis).
    pub seq: u64,
    /// Served-prediction log.
    pub served: ServedState,
    /// Labeled feedback stream.
    pub feedback: FeedbackState,
    /// Model registry.
    pub registry: RegistryState,
    /// Per-team lifecycle controllers.
    pub lifecycle: BTreeMap<String, TeamLifecycle>,
    /// Events applied so far, by kind.
    pub counts: BTreeMap<String, u64>,
}

impl Default for Projections {
    fn default() -> Self {
        Projections::new()
    }
}

impl Projections {
    /// The genesis state (before any event, default caps).
    pub fn new() -> Projections {
        Projections {
            seq: 0,
            served: ServedState::new(DEFAULT_SERVED_CAP),
            feedback: FeedbackState::new(DEFAULT_FEEDBACK_CAP),
            registry: RegistryState {
                next_version: 1,
                epoch: 0,
                teams: BTreeMap::new(),
            },
            lifecycle: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    fn team_lifecycle(&mut self, team: &str) -> &mut TeamLifecycle {
        self.lifecycle.entry(team.to_string()).or_default()
    }

    fn team_models(&mut self, team: &str) -> &mut TeamModels {
        self.registry.teams.entry(team.to_string()).or_default()
    }

    /// Fold one event in. `seq` becomes the new log position; events
    /// referencing state the projection no longer holds (an evicted
    /// incident, a rollback target outside the retained history) are
    /// tolerated the same way the runtime tolerates them.
    pub fn apply(&mut self, seq: u64, event: &Event) {
        self.seq = seq;
        *self.counts.entry(event.kind().to_string()).or_insert(0) += 1;
        match event {
            Event::Init {
                served_cap,
                feedback_cap,
            } => {
                self.served.cap = (*served_cap).max(1) as usize;
                self.feedback.cap = (*feedback_cap).max(1) as usize;
            }
            Event::PredictionServed {
                incident,
                team,
                text,
                model_version,
                predicted,
                confidence,
                time,
            } => {
                self.served.insert(ServedRecord {
                    incident: *incident,
                    team: team.clone(),
                    text: text.clone(),
                    model_version: *model_version,
                    predicted_responsible: *predicted,
                    confidence: *confidence,
                    time: *time,
                    resolved: false,
                });
            }
            Event::FeedbackAccepted {
                incident,
                team,
                text,
                model_version,
                predicted,
                label,
                time,
            } => {
                // An evicted incident's feedback still joins the stream.
                let _ = self.served.resolve(*incident);
                self.feedback.insert(Feedback {
                    incident: *incident,
                    team: team.clone(),
                    text: text.clone(),
                    model_version: *model_version,
                    predicted: *predicted,
                    label: *label,
                    time: *time,
                });
            }
            Event::DriftArmed { .. }
            | Event::RetrainStarted { .. }
            | Event::ShadowVerdict { .. } => {
                // Counted above; these carry forensic detail, not
                // recoverable state (the cooldown anchor moves on
                // RetrainFinished / probation transitions).
            }
            Event::RetrainFinished { team, at, .. } => {
                self.team_lifecycle(team).last_action = *at;
            }
            Event::ModelPromoted {
                team,
                version,
                source,
                ..
            } => {
                self.team_models(team)
                    .models
                    .supersede((*version, source.clone()));
                self.registry.next_version = self.registry.next_version.max(version + 1);
            }
            Event::ModelRolledBack { team, to, .. } => {
                self.team_models(team).models.roll_back_to(Some(*to));
            }
            Event::ModelPinned { team, pinned, .. } => {
                self.team_models(team).pinned = *pinned;
            }
            Event::EpochChanged { epoch, .. } => {
                self.registry.epoch = self.registry.epoch.max(*epoch);
            }
            Event::ProbationStarted {
                team,
                version,
                baseline_mcc,
                at,
                ..
            } => {
                self.team_lifecycle(team)
                    .start_probation(*version, *baseline_mcc, *at);
            }
            Event::ProbationEnded { team, at, .. } => {
                self.team_lifecycle(team).end_probation(*at);
            }
        }
    }

    /// The canonical rendering: one JSON document, fully deterministic
    /// byte-for-byte in the projection state. This is the snapshot
    /// format, the `scoutctl wal replay` output, and the artifact the
    /// crash-recovery tests compare.
    pub fn render(&self) -> String {
        let records = self.served.records.iter().fold(Arr::new(), |arr, r| {
            arr.raw(
                &Obj::new()
                    .uint("incident", r.incident)
                    .str("team", &r.team)
                    .str("text", &r.text)
                    .uint("model_version", r.model_version)
                    .bool("predicted", r.predicted_responsible)
                    .num("confidence", r.confidence)
                    .uint("time", r.time.0)
                    .bool("resolved", r.resolved)
                    .finish(),
            )
        });

        let items = self.feedback.items.iter().fold(Arr::new(), |arr, f| {
            arr.raw(
                &Obj::new()
                    .uint("incident", f.incident)
                    .str("team", &f.team)
                    .str("text", &f.text)
                    .uint("model_version", f.model_version)
                    .bool("predicted", f.predicted)
                    .bool("label", f.label)
                    .uint("time", f.time.0)
                    .finish(),
            )
        });

        let versioned =
            |v: &u64, src: &str| Obj::new().uint("version", *v).str("source", src).finish();
        let teams = self
            .registry
            .teams
            .iter()
            .fold(Arr::new(), |arr, (team, slot)| {
                let history = slot
                    .models
                    .history
                    .iter()
                    .fold(Arr::new(), |h, (v, src)| h.raw(&versioned(v, src)));
                let current = match &slot.models.current {
                    Some((v, src)) => versioned(v, src),
                    None => "null".to_string(),
                };
                arr.raw(
                    &Obj::new()
                        .str("team", team)
                        .raw("current", &current)
                        .bool("pinned", slot.pinned)
                        .raw("history", &history.finish())
                        .finish(),
                )
            });

        let lifecycle = self.lifecycle.iter().fold(Arr::new(), |arr, (team, lc)| {
            let entry = Obj::new().str("team", team);
            let entry = match &lc.phase {
                PhaseState::Monitoring => entry.str("phase", "monitoring"),
                PhaseState::Probation {
                    version,
                    started,
                    baseline_mcc,
                } => entry
                    .str("phase", "probation")
                    .uint("version", *version)
                    .uint("started", started.0)
                    .num("baseline_mcc", *baseline_mcc),
            };
            arr.raw(
                &entry
                    .uint("last_action", lc.last_action.0)
                    .uint("ignore_before", lc.ignore_before.0)
                    .finish(),
            )
        });

        let mut counts = Obj::new();
        for (kind, n) in &self.counts {
            counts = counts.uint(kind, *n);
        }

        Obj::new()
            .uint("schema", SCHEMA)
            .uint("seq", self.seq)
            .raw(
                "served",
                &Obj::new()
                    .uint("next", self.served.next_incident)
                    .uint("cap", self.served.cap as u64)
                    .raw("records", &records.finish())
                    .finish(),
            )
            .raw(
                "feedback",
                &Obj::new()
                    .uint("cap", self.feedback.cap as u64)
                    .uint("total", self.feedback.total)
                    .raw("items", &items.finish())
                    .finish(),
            )
            .raw(
                "registry",
                &Obj::new()
                    .uint("next_version", self.registry.next_version)
                    .uint("epoch", self.registry.epoch)
                    .raw("teams", &teams.finish())
                    .finish(),
            )
            .raw("lifecycle", &lifecycle.finish())
            .raw("counts", &counts.finish())
            .finish()
    }

    /// Invert [`Projections::render`]. Total: any malformed or
    /// wrong-schema document yields `None` (a corrupt snapshot falls
    /// back to an older one, then to genesis replay).
    pub fn parse(text: &str) -> Option<Projections> {
        let v = Value::parse(text)?;
        if get_u64(&v, "schema")? != SCHEMA {
            return None;
        }
        let mut p = Projections::new();
        p.seq = get_u64(&v, "seq")?;

        let served = v.get("served")?;
        p.served.next_incident = get_u64(served, "next")?;
        p.served.cap = get_u64(served, "cap")?.max(1) as usize;
        for r in served.get("records")?.as_arr()? {
            p.served.records.push_back(ServedRecord {
                incident: get_u64(r, "incident")?,
                team: get_str(r, "team")?,
                text: get_str(r, "text")?,
                model_version: get_u64(r, "model_version")?,
                predicted_responsible: get_bool(r, "predicted")?,
                confidence: get_f64(r, "confidence")?,
                time: SimTime(get_u64(r, "time")?),
                resolved: get_bool(r, "resolved")?,
            });
        }

        let feedback = v.get("feedback")?;
        p.feedback.cap = get_u64(feedback, "cap")?.max(1) as usize;
        p.feedback.total = get_u64(feedback, "total")?;
        for f in feedback.get("items")?.as_arr()? {
            p.feedback.items.push_back(Feedback {
                incident: get_u64(f, "incident")?,
                team: get_str(f, "team")?,
                text: get_str(f, "text")?,
                model_version: get_u64(f, "model_version")?,
                predicted: get_bool(f, "predicted")?,
                label: get_bool(f, "label")?,
                time: SimTime(get_u64(f, "time")?),
            });
        }

        let registry = v.get("registry")?;
        p.registry.next_version = get_u64(registry, "next_version")?;
        p.registry.epoch = get_u64(registry, "epoch")?;
        for t in registry.get("teams")?.as_arr()? {
            let current = match t.get("current")? {
                Value::Null => None,
                cur => Some((get_u64(cur, "version")?, get_str(cur, "source")?)),
            };
            let mut history = Vec::new();
            for h in t.get("history")?.as_arr()? {
                history.push((get_u64(h, "version")?, get_str(h, "source")?));
            }
            p.registry.teams.insert(
                get_str(t, "team")?,
                TeamModels {
                    models: Timeline { current, history },
                    pinned: get_bool(t, "pinned")?,
                },
            );
        }

        for lc in v.get("lifecycle")?.as_arr()? {
            let phase = match lc.get("phase")?.as_str()? {
                "monitoring" => PhaseState::Monitoring,
                "probation" => PhaseState::Probation {
                    version: get_u64(lc, "version")?,
                    started: SimTime(get_u64(lc, "started")?),
                    baseline_mcc: get_f64(lc, "baseline_mcc")?,
                },
                _ => return None,
            };
            p.lifecycle.insert(
                get_str(lc, "team")?,
                TeamLifecycle {
                    phase,
                    last_action: SimTime(get_u64(lc, "last_action")?),
                    ignore_before: SimTime(get_u64(lc, "ignore_before")?),
                },
            );
        }

        if let Value::Obj(fields) = v.get("counts")? {
            for (kind, n) in fields {
                p.counts.insert(kind.clone(), int_of(n)?);
            }
        } else {
            return None;
        }

        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold(events: &[Event]) -> Projections {
        let mut p = Projections::new();
        for (i, e) in events.iter().enumerate() {
            p.apply(i as u64 + 1, e);
        }
        p
    }

    fn served(incident: u64, time: u64) -> Event {
        Event::PredictionServed {
            incident,
            team: "PhyNet".into(),
            text: format!("incident {incident}"),
            model_version: 1,
            predicted: true,
            confidence: 0.75,
            time: SimTime(time),
        }
    }

    fn feedback(incident: u64, time: u64, label: bool) -> Event {
        Event::FeedbackAccepted {
            incident,
            team: "PhyNet".into(),
            text: format!("incident {incident}"),
            model_version: 1,
            predicted: true,
            label,
            time: SimTime(time),
        }
    }

    #[test]
    fn served_log_mirrors_fifo_eviction() {
        let p = fold(&[
            Event::Init {
                served_cap: 2,
                feedback_cap: 4,
            },
            served(1, 10),
            served(2, 20),
            served(3, 30),
            feedback(1, 10, true), // evicted: tolerated, no resolve
            feedback(3, 30, false),
        ]);
        assert_eq!(p.served.next_incident, 4);
        let ids: Vec<u64> = p.served.records.iter().map(|r| r.incident).collect();
        assert_eq!(ids, vec![2, 3]);
        assert!(!p.served.records[0].resolved);
        assert!(p.served.records[1].resolved);
        // Both feedbacks still count toward the labeled stream.
        assert_eq!(p.feedback.total, 2);
    }

    #[test]
    fn served_ids_start_at_one_and_resolve_is_exactly_once() {
        let mut log = ServedState::new(2);
        let a = log
            .record("Storage", "disk latency", 3, true, 0.8, SimTime(9))
            .incident;
        let b = log
            .record("PhyNet", "t2", 1, false, 0.6, SimTime(10))
            .incident;
        assert_eq!((a, b), (1, 2));
        let rec = log.resolve(a).unwrap();
        assert_eq!((rec.team.as_str(), rec.model_version), ("Storage", 3));
        assert!(!rec.resolved, "returned snapshot is pre-resolution");
        assert_eq!(log.resolve(a), Err(ResolveError::AlreadyResolved(a)));
        assert_eq!(log.resolve(999), Err(ResolveError::Unknown(999)));
        log.record("PhyNet", "t3", 1, true, 0.9, SimTime(11));
        assert_eq!(log.records.len(), 2, "capacity evicts the oldest");
        assert_eq!(log.resolve(a), Err(ResolveError::Unknown(a)));
    }

    #[test]
    fn feedback_is_time_ordered_regardless_of_arrival() {
        let p = fold(&[
            feedback(1, 50, true),
            feedback(2, 10, false),
            feedback(3, 30, true),
        ]);
        let times: Vec<u64> = p.feedback.items.iter().map(|f| f.time.0).collect();
        assert_eq!(times, vec![10, 30, 50]);
    }

    #[test]
    fn registry_timeline_promote_then_rollback_to_any() {
        let promote = |version: u64| Event::ModelPromoted {
            team: "PhyNet".into(),
            version,
            source: format!("src-{version}"),
            at: SimTime(version * 10),
        };
        let mut p = fold(&[promote(1), promote(2), promote(3), promote(4)]);
        assert_eq!(p.registry.next_version, 5);
        let slot = &p.registry.teams["PhyNet"];
        assert_eq!(slot.models.current, Some((4, "src-4".into())));
        assert_eq!(
            slot.models
                .history
                .iter()
                .map(|(v, _)| *v)
                .collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        // Roll back two steps in one event: straight to v2.
        p.apply(
            5,
            &Event::ModelRolledBack {
                team: "PhyNet".into(),
                from: 4,
                to: 2,
                at: SimTime(99),
            },
        );
        let slot = &p.registry.teams["PhyNet"];
        assert_eq!(slot.models.current, Some((2, "src-2".into())));
        assert_eq!(
            slot.models
                .history
                .iter()
                .map(|(v, _)| *v)
                .collect::<Vec<_>>(),
            vec![1]
        );
    }

    #[test]
    fn lifecycle_phase_tracks_probation() {
        let mut p = fold(&[Event::ProbationStarted {
            team: "PhyNet".into(),
            version: 7,
            baseline_mcc: 0.5,
            external: false,
            at: SimTime(100),
        }]);
        assert_eq!(
            p.lifecycle["PhyNet"].phase,
            PhaseState::Probation {
                version: 7,
                started: SimTime(100),
                baseline_mcc: 0.5
            }
        );
        p.apply(
            2,
            &Event::ProbationEnded {
                team: "PhyNet".into(),
                version: 7,
                probation_mcc: 0.25,
                confirmed: true,
                at: SimTime(200),
            },
        );
        let lc = &p.lifecycle["PhyNet"];
        assert_eq!(lc.phase, PhaseState::Monitoring);
        assert_eq!(lc.ignore_before, SimTime(200));
        assert_eq!(lc.last_action, SimTime(200));
    }

    #[test]
    fn render_parse_render_is_identity() {
        let mut p = fold(&[
            Event::Init {
                served_cap: 4,
                feedback_cap: 4,
            },
            served(1, 10),
            served(2, 20),
            feedback(1, 10, false),
            Event::ModelPromoted {
                team: "PhyNet".into(),
                version: 1,
                source: "startup".into(),
                at: SimTime::EPOCH,
            },
            Event::ModelPromoted {
                team: "PhyNet".into(),
                version: 2,
                source: "lifecycle-retrain".into(),
                at: SimTime(500),
            },
            Event::ModelPinned {
                team: "Storage".into(),
                pinned: true,
                at: SimTime(501),
            },
            Event::ProbationStarted {
                team: "PhyNet".into(),
                version: 2,
                baseline_mcc: f64::NAN,
                external: false,
                at: SimTime(500),
            },
            Event::EpochChanged {
                epoch: 1,
                at: SimTime(502),
            },
        ]);
        let rendered = p.render();
        // The canonical bytes themselves (snapshots on disk and
        // `GET /v1/wal/state` depend on them), as first shipped.
        assert_eq!(
            rendered,
            concat!(
                r#"{"schema":1,"seq":9,"served":{"next":3,"cap":4,"records":["#,
                r#"{"incident":1,"team":"PhyNet","text":"incident 1","model_version":1,"#,
                r#""predicted":true,"confidence":0.75,"time":10,"resolved":true},"#,
                r#"{"incident":2,"team":"PhyNet","text":"incident 2","model_version":1,"#,
                r#""predicted":true,"confidence":0.75,"time":20,"resolved":false}]},"#,
                r#""feedback":{"cap":4,"total":1,"items":[{"incident":1,"team":"PhyNet","#,
                r#""text":"incident 1","model_version":1,"predicted":true,"label":false,"#,
                r#""time":10}]},"registry":{"next_version":3,"epoch":1,"teams":["#,
                r#"{"team":"PhyNet","current":{"version":2,"source":"lifecycle-retrain"},"#,
                r#""pinned":false,"history":[{"version":1,"source":"startup"}]},"#,
                r#"{"team":"Storage","current":null,"pinned":true,"history":[]}]},"#,
                r#""lifecycle":[{"team":"PhyNet","phase":"probation","version":2,"#,
                r#""started":500,"baseline_mcc":null,"last_action":500,"ignore_before":500}],"#,
                r#""counts":{"epoch_changed":1,"feedback_accepted":1,"init":1,"model_pinned":1,"#,
                r#""model_promoted":2,"prediction_served":2,"probation_started":1}}"#,
            )
        );
        let parsed = Projections::parse(&rendered).expect("parse own rendering");
        assert_eq!(parsed.render(), rendered);
        // And folding further events after the round-trip stays aligned
        // with the original (NaN baseline aside, states compare equal).
        p.apply(100, &served(3, 30));
        let mut reparsed = parsed;
        reparsed.apply(100, &served(3, 30));
        assert_eq!(reparsed.render(), p.render());
    }

    #[test]
    fn parse_rejects_garbage_and_wrong_schema() {
        assert!(Projections::parse("").is_none());
        assert!(Projections::parse("{}").is_none());
        assert!(Projections::parse("not json").is_none());
        let other = Projections::new()
            .render()
            .replace("\"schema\":1", "\"schema\":9");
        assert!(Projections::parse(&other).is_none());
    }
}
