//! Deterministic projections: the serving plane's state as a pure fold
//! over the event stream.
//!
//! [`Projections::apply`] must mirror the runtime semantics of the
//! structures it shadows *exactly* — the bounded-FIFO eviction of the
//! serve `ServedLog`, the time-ordered insertion and cap of the
//! lifecycle `FeedbackStore`, the registry's promotion stack — because
//! crash recovery hands these projections back to the runtime as its
//! starting state, and the acceptance bar is bit-identity between
//! "state the process died with" and "state replayed from the log".
//!
//! [`Projections::render`] is the canonical form: a single JSON
//! document with fully deterministic field and element order (BTreeMap
//! iteration, insertion-ordered queues, `{:?}` float formatting via
//! `obs::json`). Snapshots are exactly this rendering, and
//! [`Projections::parse`] inverts it, so
//! `render(parse(render(p))) == render(p)` byte-for-byte.

use crate::event::{Event, SCHEMA};
use cloudsim::SimTime;
use obs::json::{Arr, Obj, Value};
use std::collections::{BTreeMap, VecDeque};

/// How many superseded versions a registry slot retains for rollback.
/// Shared by the runtime registry and this projection so both evict the
/// same entry at the same time.
pub const HISTORY_CAP: usize = 16;

/// Default `ServedLog` bound used before an `Init` event is seen.
pub const DEFAULT_SERVED_CAP: u64 = 8192;
/// Default `FeedbackStore` bound used before an `Init` event is seen.
pub const DEFAULT_FEEDBACK_CAP: u64 = 16 * 1024;

/// One served prediction (mirror of `serve::ServedRecord`).
#[derive(Debug, Clone, PartialEq)]
pub struct ServedRec {
    /// Server-assigned incident id.
    pub incident: u64,
    /// Team whose Scout answered.
    pub team: String,
    /// The classified incident text.
    pub text: String,
    /// Registry version that answered.
    pub model_version: u64,
    /// Did the Scout say "responsible"?
    pub predicted: bool,
    /// Prediction confidence.
    pub confidence: f64,
    /// Simulation time of the prediction.
    pub time: SimTime,
    /// Has ground truth been recorded?
    pub resolved: bool,
}

/// The served-prediction log projection (bounded FIFO + id counter).
#[derive(Debug, Clone, PartialEq)]
pub struct ServedState {
    /// Next incident id the runtime log will assign.
    pub next_incident: u64,
    /// Retention bound.
    pub cap: usize,
    /// Retained predictions, oldest first.
    pub records: VecDeque<ServedRec>,
}

/// One labeled example (mirror of `lifecycle::Feedback`, plus the team
/// so multi-team recovery can split the stream).
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackRec {
    /// Server-assigned incident id.
    pub incident: u64,
    /// Team whose Scout answered.
    pub team: String,
    /// The classified incident text.
    pub text: String,
    /// Registry version that predicted.
    pub model_version: u64,
    /// What the Scout said.
    pub predicted: bool,
    /// Ground truth.
    pub label: bool,
    /// Simulation time of the prediction.
    pub time: SimTime,
}

/// The labeled feedback stream projection (bounded, time-ordered).
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackState {
    /// Retention bound.
    pub cap: usize,
    /// Total ever ingested (including evicted).
    pub total: u64,
    /// Retained examples in simulation-time order.
    pub items: VecDeque<FeedbackRec>,
}

/// One registry slot: current version plus the rollback stack.
#[derive(Debug, Clone, PartialEq)]
pub struct TeamModels {
    /// The serving `(version, source)`, if any model is published.
    pub current: Option<(u64, String)>,
    /// Is the team pinned?
    pub pinned: bool,
    /// Superseded `(version, source)` entries, oldest first.
    pub history: Vec<(u64, String)>,
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
#[derive(Debug, Clone, PartialEq)]
pub enum PhaseState {
    /// Watching for drift.
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
#[derive(Debug, Clone, PartialEq)]
pub struct TeamLifecycle {
    /// Current phase.
    pub phase: PhaseState,
    /// Last lifecycle action (cooldown anchor).
    pub last_action: SimTime,
    /// Drift-monitor reset point.
    pub ignore_before: SimTime,
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
            served: ServedState {
                next_incident: 1,
                cap: DEFAULT_SERVED_CAP as usize,
                records: VecDeque::new(),
            },
            feedback: FeedbackState {
                cap: DEFAULT_FEEDBACK_CAP as usize,
                total: 0,
                items: VecDeque::new(),
            },
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
        self.lifecycle
            .entry(team.to_string())
            .or_insert_with(|| TeamLifecycle {
                phase: PhaseState::Monitoring,
                last_action: SimTime::EPOCH,
                ignore_before: SimTime::EPOCH,
            })
    }

    fn team_models(&mut self, team: &str) -> &mut TeamModels {
        self.registry
            .teams
            .entry(team.to_string())
            .or_insert_with(|| TeamModels {
                current: None,
                pinned: false,
                history: Vec::new(),
            })
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
                if self.served.records.len() >= self.served.cap {
                    self.served.records.pop_front();
                }
                self.served.records.push_back(ServedRec {
                    incident: *incident,
                    team: team.clone(),
                    text: text.clone(),
                    model_version: *model_version,
                    predicted: *predicted,
                    confidence: *confidence,
                    time: *time,
                    resolved: false,
                });
                self.served.next_incident = self.served.next_incident.max(incident + 1);
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
                if let Some(rec) = self
                    .served
                    .records
                    .iter_mut()
                    .find(|r| r.incident == *incident)
                {
                    rec.resolved = true;
                }
                // Same ordered insertion as `FeedbackStore::push`:
                // stable by time, oldest evicted when full.
                let fb = FeedbackRec {
                    incident: *incident,
                    team: team.clone(),
                    text: text.clone(),
                    model_version: *model_version,
                    predicted: *predicted,
                    label: *label,
                    time: *time,
                };
                let pos = self
                    .feedback
                    .items
                    .iter()
                    .rposition(|f| f.time <= fb.time)
                    .map(|i| i + 1)
                    .unwrap_or(0);
                self.feedback.items.insert(pos, fb);
                if self.feedback.items.len() > self.feedback.cap {
                    self.feedback.items.pop_front();
                }
                self.feedback.total += 1;
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
                let slot = self.team_models(team);
                if let Some(prior) = slot.current.take() {
                    slot.history.push(prior);
                    if slot.history.len() > HISTORY_CAP {
                        slot.history.remove(0);
                    }
                }
                slot.current = Some((*version, source.clone()));
                self.registry.next_version = self.registry.next_version.max(version + 1);
            }
            Event::ModelRolledBack { team, to, .. } => {
                let slot = self.team_models(team);
                if let Some(pos) = slot.history.iter().rposition(|(v, _)| v == to) {
                    let restored = slot.history[pos].clone();
                    slot.history.truncate(pos);
                    slot.current = Some(restored);
                }
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
                let lc = self.team_lifecycle(team);
                lc.phase = PhaseState::Probation {
                    version: *version,
                    started: *at,
                    baseline_mcc: *baseline_mcc,
                };
                lc.ignore_before = *at;
                lc.last_action = *at;
            }
            Event::ProbationEnded { team, at, .. } => {
                let lc = self.team_lifecycle(team);
                lc.phase = PhaseState::Monitoring;
                lc.ignore_before = *at;
                lc.last_action = *at;
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
                    .bool("predicted", r.predicted)
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
                    .history
                    .iter()
                    .fold(Arr::new(), |h, (v, src)| h.raw(&versioned(v, src)));
                let current = match &slot.current {
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
            p.served.records.push_back(ServedRec {
                incident: get_u64(r, "incident")?,
                team: get_str(r, "team")?,
                text: get_str(r, "text")?,
                model_version: get_u64(r, "model_version")?,
                predicted: get_bool(r, "predicted")?,
                confidence: get_f64(r, "confidence")?,
                time: SimTime(get_u64(r, "time")?),
                resolved: get_bool(r, "resolved")?,
            });
        }

        let feedback = v.get("feedback")?;
        p.feedback.cap = get_u64(feedback, "cap")?.max(1) as usize;
        p.feedback.total = get_u64(feedback, "total")?;
        for f in feedback.get("items")?.as_arr()? {
            p.feedback.items.push_back(FeedbackRec {
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
                    current,
                    pinned: get_bool(t, "pinned")?,
                    history,
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

fn int_of(n: &Value) -> Option<u64> {
    let n = n.as_f64()?;
    if n.fract() != 0.0 || !(0.0..9.0e15).contains(&n) {
        return None;
    }
    Some(n as u64)
}

fn get_u64(v: &Value, key: &str) -> Option<u64> {
    int_of(v.get(key)?)
}

fn get_f64(v: &Value, key: &str) -> Option<f64> {
    match v.get(key)? {
        Value::Null => Some(f64::NAN),
        other => other.as_f64(),
    }
}

fn get_str(v: &Value, key: &str) -> Option<String> {
    v.get(key)?.as_str().map(str::to_string)
}

fn get_bool(v: &Value, key: &str) -> Option<bool> {
    match v.get(key)? {
        Value::Bool(b) => Some(*b),
        _ => None,
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
        assert_eq!(slot.current, Some((4, "src-4".into())));
        assert_eq!(
            slot.history.iter().map(|(v, _)| *v).collect::<Vec<_>>(),
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
        assert_eq!(slot.current, Some((2, "src-2".into())));
        assert_eq!(
            slot.history.iter().map(|(v, _)| *v).collect::<Vec<_>>(),
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
