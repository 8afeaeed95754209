//! The versioned event schema: everything the serving plane does that
//! mutates state, as one flat JSON record per event.
//!
//! Events are the *source of truth* — the in-memory `ServedLog`,
//! `FeedbackStore`, registry timeline, and lifecycle phase are all
//! projections of this stream (see [`crate::projection`]). Each record
//! carries the schema version (`"v"`), its log sequence number
//! (`"seq"`, contiguous from 1), a `"kind"` discriminant, and the
//! event's own fields. Times are `cloudsim` simulation minutes encoded
//! as integers; floats use the exact `{:?}` rendering from
//! `obs::json`, so decode(encode(e)) is identity and replay is
//! bit-deterministic.
//!
//! Decoding is total: any malformed payload decodes to `None` (never a
//! panic), and recovery treats it like a corrupt frame — replay stops
//! at the last well-formed prefix.

use cloudsim::SimTime;
use obs::json::{Obj, Value};

/// Current schema version stamped on every record.
pub const SCHEMA: u64 = 1;

/// One state mutation in the serving plane.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// First record of every log: the projection bounds, so a standalone
    /// replay reproduces eviction behavior without out-of-band config.
    Init {
        /// `ServedLog` capacity in effect for this log.
        served_cap: u64,
        /// `FeedbackStore` capacity in effect for this log.
        feedback_cap: u64,
    },
    /// A prediction was served (assigned `incident`, answered by
    /// `model_version`).
    PredictionServed {
        /// Server-assigned incident id.
        incident: u64,
        /// Team whose Scout answered.
        team: String,
        /// The classified incident text.
        text: String,
        /// Registry version that answered.
        model_version: u64,
        /// Did the Scout say "responsible"?
        predicted: bool,
        /// Prediction confidence.
        confidence: f64,
        /// Simulation time of the prediction.
        time: SimTime,
    },
    /// Ground truth arrived and passed the exactly-once join.
    FeedbackAccepted {
        /// Incident being resolved.
        incident: u64,
        /// Team whose Scout answered.
        team: String,
        /// The classified incident text.
        text: String,
        /// Version that made the prediction.
        model_version: u64,
        /// What the Scout said.
        predicted: bool,
        /// Ground truth.
        label: bool,
        /// Simulation time of the original prediction.
        time: SimTime,
    },
    /// The drift monitor armed a retrain.
    DriftArmed {
        /// Controller team.
        team: String,
        /// Tick time.
        at: SimTime,
        /// Most recent bucket error rate.
        error: f64,
        /// Change-point (vs sustained) trigger.
        via_cpd: bool,
    },
    /// A retrain was launched.
    RetrainStarted {
        /// Controller team.
        team: String,
        /// Tick time.
        at: SimTime,
        /// Training examples in the weighted window.
        train_size: u64,
    },
    /// A retrain concluded. `outcome` is one of `promoted`, `rejected`,
    /// `blocked_pinned`, `skipped_thin`, `cold_start`.
    RetrainFinished {
        /// Controller team.
        team: String,
        /// Tick time.
        at: SimTime,
        /// What happened to the candidate.
        outcome: String,
    },
    /// The shadow gate compared candidate vs live out-of-sample.
    ShadowVerdict {
        /// Controller team.
        team: String,
        /// Tick time.
        at: SimTime,
        /// Candidate MCC on the shadow window.
        candidate_mcc: f64,
        /// Live MCC on the shadow window.
        live_mcc: f64,
        /// Labeled examples in the shadow window.
        samples: u64,
        /// Did the candidate clear the margin?
        passed: bool,
    },
    /// A model was published for `team` (registry hot-swap).
    ModelPromoted {
        /// Registry key.
        team: String,
        /// Version assigned by the registry.
        version: u64,
        /// Where the model came from.
        source: String,
        /// Event time (EPOCH when driven by wall-clock operators).
        at: SimTime,
    },
    /// The registry rolled `team` back to a recorded version.
    ModelRolledBack {
        /// Registry key.
        team: String,
        /// The demoted version.
        from: u64,
        /// The restored version.
        to: u64,
        /// Event time.
        at: SimTime,
    },
    /// A pin was set or cleared.
    ModelPinned {
        /// Registry key.
        team: String,
        /// `true` = pinned, `false` = unpinned.
        pinned: bool,
        /// Event time.
        at: SimTime,
    },
    /// The registry's bulk-reload epoch advanced (one per `load_dir`).
    EpochChanged {
        /// The new epoch.
        epoch: u64,
        /// Event time.
        at: SimTime,
    },
    /// A promotion (own, cold-start, or externally detected) put a
    /// version on probation.
    ProbationStarted {
        /// Controller team.
        team: String,
        /// The version under probation.
        version: u64,
        /// Shadow-window MCC it must defend.
        baseline_mcc: f64,
        /// Promoted outside the controller (operator reload)?
        external: bool,
        /// Tick time.
        at: SimTime,
    },
    /// Probation concluded (confirmed or rolled back).
    ProbationEnded {
        /// Controller team.
        team: String,
        /// The version that was on probation.
        version: u64,
        /// Its MCC over the probation window.
        probation_mcc: f64,
        /// `true` = promotion stands, `false` = rolled back.
        confirmed: bool,
        /// Tick time.
        at: SimTime,
    },
}

impl Event {
    /// The `"kind"` discriminant this event encodes with.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Init { .. } => "init",
            Event::PredictionServed { .. } => "prediction_served",
            Event::FeedbackAccepted { .. } => "feedback_accepted",
            Event::DriftArmed { .. } => "drift_armed",
            Event::RetrainStarted { .. } => "retrain_started",
            Event::RetrainFinished { .. } => "retrain_finished",
            Event::ShadowVerdict { .. } => "shadow_verdict",
            Event::ModelPromoted { .. } => "model_promoted",
            Event::ModelRolledBack { .. } => "model_rolled_back",
            Event::ModelPinned { .. } => "model_pinned",
            Event::EpochChanged { .. } => "epoch_changed",
            Event::ProbationStarted { .. } => "probation_started",
            Event::ProbationEnded { .. } => "probation_ended",
        }
    }

    /// Encode this event as one JSON record carrying `seq`.
    pub fn encode(&self, seq: u64) -> String {
        let obj = Obj::new()
            .uint("v", SCHEMA)
            .uint("seq", seq)
            .str("kind", self.kind());
        match self {
            Event::Init {
                served_cap,
                feedback_cap,
            } => obj
                .uint("served_cap", *served_cap)
                .uint("feedback_cap", *feedback_cap),
            Event::PredictionServed {
                incident,
                team,
                text,
                model_version,
                predicted,
                confidence,
                time,
            } => obj
                .uint("incident", *incident)
                .str("team", team)
                .str("text", text)
                .uint("model_version", *model_version)
                .bool("predicted", *predicted)
                .num("confidence", *confidence)
                .uint("time", time.0),
            Event::FeedbackAccepted {
                incident,
                team,
                text,
                model_version,
                predicted,
                label,
                time,
            } => obj
                .uint("incident", *incident)
                .str("team", team)
                .str("text", text)
                .uint("model_version", *model_version)
                .bool("predicted", *predicted)
                .bool("label", *label)
                .uint("time", time.0),
            Event::DriftArmed {
                team,
                at,
                error,
                via_cpd,
            } => obj
                .str("team", team)
                .uint("at", at.0)
                .num("error", *error)
                .bool("via_cpd", *via_cpd),
            Event::RetrainStarted {
                team,
                at,
                train_size,
            } => obj
                .str("team", team)
                .uint("at", at.0)
                .uint("train_size", *train_size),
            Event::RetrainFinished { team, at, outcome } => obj
                .str("team", team)
                .uint("at", at.0)
                .str("outcome", outcome),
            Event::ShadowVerdict {
                team,
                at,
                candidate_mcc,
                live_mcc,
                samples,
                passed,
            } => obj
                .str("team", team)
                .uint("at", at.0)
                .num("candidate_mcc", *candidate_mcc)
                .num("live_mcc", *live_mcc)
                .uint("samples", *samples)
                .bool("passed", *passed),
            Event::ModelPromoted {
                team,
                version,
                source,
                at,
            } => obj
                .str("team", team)
                .uint("version", *version)
                .str("source", source)
                .uint("at", at.0),
            Event::ModelRolledBack { team, from, to, at } => obj
                .str("team", team)
                .uint("from", *from)
                .uint("to", *to)
                .uint("at", at.0),
            Event::ModelPinned { team, pinned, at } => obj
                .str("team", team)
                .bool("pinned", *pinned)
                .uint("at", at.0),
            Event::EpochChanged { epoch, at } => obj.uint("epoch", *epoch).uint("at", at.0),
            Event::ProbationStarted {
                team,
                version,
                baseline_mcc,
                external,
                at,
            } => obj
                .str("team", team)
                .uint("version", *version)
                .num("baseline_mcc", *baseline_mcc)
                .bool("external", *external)
                .uint("at", at.0),
            Event::ProbationEnded {
                team,
                version,
                probation_mcc,
                confirmed,
                at,
            } => obj
                .str("team", team)
                .uint("version", *version)
                .num("probation_mcc", *probation_mcc)
                .bool("confirmed", *confirmed)
                .uint("at", at.0),
        }
        .finish()
    }

    /// Read the sequence stamp from an encoded record without a full
    /// JSON parse. Every record encodes `v` then `seq` first, so the
    /// prefix shape is fixed; any deviation yields `None` and the
    /// caller falls back to [`Event::decode`]. Recovery uses this to
    /// skip behind-snapshot records without paying a full decode per
    /// record it is about to discard.
    pub fn peek_seq(text: &str) -> Option<u64> {
        let rest = text.strip_prefix("{\"v\":")?;
        let v_end = rest.find(|c: char| !c.is_ascii_digit())?;
        if v_end == 0 || rest[..v_end].parse::<u64>().ok()? != SCHEMA {
            return None;
        }
        let digits = rest[v_end..].strip_prefix(",\"seq\":")?;
        let end = digits.find(|c: char| !c.is_ascii_digit())?;
        if end == 0 {
            return None;
        }
        digits[..end].parse().ok()
    }

    /// Decode one record, returning `(seq, event)`. Total: malformed
    /// input, unknown kinds, and future schema versions all yield
    /// `None`.
    pub fn decode(text: &str) -> Option<(u64, Event)> {
        let v = Value::parse(text)?;
        if get_u64(&v, "v")? != SCHEMA {
            return None;
        }
        let seq = get_u64(&v, "seq")?;
        let event = match v.get("kind")?.as_str()? {
            "init" => Event::Init {
                served_cap: get_u64(&v, "served_cap")?,
                feedback_cap: get_u64(&v, "feedback_cap")?,
            },
            "prediction_served" => Event::PredictionServed {
                incident: get_u64(&v, "incident")?,
                team: get_str(&v, "team")?,
                text: get_str(&v, "text")?,
                model_version: get_u64(&v, "model_version")?,
                predicted: get_bool(&v, "predicted")?,
                confidence: get_f64(&v, "confidence")?,
                time: SimTime(get_u64(&v, "time")?),
            },
            "feedback_accepted" => Event::FeedbackAccepted {
                incident: get_u64(&v, "incident")?,
                team: get_str(&v, "team")?,
                text: get_str(&v, "text")?,
                model_version: get_u64(&v, "model_version")?,
                predicted: get_bool(&v, "predicted")?,
                label: get_bool(&v, "label")?,
                time: SimTime(get_u64(&v, "time")?),
            },
            "drift_armed" => Event::DriftArmed {
                team: get_str(&v, "team")?,
                at: SimTime(get_u64(&v, "at")?),
                error: get_f64(&v, "error")?,
                via_cpd: get_bool(&v, "via_cpd")?,
            },
            "retrain_started" => Event::RetrainStarted {
                team: get_str(&v, "team")?,
                at: SimTime(get_u64(&v, "at")?),
                train_size: get_u64(&v, "train_size")?,
            },
            "retrain_finished" => Event::RetrainFinished {
                team: get_str(&v, "team")?,
                at: SimTime(get_u64(&v, "at")?),
                outcome: get_str(&v, "outcome")?,
            },
            "shadow_verdict" => Event::ShadowVerdict {
                team: get_str(&v, "team")?,
                at: SimTime(get_u64(&v, "at")?),
                candidate_mcc: get_f64(&v, "candidate_mcc")?,
                live_mcc: get_f64(&v, "live_mcc")?,
                samples: get_u64(&v, "samples")?,
                passed: get_bool(&v, "passed")?,
            },
            "model_promoted" => Event::ModelPromoted {
                team: get_str(&v, "team")?,
                version: get_u64(&v, "version")?,
                source: get_str(&v, "source")?,
                at: SimTime(get_u64(&v, "at")?),
            },
            "model_rolled_back" => Event::ModelRolledBack {
                team: get_str(&v, "team")?,
                from: get_u64(&v, "from")?,
                to: get_u64(&v, "to")?,
                at: SimTime(get_u64(&v, "at")?),
            },
            "model_pinned" => Event::ModelPinned {
                team: get_str(&v, "team")?,
                pinned: get_bool(&v, "pinned")?,
                at: SimTime(get_u64(&v, "at")?),
            },
            "epoch_changed" => Event::EpochChanged {
                epoch: get_u64(&v, "epoch")?,
                at: SimTime(get_u64(&v, "at")?),
            },
            "probation_started" => Event::ProbationStarted {
                team: get_str(&v, "team")?,
                version: get_u64(&v, "version")?,
                baseline_mcc: get_f64(&v, "baseline_mcc")?,
                external: get_bool(&v, "external")?,
                at: SimTime(get_u64(&v, "at")?),
            },
            "probation_ended" => Event::ProbationEnded {
                team: get_str(&v, "team")?,
                version: get_u64(&v, "version")?,
                probation_mcc: get_f64(&v, "probation_mcc")?,
                confirmed: get_bool(&v, "confirmed")?,
                at: SimTime(get_u64(&v, "at")?),
            },
            _ => return None,
        };
        Some((seq, event))
    }
}

// The JSON field readers of the log's two record shapes: event lines and
// projection snapshots.

/// An integer. `obs::json` parses all numbers as `f64`; every id the
/// plane mints stays far under 2^53, so the conversion is exact —
/// anything negative, fractional, or outside that range is malformed.
pub(crate) fn int_of(n: &Value) -> Option<u64> {
    let n = n.as_f64()?;
    if n.fract() != 0.0 || !(0.0..9.0e15).contains(&n) {
        return None;
    }
    Some(n as u64)
}

/// An integer field (see [`int_of`]).
pub(crate) fn get_u64(v: &Value, key: &str) -> Option<u64> {
    int_of(v.get(key)?)
}

pub(crate) fn get_f64(v: &Value, key: &str) -> Option<f64> {
    // `Obj::num` writes non-finite values as null; map them back to NaN
    // (MCC of an empty confusion, for instance).
    match v.get(key)? {
        Value::Null => Some(f64::NAN),
        other => other.as_f64(),
    }
}

pub(crate) fn get_str(v: &Value, key: &str) -> Option<String> {
    v.get(key)?.as_str().map(str::to_string)
}

pub(crate) fn get_bool(v: &Value, key: &str) -> Option<bool> {
    match v.get(key)? {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Event> {
        vec![
            Event::Init {
                served_cap: 8192,
                feedback_cap: 16384,
            },
            Event::PredictionServed {
                incident: 7,
                team: "PhyNet".into(),
                text: "switch \"tor-7\" link flap\n".into(),
                model_version: 3,
                predicted: true,
                confidence: 0.8125,
                time: SimTime(1440),
            },
            Event::FeedbackAccepted {
                incident: 7,
                team: "PhyNet".into(),
                text: "switch \"tor-7\" link flap\n".into(),
                model_version: 3,
                predicted: true,
                label: false,
                time: SimTime(1440),
            },
            Event::DriftArmed {
                team: "PhyNet".into(),
                at: SimTime(2880),
                error: 0.4375,
                via_cpd: true,
            },
            Event::RetrainStarted {
                team: "PhyNet".into(),
                at: SimTime(2880),
                train_size: 120,
            },
            Event::RetrainFinished {
                team: "PhyNet".into(),
                at: SimTime(2880),
                outcome: "promoted".into(),
            },
            Event::ShadowVerdict {
                team: "PhyNet".into(),
                at: SimTime(2880),
                candidate_mcc: 0.625,
                live_mcc: 0.25,
                samples: 48,
                passed: true,
            },
            Event::ModelPromoted {
                team: "PhyNet".into(),
                version: 4,
                source: "lifecycle-retrain".into(),
                at: SimTime(2880),
            },
            Event::ModelRolledBack {
                team: "PhyNet".into(),
                from: 4,
                to: 3,
                at: SimTime(4320),
            },
            Event::ModelPinned {
                team: "PhyNet".into(),
                pinned: true,
                at: SimTime(4320),
            },
            Event::EpochChanged {
                epoch: 2,
                at: SimTime(4320),
            },
            Event::ProbationStarted {
                team: "PhyNet".into(),
                version: 4,
                baseline_mcc: 0.625,
                external: false,
                at: SimTime(2880),
            },
            Event::ProbationEnded {
                team: "PhyNet".into(),
                version: 4,
                probation_mcc: 0.125,
                confirmed: false,
                at: SimTime(4320),
            },
        ]
    }

    #[test]
    fn every_kind_round_trips() {
        for (i, event) in samples().into_iter().enumerate() {
            let seq = i as u64 + 1;
            let line = event.encode(seq);
            let (got_seq, got) = Event::decode(&line).unwrap_or_else(|| panic!("decode {line}"));
            assert_eq!(got_seq, seq);
            assert_eq!(got, event, "{line}");
            // Encoding is canonical: re-encoding the decoded event is
            // byte-identical.
            assert_eq!(got.encode(seq), line);
        }
    }

    #[test]
    fn nan_mcc_survives_the_round_trip() {
        let event = Event::ProbationEnded {
            team: "Storage".into(),
            version: 9,
            probation_mcc: f64::NAN,
            confirmed: true,
            at: SimTime(10),
        };
        let line = event.encode(1);
        assert!(line.contains("\"probation_mcc\":null"), "{line}");
        let (_, got) = Event::decode(&line).unwrap();
        match got {
            Event::ProbationEnded { probation_mcc, .. } => assert!(probation_mcc.is_nan()),
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn malformed_records_decode_to_none() {
        assert!(Event::decode("").is_none());
        assert!(Event::decode("{}").is_none());
        assert!(Event::decode("{\"v\":1,\"seq\":1,\"kind\":\"nope\"}").is_none());
        assert!(Event::decode("{\"v\":2,\"seq\":1,\"kind\":\"init\"}").is_none());
        // Missing field.
        assert!(Event::decode("{\"v\":1,\"seq\":1,\"kind\":\"init\",\"served_cap\":4}").is_none());
        // Fractional id.
        assert!(Event::decode(
            "{\"v\":1,\"seq\":1.5,\"kind\":\"init\",\"served_cap\":4,\"feedback_cap\":4}"
        )
        .is_none());
    }
}
