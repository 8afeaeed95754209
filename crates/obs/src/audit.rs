//! The prediction audit log.
//!
//! The paper's operators would not deploy a Scout they could not
//! interrogate (§8): every routing decision must be reviewable after
//! the fact. One [`AuditRecord`] is written per `Scout::predict_*`
//! call, capturing what was decided, by which model, how confidently,
//! which features drove it, and where the incident went. A served
//! prediction writes a second, versioned record (served incident id,
//! model version, trace id). Records go to the audit sink and nowhere
//! else: nothing in the process keeps a copy to look them up by.

use crate::json::{Arr, Obj, Value};
use crate::trace;

/// One prediction, as written to the audit sink.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRecord {
    /// Incident id.
    pub incident: u64,
    /// Which model decided (`RandomForest`, `CpdConservative`,
    /// `CpdCluster`, `Exclusion`, `Fallback`).
    pub model: String,
    /// The verdict (`Responsible`, `NotResponsible`, `Fallback`).
    pub verdict: String,
    /// Confidence in `[0.5, 1]` for model verdicts, 1.0 for rules.
    pub confidence: f64,
    /// Top-k feature contributions, most influential first (signed:
    /// positive pushes toward `Responsible`).
    pub top_features: Vec<(String, f64)>,
    /// Routing outcome (`route-here`, `route-away`, `legacy-process`).
    pub outcome: String,
    /// Registry version of the model that produced this prediction.
    /// `0` means "unversioned" (offline training/evaluation predictions,
    /// which are keyed by corpus ordinal rather than a served incident
    /// id).
    pub model_version: u64,
    /// Trace id of the request that produced this prediction, `0` when
    /// the prediction ran outside a trace context (offline paths). Lets
    /// an operator go from an audit line to the request's span tree in
    /// the trace sink or flight recorder.
    pub trace_id: u64,
}

impl AuditRecord {
    /// Encode as one JSONL line.
    pub fn to_json(&self) -> String {
        let feats = self.top_features.iter().fold(Arr::new(), |arr, (name, w)| {
            arr.raw(&Obj::new().str("feature", name).num("weight", *w).finish())
        });
        let mut obj = Obj::new()
            .str("type", "audit")
            .uint("incident", self.incident)
            .str("model", &self.model)
            .str("verdict", &self.verdict)
            .num("confidence", self.confidence)
            .raw("top_features", &feats.finish())
            .str("outcome", &self.outcome)
            .uint("model_version", self.model_version);
        if self.trace_id != 0 {
            obj = obj.str("trace", &trace::hex(self.trace_id));
        }
        obj.finish()
    }

    /// Decode one JSONL line; `None` for non-audit or malformed lines.
    pub fn from_json(line: &str) -> Option<AuditRecord> {
        let v = Value::parse(line)?;
        if v.get("type")?.as_str()? != "audit" {
            return None;
        }
        let top_features = v
            .get("top_features")?
            .as_arr()?
            .iter()
            .map(|f| {
                Some((
                    f.get("feature")?.as_str()?.to_string(),
                    f.get("weight")?.as_f64()?,
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(AuditRecord {
            incident: v.get("incident")?.as_f64()? as u64,
            model: v.get("model")?.as_str()?.to_string(),
            verdict: v.get("verdict")?.as_str()?.to_string(),
            confidence: v.get("confidence")?.as_f64()?,
            top_features,
            outcome: v.get("outcome")?.as_str()?.to_string(),
            // Absent in pre-versioning logs: treat as unversioned.
            model_version: v
                .get("model_version")
                .and_then(Value::as_f64)
                .unwrap_or(0.0) as u64,
            // Absent in pre-tracing logs: treat as traceless.
            trace_id: v
                .get("trace")
                .and_then(Value::as_str)
                .and_then(trace::parse_hex)
                .unwrap_or(0),
        })
    }

    /// Write this record to the global audit sink (no-op while
    /// collection is disabled) and count it under
    /// `scout.audit.records`. The sink line is the only copy: feedback
    /// joins against the served log, not against audit records.
    pub fn emit(&self) {
        if !crate::enabled() {
            return;
        }
        let collector = crate::global();
        collector.metrics.add_counter("scout.audit.records", 1);
        if collector.has_audit_sink() {
            collector.emit_audit(&self.to_json());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AuditRecord {
        AuditRecord {
            incident: 42,
            model: "RandomForest".into(),
            verdict: "Responsible".into(),
            confidence: 0.875,
            top_features: vec![
                ("switch/link-loss-status/mean".into(), 0.31),
                ("text:reachability".into(), -0.12),
            ],
            outcome: "route-here".into(),
            model_version: 3,
            trace_id: 0xdeadbeef,
        }
    }

    #[test]
    fn trace_id_round_trips_as_hex() {
        let rec = sample();
        assert!(rec.to_json().contains(r#""trace":"00000000deadbeef""#));
        assert_eq!(
            AuditRecord::from_json(&rec.to_json()).unwrap().trace_id,
            0xdeadbeef
        );
        let traceless = AuditRecord {
            trace_id: 0,
            ..sample()
        };
        assert!(!traceless.to_json().contains("\"trace\""));
        assert_eq!(
            AuditRecord::from_json(&traceless.to_json()).unwrap(),
            traceless
        );
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let rec = sample();
        let back = AuditRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn empty_features_round_trip() {
        let rec = AuditRecord {
            top_features: Vec::new(),
            ..sample()
        };
        assert_eq!(AuditRecord::from_json(&rec.to_json()).unwrap(), rec);
    }

    #[test]
    fn non_audit_lines_rejected() {
        assert!(AuditRecord::from_json(r#"{"type":"span","name":"x"}"#).is_none());
        assert!(AuditRecord::from_json("not json").is_none());
    }

    #[test]
    fn pre_versioning_lines_decode_as_unversioned() {
        let line = r#"{"type":"audit","incident":7,"model":"RandomForest","verdict":"Responsible","confidence":0.9,"top_features":[],"outcome":"route-here"}"#;
        let rec = AuditRecord::from_json(line).unwrap();
        assert_eq!(rec.model_version, 0);
        assert_eq!(rec.incident, 7);
    }
}
