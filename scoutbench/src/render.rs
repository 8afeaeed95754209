//! The response bodies the server is expected to produce, rendered from
//! the same public types. `serve::server` keeps its renderers private, so
//! the oracle and the layer walk carry this copy; any drift between the
//! two shows up as `mismatch` on every checked reply.

use crate::traffic::Mix;
use obs::json::{escape_into, Obj};
use scout::{ModelUsed, Verdict};
use scoutmaster::{FleetAnswer, FleetDecision, FleetMaster, Suggestion};
use serve::{Answer, TeamOutcome};
use std::hash::{Hash, Hasher};

fn str_array(items: &[String]) -> String {
    let mut out = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(&mut out, item);
        out.push('"');
    }
    out.push(']');
    out
}

/// One Scout's answer as the server renders it.
pub fn answer(a: &Answer) -> Obj {
    let p = &a.prediction;
    Obj::new()
        .str("team", &a.team)
        .uint("model_version", a.model_version)
        .str(
            "verdict",
            match p.verdict {
                Verdict::Responsible => "responsible",
                Verdict::NotResponsible => "not_responsible",
                Verdict::Fallback => "fallback",
            },
        )
        .num("confidence", p.confidence)
        .str(
            "model",
            match p.model {
                ModelUsed::RandomForest => "random_forest",
                ModelUsed::CpdConservative => "cpd_conservative",
                ModelUsed::CpdCluster => "cpd_cluster",
                ModelUsed::Exclusion => "exclusion",
                ModelUsed::Fallback => "fallback",
            },
        )
        .raw("components", &str_array(&p.explanation.components))
        .raw("evidence", &str_array(&p.explanation.evidence))
}

/// The Scout Master's inputs from sorted per-team outcomes. `None` when
/// a Scout errored — no benchmark workload injects faults, so that is a
/// mismatch by itself.
pub fn fleet_answers(outcomes: &[TeamOutcome]) -> Option<Vec<FleetAnswer>> {
    outcomes
        .iter()
        .map(|o| {
            o.result.as_ref().ok().map(|a| {
                FleetAnswer::new(
                    a.team.clone(),
                    a.prediction.says_responsible(),
                    a.prediction.confidence,
                )
            })
        })
        .collect()
}

/// A `/v1/route` body as the server renders it: the decision, the top-k
/// suggestions, every answer, no errors.
pub fn route_render(
    outcomes: &[TeamOutcome],
    decision: &FleetDecision,
    suggestions: &[Suggestion],
) -> String {
    let suggestions: Vec<String> = suggestions
        .iter()
        .map(|s| {
            Obj::new()
                .str("team", &s.team)
                .num("confidence", s.confidence)
                .finish()
        })
        .collect();
    let answers: Vec<String> = outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok())
        .map(|a| answer(a).finish())
        .collect();
    let head = match decision {
        FleetDecision::SendTo(team) => Obj::new().str("decision", "send_to").str("team", team),
        FleetDecision::Fallback => Obj::new().str("decision", "fallback"),
    };
    head.raw("suggestions", &format!("[{}]", suggestions.join(",")))
        .raw("answers", &format!("[{}]", answers.join(",")))
        .raw("errors", "[]")
        .finish()
}

/// Decide and render in one step (the oracle's path).
pub fn route_body(outcomes: &[TeamOutcome], master: &FleetMaster, k: usize) -> Option<String> {
    let answers = fleet_answers(outcomes)?;
    Some(route_render(
        outcomes,
        &master.route(&answers),
        &master.suggestions(&answers, k),
    ))
}

/// A reply body without the part that legitimately differs between two
/// servings of the same input: the served-incident id of a predict reply,
/// the `storm` marker of a suppressed route reply.
pub fn canonical(mix: Mix, body: &str) -> String {
    let marker = if mix.is_route() {
        ",\"storm\":{"
    } else {
        ",\"incident\":"
    };
    match body.rfind(marker) {
        Some(at) => format!("{}}}", &body[..at]),
        None => body.to_string(),
    }
}

/// Did the storm front-end answer this reply from a cached decision?
pub fn is_suppressed(body: &str) -> bool {
    body.contains(",\"storm\":{\"suppressed\":true")
}

/// A 64-bit digest of a canonical body, kept in place of the body for
/// the replies that are only ever compared for equality.
pub fn digest(canonical_body: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    canonical_body.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_strips_only_the_variable_tail() {
        assert_eq!(
            canonical(
                Mix::PredictWarm,
                r#"{"team":"PhyNet","evidence":[],"incident":17}"#
            ),
            r#"{"team":"PhyNet","evidence":[]}"#
        );
        let full = r#"{"decision":"fallback","errors":[]}"#;
        let dup =
            r#"{"decision":"fallback","errors":[],"storm":{"suppressed":true,"duplicates":3}}"#;
        assert_eq!(canonical(Mix::RouteStorm, dup), full);
        assert_eq!(canonical(Mix::RouteStorm, full), full);
        assert!(is_suppressed(dup) && !is_suppressed(full));
        assert_eq!(digest(&canonical(Mix::RouteStorm, dup)), digest(full));
    }
}
