//! The Scout Master: string-keyed routing for dynamic team sets.
//!
//! [`FleetMaster`] is the one Scout Master, with the two policies of
//! Appendix C: the strawman ([`FleetMaster::new`], what the serving plane
//! routes with) and the MLE estimate ([`FleetMaster::mle`], see
//! [`crate::mle`]). It keys teams by registered name end to end (Scouts
//! register under arbitrary names and the fleet grows at runtime; the
//! paper's sims lift [`Team`](cloudsim::Team) by `Team::name()`), and
//! adds the DeepTriage-style [`suggestions`](FleetMaster::suggestions)
//! ranking: top-k `(team, confidence)` candidates rather than a single
//! winner, the same under either policy.
//!
//! # Total order
//!
//! The strawman's [`FleetMaster::route`] runs over a [`DependencyGraph`]
//! and is a pure function of the answer *set* — permuting the input never
//! changes the decision:
//!
//! 1. answers count as "yes" iff `responsible && confidence >= 0.8`
//!    (§8's operator recommendation; NaN confidence is never a yes);
//! 2. a yes-team that every other yes-team transitively depends on wins
//!    (the dependency rule); among several such teams — possible with
//!    graph cycles — the lexicographically smallest team name wins;
//! 3. otherwise the highest confidence wins, with equal confidences
//!    broken by ascending team name;
//! 4. no yes at all → [`FleetDecision::Fallback`].
//!
//! Duplicate answers for one team are legal (e.g. a replayed request);
//! they are deduplicated to the entry that wins under rule 3's order
//! before routing, keeping the permutation invariant.

use crate::mle::{fit_stats, Mle, ScoutStats};
use cloudsim::DependencyGraph;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Minimum confidence for an answer to count as a strawman "yes".
const CONFIDENCE_THRESHOLD: f64 = 0.8;
/// The MLE policy routes only when the winning posterior reaches this
/// bar; with no answers at all, a prior that does still routes.
const MIN_POSTERIOR: f64 = 0.5;

/// One Scout's answer, keyed by its registered team name.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetAnswer {
    /// Registered team name (exact, as the Scout registered it).
    pub team: String,
    /// Did it claim responsibility?
    pub responsible: bool,
    /// Its confidence in `[0, 1]`.
    pub confidence: f64,
}

impl FleetAnswer {
    /// Convenience constructor.
    pub fn new(team: impl Into<String>, responsible: bool, confidence: f64) -> FleetAnswer {
        FleetAnswer {
            team: team.into(),
            responsible,
            confidence,
        }
    }
}

/// The fleet master's routing decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetDecision {
    /// Send the incident to this team.
    SendTo(String),
    /// No Scout claimed it: use the legacy routing process.
    Fallback,
}

impl FleetDecision {
    /// The destination team, if any.
    pub fn team(&self) -> Option<&str> {
        match self {
            FleetDecision::SendTo(t) => Some(t),
            FleetDecision::Fallback => None,
        }
    }
}

/// A ranked routing candidate (DeepTriage-style top-k output).
#[derive(Debug, Clone, PartialEq)]
pub struct Suggestion {
    /// Registered team name.
    pub team: String,
    /// Routing score in `[0, 1]`: the Scout's confidence that the
    /// incident belongs to this team (`1 - confidence` for "no"
    /// answers, whose confidence disclaims responsibility).
    pub confidence: f64,
}

/// How a [`FleetMaster`] turns answers into a decision.
#[derive(Debug, Clone)]
enum Policy {
    /// Appendix C's strawman: the module docs' total order.
    Strawman,
    /// The MLE estimate over per-Scout accuracy ([`crate::mle`]).
    Mle(Mle),
}

/// The Appendix C Scout Master over a dynamic, string-keyed team fleet.
#[derive(Debug, Clone)]
pub struct FleetMaster {
    graph: DependencyGraph,
    policy: Policy,
}

impl Default for FleetMaster {
    fn default() -> FleetMaster {
        FleetMaster::new()
    }
}

impl FleetMaster {
    /// The strawman over the built-in dependency graph with the paper's
    /// 0.8 confidence bar (§8's operator recommendation).
    pub fn new() -> FleetMaster {
        FleetMaster::with_graph(DependencyGraph::builtin())
    }

    /// The strawman over an explicit dependency graph.
    pub fn with_graph(graph: DependencyGraph) -> FleetMaster {
        FleetMaster {
            graph,
            policy: Policy::Strawman,
        }
    }

    /// The MLE master from per-Scout accuracy stats and per-team base
    /// rates (`priors` need not be normalized; teams absent from it get a
    /// small default mass). It routes to the most likely team when its
    /// posterior reaches 0.5 — on the priors alone when no Scout answers.
    /// [`graph`](FleetMaster::graph) is the built-in one; MLE does not
    /// consult it.
    pub fn mle(stats: BTreeMap<String, ScoutStats>, priors: BTreeMap<String, f64>) -> FleetMaster {
        FleetMaster {
            graph: DependencyGraph::builtin(),
            policy: Policy::Mle(Mle { stats, priors }),
        }
    }

    /// [`mle`](FleetMaster::mle) with Scout stats estimated from labeled
    /// `(team, said_yes, was_responsible)` history.
    pub fn fit_mle(
        history: impl IntoIterator<Item = (String, bool, bool)>,
        priors: BTreeMap<String, f64>,
    ) -> FleetMaster {
        FleetMaster::mle(fit_stats(history), priors)
    }

    /// The dependency graph this master consults.
    pub fn graph(&self) -> &DependencyGraph {
        &self.graph
    }

    /// The MLE posterior over candidate teams, best first, with equal
    /// posteriors in name order; `None` under the strawman, which ranks
    /// by rule rather than by probability.
    pub fn posteriors(&self, answers: &[FleetAnswer]) -> Option<Vec<(String, f64)>> {
        match &self.policy {
            Policy::Strawman => None,
            Policy::Mle(mle) => Some(mle.posteriors(answers)),
        }
    }

    /// Route one incident given the fleet's answers: the module docs'
    /// total order, or the MLE estimate. Either is permutation-invariant
    /// by construction.
    pub fn route(&self, answers: &[FleetAnswer]) -> FleetDecision {
        if let Some(posteriors) = self.posteriors(answers) {
            return match posteriors.into_iter().next() {
                Some((team, p)) if p >= MIN_POSTERIOR => FleetDecision::SendTo(team),
                _ => FleetDecision::Fallback,
            };
        }
        let yes = canonical_answers(
            answers
                .iter()
                .filter(|a| a.responsible && a.confidence >= CONFIDENCE_THRESHOLD),
        );
        match yes.len() {
            0 => FleetDecision::Fallback,
            1 => FleetDecision::SendTo(yes[0].team.clone()),
            _ => {
                // Dependency rule: if team A depends on team B and both
                // say yes, B (the dependency) is the better destination.
                // Scan in name order so graph cycles break to the
                // smallest name.
                let mut by_name: Vec<&FleetAnswer> = yes.clone();
                by_name.sort_by(|a, b| a.team.cmp(&b.team));
                for a in &by_name {
                    if by_name.iter().all(|b| {
                        b.team == a.team || self.graph.is_transitive_dependency(&b.team, &a.team)
                    }) {
                        return FleetDecision::SendTo(a.team.clone());
                    }
                }
                // Otherwise: most confident wins (ties already broken by
                // name in the canonical sort).
                FleetDecision::SendTo(yes[0].team.clone())
            }
        }
    }

    /// The top-`k` routing candidates, best first.
    ///
    /// Every answering team is scored by how strongly its Scout points
    /// the incident *at* it: `confidence` for a "yes", `1 - confidence`
    /// for a "no" (NaN scores 0). Sorted score desc, then team name asc;
    /// duplicates per team keep the best score. Deterministic under
    /// input permutation.
    pub fn suggestions(&self, answers: &[FleetAnswer], k: usize) -> Vec<Suggestion> {
        let mut ranked: Vec<Suggestion> = answers
            .iter()
            .map(|a| {
                let raw = if a.responsible {
                    a.confidence
                } else {
                    1.0 - a.confidence
                };
                Suggestion {
                    team: a.team.clone(),
                    confidence: if raw.is_nan() {
                        0.0
                    } else {
                        raw.clamp(0.0, 1.0)
                    },
                }
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.confidence
                .partial_cmp(&a.confidence)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.team.cmp(&b.team))
        });
        ranked.dedup_by(|a, b| a.team == b.team);
        ranked.truncate(k);
        ranked
    }
}

/// The canonical order — confidence desc (NaN last), then team name asc,
/// then yes before no — deduplicated to the first entry per team. Every
/// later "first match" step over it is order-independent.
pub(crate) fn canonical_answers<'a>(
    answers: impl Iterator<Item = &'a FleetAnswer>,
) -> Vec<&'a FleetAnswer> {
    let mut kept: Vec<&FleetAnswer> = answers.collect();
    kept.sort_by(|a, b| {
        b.confidence
            .partial_cmp(&a.confidence)
            .unwrap_or_else(|| a.confidence.is_nan().cmp(&b.confidence.is_nan()))
            .then_with(|| a.team.cmp(&b.team))
            .then_with(|| b.responsible.cmp(&a.responsible))
    });
    kept.dedup_by(|a, b| a.team == b.team);
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ans(team: &str, responsible: bool, confidence: f64) -> FleetAnswer {
        FleetAnswer::new(team, responsible, confidence)
    }

    #[test]
    fn single_confident_yes_wins() {
        let m = FleetMaster::new();
        let d = m.route(&[ans("PhyNet", true, 0.95), ans("Storage", false, 0.9)]);
        assert_eq!(d, FleetDecision::SendTo("PhyNet".into()));
    }

    #[test]
    fn all_no_falls_back() {
        let m = FleetMaster::new();
        let d = m.route(&[ans("PhyNet", false, 0.99), ans("Storage", false, 0.99)]);
        assert_eq!(d, FleetDecision::Fallback);
        assert_eq!(m.route(&[]), FleetDecision::Fallback);
    }

    #[test]
    fn dependency_breaks_ties() {
        let m = FleetMaster::new();
        let d = m.route(&[ans("Database", true, 0.99), ans("PhyNet", true, 0.85)]);
        assert_eq!(d, FleetDecision::SendTo("PhyNet".into()));
    }

    #[test]
    fn unknown_teams_route_on_confidence() {
        // Teams outside the graph are first-class: no dependency edges,
        // so confidence (then name) decides.
        let m = FleetMaster::new();
        let d = m.route(&[ans("Atlantis", true, 0.9), ans("Mu", true, 0.95)]);
        assert_eq!(d, FleetDecision::SendTo("Mu".into()));
        let tie = m.route(&[ans("Mu", true, 0.9), ans("Atlantis", true, 0.9)]);
        assert_eq!(tie, FleetDecision::SendTo("Atlantis".into()));
    }

    #[test]
    fn cyclic_dependency_breaks_to_smallest_name() {
        let mut g = DependencyGraph::new();
        g.add_dependency("Alpha", "Beta");
        g.add_dependency("Beta", "Alpha");
        let m = FleetMaster::with_graph(g);
        for answers in [
            [ans("Alpha", true, 0.85), ans("Beta", true, 0.99)],
            [ans("Beta", true, 0.99), ans("Alpha", true, 0.85)],
        ] {
            assert_eq!(m.route(&answers), FleetDecision::SendTo("Alpha".into()));
        }
    }

    #[test]
    fn duplicate_answers_keep_the_best() {
        let m = FleetMaster::new();
        let d = m.route(&[
            ans("DNS", true, 0.81),
            ans("DNS", true, 0.97),
            ans("Firewall", true, 0.9),
        ]);
        assert_eq!(d, FleetDecision::SendTo("DNS".into()));
    }

    #[test]
    fn suggestions_rank_by_pointing_score() {
        let m = FleetMaster::new();
        let s = m.suggestions(
            &[
                ans("PhyNet", true, 0.9),   // points at PhyNet: 0.9
                ans("Storage", false, 0.7), // points at Storage: 0.3
                ans("DNS", false, 0.1),     // points at DNS: 0.9 (uncertain no)
            ],
            2,
        );
        assert_eq!(s.len(), 2);
        // 0.9 tie between DNS and PhyNet → name order.
        assert_eq!(s[0].team, "DNS");
        assert_eq!(s[1].team, "PhyNet");
        assert!((s[0].confidence - 0.9).abs() < 1e-12);
    }

    #[test]
    fn suggestions_are_permutation_invariant_and_deduped() {
        let m = FleetMaster::new();
        let fwd = m.suggestions(
            &[
                ans("A", true, 0.5),
                ans("B", true, 0.5),
                ans("A", true, 0.8),
            ],
            3,
        );
        let rev = m.suggestions(
            &[
                ans("A", true, 0.8),
                ans("B", true, 0.5),
                ans("A", true, 0.5),
            ],
            3,
        );
        assert_eq!(fwd, rev);
        assert_eq!(fwd.len(), 2);
        assert_eq!(fwd[0].team, "A");
        assert!((fwd[0].confidence - 0.8).abs() < 1e-12);
    }

    #[test]
    fn low_confidence_yes_is_ignored() {
        let m = FleetMaster::new();
        assert_eq!(
            m.route(&[ans("PhyNet", true, 0.6)]),
            FleetDecision::Fallback
        );
    }

    #[test]
    fn unrelated_ties_go_to_confidence() {
        // DNS and Firewall do not depend on each other.
        let m = FleetMaster::new();
        let d = m.route(&[ans("DNS", true, 0.9), ans("Firewall", true, 0.95)]);
        assert_eq!(d, FleetDecision::SendTo("Firewall".into()));
    }

    #[test]
    fn route_is_permutation_invariant() {
        // Exhaustively permute a mixed answer set (three equally
        // confident yeses that all depend on PhyNet + a no) — every
        // ordering must agree.
        let m = FleetMaster::new();
        let base = [
            ans("Database", true, 0.9),
            ans("PhyNet", true, 0.9),
            ans("DNS", true, 0.9),
            ans("Storage", false, 0.99),
        ];
        let expected = m.route(&base);
        assert_eq!(expected, FleetDecision::SendTo("PhyNet".into()));
        let mut perm = base;
        permute(&mut perm, 0, &mut |p| assert_eq!(m.route(p), expected));
    }

    #[test]
    fn nan_confidence_never_outranks_a_real_one() {
        let m = FleetMaster::new();
        for answers in [
            [ans("DNS", true, f64::NAN), ans("Firewall", true, 0.85)],
            [ans("Firewall", true, 0.85), ans("DNS", true, f64::NAN)],
        ] {
            assert_eq!(m.route(&answers), FleetDecision::SendTo("Firewall".into()));
        }
    }

    fn permute(items: &mut [FleetAnswer], k: usize, visit: &mut impl FnMut(&[FleetAnswer])) {
        if k == items.len() {
            visit(items);
            return;
        }
        for i in k..items.len() {
            items.swap(k, i);
            permute(items, k + 1, visit);
            items.swap(k, i);
        }
    }
}
