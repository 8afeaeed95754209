//! The MLE routing policy (Appendix C's "more sophisticated algorithms"):
//!
//! "More sophisticated algorithms can predict the team 'most likely' to be
//! responsible (the MLE estimate \[54\]) for an incident given the
//! historic accuracy of each Scout and its output confidence score."
//!
//! Model: exactly one candidate team is responsible. Each deployed Scout
//! `s` is characterized by its historical true-positive rate `tpr_s` and
//! false-positive rate `fpr_s` (estimated from labeled history). Given the
//! answers, the posterior of team `t` being responsible is
//!
//! ```text
//! P(t | answers) ∝ prior(t) · Π_s  L_s(answer_s | t)
//!   L_s(yes | t) = tpr_s   if s == t,  fpr_s   otherwise
//!   L_s(no  | t) = 1-tpr_s if s == t,  1-fpr_s otherwise
//! ```
//!
//! Confidence scores temper the likelihoods: a low-confidence answer is
//! shrunk toward uninformative (likelihood 0.5), mirroring how operators
//! were told to distrust low-confidence output (§8). A NaN confidence
//! carries weight 0.
//!
//! This is a policy of [`FleetMaster`](crate::FleetMaster), built with
//! [`FleetMaster::mle`](crate::FleetMaster::mle) or
//! [`FleetMaster::fit_mle`](crate::FleetMaster::fit_mle), and it is a
//! pure function of the answer *set*: candidates are the prior keys plus
//! the answering teams in name order, duplicate answers for a team reduce
//! to the entry the strawman's canonical sort keeps, log-likelihoods fold
//! in team-name order (so any permutation of the answers gives the same
//! posterior bits), and equal posteriors rank by ascending name.

use crate::fleet::{canonical_answers, FleetAnswer};
use std::collections::{BTreeMap, BTreeSet};

/// Historical accuracy of one Scout.
#[derive(Debug, Clone, Copy)]
pub struct ScoutStats {
    /// P(Scout says yes | its team is responsible).
    pub tpr: f64,
    /// P(Scout says yes | its team is not responsible).
    pub fpr: f64,
}

/// Per-Scout accuracy and per-team base rates, keyed by team name.
#[derive(Debug, Clone)]
pub(crate) struct Mle {
    pub(crate) stats: BTreeMap<String, ScoutStats>,
    pub(crate) priors: BTreeMap<String, f64>,
}

/// Estimate Scout stats from labeled `(team, said_yes, was_responsible)`
/// history, Laplace-smoothed so empty cells stay sane.
pub(crate) fn fit_stats(
    history: impl IntoIterator<Item = (String, bool, bool)>,
) -> BTreeMap<String, ScoutStats> {
    // (yes | responsible, responsible, yes | not responsible, not).
    let mut counts: BTreeMap<String, [f64; 4]> = BTreeMap::new();
    for (team, said_yes, responsible) in history {
        let c = counts.entry(team).or_default();
        let at = if responsible { 0 } else { 2 };
        c[at] += said_yes as u8 as f64;
        c[at + 1] += 1.0;
    }
    counts
        .into_iter()
        .map(|(team, [yes_pos, pos, yes_neg, neg])| {
            let tpr = (yes_pos + 1.0) / (pos + 2.0);
            let fpr = (yes_neg + 1.0) / (neg + 2.0);
            (team, ScoutStats { tpr, fpr })
        })
        .collect()
}

impl Mle {
    /// Posterior over the candidate teams, best first (ties by name).
    /// Teams absent from the priors get a small default mass.
    pub(crate) fn posteriors(&self, answers: &[FleetAnswer]) -> Vec<(String, f64)> {
        let mut answers = canonical_answers(answers.iter());
        answers.sort_by(|a, b| a.team.cmp(&b.team));
        let candidates: BTreeSet<&str> = self
            .priors
            .keys()
            .map(String::as_str)
            .chain(answers.iter().map(|a| a.team.as_str()))
            .collect();
        let mut scores: Vec<(String, f64)> = candidates
            .into_iter()
            .map(|t| {
                let prior = self.priors.get(t).copied().unwrap_or(0.01).max(1e-6);
                let mut log_p = prior.ln();
                for a in &answers {
                    let Some(stats) = self.stats.get(&a.team) else {
                        continue;
                    };
                    let p_yes = if a.team == t { stats.tpr } else { stats.fpr };
                    // Clamped so likelihoods never hit 0/1.
                    let p_yes = p_yes.clamp(0.01, 0.99);
                    let p = if a.responsible { p_yes } else { 1.0 - p_yes };
                    // Confidence tempering: shrink toward uninformative.
                    let w = if a.confidence.is_nan() {
                        0.0
                    } else {
                        a.confidence.clamp(0.0, 1.0)
                    };
                    log_p += (w * p + (1.0 - w) * 0.5).ln();
                }
                (t.to_string(), log_p)
            })
            .collect();
        // Normalize via softmax over log posteriors.
        let max = scores
            .iter()
            .map(|&(_, s)| s)
            .fold(f64::NEG_INFINITY, f64::max);
        let mut total = 0.0;
        for (_, s) in &mut scores {
            *s = (*s - max).exp();
            total += *s;
        }
        for (_, s) in &mut scores {
            *s /= total;
        }
        // Stable over the name-ordered candidates: ties stay by name.
        scores.sort_by(|a, b| b.1.total_cmp(&a.1));
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FleetDecision, FleetMaster};

    fn ans(team: &str, responsible: bool, confidence: f64) -> FleetAnswer {
        FleetAnswer::new(team, responsible, confidence)
    }

    fn uniform_priors() -> BTreeMap<String, f64> {
        ["PhyNet", "Storage", "Compute"]
            .into_iter()
            .map(|t| (t.to_string(), 1.0))
            .collect()
    }

    fn good_scout() -> ScoutStats {
        ScoutStats {
            tpr: 0.95,
            fpr: 0.03,
        }
    }

    fn stats(teams: &[(&str, ScoutStats)]) -> BTreeMap<String, ScoutStats> {
        teams.iter().map(|&(t, s)| (t.to_string(), s)).collect()
    }

    fn posterior_of(posts: &[(String, f64)], team: &str) -> f64 {
        posts.iter().find(|(t, _)| t == team).unwrap().1
    }

    #[test]
    fn confident_yes_from_accurate_scout_wins() {
        let m = FleetMaster::mle(stats(&[("PhyNet", good_scout())]), uniform_priors());
        let d = m.route(&[ans("PhyNet", true, 0.95)]);
        assert_eq!(d, FleetDecision::SendTo("PhyNet".into()));
    }

    #[test]
    fn a_no_shifts_mass_to_other_teams() {
        let m = FleetMaster::mle(
            stats(&[("PhyNet", good_scout()), ("Storage", good_scout())]),
            uniform_priors(),
        );
        let posts = m
            .posteriors(&[ans("PhyNet", false, 0.95), ans("Storage", true, 0.95)])
            .unwrap();
        assert_eq!(posts[0].0, "Storage");
        assert!(posts[0].1 > 0.8, "posterior {posts:?}");
        // Posteriors sum to one.
        let total: f64 = posts.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn low_confidence_answers_are_discounted() {
        let m = FleetMaster::mle(stats(&[("PhyNet", good_scout())]), uniform_priors());
        let hi = m.posteriors(&[ans("PhyNet", true, 0.95)]).unwrap();
        let lo = m.posteriors(&[ans("PhyNet", true, 0.2)]).unwrap();
        let (hi, lo) = (posterior_of(&hi, "PhyNet"), posterior_of(&lo, "PhyNet"));
        assert!(hi > lo, "hi {hi} vs lo {lo}");
    }

    #[test]
    fn unanimous_no_falls_back() {
        let m = FleetMaster::mle(
            stats(&[
                ("PhyNet", good_scout()),
                ("Storage", good_scout()),
                ("Compute", good_scout()),
            ]),
            uniform_priors(),
        );
        let answers: Vec<FleetAnswer> = ["PhyNet", "Storage", "Compute"]
            .into_iter()
            .map(|team| ans(team, false, 0.95))
            .collect();
        // Each team t is penalized by its own Scout's "no" equally, so the
        // posterior splits uniformly at 1/3, under the 0.5 bar.
        assert_eq!(m.route(&answers), FleetDecision::Fallback);
    }

    #[test]
    fn fit_estimates_rates_from_history() {
        // 90 correct yes, 10 missed, 5 false alarms, 95 correct no.
        let history = [
            (true, true, 90),
            (false, true, 10),
            (true, false, 5),
            (false, false, 95),
        ]
        .into_iter()
        .flat_map(|(yes, responsible, n)| {
            std::iter::repeat_n(("PhyNet".to_string(), yes, responsible), n)
        });
        let s = fit_stats(history)["PhyNet"];
        assert!((s.tpr - 0.9).abs() < 0.02, "tpr {}", s.tpr);
        assert!((s.fpr - 0.05).abs() < 0.02, "fpr {}", s.fpr);
    }

    #[test]
    fn an_unreliable_scouts_yes_is_worth_less() {
        let m = FleetMaster::mle(
            stats(&[
                ("PhyNet", good_scout()),
                ("Storage", ScoutStats { tpr: 0.6, fpr: 0.4 }),
            ]),
            uniform_priors(),
        );
        // Both say yes with equal confidence; the accurate Scout's claim
        // should dominate.
        let posts = m
            .posteriors(&[ans("PhyNet", true, 0.9), ans("Storage", true, 0.9)])
            .unwrap();
        assert_eq!(posts[0].0, "PhyNet", "{posts:?}");
    }

    #[test]
    fn equal_priors_without_answers_route_to_the_smaller_name_every_time() {
        // Keyed by a per-instance-seeded hash map, the same inputs could
        // route either way from one construction to the next.
        for _ in 0..64 {
            let priors = [("Storage", 1.0), ("PhyNet", 1.0)]
                .into_iter()
                .map(|(t, p)| (t.to_string(), p))
                .collect();
            let m = FleetMaster::mle(BTreeMap::new(), priors);
            // 0.5 each clears the bar: priors alone route.
            assert_eq!(m.route(&[]), FleetDecision::SendTo("PhyNet".into()));
        }
    }

    #[test]
    fn a_reversed_answer_set_gives_the_same_posterior_bits() {
        let m = FleetMaster::mle(
            stats(&[
                ("PhyNet", good_scout()),
                ("Storage", ScoutStats { tpr: 0.7, fpr: 0.2 }),
                ("Compute", ScoutStats { tpr: 0.8, fpr: 0.1 }),
            ]),
            uniform_priors(),
        );
        let fwd = [
            ans("PhyNet", true, 0.8),
            ans("Storage", true, 0.65),
            ans("Compute", false, 0.85),
        ];
        let mut rev = fwd.clone();
        rev.reverse();
        let bits = |answers: &[FleetAnswer]| -> Vec<(String, u64)> {
            let posts = m.posteriors(answers).unwrap();
            posts.into_iter().map(|(t, p)| (t, p.to_bits())).collect()
        };
        assert_eq!(bits(&fwd), bits(&rev));
        assert_eq!(m.route(&fwd), m.route(&rev));
    }

    #[test]
    fn duplicate_answers_reduce_to_the_canonical_entry() {
        let m = FleetMaster::mle(
            stats(&[("PhyNet", good_scout()), ("Storage", good_scout())]),
            uniform_priors(),
        );
        // The most confident entry per team is kept …
        assert_eq!(
            m.posteriors(&[ans("PhyNet", true, 0.6), ans("PhyNet", false, 0.9)]),
            m.posteriors(&[ans("PhyNet", false, 0.9)]),
        );
        // … and on a confidence tie the yes, from either arrival order.
        let yes_first = [
            ans("PhyNet", true, 0.9),
            ans("PhyNet", false, 0.9),
            ans("Storage", true, 0.7),
        ];
        let no_first = [
            yes_first[1].clone(),
            yes_first[2].clone(),
            yes_first[0].clone(),
        ];
        let kept = m.posteriors(&[ans("PhyNet", true, 0.9), ans("Storage", true, 0.7)]);
        assert_eq!(m.posteriors(&yes_first), kept);
        assert_eq!(m.posteriors(&no_first), kept);
    }

    #[test]
    fn nan_confidence_carries_no_weight() {
        let m = FleetMaster::mle(stats(&[("PhyNet", good_scout())]), uniform_priors());
        let nan = m.posteriors(&[ans("PhyNet", true, f64::NAN)]).unwrap();
        let none = m.posteriors(&[ans("PhyNet", true, 0.0)]).unwrap();
        assert_eq!(nan, none);
        assert!(nan.iter().all(|(_, p)| p.is_finite()));
    }
}
