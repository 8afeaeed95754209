//! The strawman Scout Master (Appendix C).
//!
//! "If only one Scout returns a 'yes' answer with high confidence, send
//! the incident to the team that owns the Scout; when multiple Scouts
//! return a positive answer, if one team's component depends on the other,
//! send the incident to the latter, if not send it to the team whose Scout
//! had the most confidence; and if none of the Scouts return a positive
//! answer, fall back to the existing, non-Scout-based, incident routing
//! system."

use crate::fleet::{FleetAnswer, FleetMaster};
use cloudsim::Team;

/// One Scout's answer as seen by the master.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoutAnswer {
    /// The team whose Scout answered.
    pub team: Team,
    /// Did it claim responsibility?
    pub responsible: bool,
    /// Its confidence in `[0, 1]`.
    pub confidence: f64,
}

/// The master's routing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MasterDecision {
    /// Send the incident to this team.
    SendTo(Team),
    /// No Scout claimed it: use the legacy routing process.
    Fallback,
}

/// The Scout Master over the closed [`Team`] enum the paper's sims use:
/// a typed front for [`FleetMaster`], which holds the one implementation
/// of the policy.
#[derive(Debug)]
pub struct ScoutMaster {
    fleet: FleetMaster,
    /// Minimum confidence for an answer to count as a "yes".
    pub confidence_threshold: f64,
}

impl Default for ScoutMaster {
    fn default() -> ScoutMaster {
        ScoutMaster::new()
    }
}

impl ScoutMaster {
    /// A master with the paper's 0.8 confidence bar (§8's operator
    /// recommendation).
    pub fn new() -> ScoutMaster {
        let fleet = FleetMaster::new();
        ScoutMaster {
            confidence_threshold: fleet.confidence_threshold,
            fleet,
        }
    }

    /// Route one incident given the deployed Scouts' answers: the
    /// [`FleetMaster::route`] total order (a pure function of the answer
    /// *set*) over the teams' names.
    pub fn route(&self, answers: &[ScoutAnswer]) -> MasterDecision {
        let lifted: Vec<FleetAnswer> = answers
            .iter()
            .map(|a| FleetAnswer::new(a.team.name(), a.responsible, a.confidence))
            .collect();
        let winner = self.fleet.route_at(self.confidence_threshold, &lifted);
        match winner.team() {
            Some(name) => MasterDecision::SendTo(
                answers
                    .iter()
                    .map(|a| a.team)
                    .find(|t| t.name() == name)
                    .expect("the winner is one of the answering teams"),
            ),
            None => MasterDecision::Fallback,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ans(team: Team, responsible: bool, confidence: f64) -> ScoutAnswer {
        ScoutAnswer {
            team,
            responsible,
            confidence,
        }
    }

    #[test]
    fn single_confident_yes_wins() {
        let m = ScoutMaster::new();
        let d = m.route(&[
            ans(Team::PhyNet, true, 0.95),
            ans(Team::Storage, false, 0.9),
        ]);
        assert_eq!(d, MasterDecision::SendTo(Team::PhyNet));
    }

    #[test]
    fn low_confidence_yes_is_ignored() {
        let m = ScoutMaster::new();
        let d = m.route(&[ans(Team::PhyNet, true, 0.6)]);
        assert_eq!(d, MasterDecision::Fallback);
    }

    #[test]
    fn all_no_falls_back() {
        let m = ScoutMaster::new();
        let d = m.route(&[
            ans(Team::PhyNet, false, 0.99),
            ans(Team::Storage, false, 0.99),
        ]);
        assert_eq!(d, MasterDecision::Fallback);
    }

    #[test]
    fn dependency_breaks_ties() {
        // Database depends on PhyNet: both say yes → PhyNet (the
        // dependency) gets the incident even with lower confidence.
        let m = ScoutMaster::new();
        let d = m.route(&[
            ans(Team::Database, true, 0.99),
            ans(Team::PhyNet, true, 0.85),
        ]);
        assert_eq!(d, MasterDecision::SendTo(Team::PhyNet));
    }

    #[test]
    fn unrelated_ties_go_to_confidence() {
        // DNS and Firewall do not depend on each other.
        let m = ScoutMaster::new();
        let d = m.route(&[ans(Team::Dns, true, 0.9), ans(Team::Firewall, true, 0.95)]);
        assert_eq!(d, MasterDecision::SendTo(Team::Firewall));
    }

    #[test]
    fn empty_answers_fall_back() {
        let m = ScoutMaster::new();
        assert_eq!(m.route(&[]), MasterDecision::Fallback);
    }

    #[test]
    fn equal_confidence_tie_breaks_by_team_name() {
        // DNS and Firewall are independent and equally confident: the
        // lexicographically smaller name ("DNS") must win from either
        // arrival order.
        let m = ScoutMaster::new();
        let fwd = m.route(&[ans(Team::Dns, true, 0.9), ans(Team::Firewall, true, 0.9)]);
        let rev = m.route(&[ans(Team::Firewall, true, 0.9), ans(Team::Dns, true, 0.9)]);
        assert_eq!(fwd, MasterDecision::SendTo(Team::Dns));
        assert_eq!(fwd, rev);
    }

    #[test]
    fn route_is_permutation_invariant() {
        // Exhaustively permute a mixed answer set (dependency pair +
        // independent team + a no) — every ordering must agree.
        let m = ScoutMaster::new();
        let base = [
            ans(Team::Database, true, 0.9),
            ans(Team::PhyNet, true, 0.9),
            ans(Team::Dns, true, 0.9),
            ans(Team::Storage, false, 0.99),
        ];
        let expected = m.route(&base);
        let mut perm = base;
        permute(&mut perm, 0, &mut |p| assert_eq!(m.route(p), expected));
    }

    #[test]
    fn nan_confidence_never_outranks_a_real_one() {
        let m = ScoutMaster::new();
        for answers in [
            [
                ans(Team::Dns, true, f64::NAN),
                ans(Team::Firewall, true, 0.85),
            ],
            [
                ans(Team::Firewall, true, 0.85),
                ans(Team::Dns, true, f64::NAN),
            ],
        ] {
            assert_eq!(m.route(&answers), MasterDecision::SendTo(Team::Firewall));
        }
    }

    fn permute(items: &mut [ScoutAnswer], k: usize, visit: &mut impl FnMut(&[ScoutAnswer])) {
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
