//! Property-based tests for gain accounting and master routing.

use cloudsim::{Severity, SimDuration, SimTime, Team};
use incident::model::{Incident, IncidentId, IncidentSource};
use incident::routing::{RoutingHop, RoutingTrace};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use scoutmaster::{FleetAnswer, FleetDecision, FleetMaster, GainAccountant, ScoutStats};
use std::collections::BTreeMap;

fn any_team() -> impl Strategy<Value = Team> {
    (0usize..Team::ALL.len()).prop_map(|i| Team::ALL[i])
}

/// Confidences biased toward ties and NaN.
fn any_confidence() -> impl Strategy<Value = f64> {
    (0u8..8, 0.0f64..1.0).prop_map(|(k, c)| match k {
        0 => f64::NAN,
        1 => 0.9,
        2 => 0.5,
        _ => c,
    })
}

/// Up to eight answers over the paper's teams, duplicates allowed.
fn any_answers() -> impl Strategy<Value = Vec<FleetAnswer>> {
    proptest::collection::vec((any_team(), any::<bool>(), any_confidence()), 0..8).prop_map(
        |answers| {
            answers
                .into_iter()
                .map(|(team, yes, confidence)| FleetAnswer::new(team.name(), yes, confidence))
                .collect()
        },
    )
}

/// An MLE master with stats for some teams and priors for some others.
fn any_mle_master() -> impl Strategy<Value = FleetMaster> {
    (
        proptest::collection::vec((any_team(), 0.0f64..1.0, 0.0f64..1.0), 0..6),
        proptest::collection::vec((any_team(), 0.0f64..5.0), 0..6),
    )
        .prop_map(|(stats, priors)| {
            let stats: BTreeMap<String, ScoutStats> = stats
                .into_iter()
                .map(|(team, tpr, fpr)| (team.name().to_string(), ScoutStats { tpr, fpr }))
                .collect();
            let priors: BTreeMap<String, f64> = priors
                .into_iter()
                .map(|(team, p)| (team.name().to_string(), p))
                .collect();
            FleetMaster::mle(stats, priors)
        })
}

fn posterior_bits(m: &FleetMaster, answers: &[FleetAnswer]) -> Vec<(String, u64)> {
    let posts = m.posteriors(answers).expect("an MLE master has posteriors");
    posts.into_iter().map(|(t, p)| (t, p.to_bits())).collect()
}

fn any_trace() -> impl Strategy<Value = RoutingTrace> {
    proptest::collection::vec((any_team(), 1u64..500, 1u64..500), 1..6).prop_map(|hops| {
        RoutingTrace {
            hops: hops
                .into_iter()
                .map(|(team, q, inv)| RoutingHop {
                    team,
                    queue_delay: SimDuration::minutes(q),
                    investigation: SimDuration::minutes(inv),
                    note: String::new(),
                })
                .collect(),
            all_hands: false,
        }
    })
}

fn incident_with(owner: Team) -> Incident {
    Incident {
        id: IncidentId(0),
        source: IncidentSource::Monitor(Team::Storage),
        severity: Severity::Sev2,
        created_at: SimTime(0),
        title: String::new(),
        body: String::new(),
        fault_id: 0,
        owner,
        true_components: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Gains and overheads are always fractions of the trace.
    #[test]
    fn outcomes_are_fractions(trace in any_trace(), owner in any_team(), answer in any::<bool>()) {
        let inc = incident_with(owner);
        let mut acc = GainAccountant::new(Team::PhyNet, std::iter::empty());
        match acc.outcome(&inc, &trace, Some(answer)) {
            scoutmaster::IncidentOutcome::GainIn { fraction }
            | scoutmaster::IncidentOutcome::GainOut { fraction }
            | scoutmaster::IncidentOutcome::OverheadIn { fraction } => {
                prop_assert!((0.0..=1.0).contains(&fraction));
            }
            _ => {}
        }
    }

    /// The outcome class is fully determined by (ownership, answer).
    #[test]
    fn outcome_classes_are_correct(trace in any_trace(), owner in any_team(), answer in any::<bool>()) {
        let inc = incident_with(owner);
        let mut acc = GainAccountant::new(Team::PhyNet, std::iter::empty());
        let outcome = acc.outcome(&inc, &trace, Some(answer));
        use scoutmaster::IncidentOutcome::*;
        let ok = match (owner == Team::PhyNet, answer) {
            (true, true) => matches!(outcome, GainIn { .. }),
            (true, false) => matches!(outcome, ErrorOut),
            (false, false) => matches!(outcome, GainOut { .. }),
            (false, true) => matches!(outcome, OverheadIn { .. }),
        };
        prop_assert!(ok, "owner {owner:?} answer {answer} outcome {outcome:?}");
    }

    /// The strawman master never routes on all-no answer sets, and always
    /// routes to a team that actually said yes confidently.
    #[test]
    fn master_routes_only_to_confident_yes(
        answers in proptest::collection::vec(
            (any_team(), any::<bool>(), 0.0f64..1.0), 0..6)
    ) {
        let answers: Vec<FleetAnswer> = answers
            .into_iter()
            .map(|(team, responsible, confidence)| FleetAnswer::new(team.name(), responsible, confidence))
            .collect();
        let m = FleetMaster::new();
        match m.route(&answers) {
            FleetDecision::Fallback => {
                // Nothing qualified — fine.
            }
            FleetDecision::SendTo(team) => {
                prop_assert!(answers
                    .iter()
                    .any(|a| a.team == team && a.responsible && a.confidence >= 0.8));
            }
        }
    }

    /// Any permutation of the answers — duplicates and ties included —
    /// gives the MLE master bit-identical posteriors and the same decision.
    #[test]
    fn mle_is_permutation_invariant(
        m in any_mle_master(),
        answers in any_answers(),
        seed in any::<u64>(),
    ) {
        let mut shuffled = answers.clone();
        shuffled.shuffle(&mut SmallRng::seed_from_u64(seed));
        prop_assert_eq!(posterior_bits(&m, &answers), posterior_bits(&m, &shuffled));
        prop_assert_eq!(m.route(&answers), m.route(&shuffled));
    }

    /// NaN confidences carry no weight: every posterior stays finite and
    /// they sum to one.
    #[test]
    fn mle_posteriors_are_finite_and_normalized(m in any_mle_master(), answers in any_answers()) {
        let posts = m.posteriors(&answers).expect("an MLE master has posteriors");
        prop_assert!(posts.iter().all(|(_, p)| p.is_finite()), "{posts:?}");
        if !posts.is_empty() {
            let total: f64 = posts.iter().map(|(_, p)| p).sum();
            prop_assert!((total - 1.0).abs() <= 1e-9, "sum {total}");
        }
    }

    /// The MLE master only ever sends to a candidate: a team with a prior
    /// or an answer.
    #[test]
    fn mle_sends_only_to_a_candidate(m in any_mle_master(), answers in any_answers()) {
        if let FleetDecision::SendTo(team) = m.route(&answers) {
            // With no answers the candidates are exactly the prior keys.
            let prior_keys = posterior_bits(&m, &[]);
            prop_assert!(
                answers.iter().any(|a| a.team == team) || prior_keys.iter().any(|(t, _)| *t == team),
                "{team} is neither a prior key nor an answering team"
            );
        }
    }
}
