//! Extension experiment: why the 32-team fleet routes 28 of 48 incidents
//! to the right team. It rebuilds scoutbench's `route_fleet32` decisions
//! offline from the same ingredients — seed-7 world at two faults a day
//! over 120 days, one shared PhyNet-config featurization, nine base
//! models round-tripped through the model text, 32 replica teams over
//! `DependencyGraph::synthetic_fleet(32)`, the 48 evenly strided
//! incidents, the serving strawman master — scores each decision as the
//! benchmark does (a send is right when the team's base name is the
//! owner; a fallback is right when no Scout covers the owner), and puts
//! every miss in exactly one bucket, checked in order:
//!
//! 1. no confident yes, and the fallback is wrong;
//! 2. the owner's Scout gave no confident yes (another team's did);
//! 3. the owner's Scout said yes confidently, and another team's yes
//!    outranked it — by dependency or by confidence — on the nine base
//!    teams too;
//! 4. an artifact of the metric (a send for an owner no Scout covers) or
//!    of the replica graph (a miss the base teams would not make).
//!
//! The benchmark's ticket line and alert source are left out: accuracy
//! reads the same under every traffic seed, and the replay reproduces it.

use cloudsim::{DependencyGraph, SimDuration, Team};
use experiments::banner;
use incident::{Workload, WorkloadConfig};
use monitoring::{MonitoringConfig, MonitoringSystem};
use scout::{Example, Scout, ScoutBuildConfig, ScoutConfig};
use scoutmaster::{FleetAnswer, FleetDecision, FleetMaster};

const TEAMS: usize = 32;
const INCIDENTS: usize = 48;

const BUCKETS: [&str; 4] = [
    "no confident yes, fallback wrong",
    "owner's Scout gave no confident yes",
    "another team's yes outranked the owner's",
    "artifact of the metric or the replica graph",
];

fn main() {
    banner(
        "ext_fleet_misroutes",
        "route_fleet32's 48 decisions replayed, every miss bucketed",
    );
    let mut config = WorkloadConfig {
        seed: 7,
        ..WorkloadConfig::default()
    };
    config.faults.faults_per_day = 2.0;
    config.faults.horizon = SimDuration::days(120);
    let world = Workload::generate(config);
    let mon = MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default());

    let scout_config = ScoutConfig::phynet();
    let build = ScoutBuildConfig::default();
    let examples: Vec<Example> = world
        .incidents
        .iter()
        .map(|i| Example::new(i.text(), i.created_at, i.owner == Team::PhyNet))
        .collect();
    let corpus = Scout::prepare(&scout_config, &build, &examples, &mon);
    let bases: Vec<Team> = cloudsim::TeamRegistry::new().internal_teams().collect();
    let models: Vec<String> = bases
        .iter()
        .map(|&base| {
            let relabeled = corpus.relabeled(|i, _| world.incidents[i].owner == base);
            let train = relabeled.trainable_indices();
            Scout::train_prepared(
                scout_config.clone(),
                build.clone(),
                &relabeled,
                &train,
                &mon,
            )
            .to_text()
        })
        .collect();
    // Replica r of base b is `{b}-{r}`; the first `bases.len()` are the
    // bare base names.
    let fleet: Vec<(String, Scout)> = (0..TEAMS)
        .map(|i| {
            let base = i % bases.len();
            (
                cloudsim::synthetic_team_name(bases[base], i / bases.len()),
                Scout::from_text(&models[base]).expect("model text round-trips"),
            )
        })
        .collect();
    let master = FleetMaster::with_graph(DependencyGraph::synthetic_fleet(TEAMS));
    let base_master = FleetMaster::new();
    let is_right = |decision: &FleetDecision, owner: Team| match decision.team() {
        Some(team) => cloudsim::base_team_name(team) == owner.name(),
        None => !bases.contains(&owner),
    };

    let n = world.incidents.len();
    let mut hits = 0;
    let mut misses: [Vec<usize>; 4] = Default::default();
    let mut owner_unsure = 0;
    for k in 0..INCIDENTS {
        let inc = &world.incidents[k * n / INCIDENTS];
        let text = inc.text();
        let answers: Vec<FleetAnswer> = fleet
            .iter()
            .map(|(team, scout)| {
                let p = scout.predict(&text, inc.created_at, &mon);
                FleetAnswer::new(team.clone(), p.says_responsible(), p.confidence)
            })
            .collect();
        let decision = master.route(&answers);
        if is_right(&decision, inc.owner) {
            hits += 1;
            continue;
        }
        let owner_answer = answers.iter().find(|a| a.team == inc.owner.name());
        // A lone answer is routed exactly when it is a confident yes.
        let owner_confident =
            owner_answer.is_some_and(|a| master.route(std::slice::from_ref(a)).team().is_some());
        let base_decision = base_master.route(&answers[..bases.len()]);
        let bucket = if decision == FleetDecision::Fallback {
            owner_unsure += owner_answer.is_some_and(|a| a.responsible) as usize;
            0
        } else if owner_answer.is_some() && !owner_confident {
            1
        } else if owner_confident && !is_right(&base_decision, inc.owner) {
            2
        } else {
            3
        };
        misses[bucket].push(k);
    }

    println!(
        "{hits}/{INCIDENTS} right ({:.4}); {} misses:",
        hits as f64 / INCIDENTS as f64,
        INCIDENTS - hits
    );
    for (i, (name, ks)) in BUCKETS.iter().zip(&misses).enumerate() {
        let list: Vec<String> = ks.iter().map(usize::to_string).collect();
        println!(
            "  {}. {name:<44} {:>2}  [{}]",
            i + 1,
            ks.len(),
            list.join(" ")
        );
    }
    println!(
        "  of bucket 1: the owner's Scout said yes under the confidence bar {owner_unsure}, \
         said no {}",
        misses[0].len() - owner_unsure
    );
    assert_eq!(
        (hits, INCIDENTS),
        (28, 48),
        "the replay no longer matches route_fleet32's 0.5833"
    );
}
