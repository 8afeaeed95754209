//! The in-process oracle: what each reply should have said, computed
//! off the clock from the same models through a simpler path (uncached
//! `Scout::predict`; one-shard sequential `fleet::dispatch`), and how
//! often the decisions agree with the generator's ground truth.

use crate::load::Reply;
use crate::render;
use crate::setup::{fleet_master, Plane};
use crate::traffic::{Firing, Mix, Traffic, FLEET_INCIDENTS, WARM_BODIES};
use cloudsim::Team;
use monitoring::{MonitoringConfig, MonitoringSystem};
use obs::json::Value;
use scoutmaster::FleetMaster;
use serve::{Answer, FleetConfig};
use std::collections::BTreeMap;

/// How many leading stream positions the accuracy metric reads (for the
/// storm mix: every novel root instead). Fixed, so the same seed gives
/// the same accuracy however fast the server is.
fn accuracy_sample(mix: Mix) -> u64 {
    match mix {
        Mix::PredictWarm => WARM_BODIES as u64,
        Mix::PredictColdWal => 2048,
        Mix::RouteFleet32 => FLEET_INCIDENTS as u64,
        Mix::RouteStorm => 0,
    }
}

/// Is position `i` re-computed by the oracle? Warm predicts and
/// suppressed storm replies are compared by digest instead, all of them.
fn oracle_sample(mix: Mix, i: u64, suppressed: bool) -> bool {
    match mix {
        Mix::PredictWarm => false,
        Mix::PredictColdWal => i.is_multiple_of(64),
        Mix::RouteFleet32 => i.is_multiple_of(16),
        Mix::RouteStorm => !suppressed && i.is_multiple_of(4),
    }
}

fn is_novel_root(firing: &Firing) -> bool {
    firing.storm.is_some_and(|r| r.first)
}

/// Which reply bodies the load generator must keep for [`check`].
pub fn keeps_body(mix: Mix, i: u64, firing: &Firing, suppressed: bool) -> bool {
    i < accuracy_sample(mix) || oracle_sample(mix, i, suppressed) || is_novel_root(firing)
}

/// What the oracle found.
#[derive(Debug, Default)]
pub struct Verdicts {
    pub checked: u64,
    pub mismatched: u64,
    /// First few mismatches, for the operator.
    pub examples: Vec<String>,
    pub accuracy_hits: u64,
    pub accuracy_total: u64,
}

impl Verdicts {
    fn compare(&mut self, index: u64, got: &str, want: &str) {
        self.checked += 1;
        if got != want {
            self.mismatched += 1;
            if self.examples.len() < 3 {
                self.examples
                    .push(format!("position {index}: got {got}\n  expected {want}"));
            }
        }
    }

    pub fn accuracy(&self) -> f64 {
        self.accuracy_hits as f64 / self.accuracy_total.max(1) as f64
    }
}

/// Expected canonical bodies, from the plane's own registered models.
pub struct Oracle<'a> {
    plane: &'a Plane,
    monitoring: MonitoringSystem<'a>,
    master: FleetMaster,
    sequential: FleetConfig,
    scouted: Vec<Team>,
}

impl<'a> Oracle<'a> {
    pub fn new(plane: &'a Plane) -> Oracle<'a> {
        Oracle {
            plane,
            monitoring: MonitoringSystem::new(
                &plane.world.topology,
                &plane.world.faults,
                MonitoringConfig::default(),
            ),
            master: fleet_master(),
            sequential: FleetConfig {
                shards: 1,
                ..plane.fleet.clone()
            },
            scouted: cloudsim::TeamRegistry::new().internal_teams().collect(),
        }
    }

    /// The canonical body the server should answer `firing` with.
    pub fn expected(&self, firing: &Firing) -> String {
        if self.plane.mix.is_route() {
            let outcomes = serve::fleet::dispatch(
                &self.plane.registry.snapshot(),
                &self.plane.world,
                &firing.text,
                firing.time,
                None,
                &self.sequential,
            );
            render::route_body(&outcomes, &self.master, self.plane.fleet.suggestions)
                .unwrap_or_else(|| "a Scout errored in the oracle's own dispatch".to_string())
        } else {
            let entry = self
                .plane
                .registry
                .get(Team::PhyNet.name())
                .expect("the predict mixes register PhyNet");
            render::answer(&Answer {
                team: entry.team.clone(),
                model_version: entry.version,
                prediction: entry
                    .scout
                    .predict(&firing.text, firing.time, &self.monitoring),
            })
            .finish()
        }
    }

    /// Does the decision in `body` match the incident's true owner?
    /// Predict: the verdict against "PhyNet owns it". Route: the chosen
    /// team's base name against the owner; a fallback is right exactly
    /// when no Scout covers the owner.
    fn decision_is_right(&self, body: &str, owner: Team) -> bool {
        let Some(value) = Value::parse(body) else {
            return false;
        };
        let field = |k: &str| value.get(k).and_then(Value::as_str);
        if self.plane.mix.is_route() {
            match (field("decision"), field("team")) {
                (Some("send_to"), Some(team)) => cloudsim::base_team_name(team) == owner.name(),
                (Some("fallback"), _) => !self.scouted.contains(&owner),
                _ => false,
            }
        } else {
            (field("verdict") == Some("responsible")) == (owner == Team::PhyNet)
        }
    }
}

/// Check every reply of a run (warm-up included) and score accuracy.
pub fn check(plane: &Plane, traffic: &Traffic<'_>, replies: &[Reply]) -> Verdicts {
    let mix = plane.mix;
    let oracle = Oracle::new(plane);
    let mut verdicts = Verdicts::default();
    // Digest every checked reply must carry, where one reference serves
    // many replies: per incident (warm predicts), per root (storm).
    let mut warm: BTreeMap<usize, u64> = BTreeMap::new();
    let mut roots: BTreeMap<u64, u64> = BTreeMap::new();
    for reply in replies.iter().filter(|r| r.ok()) {
        let firing = traffic.firing(reply.index);
        if let (Some(role), false) = (firing.storm, reply.suppressed) {
            if role.first {
                roots.insert(role.root, reply.digest);
            }
        }
        if let Some(body) = &reply.body {
            if oracle_sample(mix, reply.index, reply.suppressed) {
                let want = oracle.expected(&firing);
                verdicts.compare(reply.index, &render::canonical(mix, body), &want);
            }
            if reply.index < accuracy_sample(mix) || is_novel_root(&firing) {
                verdicts.accuracy_total += 1;
                verdicts.accuracy_hits +=
                    oracle.decision_is_right(body, traffic.owner(&firing)) as u64;
            }
        }
        if mix == Mix::PredictWarm {
            let want = *warm
                .entry(firing.incident)
                .or_insert_with(|| render::digest(&oracle.expected(&firing)));
            verdicts.compare(
                reply.index,
                &format!("{:016x}", reply.digest),
                &format!("{want:016x}"),
            );
        }
        if let (Some(role), true) = (firing.storm, reply.suppressed) {
            // Replies are in stream order, so a suppressed firing's
            // original has been seen — unless it failed, which is a
            // mismatch in its own right.
            let want = roots.get(&role.root).copied().unwrap_or(0);
            verdicts.compare(
                reply.index,
                &format!("{:016x}", reply.digest),
                &format!("{want:016x}"),
            );
        }
    }
    verdicts
}
