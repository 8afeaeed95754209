//! Extension experiment (beyond the paper's evaluation): an end-to-end
//! multi-team deployment. Three *trained* Scouts — PhyNet (the paper's),
//! plus framework-built starter Scouts for Storage and Compute (§9
//! "Operators can improve the starter Scout the framework creates") — are
//! composed by the Appendix-C strawman master and by the MLE master, and
//! compared against the baseline first-hop routing on held-out incidents.
//!
//! Appendix D simulated this with synthetic-accuracy Scouts; here the
//! Scouts are the real trained artifacts.

use cloudsim::Team;
use experiments::{banner, mean, Lab};
use scout::{Example, Scout, ScoutBuildConfig, ScoutConfig, Verdict};
use scoutmaster::{FleetAnswer, FleetMaster};
use std::collections::{BTreeMap, HashMap};

/// Starter configs for the two extra teams: only the generic device-health
/// data sets they understand.
const STORAGE_CONFIG: &str = r#"
let VM      = <\bvm-\d+\.c\d+\.dc\d+\b>;
let server  = <\bsrv-\d+\.c\d+\.dc\d+\b>;
let cluster = <\bc\d+\.dc\d+\b>;
MONITORING cpu     = CREATE_MONITORING(cpu-usage, {server, cluster}, TIME_SERIES, CPU_UTIL);
MONITORING canary  = CREATE_MONITORING(canaries, {server, cluster}, TIME_SERIES);
MONITORING syslog  = CREATE_MONITORING(snmp-syslog, {server, cluster}, EVENT);
"#;

const COMPUTE_CONFIG: &str = r#"
let VM      = <\bvm-\d+\.c\d+\.dc\d+\b>;
let server  = <\bsrv-\d+\.c\d+\.dc\d+\b>;
let cluster = <\bc\d+\.dc\d+\b>;
MONITORING cpu     = CREATE_MONITORING(cpu-usage, {server, cluster}, TIME_SERIES, CPU_UTIL);
MONITORING temp    = CREATE_MONITORING(temperature, {server, cluster}, TIME_SERIES, TEMP);
MONITORING reboots = CREATE_MONITORING(device-reboots, {server, cluster}, EVENT);
MONITORING syslog  = CREATE_MONITORING(snmp-syslog, {server, cluster}, EVENT);
"#;

fn main() {
    banner(
        "ext_multi_scout",
        "three trained Scouts + Scout Masters, end to end",
    );
    let lab = Lab::standard();
    let mon = lab.monitoring();

    // Common split over incidents (time-ordered parity keeps it simple and
    // identical across Scouts).
    let n = lab.workload.len();
    let train_set: Vec<usize> = (0..n).filter(|i| i % 2 == 0).collect();
    let test_set: Vec<usize> = (0..n).filter(|i| i % 2 == 1).collect();

    let teams = [
        (Team::PhyNet, ScoutConfig::phynet()),
        (Team::Storage, ScoutConfig::parse(STORAGE_CONFIG).unwrap()),
        (Team::Compute, ScoutConfig::parse(COMPUTE_CONFIG).unwrap()),
    ];

    // Train one Scout per team.
    let mut scouts = Vec::new();
    for (team, config) in teams {
        let examples: Vec<Example> = lab
            .workload
            .incidents
            .iter()
            .map(|inc| Example::new(inc.text(), inc.created_at, inc.owner == team))
            .collect();
        let build = ScoutBuildConfig::default();
        let corpus = Scout::prepare(&config, &build, &examples, &mon);
        let train: Vec<usize> = train_set
            .iter()
            .copied()
            .filter(|&i| corpus.items[i].trainable())
            .collect();
        let scout = Scout::train_prepared(config, build, &corpus, &train, &mon);
        let m = {
            let test: Vec<usize> = test_set
                .iter()
                .copied()
                .filter(|&i| corpus.items[i].trainable())
                .collect();
            scout.evaluate(&corpus, &test, &mon).metrics()
        };
        println!("{team} Scout: {m}");
        scouts.push((team, scout, corpus));
    }

    // Answers per incident: Some(yes/no, confidence) or None (fallback).
    let answers_for = |i: usize| -> Vec<FleetAnswer> {
        scouts
            .iter()
            .filter_map(|(team, scout, corpus)| {
                let pred = scout.predict_prepared(&corpus.items[i], &mon);
                match pred.verdict {
                    Verdict::Fallback => None,
                    v => Some(FleetAnswer::new(
                        team.name(),
                        v == Verdict::Responsible,
                        pred.confidence,
                    )),
                }
            })
            .collect()
    };

    // Fit the MLE master on training history.
    let mut history = Vec::new();
    let mut priors: BTreeMap<String, f64> = BTreeMap::new();
    for &i in &train_set {
        let owner = lab.workload.incidents[i].owner.name();
        *priors.entry(owner.to_string()).or_insert(0.0) += 1.0;
        for a in answers_for(i) {
            let responsible = a.team == owner;
            history.push((a.team, a.responsible, responsible));
        }
    }
    let mle = FleetMaster::fit_mle(history, priors);
    let strawman = FleetMaster::new();

    // Evaluate routing on the test set.
    #[derive(Default)]
    struct Tally {
        direct_hits: usize,
        wrong_sends: usize,
        fallbacks: usize,
        fallback_baseline_hits: usize,
        reductions: Vec<f64>,
    }
    let mut tallies: HashMap<&'static str, Tally> = HashMap::new();
    let mut baseline_hits = 0usize;
    let mut scored = 0usize;
    for &i in &test_set {
        let inc = &lab.workload.incidents[i];
        let tr = &lab.workload.traces[i];
        if tr.all_hands {
            continue;
        }
        scored += 1;
        if tr.teams()[0] == inc.owner {
            baseline_hits += 1;
        }
        let answers = answers_for(i);
        for (name, decision) in [
            ("strawman", strawman.route(&answers)),
            ("mle", mle.route(&answers)),
        ] {
            let t = tallies.entry(name).or_default();
            match decision.team() {
                Some(team) if team == inc.owner.name() => {
                    t.direct_hits += 1;
                    if tr.misrouted() {
                        let total = tr.total_time().as_minutes() as f64;
                        let before = tr
                            .time_before(inc.owner)
                            .map(|d| d.as_minutes() as f64)
                            .unwrap_or(0.0);
                        t.reductions.push(before / total);
                    }
                }
                Some(_) => t.wrong_sends += 1,
                None => {
                    t.fallbacks += 1;
                    if tr.teams()[0] == inc.owner {
                        t.fallback_baseline_hits += 1;
                    }
                }
            }
        }
    }

    println!();
    println!(
        "baseline (first hop correct): {:.1}% of {scored} incidents",
        100.0 * baseline_hits as f64 / scored as f64
    );
    for (name, t) in [("strawman", &tallies["strawman"]), ("mle", &tallies["mle"])] {
        let routed = t.direct_hits + t.wrong_sends;
        let effective = t.direct_hits + t.fallback_baseline_hits;
        println!(
            "{name:<9} routed {:.1}% of incidents (of which {:.1}% to the right \
             team); fallback {:.1}%; end-to-end first-touch accuracy {:.1}%; \
             mean reduction on mis-routed {:.0}%",
            100.0 * routed as f64 / scored as f64,
            if routed == 0 {
                0.0
            } else {
                100.0 * t.direct_hits as f64 / routed as f64
            },
            100.0 * t.fallbacks as f64 / scored as f64,
            100.0 * effective as f64 / scored as f64,
            100.0 * mean(&t.reductions),
        );
    }
    println!();
    println!(
        "expected shape: masters route only when a Scout speaks up, with \
         near-perfect placement; everything else keeps the baseline's \
         first hop, so end-to-end first-touch accuracy strictly improves — \
         Appendix D's conclusion, now with *trained* Scouts in the loop."
    );
}
