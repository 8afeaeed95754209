//! Fleet routing-plane tests: graceful degradation under partial Scout
//! failure, unmapped-team answers participating in the decision, the
//! bit-identity of sharded dispatch against the sequential fan-out, and
//! of featurize-once-per-fingerprint dispatch against every team
//! predicting privately.

use featcache::FeatCache;
use monitoring::{MonitoringConfig, MonitoringSystem};
use obs::json::Value;
use proptest::prelude::*;
use scout::{Prediction, Scout};
use serve::{
    Answer, Client, Engine, FleetConfig, ModelEntry, ModelRegistry, ScoutError, ServeConfig,
    Server, TeamOutcome,
};
use std::sync::{Arc, OnceLock};

mod common;
use common::{small_workload, test_scout, trained_model_text};

/// A server with one test Scout per `teams` entry (registered in order,
/// so versions line up across servers) and the given fleet config.
fn start_fleet_server(teams: &[&str], fleet: FleetConfig) -> Server {
    let registry = Arc::new(ModelRegistry::new());
    for team in teams {
        registry
            .register(team, test_scout(), "test")
            .expect("register test model");
    }
    let engine = Engine::new(registry, small_workload()).with_fleet(fleet);
    Server::start(engine, "127.0.0.1:0", ServeConfig::default()).expect("bind ephemeral port")
}

fn connect(server: &Server) -> Client {
    Client::connect(&server.addr().to_string()).expect("connect")
}

const INCIDENT: &str = r#"{"text":"Switch agg-3 in c1.dc1 reporting CRC errors and packet loss"}"#;

fn fleet_config(shards: usize, fail_teams: &[&str]) -> FleetConfig {
    FleetConfig {
        shards,
        suggestions: 3,
        fail_teams: fail_teams.iter().map(|t| t.to_string()).collect(),
    }
}

#[test]
fn partial_scout_failure_degrades_gracefully() {
    // One Scout fails (injected); the request must still answer 200 with
    // the surviving Scouts' answers, the failed team itemized in
    // `errors`, and a decision over what answered.
    let server = start_fleet_server(
        &["PhyNet", "Storage", "Database"],
        fleet_config(2, &["Storage"]),
    );
    let mut client = connect(&server);
    let resp = client.post_json("/v1/route", INCIDENT).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let value = Value::parse(&resp.body_text()).expect("JSON body");

    let decision = value.get("decision").and_then(Value::as_str).unwrap();
    assert!(decision == "send_to" || decision == "fallback");

    let answers = value.get("answers").and_then(Value::as_arr).unwrap();
    let answered: Vec<&str> = answers
        .iter()
        .filter_map(|a| a.get("team").and_then(Value::as_str))
        .collect();
    assert_eq!(answered, ["Database", "PhyNet"], "sorted, Storage absent");

    let errors = value.get("errors").and_then(Value::as_arr).unwrap();
    assert_eq!(errors.len(), 1);
    assert_eq!(
        errors[0].get("team").and_then(Value::as_str),
        Some("Storage")
    );
    assert!(errors[0]
        .get("error")
        .and_then(Value::as_str)
        .unwrap()
        .contains("injected"));

    // Top-k suggestions rank only the teams that answered.
    let suggestions = value.get("suggestions").and_then(Value::as_arr).unwrap();
    assert!(!suggestions.is_empty() && suggestions.len() <= 3);
    for s in suggestions {
        let team = s.get("team").and_then(Value::as_str).unwrap();
        assert!(team == "Database" || team == "PhyNet", "{team}");
        let confidence = s.get("confidence").and_then(Value::as_f64).unwrap();
        assert!((0.0..=1.0).contains(&confidence));
    }
}

#[test]
fn route_fails_only_when_every_scout_does() {
    let server = start_fleet_server(
        &["PhyNet", "Storage"],
        fleet_config(2, &["PhyNet", "Storage"]),
    );
    let mut client = connect(&server);
    // Every Scout injected to fail: 500, not a partial answer.
    let resp = client.post_json("/v1/route", INCIDENT).unwrap();
    assert_eq!(resp.status, 500, "{}", resp.body_text());

    // An already-lapsed deadline fails every Scout with DeadlineExpired:
    // that is the 504 shape.
    let resp = client
        .request(
            "POST",
            "/v1/route",
            &[("X-Deadline-Ms", "0")],
            INCIDENT.as_bytes(),
        )
        .unwrap();
    assert_eq!(resp.status, 504, "{}", resp.body_text());
}

#[test]
fn unmapped_team_answers_reach_the_decision() {
    // "Atlantis" has no Team::ALL variant and no dependency-graph node.
    // Its answers must still drive the decision (the silent-drop bug had
    // the master never seeing them, so /v1/route always fell back).
    let world = small_workload();
    let server = start_fleet_server(&["Atlantis"], fleet_config(2, &[]));
    let mut client = connect(&server);

    let mut confident_yes = None;
    let mut checked = 0;
    for incident in &world.incidents {
        let body = obs::json::Obj::new()
            .str("text", &incident.text())
            .uint("time_minutes", incident.created_at.0)
            .finish();
        let resp = client
            .post_json("/v1/scouts/Atlantis/predict", &body)
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_text());
        let value = Value::parse(&resp.body_text()).unwrap();
        let responsible = value.get("verdict").and_then(Value::as_str) == Some("responsible");
        let confidence = value.get("confidence").and_then(Value::as_f64).unwrap();
        checked += 1;
        if responsible && confidence >= 0.8 {
            confident_yes = Some(body);
            break;
        }
    }
    let body = confident_yes
        .unwrap_or_else(|| panic!("no confident-yes incident among {checked} in the workload"));

    let resp = client.post_json("/v1/route", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let value = Value::parse(&resp.body_text()).unwrap();
    assert_eq!(
        value.get("decision").and_then(Value::as_str),
        Some("send_to"),
        "unmapped team's confident yes must win: {}",
        resp.body_text()
    );
    assert_eq!(value.get("team").and_then(Value::as_str), Some("Atlantis"));
    let answers = value.get("answers").and_then(Value::as_arr).unwrap();
    assert_eq!(
        answers[0].get("team").and_then(Value::as_str),
        Some("Atlantis")
    );
}

#[test]
fn route_bytes_identical_across_shard_counts() {
    // Same registry contents registered in the same order (so versions
    // align), different shard counts: /v1/route bodies must match byte
    // for byte — shard topology is an implementation detail.
    let teams = ["PhyNet", "Storage", "Database", "Atlantis", "DNS"];
    let bodies: Vec<String> = [1usize, 2, 7]
        .iter()
        .map(|&shards| {
            let server = start_fleet_server(&teams, fleet_config(shards, &[]));
            let resp = connect(&server).post_json("/v1/route", INCIDENT).unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body_text());
            resp.body_text()
        })
        .collect();
    assert_eq!(bodies[0], bodies[1], "shards=1 vs shards=2");
    assert_eq!(bodies[0], bodies[2], "shards=1 vs shards=7");
}

/// Entries for the in-process dispatch tests: one shared trained Scout
/// under several team names. Reused across proptest cases so the
/// per-entry feature caches stay warm.
fn dispatch_entries() -> &'static Vec<Arc<ModelEntry>> {
    static ENTRIES: OnceLock<Vec<Arc<ModelEntry>>> = OnceLock::new();
    ENTRIES.get_or_init(|| {
        ["PhyNet", "Storage", "Database", "Atlantis", "DNS", "SLB"]
            .iter()
            .enumerate()
            .map(|(i, team)| {
                Arc::new(ModelEntry {
                    team: team.to_string(),
                    version: i as u64 + 1,
                    source: "test".into(),
                    scout: test_scout(),
                    feat_cache: FeatCache::new(16 * 1024 * 1024),
                })
            })
            .collect()
    })
}

/// A canonical, comparison-friendly rendering of dispatch outcomes.
fn render_outcomes(outcomes: &[serve::TeamOutcome]) -> String {
    outcomes
        .iter()
        .map(|o| match &o.result {
            Ok(a) => format!(
                "{} v{} {:?} {:.17}\n",
                a.team, a.model_version, a.prediction.verdict, a.prediction.confidence
            ),
            Err(e) => format!("{} ERR {e}\n", o.team),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sharded dispatch is bit-identical to the sequential (shards=1)
    /// fan-out, for any shard count, team subset, and injected-failure
    /// set.
    #[test]
    fn sharded_dispatch_matches_sequential(
        shards in 2usize..9,
        mask in 1u32..(1 << 6),
        fail_mask in 0u32..(1 << 6),
    ) {
        let world = small_workload();
        let all = dispatch_entries();
        let entries: Vec<Arc<ModelEntry>> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, e)| Arc::clone(e))
            .collect();
        let fail_teams: Vec<String> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| fail_mask & (1 << i) != 0)
            .map(|(_, e)| e.team.clone())
            .collect();
        let text = "Switch agg-3 in c1.dc1 reporting CRC errors and packet loss";
        let time = cloudsim::SimTime::from_days(10);

        let sequential = serve::fleet::dispatch(
            &entries, &world, text, time, None,
            &FleetConfig { shards: 1, suggestions: 3, fail_teams: fail_teams.clone() },
        );
        let sharded = serve::fleet::dispatch(
            &entries, &world, text, time, None,
            &FleetConfig { shards, suggestions: 3, fail_teams },
        );
        prop_assert_eq!(render_outcomes(&sequential), render_outcomes(&sharded));

        // Outcomes are sorted by team and cover exactly the entry set.
        let teams: Vec<&str> = sharded.iter().map(|o| o.team.as_str()).collect();
        let mut expected: Vec<&str> = entries.iter().map(|e| e.team.as_str()).collect();
        expected.sort_unstable();
        prop_assert_eq!(teams, expected);
    }
}

fn entry(team: &str, version: u64, scout: Scout) -> Arc<ModelEntry> {
    Arc::new(ModelEntry {
        team: team.to_string(),
        version,
        source: "test".into(),
        scout,
        feat_cache: FeatCache::new(16 * 1024 * 1024),
    })
}

/// The test Scout with another look-back window: a different
/// featurization fingerprint, the same (still shape-compatible) models.
fn scout_with_lookback(minutes: u64) -> Scout {
    let text = trained_model_text();
    assert!(text.contains("lookback_minutes 120\n"));
    let text = text.replace(
        "lookback_minutes 120\n",
        &format!("lookback_minutes {minutes}\n"),
    );
    Scout::from_text(&text).expect("edited model text loads")
}

/// Six teams over three fingerprints, interleaved so no group is
/// contiguous: 120 min ×3, 90 min ×2, and a 45 min singleton.
fn mixed_fleet() -> &'static Vec<Arc<ModelEntry>> {
    static ENTRIES: OnceLock<Vec<Arc<ModelEntry>>> = OnceLock::new();
    ENTRIES.get_or_init(|| {
        [
            ("PhyNet", 120),
            ("Atlantis", 90),
            ("Storage", 120),
            ("SLB", 45),
            ("DNS", 90),
            ("Database", 120),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(team, minutes))| entry(team, i as u64 + 1, scout_with_lookback(minutes)))
        .collect()
    })
}

/// What the proptest draws inputs from: every incident of the small
/// world, plus one the config excludes and one naming no component.
fn input_pool() -> &'static Vec<(String, cloudsim::SimTime)> {
    static POOL: OnceLock<Vec<(String, cloudsim::SimTime)>> = OnceLock::new();
    POOL.get_or_init(|| {
        let world = small_workload();
        let mut pool: Vec<_> = world
            .incidents
            .iter()
            .map(|i| (i.text(), i.created_at))
            .collect();
        let at = cloudsim::SimTime::from_days(10);
        pool.push(("decommission of tor-0.c0.dc0\nplanned work".into(), at));
        pool.push(("something vague happened somewhere".into(), at));
        pool
    })
}

/// The reference: each mixed-fleet Scout's own uncached
/// `Scout::predict` of each pool input — no shared corpus, no cache, no
/// batch. Indexed `[entry][input]`.
fn private_predictions() -> &'static Vec<Vec<Prediction>> {
    static TABLE: OnceLock<Vec<Vec<Prediction>>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let world = small_workload();
        let mon =
            MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default());
        mixed_fleet()
            .iter()
            .map(|e| {
                input_pool()
                    .iter()
                    .map(|(text, time)| e.scout.predict(text, *time, &mon))
                    .collect()
            })
            .collect()
    })
}

fn masked(mask: u32, entries: &[Arc<ModelEntry>]) -> Vec<String> {
    entries
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, e)| e.team.clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One prepare per fingerprint plus one classify per team is
    /// byte-identical to every team predicting privately and uncached —
    /// for any batch, shard count, breaker skip set and injected-failure
    /// set, over a fleet of three fingerprints (one a singleton).
    #[test]
    fn grouped_dispatch_matches_private_predictions(
        picks in proptest::collection::vec(any::<u16>(), 1..17),
        shards in 1usize..9,
        skip_mask in 0u32..(1 << 6),
        fail_mask in 0u32..(1 << 6),
    ) {
        let world = small_workload();
        let entries = mixed_fleet();
        let pool = input_pool();
        let picks: Vec<usize> = picks.iter().map(|&p| p as usize % pool.len()).collect();
        let inputs: Vec<(&str, cloudsim::SimTime)> =
            picks.iter().map(|&p| (pool[p].0.as_str(), pool[p].1)).collect();
        let skip = masked(skip_mask, entries);
        let fail_teams = masked(fail_mask, entries);

        let got = serve::fleet::dispatch_batch(
            entries,
            &world,
            &MonitoringConfig::default(),
            &inputs,
            None,
            &FleetConfig { shards, suggestions: 3, fail_teams: fail_teams.clone() },
            &skip,
        );
        prop_assert_eq!(got.len(), inputs.len());

        for (outcomes, &pick) in got.iter().zip(&picks) {
            let mut expected: Vec<TeamOutcome> = entries
                .iter()
                .enumerate()
                .map(|(e, entry)| TeamOutcome {
                    team: entry.team.clone(),
                    result: if skip.contains(&entry.team) {
                        Err(ScoutError::BreakerOpen)
                    } else if fail_teams.contains(&entry.team) {
                        Err(ScoutError::Injected)
                    } else {
                        Ok(Answer {
                            team: entry.team.clone(),
                            model_version: entry.version,
                            prediction: private_predictions()[e][pick].clone(),
                        })
                    },
                })
                .collect();
            expected.sort_by(|a, b| a.team.cmp(&b.team));
            prop_assert_eq!(render_outcomes(outcomes), render_outcomes(&expected));
        }
    }
}

#[test]
fn mixed_fleet_has_three_fingerprints_and_a_singleton() {
    let mut sizes: Vec<usize> = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    for e in mixed_fleet() {
        match seen.iter().position(|f| *f == e.scout.fingerprint()) {
            Some(g) => sizes[g] += 1,
            None => {
                seen.push(e.scout.fingerprint());
                sizes.push(1);
            }
        }
    }
    assert_eq!(sizes, [3, 2, 1]);
}

/// The test Scout with its selector's model swapped for the (much wider)
/// main forest: featurization is untouched — same fingerprint, prepare
/// works — but the selector's width check panics inside `classify`.
fn scout_panicking_in_classify() -> Scout {
    let text = trained_model_text();
    let between = |from: &str, to: &str| {
        let start = text.find(from).expect(from) + from.len();
        start..start + text[start..].find(to).expect(to)
    };
    let main_forest = &text[between("[forest]\n", "[end]\n")];
    let selector = between("[selector]\n", "[end]\n");
    let model_line = selector.start
        + text[selector.clone()]
            .find("model ")
            .expect("selector names its model");
    let forged = format!(
        "{}model rf\n{main_forest}{}",
        &text[..model_line],
        &text[selector.end..]
    );
    Scout::from_text(&forged).expect("forged model text loads")
}

/// A predict runs on its connection's thread: a Scout that panics there
/// answers that request `500`, counts in `serve.predict.panicked`, and
/// frees its admission slot — with a cap of one slot, the next predict
/// would otherwise be shed.
#[test]
fn a_panicking_predict_is_a_500_and_frees_its_slot() {
    let registry = Arc::new(ModelRegistry::new());
    registry
        .register("Broken", scout_panicking_in_classify(), "test")
        .expect("register broken model");
    registry
        .register("PhyNet", test_scout(), "test")
        .expect("register test model");
    let engine = Engine::new(registry, small_workload());
    let config = ServeConfig {
        queue_cap: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(engine, "127.0.0.1:0", config).expect("bind ephemeral port");
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let body = r#"{"text":"Switch agg-3 in c1.dc1 reporting CRC errors and packet loss"}"#;
    let panicked = || {
        obs::global()
            .metrics
            .counter_value("serve.predict.panicked")
            .unwrap_or(0)
    };
    let before = panicked();
    for _ in 0..2 {
        let resp = client.post_json("/v1/scouts/Broken/predict", body).unwrap();
        assert_eq!(resp.status, 500, "{}", resp.body_text());
    }
    assert!(panicked() >= before + 2, "each panic is counted");
    let resp = client.post_json("/v1/scouts/PhyNet/predict", body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
}

#[test]
fn a_panicking_classify_is_one_teams_problem() {
    let world = small_workload();
    let entries = vec![
        entry("Atlantis", 1, test_scout()),
        entry("Broken", 2, scout_panicking_in_classify()),
        entry("Storage", 3, test_scout()),
    ];
    assert_eq!(
        entries[0].scout.fingerprint(),
        entries[1].scout.fingerprint(),
        "the broken Scout shares its group-mates' corpus"
    );
    let text = "Switch agg-3 in c1.dc1 reporting CRC errors and packet loss";
    let time = cloudsim::SimTime::from_days(10);
    for shards in [1, 3] {
        let outcomes = serve::fleet::dispatch(
            &entries,
            &world,
            text,
            time,
            None,
            &fleet_config(shards, &[]),
        );
        let teams: Vec<&str> = outcomes.iter().map(|o| o.team.as_str()).collect();
        assert_eq!(teams, ["Atlantis", "Broken", "Storage"]);
        assert!(outcomes[0].result.is_ok(), "{:?}", outcomes[0].result);
        assert_eq!(
            outcomes[1].result.as_ref().err(),
            Some(&ScoutError::Panicked)
        );
        assert!(outcomes[2].result.is_ok(), "{:?}", outcomes[2].result);
    }
}
