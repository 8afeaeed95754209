//! Crash recovery through the whole serving plane: a real server with a
//! real WAL takes traffic over HTTP, "crashes" (torn final frame, the
//! kill -9 signature), and a fresh engine recovers — with the recovered
//! state bit-identical to a deterministic replay of the same log and
//! incident ids continuing where the dead process stopped.

use cloudsim::SimDuration;
use incident::{Workload, WorkloadConfig};
use ml::forest::ForestConfig;
use monitoring::{MonitoringConfig, MonitoringSystem};
use scout::{Example, Scout, ScoutBuildConfig, ScoutConfig};
use serve::{Client, Engine, ModelRegistry, ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use wal::{replay_dir, SyncPolicy, Wal, WalConfig};

/// A small world, generated once: 30 days is plenty of traffic to
/// classify and keeps the test fast.
fn world() -> Arc<Workload> {
    static WORLD: OnceLock<Arc<Workload>> = OnceLock::new();
    WORLD
        .get_or_init(|| {
            let mut config = WorkloadConfig {
                seed: 7,
                ..WorkloadConfig::default()
            };
            config.faults.faults_per_day = 2.0;
            config.faults.horizon = SimDuration::days(30);
            Arc::new(Workload::generate(config))
        })
        .clone()
}

/// A tiny PhyNet Scout trained on the world's own incidents.
fn tiny_scout() -> Scout {
    static TEXT: OnceLock<String> = OnceLock::new();
    let text = TEXT.get_or_init(|| {
        let world = world();
        let mon =
            MonitoringSystem::new(&world.topology, &world.faults, MonitoringConfig::default());
        let examples: Vec<Example> = world
            .incidents
            .iter()
            .take(400)
            .map(|i| Example::new(i.text(), i.created_at, i.owner == cloudsim::Team::PhyNet))
            .collect();
        let config = ScoutConfig::phynet();
        let build = ScoutBuildConfig {
            forest: ForestConfig {
                n_trees: 4,
                ..ForestConfig::default()
            },
            cluster_train_cap: 10,
            ..ScoutBuildConfig::default()
        };
        let corpus = Scout::prepare(&config, &build, &examples, &mon);
        let train = corpus.trainable_indices();
        Scout::train_prepared(config, build, &corpus, &train, &mon).to_text()
    });
    Scout::from_text(text).expect("model text round-trips")
}

fn wal_cfg(dir: &Path) -> WalConfig {
    let mut cfg = WalConfig::new(dir);
    cfg.sync = SyncPolicy::Os; // the test kills a process image, not the power
    cfg
}

fn newest_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segs.sort();
    segs.pop().expect("at least one segment")
}

/// Build a WAL-backed engine the way `scoutctl serve --wal-dir` does:
/// open + recover first, attach, then publish models (so promotions are
/// journaled with post-recovery version numbers).
fn wal_engine(dir: &Path) -> (Arc<Wal>, Engine, Arc<ModelRegistry>) {
    let wal = Arc::new(Wal::open(wal_cfg(dir)).unwrap());
    if wal.seq() == 0 {
        wal.append(&wal::Event::Init {
            served_cap: 64,
            feedback_cap: 64,
        })
        .unwrap();
    }
    let registry = Arc::new(ModelRegistry::new());
    let engine = Engine::new(Arc::clone(&registry), world())
        .with_served_cap(64)
        .with_wal(Arc::clone(&wal));
    registry
        .register("PhyNet", tiny_scout(), "test-startup")
        .unwrap();
    (wal, engine, registry)
}

#[test]
fn killed_server_recovers_bit_identical_and_continues_ids() {
    let dir = std::env::temp_dir().join(format!("serve-wal-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // ---- first life: take traffic, then "crash" ----
    let pre_crash_state;
    let startup_version;
    {
        let (wal, engine, registry) = wal_engine(&dir);
        startup_version = registry.version_of("PhyNet").unwrap();
        let server = Server::start(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = server.addr().to_string();
        let mut client = Client::connect(&addr).unwrap();
        for i in 0..6 {
            let body = format!("{{\"text\":\"BGP flap {i} on agg-3\",\"time_minutes\":{i}}}");
            let resp = client
                .post_json("/v1/scouts/PhyNet/predict", &body)
                .unwrap();
            assert!(resp.is_success(), "predict {i}: {}", resp.body_text());
        }
        // Resolve one incident so the recovery covers the join too.
        let resp = client
            .post_json("/v1/feedback", "{\"incident\":1,\"team\":\"PhyNet\"}")
            .unwrap();
        assert!(resp.is_success(), "feedback: {}", resp.body_text());
        let state = client.get("/v1/wal/state").unwrap();
        assert!(state.is_success());
        pre_crash_state = state.body_text().to_string();
        server.shutdown();
        wal.sync().unwrap();
    }

    // kill -9 mid-append: tear the final frame.
    let seg = newest_segment(&dir);
    let len = std::fs::metadata(&seg).unwrap().len();
    assert!(len > 16, "log must contain real traffic");
    std::fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .unwrap()
        .set_len(len - 5)
        .unwrap();

    // The state an offline, deterministic replay reconstructs.
    let replayed = replay_dir(&dir, None, false).unwrap();

    // ---- second life: recover, verify, keep serving ----
    let (wal2, engine2, registry2) = wal_engine(&dir);
    // Recovery == replay, bit for bit (before the startup promotion,
    // the recovered projection is exactly the replayed one; the live
    // log has since appended the new ModelPromoted, so compare the
    // replay against a replay bounded at the recovered seq).
    let recovered = replay_dir(&dir, Some(replayed.seq), false).unwrap();
    assert_eq!(recovered.render(), replayed.render());

    // The torn final event (the feedback-join record arrived last) is
    // gone; everything else survived. The pre-crash live state and the
    // recovered state agree on every record but the torn tail.
    assert!(pre_crash_state.contains("\"incident\":1"));

    // Startup publish on the recovered registry continued the version
    // sequence instead of reusing v1.
    let v2 = registry2.version_of("PhyNet").unwrap();
    assert!(
        v2 > startup_version,
        "recovered registry must not reuse version numbers (got {v2})"
    );

    // Served-log ids continue: the next prediction gets an id after the
    // recovered high-water mark, not 1.
    let server = Server::start(engine2, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let resp = client
        .post_json(
            "/v1/scouts/PhyNet/predict",
            "{\"text\":\"post-crash probe\",\"time_minutes\":99}",
        )
        .unwrap();
    assert!(resp.is_success());
    let incident = resp
        .body_text()
        .split("\"incident\":")
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.trim().parse::<u64>().ok())
        .expect("predict response carries the incident id");
    assert!(
        incident > 6 - 1,
        "incident ids must continue after recovery, got {incident}"
    );
    // And the live WAL state is once again exactly what a replay of the
    // now-longer log produces.
    let live = client.get("/v1/wal/state").unwrap().body_text().to_string();
    let full_replay = replay_dir(&dir, None, false).unwrap();
    assert!(
        live.contains(&full_replay.render()),
        "live /v1/wal/state must embed the canonical projection"
    );
    server.shutdown();
    wal2.sync().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh WAL directory for one test.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve-wal-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `/v1/wal/state`'s log tip and the sequence number its fold reached.
fn state_seqs(client: &mut Client) -> (u64, u64) {
    let resp = client.get("/v1/wal/state").unwrap();
    assert!(resp.is_success(), "{}", resp.body_text());
    let v = obs::json::Value::parse(&resp.body_text()).expect("JSON state");
    let seq = |v: &obs::json::Value| v.get("seq").and_then(obs::json::Value::as_f64).unwrap();
    (
        seq(&v) as u64,
        seq(v.get("projections").expect("projections")) as u64,
    )
}

#[test]
fn a_time_the_log_cannot_replay_is_refused_and_the_log_folds_to_its_tip() {
    let dir = fresh_dir("int-bound");
    let (wal, engine, _registry) = wal_engine(&dir);
    let server = Server::start(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    for (time, status) in [("1e16", 400), ("1.5", 400), ("-1", 400), ("100", 200)] {
        let body = format!("{{\"text\":\"BGP flap on agg-3\",\"time_minutes\":{time}}}");
        let resp = client
            .post_json("/v1/scouts/PhyNet/predict", &body)
            .unwrap();
        assert_eq!(resp.status, status, "time {time}: {}", resp.body_text());
    }
    let (seq, folded) = state_seqs(&mut client);
    assert_eq!(folded, seq, "every logged event must replay");
    server.shutdown();
    wal.sync().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_fractional_incident_id_is_refused_not_rounded() {
    let dir = fresh_dir("frac-incident");
    let (wal, engine, _registry) = wal_engine(&dir);
    let server = Server::start(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    let resp = client
        .post_json(
            "/v1/scouts/PhyNet/predict",
            "{\"text\":\"BGP flap on agg-3\",\"time_minutes\":5}",
        )
        .unwrap();
    assert!(resp.is_success(), "{}", resp.body_text());
    for (incident, status) in [("1.5", 400), ("9e15", 400), ("1", 200)] {
        let body = format!("{{\"incident\":{incident},\"team\":\"PhyNet\"}}");
        let resp = client.post_json("/v1/feedback", &body).unwrap();
        assert_eq!(
            resp.status,
            status,
            "incident {incident}: {}",
            resp.body_text()
        );
    }
    let (seq, folded) = state_seqs(&mut client);
    assert_eq!(folded, seq);
    server.shutdown();
    wal.sync().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
