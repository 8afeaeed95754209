//! The sharded fleet routing plane behind `POST /v1/route`.
//!
//! A routing request fans one incident out to *every* registered Scout.
//! At paper scale (a handful of teams) a flat loop of predicts works; at fleet scale (hundreds of teams) the fan-out itself becomes
//! the bottleneck and a single slow or broken Scout must not take the
//! whole decision down. This module is the scalable middle layer:
//!
//! * teams are partitioned into `shards` bounded worker groups by
//!   **rendezvous (highest-random-weight) hashing** — each team's shard
//!   is a pure function of `(team name, shard count)`, so adding or
//!   removing a team never reshuffles any other team, and every process
//!   in a fleet agrees on the assignment with zero coordination;
//! * shards run in parallel on the workspace [`pool`] (the caller's
//!   thread participates; nested parallelism degrades to inline
//!   execution), each under a `fleet.shard` span linked to the request
//!   trace, with per-shard team counts and latency metrics;
//! * an incident is **featurized once per featurization fingerprint, not
//!   once per team**: the snapshot is grouped by
//!   [`scout::Scout::fingerprint`], each group with a runnable member
//!   prepares the inputs once ([`scout::Scout::prepare_inputs`], under a
//!   `fleet.prepare` span) through one cache, and the shard workers only
//!   [`scout::Scout::classify`] per team over the group's shared corpus;
//! * each Scout runs with the request deadline re-checked at dispatch
//!   and is individually isolated: a panic or injected fault becomes a
//!   per-team [`ScoutError`], never a request-wide failure.
//!
//! **Isolation:** breaker, deadline and injected outcomes are decided
//! before any prepare is spent on them. A panic inside a group's prepare
//! answers [`ScoutError::Panicked`] for every team of that group —
//! prepare is a pure function of fingerprint and input, so each of them
//! would have hit the same panic privately. A panic in one team's
//! classify stays that team's.
//!
//! **Determinism:** outcomes are collected per team and sorted by team
//! name before they leave this module, and each prediction is a pure
//! function of `(scout, incident)` (the workspace-wide contract), so the
//! aggregate is byte-identical across shard counts — `shards=1` and
//! `shards=64` produce the same bytes. The integration proptests pin
//! this.

use crate::coalesce::{Coalescer, Job, Window};
use crate::registry::ModelEntry;
use crate::server::Engine;
use crate::Answer;
use cloudsim::SimTime;
use incident::Workload;
use monitoring::{MonitoringConfig, MonitoringSystem};
use obs::hash::{fnv1a, splitmix64, FNV1A_OFFSET};
use scout::scout::PreparedCorpus;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use storm::{Gate, MAX_BATCH};

/// Default shard count when `--fleet-shards` is not given.
pub const DEFAULT_SHARDS: usize = 4;

/// Default number of top-k routing suggestions in a `/v1/route`
/// response.
pub const DEFAULT_SUGGESTIONS: usize = 3;

/// Fleet routing-plane tunables.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker groups the registered teams are hashed across (`0` is
    /// treated as `1`).
    pub shards: usize,
    /// How many top-k suggestions `/v1/route` returns.
    pub suggestions: usize,
    /// Teams whose Scouts fail on purpose (case-insensitive). Fault
    /// injection for tests and the smoke script — a listed team's
    /// dispatch returns [`ScoutError::Injected`] instead of running.
    pub fail_teams: Vec<String>,
}

impl Default for FleetConfig {
    /// [`DEFAULT_SHARDS`] shards, three suggestions, no injected faults.
    fn default() -> FleetConfig {
        FleetConfig {
            shards: DEFAULT_SHARDS,
            suggestions: DEFAULT_SUGGESTIONS,
            fail_teams: Vec::new(),
        }
    }
}

impl FleetConfig {
    /// The effective shard count (`>= 1`).
    pub fn effective_shards(&self) -> usize {
        self.shards.max(1)
    }

    /// Is `team` marked for injected failure?
    pub fn fails(&self, team: &str) -> bool {
        self.fail_teams.iter().any(|t| t.eq_ignore_ascii_case(team))
    }
}

/// Why one team's Scout produced no answer. Unlike
/// [`PredictError`](crate::PredictError), these are *per-team*
/// conditions: the routing decision proceeds over the Scouts that did
/// answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScoutError {
    /// The request deadline lapsed before this Scout ran.
    DeadlineExpired,
    /// The Scout panicked; the panic was contained to its team.
    Panicked,
    /// The team is listed in [`FleetConfig::fail_teams`].
    Injected,
    /// The team's storm-control circuit breaker is open: the Scout was
    /// tripped out of the fan-out without running.
    BreakerOpen,
}

impl std::fmt::Display for ScoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScoutError::DeadlineExpired => write!(f, "deadline expired before the Scout ran"),
            ScoutError::Panicked => write!(f, "the Scout panicked"),
            ScoutError::Injected => write!(f, "injected failure (fleet fail_teams)"),
            ScoutError::BreakerOpen => write!(f, "circuit breaker open for this team"),
        }
    }
}

/// One team's per-input results within a shard, before the outcomes are
/// regrouped input-major.
type TeamBatchResults = Vec<(String, Vec<Result<Answer, ScoutError>>)>;

/// One team's dispatch outcome.
#[derive(Debug, Clone)]
pub struct TeamOutcome {
    /// Registered team name (registry key).
    pub team: String,
    /// The Scout's answer, or why there is none.
    pub result: Result<Answer, ScoutError>,
}

/// The shard `team` lives on, out of `shards`, by rendezvous hashing:
/// the shard whose mixed `(team, shard)` weight is highest wins, ties to
/// the lower shard index. Pure function of its arguments — stable across
/// processes, runs, and unrelated team add/remove.
pub fn shard_of(team: &str, shards: usize) -> usize {
    let shards = shards.max(1);
    if shards == 1 {
        return 0;
    }
    let team_hash = fnv1a(FNV1A_OFFSET, team.as_bytes());
    let mut best = 0usize;
    let mut best_weight = 0u64;
    for shard in 0..shards {
        let weight = splitmix64(team_hash ^ splitmix64(shard as u64 + 1));
        if shard == 0 || weight > best_weight {
            best = shard;
            best_weight = weight;
        }
    }
    best
}

/// Fan one incident out to every entry, shard-parallel, and collect the
/// per-team outcomes **sorted by team name** (the canonical order the
/// response and the master both consume — this is what makes the bytes
/// shard-count-independent). Single-incident wrapper over
/// [`dispatch_batch`] with the default monitoring plane and no skip set.
pub fn dispatch(
    entries: &[Arc<ModelEntry>],
    workload: &Workload,
    text: &str,
    time: SimTime,
    deadline: Option<Instant>,
    config: &FleetConfig,
) -> Vec<TeamOutcome> {
    dispatch_batch(
        entries,
        workload,
        &MonitoringConfig::default(),
        &[(text, time)],
        deadline,
        config,
        &[],
    )
    .pop()
    .expect("one input yields one outcome set")
}

/// Fan a *batch* of incidents out to every entry in one pass: one
/// `MonitoringSystem` build shared by every shard and every incident
/// (the severity-batching economics — same as one predict micro-batch),
/// one [`scout::Scout::prepare_inputs`] per featurization fingerprint
/// covering the whole batch, one [`scout::Scout::classify`] per Scout over
/// its group's corpus. Returns one outcome set per input, each **sorted
/// by team name**.
///
/// `mon` is the monitoring plane configuration: this entry point, for
/// callers that hold no plane (benchmarks, tests, [`dispatch`]), builds
/// one from it; the server's [`pass`] hands `dispatch_over` the engine's
/// kept plane instead. `skip` lists teams tripped out by
/// an open circuit breaker: they answer [`ScoutError::BreakerOpen`]
/// without running — no `catch_unwind`, no predict.
///
/// **Determinism:** batched predictions are bit-identical to what the
/// same incidents dispatched one at a time would produce (the
/// `predict_many` contract from PRs 2/7), and a shared corpus is
/// bit-identical to the one each Scout would have prepared privately
/// (the [`scout::Scout::fingerprint`] contract), so neither coalescing
/// nor grouping changes verdicts — the fleet and storm integration tests
/// pin this.
pub fn dispatch_batch(
    entries: &[Arc<ModelEntry>],
    workload: &Workload,
    mon: &MonitoringConfig,
    inputs: &[(&str, SimTime)],
    deadline: Option<Instant>,
    config: &FleetConfig,
    skip: &[String],
) -> Vec<Vec<TeamOutcome>> {
    // One monitoring plane for the whole fan-out: it is read-only at
    // predict time and shared by every shard.
    let monitoring = MonitoringSystem::new(&workload.topology, &workload.faults, mon.clone());
    dispatch_over(entries, &monitoring, inputs, deadline, config, skip)
}

/// [`dispatch_batch`] over a plane the caller already holds — the
/// server's [`pass`] opens its own on the engine's kept
/// [`monitoring::PlaneIndex`] instead of deriving one per fan-out.
fn dispatch_over(
    entries: &[Arc<ModelEntry>],
    monitoring: &MonitoringSystem<'_>,
    inputs: &[(&str, SimTime)],
    deadline: Option<Instant>,
    config: &FleetConfig,
    skip: &[String],
) -> Vec<Vec<TeamOutcome>> {
    if inputs.is_empty() {
        return Vec::new();
    }
    let shards = config.effective_shards();
    let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); shards];
    for (i, entry) in entries.iter().enumerate() {
        by_shard[shard_of(&entry.team, shards)].push(i);
    }
    by_shard.retain(|s| !s.is_empty());
    obs::counter("fleet.dispatch.calls").inc();
    obs::counter("fleet.dispatch.fanouts").add(inputs.len() as u64);
    obs::observe("fleet.dispatch.shards", by_shard.len() as f64);
    obs::observe("fleet.dispatch.teams", entries.len() as f64);
    obs::observe("fleet.dispatch.batch", inputs.len() as f64);

    // The pool re-enters the caller's trace context, but link the request
    // explicitly too: fleet spans must stay attributable even when
    // dispatch is driven outside a request (benches).
    let ctx = obs::trace::capture().filter(|c| c.trace_id != 0);

    // Breaker, deadline and injected outcomes are settled before any
    // prepare is spent on them.
    let lapsed = deadline.is_some_and(|d| Instant::now() >= d);
    let gated: Vec<Option<ScoutError>> = entries
        .iter()
        .map(|entry| gate(entry, lapsed, config, skip))
        .collect();
    // Group the snapshot by featurization fingerprint. A group reads
    // through its first member's cache whatever that member's own state,
    // so the same cache stays warm from pass to pass; a group prepares
    // only if some member will actually classify.
    let mut groups: Vec<Group<'_>> = Vec::new();
    let mut group_of = Vec::with_capacity(entries.len());
    for (entry, gated) in entries.iter().zip(&gated) {
        let fingerprint = entry.scout.fingerprint();
        let g = groups
            .iter()
            .position(|g| g.lead.scout.fingerprint() == fingerprint)
            .unwrap_or_else(|| {
                groups.push(Group {
                    lead: entry,
                    runnable: false,
                });
                groups.len() - 1
            });
        groups[g].runnable |= gated.is_none();
        group_of.push(g);
    }
    // `None`: nobody to prepare for, or the prepare panicked.
    let corpora: Vec<Option<PreparedCorpus>> =
        pool::Pool::global().parallel_map(&groups, |_, group| {
            if !group.runnable {
                return None;
            }
            let mut span = obs::span!("fleet.prepare");
            if let Some(ctx) = ctx {
                span.add_link(ctx);
            }
            let lead = group.lead;
            catch_unwind(AssertUnwindSafe(|| {
                lead.scout
                    .prepare_inputs(inputs, monitoring, Some(&lead.feat_cache), None)
            }))
            .ok()
        });

    let per_shard: Vec<TeamBatchResults> =
        pool::Pool::global().parallel_map(&by_shard, |_, shard| {
            let started = Instant::now();
            let mut span = obs::span!("fleet.shard");
            if let Some(ctx) = ctx {
                span.add_link(ctx);
            }
            obs::observe("fleet.shard.teams", shard.len() as f64);
            let results: TeamBatchResults = shard
                .iter()
                .map(|&i| {
                    let entry = &entries[i];
                    let results = match &gated[i] {
                        Some(error) => vec![Err(error.clone()); inputs.len()],
                        None => classify_isolated(
                            entry,
                            corpora[group_of[i]].as_ref(),
                            monitoring,
                            inputs.len(),
                            deadline,
                        ),
                    };
                    (entry.team.clone(), results)
                })
                .collect();
            obs::observe("fleet.shard.latency", started.elapsed().as_secs_f64() * 1e3);
            results
        });

    let mut out: Vec<Vec<TeamOutcome>> = inputs
        .iter()
        .map(|_| Vec::with_capacity(entries.len()))
        .collect();
    for shard_results in per_shard {
        for (team, results) in shard_results {
            debug_assert_eq!(results.len(), inputs.len());
            for (i, result) in results.into_iter().enumerate() {
                out[i].push(TeamOutcome {
                    team: team.clone(),
                    result,
                });
            }
        }
    }
    for outcomes in &mut out {
        outcomes.sort_by(|a, b| a.team.cmp(&b.team));
    }
    out
}

/// One fleet pass — the whole of what `/v1/route` does between admission
/// and the Scout-Master decision, for one incident (the handler thread,
/// Sev1/Sev2) or a coalesced batch of them (the Sev3 worker): registry
/// snapshot → circuit-breaker gate sampled **once** (a pass is one
/// fan-out) → [`dispatch_batch`] → **one** breaker report per team (a
/// panicked Scout fails the whole pass for its team, which is one
/// breaker event, not `inputs.len()` of them). Without storm control the
/// gate and the report are skipped. Returns one outcome set per input.
pub(crate) fn pass(
    engine: &Engine,
    inputs: &[(&str, SimTime)],
    deadline: Option<Instant>,
) -> Vec<Vec<TeamOutcome>> {
    let entries = engine.registry.snapshot();
    let storm = engine.storm.as_deref();
    // Open teams are skipped inside dispatch (no catch_unwind, no predict).
    let skip: Vec<String> = storm.map_or_else(Vec::new, |s| {
        let gate_ms = s.now_ms();
        entries
            .iter()
            .filter(|e| s.gate(&e.team, gate_ms) == Gate::Reject)
            .map(|e| e.team.clone())
            .collect()
    });
    let outcome_sets = {
        let _span = obs::span!("fleet.dispatch");
        dispatch_over(
            &entries,
            &engine.monitoring_plane(),
            inputs,
            deadline,
            &engine.fleet,
            &skip,
        )
    };
    // Every input saw the same per-team condition, so the first outcome
    // set speaks for the pass. Deadline and breaker-skip results say
    // nothing about the Scout itself, so they don't count.
    if let (Some(storm), Some(first)) = (storm, outcome_sets.first()) {
        let report_ms = storm.now_ms();
        for outcome in first {
            match &outcome.result {
                Ok(_) => storm.record_outcome(&outcome.team, true, report_ms),
                Err(ScoutError::Panicked) | Err(ScoutError::Injected) => {
                    storm.record_outcome(&outcome.team, false, report_ms)
                }
                Err(ScoutError::DeadlineExpired) | Err(ScoutError::BreakerOpen) => {}
            }
        }
    }
    outcome_sets
}

/// One queued low-severity routing request: incident text and creation
/// time.
pub(crate) type RouteRequest = (String, SimTime);

/// Stage 3 of storm control: start the Sev3 route coalescer. Incidents
/// that queued while the previous pass ran (up to [`MAX_BATCH`]) share one
/// [`pass`] — one `MonitoringSystem` build, one prepare per fingerprint
/// and one classify per Scout; an idle worker passes a lone incident at
/// once. Batching never changes bytes: outcome sets are bit-identical to
/// the same incidents passed one at a time, so the handler thread renders
/// exactly the response a direct fan-out gives.
pub(crate) fn start_route_coalescer(
    engine: Arc<Engine>,
) -> Coalescer<RouteRequest, Vec<TeamOutcome>> {
    let window = Window {
        thread: "serve-stormroute",
        span: "storm.route.batch",
        occupancy: "storm.batch.occupancy",
        queue_wait: "storm.batch.queue_wait_ms",
        batch_size: MAX_BATCH,
    };
    Coalescer::start(
        window,
        move |jobs: Vec<Job<RouteRequest, Vec<TeamOutcome>>>| {
            if jobs.len() > 1 {
                obs::counter("storm.batch.coalesced").add(jobs.len() as u64 - 1);
            }
            let inputs: Vec<(&str, SimTime)> = jobs
                .iter()
                .map(|j| (j.input.0.as_str(), j.input.1))
                .collect();
            // Per-job deadlines were checked when the batch started; the
            // pass itself runs undeadlined (Sev3 is the severity class
            // that tolerates queueing).
            let outcome_sets = pass(&engine, &inputs, None);
            debug_assert_eq!(outcome_sets.len(), jobs.len());
            for (job, outcomes) in jobs.into_iter().zip(outcome_sets) {
                job.answer(Ok(outcomes));
            }
        },
    )
}

/// One featurization group of a pass: the entries of the snapshot whose
/// Scouts share a [`scout::Scout::fingerprint`].
struct Group<'a> {
    /// First member in snapshot order: its Scout prepares for the group,
    /// through its cache.
    lead: &'a ModelEntry,
    /// Will any member classify?
    runnable: bool,
}

/// Why `entry` sits this pass out, if it does: open breaker, lapsed
/// deadline, injected fault — in that order.
fn gate(
    entry: &ModelEntry,
    lapsed: bool,
    config: &FleetConfig,
    skip: &[String],
) -> Option<ScoutError> {
    if skip.iter().any(|t| t == &entry.team) {
        obs::counter("fleet.scout.breaker_open").inc();
        return Some(ScoutError::BreakerOpen);
    }
    if lapsed {
        obs::counter("fleet.scout.deadline_expired").inc();
        return Some(ScoutError::DeadlineExpired);
    }
    if config.fails(&entry.team) {
        obs::counter("fleet.scout.injected_failure").inc();
        return Some(ScoutError::Injected);
    }
    None
}

/// Classify the group's corpus with one team's Scout, with the deadline
/// re-checked at the team's turn and panics contained to the team. A
/// missing corpus is a panicked prepare. Always returns exactly `n`
/// results, one per input.
fn classify_isolated(
    entry: &ModelEntry,
    corpus: Option<&PreparedCorpus>,
    monitoring: &MonitoringSystem<'_>,
    n: usize,
    deadline: Option<Instant>,
) -> Vec<Result<Answer, ScoutError>> {
    if deadline.is_some_and(|d| Instant::now() >= d) {
        obs::counter("fleet.scout.deadline_expired").inc();
        return vec![Err(ScoutError::DeadlineExpired); n];
    }
    let predictions = corpus.and_then(|corpus| {
        catch_unwind(AssertUnwindSafe(|| {
            entry.scout.classify(corpus, monitoring, None)
        }))
        .ok()
    });
    match predictions {
        Some(predictions) => {
            debug_assert_eq!(predictions.len(), n);
            predictions
                .into_iter()
                .map(|prediction| {
                    Ok(Answer {
                        team: entry.team.clone(),
                        model_version: entry.version,
                        prediction,
                    })
                })
                .collect()
        }
        None => {
            obs::counter("fleet.scout.panicked").inc();
            vec![Err(ScoutError::Panicked); n]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in [1, 2, 4, 7, 64] {
            for team in ["PhyNet", "Storage", "DNS", "PhyNet-13", "x"] {
                let s = shard_of(team, shards);
                assert!(s < shards, "{team}@{shards} -> {s}");
                assert_eq!(s, shard_of(team, shards), "unstable for {team}@{shards}");
            }
        }
        assert_eq!(shard_of("anything", 0), 0);
        assert_eq!(shard_of("anything", 1), 0);
    }

    #[test]
    fn shard_of_spreads_a_fleet() {
        // 128 synthetic team names over 8 shards: every shard gets work
        // and no shard hoards the fleet.
        let shards = 8;
        let mut counts = vec![0usize; shards];
        let graph = cloudsim::DependencyGraph::synthetic_fleet(128);
        for team in graph.team_names() {
            counts[shard_of(team, shards)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "empty shard: {counts:?}");
        assert!(
            counts.iter().all(|&c| c < 128 / 2),
            "hoarding shard: {counts:?}"
        );
    }

    #[test]
    fn rendezvous_is_monotone_under_shard_growth() {
        // Growing the shard count only ever moves teams to the *new*
        // shards — the rendezvous property that keeps warm caches warm.
        let graph = cloudsim::DependencyGraph::synthetic_fleet(64);
        for team in graph.team_names() {
            let before = shard_of(team, 4);
            let after = shard_of(team, 6);
            assert!(
                after == before || after >= 4,
                "{team}: moved {before} -> {after} among surviving shards"
            );
        }
    }

    #[test]
    fn shared_hashes_keep_parent_commit_assignments_and_fingerprints() {
        // Golden values captured before `splitmix64`/`fnv1a` moved to
        // `obs::hash`: shard placement and dedup fingerprints are wire-
        // and cache-visible, so the one shared copy must reproduce them.
        let graph = cloudsim::DependencyGraph::synthetic_fleet(128);
        let teams: Vec<&str> = graph.team_names().collect();
        assert_eq!(teams.len(), 128);
        let golden: [(usize, u64, [usize; 12]); 4] = [
            (2, 8140628479476655337, [0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1]),
            (
                4,
                16089432731714047196,
                [2, 2, 2, 0, 3, 0, 0, 1, 3, 2, 3, 2],
            ),
            (
                7,
                16652460516483871395,
                [5, 2, 6, 6, 4, 0, 4, 4, 6, 2, 4, 2],
            ),
            (
                64,
                5276025386382752396,
                [50, 60, 38, 40, 57, 15, 19, 38, 15, 34, 49, 40],
            ),
        ];
        for (shards, checksum, head) in golden {
            let assigned: Vec<usize> = teams.iter().map(|t| shard_of(t, shards)).collect();
            assert_eq!(assigned[..12], head, "first teams at {shards} shards");
            let folded = assigned
                .iter()
                .fold(0u64, |acc, &s| acc.wrapping_mul(31).wrapping_add(s as u64));
            assert_eq!(folded, checksum, "all 128 teams at {shards} shards");
        }

        let long = format!("alpha {} beta", "x".repeat(200));
        let corpus: [(&str, &str, u64); 7] = [
            (
                "Switch agg-3 in c1.dc1 CRC errors, retry 17",
                "netmon",
                0x391d_8489_1c0f_987c,
            ),
            (
                "SWITCH   agg-3 in c1/dc1 CRC errors; retry 9821",
                "NetMon",
                0x391d_8489_1c0f_987c,
            ),
            (
                "Packet drops near tor-3.c2.dc1 in c2.dc1",
                "default",
                0x3643_9f5b_c948_9a6e,
            ),
            ("", "", 0xef81_83df_9be9_5d51),
            (
                "VM vm-1093 unreachable: storage latency on cluster c4.dc2 above 250ms",
                "syslog",
                0xb496_c8c7_f93a_5198,
            ),
            (
                "DNS resolution failures for *.svc.internal (SERVFAIL) since 12:04:55",
                "dnsmon",
                0x0fe7_9a9d_ede0_6f92,
            ),
            (&long, "s", 0x5712_91a7_dafa_6c22),
        ];
        for (text, source, fp) in corpus {
            assert_eq!(storm::fingerprint(text, source), fp, "{text:?}/{source:?}");
        }
    }

    #[test]
    fn config_fail_list_is_case_insensitive() {
        let config = FleetConfig {
            shards: 2,
            suggestions: 3,
            fail_teams: vec!["phynet".into()],
        };
        assert!(config.fails("PhyNet"));
        assert!(!config.fails("Storage"));
    }
}
