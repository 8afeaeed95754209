//! The shared traffic-shaping core behind `scoutctl stormgen` and
//! `scoutctl fleetgen --storm`.
//!
//! A [`StormPlan`] is a deterministic, replayable request schedule
//! against a fleet server's `/v1/route`: each [`cloudsim::StormScenario`]
//! turns a storm-shaped fault schedule (from
//! [`cloudsim::FaultCatalog::generate_storm`]) into concrete shots —
//! alert text, source, wire severity, simulated time — plus, for the
//! deprecation scenario, the mid-stream control action itself.
//!
//! Near-duplicate amplification only applies perturbations the storm
//! layer's fingerprint normalization is *defined* to erase: case flips,
//! punctuation churn, and appended digit runs (timestamps, retry
//! counters). Anything else would turn a duplicate storm into distinct
//! incidents and silently stop exercising the dedup stage.

use cloudsim::{FaultCatalog, Severity, StormScenario, StormScheduleConfig};
use incident::Workload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Whether a shot is part of the storm or the background control group
/// (the traffic whose latency must stay inside the SLO while the storm
/// rages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShotKind {
    /// Storm traffic: duplicates, gray drizzle, cascade firings.
    Storm,
    /// Well-behaved background traffic, unique per shot.
    Background,
}

/// One `/v1/route` request in the plan.
#[derive(Debug, Clone)]
pub struct RouteShot {
    /// Alert text (possibly a near-duplicate rendering).
    pub text: String,
    /// Alert source, the throttle and dedup key component.
    pub source: String,
    /// Wire severity (1 = highest, 3 = lowest).
    pub severity: u8,
    /// Simulated incident time, minutes since epoch.
    pub time_minutes: u64,
    /// Storm or background.
    pub kind: ShotKind,
}

impl RouteShot {
    /// The `/v1/route` request body for this shot.
    pub fn body(&self) -> String {
        obs::json::Obj::new()
            .str("text", &self.text)
            .str("source", &self.source)
            .uint("severity", self.severity as u64)
            .uint("time_minutes", self.time_minutes)
            .finish()
    }
}

/// One step of the plan, in replay order.
#[derive(Debug, Clone)]
pub enum PlanAction {
    /// POST `/v1/route`.
    Route(RouteShot),
    /// POST `/v1/monitoring/deprecate` — the mid-stream sensor loss.
    Deprecate {
        /// Data-set name (`monitoring::Dataset::name`).
        dataset: String,
    },
}

/// A fully materialized storm workload.
#[derive(Debug)]
pub struct StormPlan {
    /// The scenario this plan realizes.
    pub scenario: StormScenario,
    /// Shots and control actions, in replay order.
    pub actions: Vec<PlanAction>,
}

impl StormPlan {
    /// The `/v1/route` shots, in replay order (control actions skipped).
    pub fn route_shots(&self) -> impl Iterator<Item = &RouteShot> {
        self.actions.iter().filter_map(|a| match a {
            PlanAction::Route(shot) => Some(shot),
            PlanAction::Deprecate { .. } => None,
        })
    }

    /// Number of `/v1/route` shots (excludes control actions).
    pub fn shot_count(&self) -> usize {
        self.route_shots().count()
    }
}

/// Plan-shaping knobs.
#[derive(Debug, Clone)]
pub struct StormTrafficConfig {
    /// Scenario to realize.
    pub scenario: StormScenario,
    /// Near-duplicate firings per duplicate-burst root (the "100x").
    pub amplification: usize,
    /// Background (non-storm) shots interleaved through the plan.
    pub background: usize,
    /// Distinct alert sources the storm traffic fans out from.
    pub sources: usize,
    /// Root faults per scenario.
    pub roots: usize,
    /// Determinism seed.
    pub seed: u64,
    /// Data set to deprecate mid-plan (deprecation scenario only).
    pub deprecate_dataset: String,
}

impl Default for StormTrafficConfig {
    fn default() -> Self {
        StormTrafficConfig {
            scenario: StormScenario::DuplicateBurst,
            amplification: 100,
            background: 40,
            sources: 3,
            roots: 3,
            seed: 42,
            deprecate_dataset: "snmp-syslog".to_string(),
        }
    }
}

/// Build the deterministic replay plan for `config` against `world`.
pub fn build_plan(world: &Workload, config: &StormTrafficConfig) -> StormPlan {
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x5702);
    let catalog = FaultCatalog::new(&world.topology);
    let storm_cfg = StormScheduleConfig {
        scenario: config.scenario,
        roots: config.roots.max(1),
        ..StormScheduleConfig::default()
    };
    let faults = {
        let mut frng = SmallRng::seed_from_u64(config.seed ^ 0x5702_FA17);
        catalog.generate_storm(&storm_cfg, move || frng.gen::<f64>())
    };

    // Template text per storm fault: an incident of the same kind from
    // the replayed trace (any incident as a last resort — a workload is
    // never empty when a server is up).
    let template_for = |fault: &cloudsim::Fault| -> String {
        world
            .incidents
            .iter()
            .find(|i| world.faults[i.fault_id as usize].kind == fault.kind)
            .or_else(|| world.incidents.first())
            .map(|i| i.text())
            .unwrap_or_else(|| format!("{} in fleet", fault.kind.slug()))
    };
    let sources = config.sources.max(1);
    let source_name = |n: usize| format!("watchdog-{}", n % sources);

    let mut storm_shots: Vec<RouteShot> = Vec::new();
    match config.scenario {
        StormScenario::DuplicateBurst => {
            // Each root refires `amplification` times as near-duplicates
            // from ONE source (dedup keys on (content, source)).
            for (fi, fault) in faults.iter().enumerate() {
                let template = template_for(fault);
                let source = source_name(fi);
                for k in 0..config.amplification.max(1) {
                    storm_shots.push(RouteShot {
                        text: perturb(&template, &mut rng),
                        source: source.clone(),
                        severity: wire_severity(fault.severity),
                        time_minutes: fault.start.0 + k as u64 / 10,
                        kind: ShotKind::Storm,
                    });
                }
            }
        }
        StormScenario::GrayFailure => {
            // Distinct low-severity incidents in a sustained drizzle:
            // every shot unique (throttle + Sev3 coalescing, not dedup).
            let per_fault = config.amplification.clamp(1, 50);
            for (fi, fault) in faults.iter().enumerate() {
                let template = template_for(fault);
                for k in 0..per_fault {
                    // A unique alpha token per shot keeps fingerprints
                    // distinct — this scenario must NOT dedup away.
                    let text = format!("{template}\nprobe window {}", unique_token(fi, k));
                    storm_shots.push(RouteShot {
                        text,
                        source: source_name(fi * per_fault + k),
                        severity: 3,
                        time_minutes: fault.start.0 + k as u64,
                        kind: ShotKind::Storm,
                    });
                }
            }
        }
        StormScenario::Cascade | StormScenario::Deprecation => {
            // One firing per fault, multi-team, in schedule order.
            let repeats = config.amplification.clamp(1, 20);
            for (fi, fault) in faults.iter().enumerate() {
                let template = template_for(fault);
                for k in 0..repeats {
                    let text = format!("{template}\nsymptom {}", unique_token(fi, k));
                    storm_shots.push(RouteShot {
                        text,
                        source: format!("monitor-{}", fault.owner.name().to_ascii_lowercase()),
                        severity: wire_severity(fault.severity),
                        time_minutes: fault.start.0 + k as u64,
                        kind: ShotKind::Storm,
                    });
                }
            }
        }
    }
    storm_shots.sort_by_key(|a| a.time_minutes);

    // Background control group: unique well-formed incidents from the
    // replayed trace, spread evenly through the storm.
    let background: Vec<RouteShot> = (0..config.background)
        .filter_map(|k| {
            let total = world.incidents.len();
            if total == 0 {
                return None;
            }
            let incident = &world.incidents[k * total / config.background.max(1)];
            Some(RouteShot {
                text: format!(
                    "{}\ncontrol {}",
                    incident.text(),
                    unique_token(usize::MAX, k)
                ),
                source: format!("background-{k}"),
                severity: 2,
                time_minutes: incident.created_at.0,
                kind: ShotKind::Background,
            })
        })
        .collect();

    // Interleave: a background shot every `stride` storm shots, then the
    // deprecation action (if any) at the midpoint.
    let mut actions: Vec<PlanAction> = Vec::with_capacity(storm_shots.len() + background.len() + 1);
    let stride = (storm_shots.len() / background.len().max(1)).max(1);
    let mut bg = background.into_iter();
    for (i, shot) in storm_shots.into_iter().enumerate() {
        if i % stride == 0 {
            if let Some(b) = bg.next() {
                actions.push(PlanAction::Route(b));
            }
        }
        actions.push(PlanAction::Route(shot));
    }
    for b in bg {
        actions.push(PlanAction::Route(b));
    }
    if config.scenario == StormScenario::Deprecation {
        let mid = actions.len() / 2;
        actions.insert(
            mid,
            PlanAction::Deprecate {
                dataset: config.deprecate_dataset.clone(),
            },
        );
    }
    StormPlan {
        scenario: config.scenario,
        actions,
    }
}

fn wire_severity(sev: Severity) -> u8 {
    match sev {
        Severity::Sev1 => 1,
        Severity::Sev2 => 2,
        Severity::Sev3 => 3,
    }
}

/// A unique, purely alphabetic token for (group, index) — stable, and a
/// *content* change under fingerprint normalization.
fn unique_token(group: usize, k: usize) -> String {
    let mut n = group.wrapping_mul(7919).wrapping_add(k).wrapping_mul(2) + 1;
    let mut out = String::from("uq");
    for _ in 0..8 {
        out.push((b'a' + (n % 26) as u8) as char);
        n /= 26;
    }
    out
}

/// A near-duplicate rendering of `text`: random case flips, punctuation
/// churn, and appended digit runs — exactly the perturbations the dedup
/// fingerprint normalizes away.
fn perturb(text: &str, rng: &mut SmallRng) -> String {
    let mut out = String::with_capacity(text.len() + 16);
    for ch in text.chars() {
        if ch.is_ascii_alphabetic() && rng.gen_bool(0.3) {
            if ch.is_ascii_lowercase() {
                out.push(ch.to_ascii_uppercase());
            } else {
                out.push(ch.to_ascii_lowercase());
            }
        } else if (ch == ' ' || ch == ',') && rng.gen_bool(0.2) {
            out.push_str(" - ");
        } else {
            out.push(ch);
        }
    }
    // Firing debris: a retry counter and a timestamp-ish digit run.
    out.push_str(&format!(
        " {} {}",
        rng.gen_range(0u32..1_000_000),
        rng.gen_range(0u32..86_400)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use incident::WorkloadConfig;
    use std::sync::OnceLock;

    fn world() -> &'static Workload {
        static WORLD: OnceLock<Workload> = OnceLock::new();
        WORLD.get_or_init(|| Workload::generate(WorkloadConfig::small(7)))
    }

    #[test]
    fn plans_are_deterministic() {
        let cfg = StormTrafficConfig::default();
        let a = build_plan(world(), &cfg);
        let b = build_plan(world(), &cfg);
        assert_eq!(a.actions.len(), b.actions.len());
        for (x, y) in a.actions.iter().zip(&b.actions) {
            match (x, y) {
                (PlanAction::Route(x), PlanAction::Route(y)) => {
                    assert_eq!(x.text, y.text);
                    assert_eq!(x.source, y.source);
                }
                (PlanAction::Deprecate { dataset: x }, PlanAction::Deprecate { dataset: y }) => {
                    assert_eq!(x, y)
                }
                _ => panic!("plans disagree on action kind"),
            }
        }
    }

    #[test]
    fn duplicate_burst_amplifies_with_normalization_invariant_perturbations() {
        let cfg = StormTrafficConfig {
            amplification: 25,
            background: 5,
            ..StormTrafficConfig::default()
        };
        let plan = build_plan(world(), &cfg);
        let storm: Vec<&RouteShot> = plan
            .actions
            .iter()
            .filter_map(|a| match a {
                PlanAction::Route(s) if s.kind == ShotKind::Storm => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(storm.len(), 25 * cfg.roots);
        // All firings of one (source) collapse to few fingerprints: the
        // perturbations must be invisible to normalization.
        let fps: std::collections::BTreeSet<u64> = storm
            .iter()
            .map(|s| storm::fingerprint(&s.text, &s.source))
            .collect();
        assert!(
            fps.len() <= cfg.roots,
            "{} fingerprints from {} roots — perturbation leaked content",
            fps.len(),
            cfg.roots
        );
    }

    #[test]
    fn gray_failure_shots_stay_distinct_and_low_severity() {
        let cfg = StormTrafficConfig {
            scenario: StormScenario::GrayFailure,
            amplification: 10,
            background: 0,
            ..StormTrafficConfig::default()
        };
        let plan = build_plan(world(), &cfg);
        let mut fps = std::collections::BTreeSet::new();
        for action in &plan.actions {
            if let PlanAction::Route(s) = action {
                assert_eq!(s.severity, 3);
                assert!(
                    fps.insert(storm::fingerprint(&s.text, &s.source)),
                    "gray shots must not collide"
                );
            }
        }
    }

    #[test]
    fn deprecation_plan_contains_the_control_action_mid_stream() {
        let cfg = StormTrafficConfig {
            scenario: StormScenario::Deprecation,
            ..StormTrafficConfig::default()
        };
        let plan = build_plan(world(), &cfg);
        let pos = plan
            .actions
            .iter()
            .position(|a| matches!(a, PlanAction::Deprecate { .. }))
            .expect("deprecation plan has a Deprecate action");
        assert!(
            pos > 0 && pos < plan.actions.len() - 1,
            "mid-stream, not at an edge"
        );
    }
}
