//! The seeded traffic generators for the four mixes.
//!
//! Every stream is a pure function of `(world, seed, position)`: the same
//! seed yields a byte-identical request stream however many client
//! threads pull from it, and the server only ever sees the generated
//! bytes. The world and the models are fixed elsewhere; the seed decides
//! which incidents fire, at which simulated times, with which tickets and
//! perturbations, and in which order.

use cloudsim::{SimTime, Team};
use incident::Workload;
use obs::json::Obj;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Alerts per second of the open-loop storm schedule.
pub const STORM_RATE_PER_S: u64 = 200;
/// A novel root fires every this many alerts (2% of the schedule).
const STORM_ROOT_EVERY: u64 = 50;
/// How many roots keep re-firing at any time.
const STORM_LIVE_ROOTS: u64 = 4;
/// A root starts re-firing this many roots (× 250 ms) after it fired.
const STORM_HEAD_START: u64 = 2;
/// Roots that fire alone, 250 ms apart, before the schedule proper, so
/// that from its first alert on there are four roots old enough to
/// re-fire. They take the first 1.25 s of the warm-up.
const STORM_PROLOGUE_ROOTS: u64 = STORM_LIVE_ROOTS + STORM_HEAD_START - 1;
/// Alert sources of the storm: a root's monitor is `root % 8`, so the
/// four live roots keep four of them at a quarter of the schedule each
/// (49/s, under the default 50/s token bucket) while the other four rest.
const STORM_SOURCES: u64 = 8;
/// Distinct alert sources of the closed-loop routing mix.
const FLEET_SOURCES: u64 = 16;
/// Distinct predict bodies the warm mix cycles through.
pub const WARM_BODIES: usize = 64;
/// Distinct incidents the closed-loop routing mix cycles through: few
/// enough that two callers on two cores finish a whole cycle inside the
/// 3 s warm-up, so the measured window is steady state.
pub const FLEET_INCIDENTS: usize = 48;
/// Distinct incidents behind the storm's roots. Every root is a new
/// alert (its ticket gives it a fingerprint of its own) about one of
/// these: the 32 feature caches have seen them all by the end of the
/// warm-up. A storm of never-seen incidents grows each cache by ~670
/// chunks per root, and all 32 hash maps double on the same request —
/// a 0.6–1.5 s fan-out every few dozen roots on this machine, which
/// stalls an arrival schedule outright instead of loading it.
const STORM_INCIDENTS: usize = 10;

/// The four traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    PredictWarm,
    PredictColdWal,
    RouteFleet32,
    RouteStorm,
}

impl Mix {
    pub const ALL: [Mix; 4] = [
        Mix::PredictWarm,
        Mix::PredictColdWal,
        Mix::RouteFleet32,
        Mix::RouteStorm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Mix::PredictWarm => "predict_warm",
            Mix::PredictColdWal => "predict_cold_wal",
            Mix::RouteFleet32 => "route_fleet32",
            Mix::RouteStorm => "route_storm",
        }
    }

    pub fn parse(name: &str) -> Option<Mix> {
        Mix::ALL.into_iter().find(|m| m.name() == name)
    }

    pub fn is_route(self) -> bool {
        matches!(self, Mix::RouteFleet32 | Mix::RouteStorm)
    }

    /// The endpoint this mix posts to.
    pub fn path(self) -> &'static str {
        if self.is_route() {
            "/v1/route"
        } else {
            "/v1/scouts/PhyNet/predict"
        }
    }
}

/// Where a storm firing stands relative to its root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormRole {
    /// Index of the root incident this firing belongs to.
    pub root: u64,
    /// The root's own, first firing: dedup has never seen its
    /// fingerprint, so it pays a fan-out.
    pub first: bool,
}

/// One generated request, with the ground truth the oracle needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Firing {
    pub text: String,
    pub time: SimTime,
    /// Alert source and severity (`/v1/route` only).
    pub source: Option<String>,
    pub severity: Option<u64>,
    /// Index into `world.incidents` of the incident behind this firing.
    pub incident: usize,
    pub storm: Option<StormRole>,
}

impl Firing {
    /// The JSON request body.
    pub fn body(&self) -> String {
        let mut obj = Obj::new()
            .str("text", &self.text)
            .uint("time_minutes", self.time.0);
        if let Some(source) = &self.source {
            obj = obj.str("source", source);
        }
        if let Some(severity) = self.severity {
            obj = obj.uint("severity", severity);
        }
        obj.finish()
    }
}

/// The bytes `serve::Client` puts on the wire for a JSON `POST`.
pub fn frame(path: &str, host: &str, body: &str) -> Vec<u8> {
    let mut bytes = format!(
        "POST {path} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\nContent-Type: application/json\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// A seeded request stream over one world.
pub struct Traffic<'w> {
    mix: Mix,
    seed: u64,
    world: &'w Workload,
    /// Incident indices the mix draws from, in drawing order.
    picks: Vec<usize>,
    horizon_minutes: u64,
    /// Step between consecutive cold-path times: coprime with the
    /// horizon, so no `(text, time)` pair repeats within one horizon's
    /// worth of requests, and near the golden ratio of it, so consecutive
    /// requests land far apart.
    time_stride: u64,
    time_offset: u64,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl<'w> Traffic<'w> {
    pub fn new(mix: Mix, world: &'w Workload, seed: u64) -> Traffic<'w> {
        assert!(!world.incidents.is_empty(), "the world has no incidents");
        // *Which* incidents a mix draws from never depends on the seed —
        // an evenly strided sample of the world for the cycling mixes, the
        // whole world in one fixed shuffle for the cold one — so accuracy
        // against ground truth is a property of the models, not of the
        // draw. The seed decides order, times, tickets and perturbations.
        let n = world.incidents.len();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5c0_07be);
        let strided = |count: usize| -> Vec<usize> {
            let count = count.min(n);
            (0..count).map(|k| k * n / count).collect()
        };
        let picks = match mix {
            Mix::PredictWarm | Mix::RouteFleet32 => {
                let mut picks = strided(if mix == Mix::PredictWarm {
                    WARM_BODIES
                } else {
                    FLEET_INCIDENTS
                });
                picks.shuffle(&mut rng);
                picks
            }
            Mix::RouteStorm => strided(STORM_INCIDENTS),
            Mix::PredictColdWal => {
                let mut picks: Vec<usize> = (0..n).collect();
                picks.shuffle(&mut SmallRng::seed_from_u64(0x5c0_07be));
                picks
            }
        };
        let horizon_minutes = world.config.faults.horizon.0.max(2);
        let mut time_stride = (horizon_minutes as f64 * 0.618_033_988_749_895) as u64;
        while gcd(time_stride.max(1), horizon_minutes) != 1 {
            time_stride += 1;
        }
        Traffic {
            mix,
            seed,
            world,
            picks,
            horizon_minutes,
            time_stride: time_stride.max(1),
            time_offset: rng.gen_range(0..horizon_minutes),
        }
    }

    pub fn mix(&self) -> Mix {
        self.mix
    }

    /// When position `i` is due, in nanoseconds after the stream starts
    /// (open-loop mixes only).
    pub fn due_ns(&self, i: u64) -> Option<u64> {
        let interval = 1_000_000_000 / STORM_RATE_PER_S;
        (self.mix == Mix::RouteStorm).then(|| {
            let prologue = i.min(STORM_PROLOGUE_ROOTS) * STORM_ROOT_EVERY * interval;
            prologue + i.saturating_sub(STORM_PROLOGUE_ROOTS) * interval
        })
    }

    /// The ground-truth owner of the incident behind `firing`.
    pub fn owner(&self, firing: &Firing) -> Team {
        self.world.incidents[firing.incident].owner
    }

    /// A generator private to `(seed, stream, position)`.
    fn rng_at(&self, stream: u64, i: u64) -> SmallRng {
        SmallRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
                .wrapping_add(i),
        )
    }

    /// The request at stream position `i`.
    pub fn firing(&self, i: u64) -> Firing {
        match self.mix {
            Mix::PredictWarm => {
                let incident = self.picks[i as usize % self.picks.len()];
                let inc = &self.world.incidents[incident];
                Firing {
                    text: inc.text(),
                    time: inc.created_at,
                    source: None,
                    severity: None,
                    incident,
                    storm: None,
                }
            }
            Mix::PredictColdWal => {
                let incident = self.picks[i as usize % self.picks.len()];
                let minutes =
                    (self.time_offset + i.wrapping_mul(self.time_stride)) % self.horizon_minutes;
                Firing {
                    text: self.world.incidents[incident].text(),
                    time: SimTime(minutes),
                    source: None,
                    severity: None,
                    incident,
                    storm: None,
                }
            }
            Mix::RouteFleet32 => {
                let incident = self.picks[i as usize % self.picks.len()];
                let inc = &self.world.incidents[incident];
                Firing {
                    text: format!("{}\nticket {}", inc.text(), self.ticket(2, i)),
                    time: inc.created_at,
                    source: Some(format!("monitor-{:02}", i % FLEET_SOURCES)),
                    severity: Some(2),
                    incident,
                    storm: None,
                }
            }
            Mix::RouteStorm => self.storm_firing(i),
        }
    }

    /// A ticket token unique to `(stream, i)`: letters only, so it
    /// survives `storm::normalize` (which drops digits and one-letter
    /// tokens) and no two firings share a dedup fingerprint.
    fn ticket(&self, stream: u64, i: u64) -> String {
        let mut rng = self.rng_at(stream, i);
        let mut token = String::from("tk");
        let mut n = i;
        for _ in 0..6 {
            token.push((b'a' + (n % 26) as u8) as char);
            n /= 26;
        }
        for _ in 0..6 {
            token.push((b'a' + rng.gen_range(0..26u8)) as char);
        }
        token
    }

    /// The stream position of root `root`'s own firing.
    pub fn storm_root_position(root: u64) -> u64 {
        if root < STORM_PROLOGUE_ROOTS {
            root
        } else {
            STORM_PROLOGUE_ROOTS + (root - STORM_PROLOGUE_ROOTS) * STORM_ROOT_EVERY
        }
    }

    /// The newest root that has fired by stream position `i`.
    pub fn storm_current_root(i: u64) -> u64 {
        if i < STORM_PROLOGUE_ROOTS {
            i
        } else {
            STORM_PROLOGUE_ROOTS + (i - STORM_PROLOGUE_ROOTS) / STORM_ROOT_EVERY
        }
    }

    /// The storm schedule. A prologue of roots firing alone, then 200
    /// alerts a second of which every 50th is a novel root (2%) and the
    /// rest re-fire, with cosmetic damage and from the root's own
    /// monitor, one of the four roots that are two to five roots old. A
    /// duplicate that arrives while its original is still in flight pays
    /// a full fan-out of its own, and each such leak delays the next
    /// original: the 500 ms head start keeps that feedback loop out of a
    /// healthy run. Every fourth root is a Sev3 ticket that goes through
    /// the route coalescer.
    fn storm_firing(&self, i: u64) -> Firing {
        let current = Traffic::storm_current_root(i);
        let role = if i == Traffic::storm_root_position(current) {
            StormRole {
                root: current,
                first: true,
            }
        } else {
            let mut rng = self.rng_at(3, i);
            StormRole {
                root: current - STORM_HEAD_START - rng.gen_range(0..STORM_LIVE_ROOTS),
                first: false,
            }
        };
        let incident = self.picks[role.root as usize % self.picks.len()];
        let inc = &self.world.incidents[incident];
        let base = format!("{}\nticket {}", inc.text(), self.ticket(5, role.root));
        let text = if role.first {
            base
        } else {
            perturb(&base, &mut self.rng_at(6, i))
        };
        Firing {
            text,
            time: inc.created_at,
            source: Some(format!("monitor-{}", role.root % STORM_SOURCES)),
            severity: Some(if role.root % 4 == 3 { 3 } else { 2 }),
            incident,
            storm: Some(role),
        }
    }
}

/// A cosmetic re-firing of `text`: case flips, punctuation and digit
/// debris — the variation `storm::fingerprint` is built to erase.
fn perturb(text: &str, rng: &mut SmallRng) -> String {
    match rng.gen_range(0..4u32) {
        0 => text.to_string(),
        1 => format!(
            "{} {}",
            text.to_ascii_uppercase(),
            rng.gen_range(100_000..999_999u32)
        ),
        2 => format!(
            "{}!! (#{})",
            text.to_ascii_lowercase(),
            rng.gen_range(1..9_999u32)
        ),
        _ => format!(
            "[{:02}:{:02}:{:02}] {}",
            rng.gen_range(0..24u32),
            rng.gen_range(0..60u32),
            rng.gen_range(0..60u32),
            text.replace(", ", " ; ")
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::generate_world;
    use std::collections::{BTreeMap, BTreeSet};

    fn bodies(t: &Traffic<'_>, n: u64) -> Vec<String> {
        (0..n).map(|i| t.firing(i).body()).collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let world = generate_world(20);
        for mix in Mix::ALL {
            let a = bodies(&Traffic::new(mix, &world, 1), 600);
            assert_eq!(a, bodies(&Traffic::new(mix, &world, 1), 600), "{mix:?}");
            assert_ne!(a, bodies(&Traffic::new(mix, &world, 2), 600), "{mix:?}");
        }
    }

    #[test]
    fn cold_stream_never_repeats_a_text_time_pair() {
        let world = generate_world(20);
        let t = Traffic::new(Mix::PredictColdWal, &world, 3);
        let horizon = world.config.faults.horizon.0;
        let mut seen = BTreeSet::new();
        for i in 0..horizon.min(20_000) {
            let f = t.firing(i);
            assert!(f.time.0 < horizon);
            assert!(seen.insert(f.time.0), "time repeated at position {i}");
        }
    }

    #[test]
    fn fleet_firings_never_share_a_fingerprint() {
        let world = generate_world(20);
        let t = Traffic::new(Mix::RouteFleet32, &world, 4);
        let mut seen = BTreeSet::new();
        for i in 0..5_000 {
            let f = t.firing(i);
            let fp = storm::fingerprint(&f.text, f.source.as_deref().unwrap());
            assert!(seen.insert(fp), "fingerprint collision at position {i}");
        }
    }

    #[test]
    fn storm_refirings_collide_with_their_root_and_roots_stay_apart() {
        let world = generate_world(20);
        let t = Traffic::new(Mix::RouteStorm, &world, 5);
        let mut roots: BTreeMap<u64, u64> = BTreeMap::new();
        let mut fingerprints = BTreeSet::new();
        let mut sev3 = 0u64;
        let n = 6_000u64;
        for i in 0..n {
            let f = t.firing(i);
            let role = f.storm.unwrap();
            let fp = storm::fingerprint(&f.text, f.source.as_deref().unwrap());
            if role.first {
                assert_eq!(Traffic::storm_root_position(role.root), i);
                assert!(fingerprints.insert(fp), "two roots collide at {i}");
                roots.insert(role.root, fp);
                sev3 += (f.severity == Some(3)) as u64;
            } else {
                // Old enough that its decision is cached: two roots back.
                assert!(role.root + STORM_HEAD_START <= Traffic::storm_current_root(i));
                let original = roots
                    .get(&role.root)
                    .unwrap_or_else(|| panic!("position {i} re-fires an unseen root"));
                assert_eq!(
                    *original, fp,
                    "re-firing at {i} lost its root's fingerprint"
                );
            }
        }
        let scheduled = (n - STORM_PROLOGUE_ROOTS).div_ceil(STORM_ROOT_EVERY);
        assert_eq!(roots.len() as u64, STORM_PROLOGUE_ROOTS + scheduled);
        assert_eq!(sev3, roots.len() as u64 / 4);
    }

    #[test]
    fn storm_sources_stay_under_the_default_token_bucket() {
        let world = generate_world(20);
        let t = Traffic::new(Mix::RouteStorm, &world, 6);
        let config = storm::ThrottleConfig::default();
        let rate = config.rate_per_sec as u64;
        let mut throttle = storm::SourceThrottle::new(config);
        let mut per_source: BTreeMap<String, u64> = BTreeMap::new();
        let mut previous_due = 0;
        for i in 0..6_000 {
            let due_ms = t.due_ns(i).unwrap() / 1_000_000;
            assert!(due_ms >= previous_due, "the schedule runs backwards at {i}");
            previous_due = due_ms;
            let source = t.firing(i).source.unwrap();
            // On schedule, the bucket never refuses: a 429 is a failure of
            // the server, not policy at work.
            assert!(
                throttle.try_acquire(&source, due_ms).is_ok(),
                "position {i} throttled"
            );
            *per_source.entry(source).or_default() += 1;
        }
        assert_eq!(per_source.len() as u64, STORM_SOURCES);
        // A source is live for four roots in eight: half the time at a
        // quarter of the schedule, so well under the refill rate overall.
        let seconds = previous_due / 1000;
        let busiest = per_source.values().max().unwrap();
        assert!(busiest / seconds < rate, "{busiest} alerts in {seconds} s");
    }
}
