//! The monitoring query engine: windowed, per-device telemetry views.
//!
//! `MonitoringSystem` answers the only two questions a Scout asks (§5.1):
//! "give me the time series for data set D on device X over `[t-T, t]`" and
//! "give me the events". Values are generated on demand from the healthy
//! baseline + deterministic noise + active fault signatures.

use crate::dataset::{DataType, Dataset};
use crate::noise;
use crate::signature::{signature, EffectTarget};
use cloudsim::{ComponentId, ComponentKind, Fault, FaultScope, SimDuration, SimTime, Topology};
use obs::hash::splitmix64;
use std::collections::HashMap;
use std::sync::Arc;

/// Telemetry sampling interval: one sample every five minutes, so the
/// paper's two-hour look-back window `[t-2h, t]` yields 25 samples per
/// series (both edges inclusive — the sample at the incident minute `t`
/// is the freshest, most diagnostic one and must be part of the window).
pub const SAMPLE_INTERVAL: SimDuration = SimDuration(5);

/// The sample steps covered by the **inclusive** window `[start, end]`:
/// every step `s` with `start <= s * SAMPLE_INTERVAL <= end`. Mid-step
/// edges round inward (the first sample is the first one at or after
/// `start`; the last is the last one at or before `end`), so a window
/// narrower than one interval that straddles no sample point is empty.
///
/// This is the single boundary convention for the whole monitoring
/// plane: [`MonitoringSystem::series`], [`MonitoringSystem::events`],
/// and cached chunk generation all iterate exactly this range, which is
/// what makes cached and uncached featurization bit-identical.
pub fn window_steps(window: (SimTime, SimTime)) -> std::ops::Range<u64> {
    let step_len = SAMPLE_INTERVAL.as_minutes();
    let first = window.0.minutes().div_ceil(step_len);
    let last_excl = window.1.minutes() / step_len + 1;
    first..last_excl.max(first)
}

/// One event occurrence in an event-typed data set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// When the event fired.
    pub time: SimTime,
    /// Index into the data set's event vocabulary.
    pub kind: u8,
}

/// Configuration for a [`MonitoringSystem`].
#[derive(Debug, Clone, Default)]
pub struct MonitoringConfig {
    /// Noise seed: different seeds give statistically identical fleets.
    pub seed: u64,
    /// Deprecated data sets (Fig. 9's experiment): queries on them return
    /// nothing, as if the system were turned off.
    pub disabled: Vec<Dataset>,
}

/// What a plane derives from its topology, fault schedule and
/// configuration: the per-cluster fault index and the epoch hash over
/// all three. Worth keeping when many short-lived planes are opened over
/// one world — a server opens one per batch — because only a
/// configuration change can alter it: build it once per live
/// configuration and open each plane with [`MonitoringSystem::over`].
#[derive(Debug)]
pub struct PlaneIndex {
    config: MonitoringConfig,
    /// Fault indices grouped by the cluster they manifest in.
    by_cluster: HashMap<ComponentId, Vec<usize>>,
    /// Content fingerprint of everything telemetry depends on (seed,
    /// disabled data sets, fault schedule, topology shape). Two planes
    /// with the same epoch generate identical telemetry, so the epoch is
    /// the cache-invalidation key for `featcache` chunks.
    epoch: u64,
}

impl PlaneIndex {
    /// Index `faults` and fingerprint the plane `config` describes over
    /// `topo`.
    pub fn build(topo: &Topology, faults: &[Fault], config: MonitoringConfig) -> PlaneIndex {
        let _span = obs::span!("monitoring.system.build");
        let mut by_cluster: HashMap<ComponentId, Vec<usize>> = HashMap::new();
        for (i, f) in faults.iter().enumerate() {
            by_cluster.entry(f.scope.cluster()).or_default().push(i);
        }
        let epoch = fingerprint(topo, faults, &config);
        PlaneIndex {
            config,
            by_cluster,
            epoch,
        }
    }

    /// The configuration this index was built for.
    pub fn config(&self) -> &MonitoringConfig {
        &self.config
    }
}

/// The fleet's monitoring plane.
///
/// Borrows the topology and the ground-truth fault schedule; generates
/// telemetry windows on demand.
#[derive(Debug)]
pub struct MonitoringSystem<'a> {
    topo: &'a Topology,
    faults: &'a [Fault],
    /// `index.config.seed`, copied out: the per-sample loops hash it into
    /// every value and should not chase a pointer for it.
    seed: u64,
    index: Arc<PlaneIndex>,
}

impl<'a> MonitoringSystem<'a> {
    /// Build the monitoring plane over `topo` with the given fault schedule.
    pub fn new(
        topo: &'a Topology,
        faults: &'a [Fault],
        config: MonitoringConfig,
    ) -> MonitoringSystem<'a> {
        let index = PlaneIndex::build(topo, faults, config);
        MonitoringSystem::over(topo, faults, Arc::new(index))
    }

    /// Open a plane on an index already built by [`PlaneIndex::build`]
    /// from this same `topo` and `faults` (checked in debug builds).
    /// Identical to [`MonitoringSystem::new`] with the index's
    /// configuration, minus the work of deriving it.
    pub fn over(
        topo: &'a Topology,
        faults: &'a [Fault],
        index: Arc<PlaneIndex>,
    ) -> MonitoringSystem<'a> {
        debug_assert_eq!(
            index.epoch,
            fingerprint(topo, faults, &index.config),
            "plane index built over another world"
        );
        MonitoringSystem {
            topo,
            faults,
            seed: index.config.seed,
            index,
        }
    }

    /// The topology this plane instruments.
    pub fn topology(&self) -> &Topology {
        self.topo
    }

    /// The monitoring epoch: a content hash of seed, disabled data sets,
    /// fault schedule, and topology shape. Any change that could alter a
    /// generated value changes the epoch.
    pub fn epoch(&self) -> u64 {
        self.index.epoch
    }

    /// Is `dataset` currently deployed (not deprecated)?
    pub fn is_enabled(&self, dataset: Dataset) -> bool {
        !self.index.config.disabled.contains(&dataset)
    }

    /// Data sets currently deployed.
    pub fn enabled_datasets(&self) -> Vec<Dataset> {
        Dataset::ALL
            .into_iter()
            .filter(|&d| self.is_enabled(d))
            .collect()
    }

    /// The devices covered by `dataset` under `component` (inclusive).
    /// Mirrors the paper's component-association tags: a cluster mention
    /// resolves to "all data with the same cluster tag".
    pub fn covered_devices(&self, dataset: Dataset, component: ComponentId) -> Vec<ComponentId> {
        let c = self.topo.component(component);
        if dataset.covers(c.kind) {
            return vec![component];
        }
        self.topo
            .descendants(component)
            .into_iter()
            .filter(|&d| dataset.covers(self.topo.component(d).kind))
            .collect()
    }

    /// Can `series` queries ever return data for this (data set, device)
    /// pair? False when the data set is deprecated, event-typed, or does
    /// not cover the device's kind.
    pub fn series_available(&self, dataset: Dataset, device: ComponentId) -> bool {
        self.is_enabled(dataset)
            && dataset.data_type() == DataType::TimeSeries
            && dataset.covers(self.topo.component(device).kind)
    }

    /// The time-series window for `dataset` on `device` over the
    /// **inclusive** window `[start, end]` (see [`window_steps`]).
    ///
    /// Returns `None` when the data set is deprecated, event-typed, or does
    /// not cover the device's kind. Samples are ordered, one per
    /// [`SAMPLE_INTERVAL`].
    pub fn series(
        &self,
        dataset: Dataset,
        device: ComponentId,
        window: (SimTime, SimTime),
    ) -> Option<Vec<f64>> {
        self.series_steps(dataset, device, window_steps(window))
    }

    /// [`MonitoringSystem::series`] over an explicit sample-step range —
    /// the shared generation path for whole-window queries and
    /// `featcache` chunk generation. A step `s` is the sample at
    /// `SimTime(s * SAMPLE_INTERVAL)`.
    pub fn series_steps(
        &self,
        dataset: Dataset,
        device: ComponentId,
        steps: std::ops::Range<u64>,
    ) -> Option<Vec<f64>> {
        if !self.series_available(dataset, device) {
            return None;
        }
        let (mean, sd) = dataset.baseline();
        let cluster_off = self.cluster_offset(dataset, device) * sd;
        let active = self.relevant_faults(device, &steps);
        let step_len = SAMPLE_INTERVAL.as_minutes();
        let mut out = Vec::with_capacity((steps.end.saturating_sub(steps.start)) as usize);
        for step in steps {
            let t = SimTime(step * step_len);
            let h = noise::coord_hash(self.seed, dataset.index(), device.0, step);
            let mut v = mean + cluster_off + sd * noise::std_normal(h);
            // Mild diurnal swing on utilization-like series.
            if matches!(dataset, Dataset::CpuUsage | Dataset::Temperature) {
                let phase = (t.minutes() % 1440) as f64 / 1440.0 * std::f64::consts::TAU;
                v += 0.6 * sd * phase.sin();
            }
            for &fi in &active {
                let f = &self.faults[fi];
                if !f.active_at(t) {
                    continue;
                }
                for e in signature(f.kind) {
                    if e.dataset == dataset
                        && e.ts_shift_sigma != 0.0
                        && self.effect_applies(f, e.target, device)
                    {
                        v += e.ts_shift_sigma * sd;
                    }
                }
            }
            out.push(clamp(dataset, v));
        }
        Some(out)
    }

    /// The events for `dataset` on `device` over the **inclusive** window
    /// `[start, end]`, ordered by time. Empty when deprecated / not
    /// covering / series-typed.
    pub fn events(
        &self,
        dataset: Dataset,
        device: ComponentId,
        window: (SimTime, SimTime),
    ) -> Vec<Event> {
        self.events_steps(dataset, device, window_steps(window))
    }

    /// [`MonitoringSystem::events`] over an explicit sample-step range
    /// (see [`MonitoringSystem::series_steps`]).
    pub fn events_steps(
        &self,
        dataset: Dataset,
        device: ComponentId,
        steps: std::ops::Range<u64>,
    ) -> Vec<Event> {
        if !self.is_enabled(dataset)
            || dataset.data_type() != DataType::Event
            || !dataset.covers(self.topo.component(device).kind)
        {
            return Vec::new();
        }
        let active = self.relevant_faults(device, &steps);
        let step_len = SAMPLE_INTERVAL.as_minutes();
        let per_step = step_len as f64 / 60.0; // fraction of an hour
        let n_kinds = dataset.event_kinds().len() as u64;
        let mut out = Vec::new();
        for step in steps {
            let t = SimTime(step * step_len);
            // Background events: uniform over the vocabulary.
            let h = noise::coord_hash(self.seed ^ 0xEE, dataset.index(), device.0, step);
            let p_bg = dataset.background_event_rate() * per_step;
            if noise::uniform(h) < p_bg {
                let kind = (splitmix64(h) % n_kinds) as u8;
                out.push(Event { time: t, kind });
            }
            // Fault-driven events, per effect.
            for &fi in &active {
                let f = &self.faults[fi];
                if !f.active_at(t) {
                    continue;
                }
                for (ei, e) in signature(f.kind).iter().enumerate() {
                    if e.dataset == dataset
                        && e.event_rate > 0.0
                        && self.effect_applies(f, e.target, device)
                    {
                        let h2 = noise::coord_hash(
                            self.seed ^ (0xF0 + ei as u64),
                            dataset.index(),
                            device.0,
                            step,
                        );
                        if noise::uniform(h2) < (e.event_rate * per_step).min(1.0) {
                            out.push(Event {
                                time: t,
                                kind: e.event_kind,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Per-(data set, cluster) healthy baseline offset in σ units —
    /// "different clusters have different baseline latencies" (§3.3).
    fn cluster_offset(&self, dataset: Dataset, device: ComponentId) -> f64 {
        let c = self.topo.component(device);
        let anchor = c.cluster.unwrap_or(c.dc);
        let h = noise::coord_hash(self.seed ^ 0xC1, dataset.index(), anchor.0, 0);
        noise::uniform(h) - 0.5
    }

    /// Faults that could affect `device` somewhere in the sampled range.
    ///
    /// Fault activity is half-open `[fs, fe)` (see [`Fault::active_at`]),
    /// while query windows are inclusive of both sampled edges, so the
    /// prefilter is `fs <= last_sample && fe > first_sample`: a fault
    /// starting exactly at the incident minute affects the (now included)
    /// sample at `t`, and a fault ending exactly at `t` still affects
    /// every sample before `t`. This is only a prefilter — per-sample
    /// application is always gated by `active_at`, so a superset here can
    /// never change a generated value.
    fn relevant_faults(&self, device: ComponentId, steps: &std::ops::Range<u64>) -> Vec<usize> {
        if steps.is_empty() {
            return Vec::new();
        }
        let step_len = SAMPLE_INTERVAL.as_minutes();
        let span = (
            SimTime(steps.start * step_len),
            SimTime((steps.end - 1) * step_len),
        );
        let c = self.topo.component(device);
        let cluster = c.cluster.unwrap_or(c.dc);
        let Some(indices) = self.index.by_cluster.get(&cluster) else {
            return Vec::new();
        };
        indices
            .iter()
            .copied()
            .filter(|&i| {
                let (fs, fe) = self.faults[i].window();
                fs <= span.1 && fe > span.0
            })
            .collect()
    }

    /// Does an effect with `target` on fault `f` apply to `device`?
    fn effect_applies(&self, f: &Fault, target: EffectTarget, device: ComponentId) -> bool {
        let dev = self.topo.component(device);
        match target {
            EffectTarget::ClusterWide => dev.cluster == Some(f.scope.cluster()),
            EffectTarget::FaultDevices => match &f.scope {
                FaultScope::Devices { devices, .. } => devices.contains(&device),
                // Cluster-scoped faults hit every covered device in the
                // cluster; external faults hit nothing.
                FaultScope::Cluster(cl) => dev.cluster == Some(*cl),
                FaultScope::External { .. } => false,
            },
            EffectTarget::ServersUnder => {
                if dev.kind != ComponentKind::Server {
                    return false;
                }
                match &f.scope {
                    FaultScope::Devices { devices, .. } => {
                        // Under a faulted ToR: parent match. Under a faulted
                        // agg/core/slb: same cluster.
                        devices.iter().any(|&d| {
                            let fd = self.topo.component(d);
                            match fd.kind {
                                ComponentKind::TorSwitch => dev.parent == Some(d),
                                ComponentKind::AggSwitch
                                | ComponentKind::CoreSwitch
                                | ComponentKind::Slb => dev.cluster == fd.cluster,
                                _ => false,
                            }
                        })
                    }
                    FaultScope::Cluster(cl) => dev.cluster == Some(*cl),
                    FaultScope::External { .. } => false,
                }
            }
        }
    }
}

/// Content hash of everything a generated sample depends on. Mixing uses
/// `splitmix64` so single-field changes (one fault shifted by a minute,
/// one data set disabled) avalanche into a different epoch.
fn fingerprint(topo: &Topology, faults: &[Fault], config: &MonitoringConfig) -> u64 {
    let mut h = splitmix64(config.seed ^ 0x5C07_7E90_C4AC_11E5);
    let mut mix = |v: u64| h = splitmix64(h ^ v);
    let tc = topo.config();
    for dim in [
        tc.dcs,
        tc.clusters_per_dc,
        tc.racks_per_cluster,
        tc.servers_per_rack,
        tc.vms_per_server,
        tc.aggs_per_cluster,
        tc.cores_per_dc,
        tc.slbs_per_cluster,
    ] {
        mix(dim as u64);
    }
    for d in &config.disabled {
        mix(0xD15A_B1ED ^ d.index() as u64);
    }
    mix(faults.len() as u64);
    for f in faults {
        mix(f.id as u64);
        mix(f.kind as u64);
        mix(f.start.minutes());
        mix(f.duration.as_minutes());
        mix(f.scope.cluster().0 as u64);
        for &d in f.scope.devices() {
            mix(d.0 as u64);
        }
    }
    h
}

fn clamp(dataset: Dataset, v: f64) -> f64 {
    match dataset {
        Dataset::Canaries | Dataset::CpuUsage => v.clamp(0.0, 1.0),
        Dataset::LinkLossStatus => v.max(0.0),
        Dataset::PingStats | Dataset::PfcCounters | Dataset::InterfaceCounters => v.max(0.0),
        _ => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::{FaultKind, Severity, Team, TopologyConfig};

    fn topo() -> Topology {
        Topology::build(TopologyConfig::default())
    }

    fn tor_fault(topo: &Topology) -> Fault {
        let tor = topo.by_name("tor-0.c0.dc0").unwrap().id;
        let cluster = topo.by_name("c0.dc0").unwrap().id;
        Fault {
            id: 0,
            kind: FaultKind::TorFailure,
            owner: Team::PhyNet,
            scope: FaultScope::Devices {
                devices: vec![tor],
                cluster,
            },
            start: SimTime::from_hours(100),
            duration: SimDuration::hours(6),
            severity: Severity::Sev2,
            upgrade_related: false,
        }
    }

    #[test]
    fn healthy_series_stays_near_baseline() {
        let topo = topo();
        let faults = Vec::new();
        let mon = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        let srv = topo.by_name("srv-0.c0.dc0").unwrap().id;
        let w = (SimTime::from_hours(10), SimTime::from_hours(12));
        let s = mon.series(Dataset::PingStats, srv, w).unwrap();
        assert_eq!(s.len(), 25, "2h inclusive window at 5-minute samples");
        let (mean, sd) = Dataset::PingStats.baseline();
        let avg = s.iter().sum::<f64>() / s.len() as f64;
        assert!(
            (avg - mean).abs() < 4.0 * sd,
            "avg {avg} vs baseline {mean}"
        );
    }

    #[test]
    fn fault_shifts_series_on_affected_servers_only() {
        let topo = topo();
        let faults = vec![tor_fault(&topo)];
        let mon = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        let w = (SimTime::from_hours(101), SimTime::from_hours(103));
        let (mean, sd) = Dataset::PingStats.baseline();
        // Server under the dead ToR: big latency shift.
        let under = topo.by_name("srv-0.c0.dc0").unwrap().id;
        let s = mon.series(Dataset::PingStats, under, w).unwrap();
        let avg = s.iter().sum::<f64>() / s.len() as f64;
        assert!(avg > mean + 6.0 * sd, "affected avg {avg}");
        // Server in another rack of the same cluster: unaffected.
        let other = topo.by_name("srv-23.c0.dc0").unwrap().id;
        let s = mon.series(Dataset::PingStats, other, w).unwrap();
        let avg = s.iter().sum::<f64>() / s.len() as f64;
        assert!(avg < mean + 4.0 * sd, "unaffected avg {avg}");
        // Server in a different cluster: certainly unaffected.
        let far = topo.by_name("srv-0.c1.dc0").unwrap().id;
        let s = mon.series(Dataset::PingStats, far, w).unwrap();
        let avg = s.iter().sum::<f64>() / s.len() as f64;
        assert!(avg < mean + 4.0 * sd, "far avg {avg}");
    }

    #[test]
    fn fault_raises_event_rate_on_device() {
        let topo = topo();
        let faults = vec![tor_fault(&topo)];
        let mon = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        let tor = topo.by_name("tor-0.c0.dc0").unwrap().id;
        let during = (SimTime::from_hours(100), SimTime::from_hours(106));
        let before = (SimTime::from_hours(90), SimTime::from_hours(96));
        let n_during = mon.events(Dataset::SwitchDrops, tor, during).len();
        let n_before = mon.events(Dataset::SwitchDrops, tor, before).len();
        assert!(n_during >= 10, "drop detections during fault: {n_during}");
        assert!(n_before <= 2, "background detections: {n_before}");
    }

    #[test]
    fn events_are_ordered_and_in_window() {
        let topo = topo();
        let faults = vec![tor_fault(&topo)];
        let mon = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        let tor = topo.by_name("tor-0.c0.dc0").unwrap().id;
        let w = (SimTime::from_hours(99), SimTime::from_hours(107));
        let evs = mon.events(Dataset::SnmpSyslog, tor, w);
        for pair in evs.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
        for e in &evs {
            assert!(e.time >= w.0 && e.time <= w.1);
            assert!((e.kind as usize) < Dataset::SnmpSyslog.event_kinds().len());
        }
    }

    /// The headline boundary pin: `[start, end]` includes the sample at
    /// both edges when they are step-aligned, and mid-step edges round
    /// inward.
    #[test]
    fn window_steps_are_inclusive_at_both_edges() {
        // Step-aligned 2h window: 25 samples, first at start, last at end.
        let w = (SimTime::from_hours(10), SimTime::from_hours(12));
        assert_eq!(window_steps(w), 120..145);
        // A single aligned instant is one sample.
        assert_eq!(window_steps((SimTime(600), SimTime(600))), 120..121);
        // Mid-step edges: [3, 14] covers samples at 5 and 10 only.
        assert_eq!(window_steps((SimTime(3), SimTime(14))), 1..3);
        // A window that straddles no sample point is empty.
        let empty = window_steps((SimTime(6), SimTime(9)));
        assert!(empty.is_empty());
        // Degenerate (end < start) is empty, not a panic.
        let inverted = window_steps((SimTime(10), SimTime(3)));
        assert!(inverted.is_empty());
    }

    /// An incident exactly on a 5-minute sample boundary must include
    /// that sample — and therefore see a fault that starts at exactly
    /// that minute.
    #[test]
    fn fault_starting_at_window_end_is_visible() {
        let topo = topo();
        let faults = vec![tor_fault(&topo)]; // starts at t = 100h
        let mon = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        let clean: Vec<Fault> = Vec::new();
        let mon_clean = MonitoringSystem::new(&topo, &clean, MonitoringConfig::default());
        let srv = topo.by_name("srv-0.c0.dc0").unwrap().id;
        let t = SimTime::from_hours(100); // incident minute == fault start
        let w = (t.saturating_sub(SimDuration::hours(2)), t);
        let s = mon.series(Dataset::PingStats, srv, w).unwrap();
        let s_clean = mon_clean.series(Dataset::PingStats, srv, w).unwrap();
        assert_eq!(s.len(), 25);
        // Every sample before t is untouched; the sample at t is shifted.
        assert_eq!(s[..24], s_clean[..24], "pre-fault samples unperturbed");
        assert!(
            s[24] > s_clean[24] + 0.25,
            "sample at the incident minute must carry the fault shift: {} vs {}",
            s[24],
            s_clean[24]
        );
    }

    /// A fault ending exactly at the incident minute is still visible to
    /// the window that now includes `t`: fault activity is half-open
    /// `[fs, fe)`, so every sample before `t` carries the shift while the
    /// sample at `t` itself is back to baseline.
    #[test]
    fn fault_ending_at_window_end_is_visible() {
        let topo = topo();
        let faults = vec![tor_fault(&topo)]; // active [100h, 106h)
        let mon = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        let clean: Vec<Fault> = Vec::new();
        let mon_clean = MonitoringSystem::new(&topo, &clean, MonitoringConfig::default());
        let srv = topo.by_name("srv-0.c0.dc0").unwrap().id;
        let t = SimTime::from_hours(106); // incident minute == fault end
        let w = (t.saturating_sub(SimDuration::hours(2)), t);
        let s = mon.series(Dataset::PingStats, srv, w).unwrap();
        let s_clean = mon_clean.series(Dataset::PingStats, srv, w).unwrap();
        assert!(
            s[..24].iter().zip(&s_clean[..24]).all(|(a, b)| a > b),
            "samples before the fault end must be shifted"
        );
        assert_eq!(s[24], s_clean[24], "sample at fe is outside [fs, fe)");
        // And conversely: a fault ending exactly at window *start* is
        // invisible (no sampled instant falls inside [fs, fe)).
        let w_after = (t, t + SimDuration::hours(2));
        assert_eq!(
            mon.series(Dataset::PingStats, srv, w_after),
            mon_clean.series(Dataset::PingStats, srv, w_after)
        );
    }

    /// `series`/`events` are exactly their step-range counterparts over
    /// `window_steps`, and the epoch fingerprints content, not identity.
    #[test]
    fn step_range_api_and_epoch() {
        let topo = topo();
        let faults = vec![tor_fault(&topo)];
        let mon = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        let srv = topo.by_name("srv-0.c0.dc0").unwrap().id;
        let tor = topo.by_name("tor-0.c0.dc0").unwrap().id;
        let w = (SimTime::from_hours(99), SimTime::from_hours(101));
        assert_eq!(
            mon.series(Dataset::PingStats, srv, w),
            mon.series_steps(Dataset::PingStats, srv, window_steps(w))
        );
        assert_eq!(
            mon.events(Dataset::SnmpSyslog, tor, w),
            mon.events_steps(Dataset::SnmpSyslog, tor, window_steps(w))
        );
        // Same content → same epoch; different fault schedule → different.
        let mon2 = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        assert_eq!(mon.epoch(), mon2.epoch());
        let clean: Vec<Fault> = Vec::new();
        let mon3 = MonitoringSystem::new(&topo, &clean, MonitoringConfig::default());
        assert_ne!(mon.epoch(), mon3.epoch());
        let mon4 = MonitoringSystem::new(
            &topo,
            &faults,
            MonitoringConfig {
                seed: 0,
                disabled: vec![Dataset::PingStats],
            },
        );
        assert_ne!(mon.epoch(), mon4.epoch());
    }

    #[test]
    fn deterministic_given_seed() {
        let topo = topo();
        let faults = vec![tor_fault(&topo)];
        let mon1 = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        let mon2 = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        let srv = topo.by_name("srv-5.c2.dc1").unwrap().id;
        let w = (SimTime::from_hours(50), SimTime::from_hours(52));
        assert_eq!(
            mon1.series(Dataset::CpuUsage, srv, w),
            mon2.series(Dataset::CpuUsage, srv, w)
        );
        let mon3 = MonitoringSystem::new(
            &topo,
            &faults,
            MonitoringConfig {
                seed: 99,
                ..Default::default()
            },
        );
        assert_ne!(
            mon1.series(Dataset::CpuUsage, srv, w),
            mon3.series(Dataset::CpuUsage, srv, w)
        );
    }

    #[test]
    fn deprecated_dataset_returns_nothing() {
        let topo = topo();
        let faults = Vec::new();
        let mon = MonitoringSystem::new(
            &topo,
            &faults,
            MonitoringConfig {
                seed: 0,
                disabled: vec![Dataset::PingStats, Dataset::SnmpSyslog],
            },
        );
        let srv = topo.by_name("srv-0.c0.dc0").unwrap().id;
        let tor = topo.by_name("tor-0.c0.dc0").unwrap().id;
        let w = (SimTime(0), SimTime::from_hours(2));
        assert!(mon.series(Dataset::PingStats, srv, w).is_none());
        assert!(mon.events(Dataset::SnmpSyslog, tor, w).is_empty());
        assert!(mon.series(Dataset::CpuUsage, srv, w).is_some());
        assert_eq!(mon.enabled_datasets().len(), 10);
    }

    #[test]
    fn coverage_rules_enforced_in_queries() {
        let topo = topo();
        let faults = Vec::new();
        let mon = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        let vm = topo.by_name("vm-0.c0.dc0").unwrap().id;
        let srv = topo.by_name("srv-0.c0.dc0").unwrap().id;
        let w = (SimTime(0), SimTime::from_hours(1));
        assert!(
            mon.series(Dataset::PingStats, vm, w).is_none(),
            "no VM telemetry"
        );
        assert!(
            mon.series(Dataset::PfcCounters, srv, w).is_none(),
            "PFC is switch-only"
        );
        // Event query on a series dataset yields nothing.
        assert!(mon.events(Dataset::PingStats, srv, w).is_empty());
    }

    #[test]
    fn covered_devices_resolves_cluster_mentions() {
        let topo = topo();
        let faults = Vec::new();
        let mon = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        let cl = topo.by_name("c0.dc0").unwrap().id;
        let cfg = topo.config();
        let servers = mon.covered_devices(Dataset::PingStats, cl);
        assert_eq!(servers.len(), cfg.racks_per_cluster * cfg.servers_per_rack);
        let switches = mon.covered_devices(Dataset::PfcCounters, cl);
        assert_eq!(switches.len(), cfg.racks_per_cluster + cfg.aggs_per_cluster);
        let tor = topo.by_name("tor-0.c0.dc0").unwrap().id;
        assert_eq!(mon.covered_devices(Dataset::PfcCounters, tor), vec![tor]);
    }

    #[test]
    fn cluster_scoped_fault_moves_whole_cluster() {
        let topo = topo();
        let cluster = topo.by_name("c1.dc0").unwrap().id;
        let faults = vec![Fault {
            id: 0,
            kind: FaultKind::ServerOverload,
            owner: Team::Compute,
            scope: FaultScope::Cluster(cluster),
            start: SimTime::from_hours(10),
            duration: SimDuration::hours(4),
            severity: Severity::Sev3,
            upgrade_related: false,
        }];
        let mon = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        let srv = topo.by_name("srv-11.c1.dc0").unwrap().id;
        let w = (SimTime::from_hours(11), SimTime::from_hours(13));
        let s = mon.series(Dataset::CpuUsage, srv, w).unwrap();
        let avg = s.iter().sum::<f64>() / s.len() as f64;
        let (mean, sd) = Dataset::CpuUsage.baseline();
        assert!(avg > mean + 2.0 * sd, "cluster-wide CPU shift, avg {avg}");
    }
}
