//! CPD+ — the unsupervised fallback for new and rare incidents (§5.2.2).
//!
//! Plain change-point detection is not enough: it cannot read events, and
//! it false-positives wildly when an incident implicates a whole cluster
//! (every device gets its own chance to be wrong). CPD+ adds the paper's
//! two fixes:
//!
//! * **Few named devices** → the conservative rule: if *any* change point
//!   or error event is detected on a named device, the team is declared
//!   responsible, and the hits are themselves the explanation.
//! * **Cluster-wide implication** → a small random forest trained on the
//!   *average number of change points (or events) per component type and
//!   data set* decides whether the cluster's change profile looks like a
//!   failure.

use crate::config::{ComponentType, ScoutConfig};
use crate::extract::ExtractedComponents;
use crate::scout::ModelUsed;
use cloudsim::{SimDuration, SimTime};
use ml::cpd::{detect_change_points, CpdConfig};
use ml::forest::{ForestConfig, RandomForest};
use monitoring::{DataType, Dataset, MonitoringSystem};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::sync::OnceLock;

/// CPD+ configuration.
#[derive(Debug, Clone)]
pub struct CpdPlusConfig {
    /// At most this many named devices triggers the conservative path.
    pub few_device_threshold: usize,
    /// Change-point detector settings.
    pub cpd: CpdConfig,
    /// Deterministic seed for the permutation tests.
    pub seed: u64,
    /// Critical value for the fast (threshold) detector used on the
    /// cluster path, where permutation tests across every device would be
    /// prohibitively slow.
    pub fast_threshold: f64,
}

impl Default for CpdPlusConfig {
    fn default() -> Self {
        CpdPlusConfig {
            few_device_threshold: 3,
            // A lighter permutation budget than the library default: CPD+
            // runs over many device series per incident.
            cpd: CpdConfig {
                min_segment: 4,
                n_permutations: 39,
                significance: 0.05,
            },
            seed: 0x5C07,
            fast_threshold: ml::cpd::FAST_THRESHOLD,
        }
    }
}

/// The layout of the cluster-path feature vector: one value per
/// (component type, data set) association.
#[derive(Debug, Clone)]
pub struct CpdFeatureLayout {
    entries: Vec<(ComponentType, Dataset)>,
}

impl CpdFeatureLayout {
    /// Derive from the Scout config (skipping deprecated data sets).
    pub fn build(config: &ScoutConfig, disabled: &[Dataset]) -> CpdFeatureLayout {
        let mut entries = Vec::new();
        for ctype in ComponentType::ALL {
            for dataset in config.datasets_for(ctype) {
                if !disabled.contains(&dataset) {
                    entries.push((ctype, dataset));
                }
            }
        }
        CpdFeatureLayout { entries }
    }

    /// Feature dimension.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Layouts derived from valid configs are never empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Feature names for diagnostics.
    pub fn names(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|(t, d)| format!("avg-changes/{t}/{d}"))
            .collect()
    }
}

/// The CPD+ model: detector + (optionally trained) cluster-path forest.
#[derive(Debug)]
pub struct CpdPlus {
    config: CpdPlusConfig,
    layout: CpdFeatureLayout,
    cluster_rf: Option<RandomForest>,
}

/// The outcome of a CPD+ decision.
#[derive(Debug, Clone)]
pub struct CpdVerdict {
    /// Is the team responsible?
    pub responsible: bool,
    /// Confidence (conservative hits get a fixed high confidence; the
    /// cluster RF reports its probability).
    pub confidence: f64,
    /// Evidence lines (which device/data set changed).
    pub evidence: Vec<String>,
}

impl CpdPlus {
    /// A fresh CPD+ with no cluster model yet.
    pub fn new(config: CpdPlusConfig, layout: CpdFeatureLayout) -> CpdPlus {
        CpdPlus {
            config,
            layout,
            cluster_rf: None,
        }
    }

    /// The cluster-path feature layout.
    pub fn layout(&self) -> &CpdFeatureLayout {
        &self.layout
    }

    /// Train the cluster-path forest on `(features, labels)` rows produced
    /// by [`CpdPlus::cluster_features`].
    pub fn fit_cluster_rf<R: Rng>(&mut self, x: &[Vec<f64>], y: &[usize], rng: &mut R) {
        if x.is_empty() || y.iter().all(|&l| l == y[0]) {
            // Not enough signal to train; stay conservative (see predict).
            self.cluster_rf = None;
            return;
        }
        let cfg = ForestConfig {
            n_trees: 40,
            ..ForestConfig::default()
        };
        self.cluster_rf = Some(RandomForest::fit(x, y, 2, cfg, rng));
    }

    /// Is the cluster model trained?
    pub fn has_cluster_model(&self) -> bool {
        self.cluster_rf.is_some()
    }

    /// The cluster forest, if trained (persistence).
    pub fn cluster_model(&self) -> Option<&RandomForest> {
        self.cluster_rf.as_ref()
    }

    /// Install a cluster forest directly (persistence).
    pub fn set_cluster_model(&mut self, rf: Option<RandomForest>) {
        self.cluster_rf = rf;
    }

    /// Average change-points / events per device for each (type, data set)
    /// pair — the cluster-path feature vector. Runs on the global thread
    /// pool (see [`CpdPlus::cluster_features_on`]).
    pub fn cluster_features(
        &self,
        extracted: &ExtractedComponents,
        t: SimTime,
        monitoring: &MonitoringSystem<'_>,
        lookback: SimDuration,
    ) -> Vec<f64> {
        self.cluster_features_on(pool::Pool::global(), extracted, t, monitoring, lookback)
    }

    /// [`CpdPlus::cluster_features`] on an explicit pool. A cluster
    /// mention fans out to every covered device of every associated data
    /// set — the most expensive computation in the pipeline — so each
    /// (entry, device) detection runs as one pool task. Per-device counts
    /// come back in deterministic input order and are reduced
    /// sequentially, so the feature vector is bit-identical for any
    /// worker count.
    pub fn cluster_features_on(
        &self,
        pool: &pool::Pool,
        extracted: &ExtractedComponents,
        t: SimTime,
        monitoring: &MonitoringSystem<'_>,
        lookback: SimDuration,
    ) -> Vec<f64> {
        let _span = obs::span!("scout.cpd.cluster_features");
        let window = (t.saturating_sub(lookback), t);
        // Flatten the per-entry device fan-out into independent detection
        // jobs, remembering how many devices each entry owns.
        let mut jobs: Vec<(usize, cloudsim::ComponentId)> = Vec::new();
        let mut devices_per_entry = vec![0usize; self.layout.entries.len()];
        for (ei, &(ctype, dataset)) in self.layout.entries.iter().enumerate() {
            for &c in extracted.of_type(ctype) {
                for device in monitoring.covered_devices(dataset, c) {
                    jobs.push((ei, device));
                    devices_per_entry[ei] += 1;
                }
            }
        }
        let counts = pool.parallel_map(&jobs, |_, &(ei, device)| {
            let dataset = self.layout.entries[ei].1;
            match dataset.data_type() {
                DataType::TimeSeries => {
                    match monitoring.series(dataset, device, window) {
                        // The fast threshold detector: cluster-wide
                        // permutation tests would cost ~40x more.
                        Some(series) => ml::cpd::detect_change_points_fast(
                            &series,
                            self.config.cpd.min_segment,
                            self.config.fast_threshold,
                        )
                        .len() as f64,
                        None => 0.0,
                    }
                }
                DataType::Event => monitoring.events(dataset, device, window).len() as f64,
            }
        });
        // Sequential reduction in job order: identical float-summation
        // order to the old sequential loop.
        let mut totals = vec![0.0; self.layout.entries.len()];
        for (&(ei, _), count) in jobs.iter().zip(&counts) {
            totals[ei] += count;
        }
        totals
            .into_iter()
            .zip(devices_per_entry)
            .map(|(total, devices)| {
                if devices == 0 {
                    0.0
                } else {
                    total / devices as f64
                }
            })
            .collect()
    }

    /// The conservative few-device check: evidence lines for every change
    /// point or error event on the named devices.
    pub fn conservative_hits(
        &self,
        extracted: &ExtractedComponents,
        t: SimTime,
        monitoring: &MonitoringSystem<'_>,
        lookback: SimDuration,
    ) -> Vec<String> {
        let _span = obs::span!("scout.cpd.conservative");
        let window = (t.saturating_sub(lookback), t);
        let topo = monitoring.topology();
        let mut evidence = Vec::new();
        // Each data set once, even when associated with several component
        // types in the config.
        let mut datasets: Vec<Dataset> = self.layout.entries.iter().map(|&(_, d)| d).collect();
        datasets.sort_unstable();
        datasets.dedup();
        let devices = extracted
            .servers
            .iter()
            .chain(extracted.switches.iter())
            .copied();
        for device in devices {
            let kind = topo.component(device).kind;
            let name = &topo.component(device).name;
            for &dataset in &datasets {
                if !dataset.covers(kind) {
                    continue;
                }
                // On servers, only connectivity-flavored data counts as
                // PhyNet evidence: a CPU or temperature change on a server
                // is the compute team's business, and a server reboot or
                // agent syslog is not a network symptom. (The paper lets
                // operators filter noise data per data set, §5.1.)
                if kind == cloudsim::ComponentKind::Server
                    && !matches!(dataset, Dataset::PingStats | Dataset::Canaries)
                {
                    continue;
                }
                match dataset.data_type() {
                    DataType::TimeSeries => {
                        if let Some(series) = monitoring.series(dataset, device, window) {
                            let mut rng = self.series_rng(dataset, device.0);
                            let cps = detect_change_points(&series, &self.config.cpd, &mut rng);
                            // Effect-size gate: fault signatures shift the
                            // level by several σ; mild diurnal drift and
                            // noise wobbles do not constitute evidence an
                            // operator would accept.
                            if let Some(&cp) = cps.iter().find(|&&cp| strong_shift(&series, cp)) {
                                evidence.push(format!(
                                    "Change point in {dataset} on {name} at sample {cp}."
                                ));
                            }
                        }
                    }
                    DataType::Event => {
                        let events = monitoring.events(dataset, device, window);
                        if !events.is_empty() {
                            evidence
                                .push(format!("{} {dataset} event(s) on {name}.", events.len()));
                        }
                    }
                }
            }
        }
        evidence
    }

    /// Does an incident naming `device_count` devices take the
    /// conservative path? The few-device rule's only home.
    fn few_devices(&self, device_count: usize) -> bool {
        (1..=self.config.few_device_threshold).contains(&device_count)
    }

    /// The cluster row for one incident — its only producer. Through
    /// `memo` when the prepared item carries one: the first caller runs
    /// [`CpdPlus::cluster_features`] and every later one, on any thread,
    /// reads that row, so the teams of a fleet pass classifying one
    /// shared corpus detect change points once between them. A producer
    /// that panics leaves the memo unset for the next caller to fill.
    /// Without a memo the row is computed for this caller alone.
    pub fn cluster_row<'m>(
        &self,
        memo: Option<&'m OnceLock<Vec<f64>>>,
        extracted: &ExtractedComponents,
        t: SimTime,
        monitoring: &MonitoringSystem<'_>,
        lookback: SimDuration,
    ) -> Cow<'m, [f64]> {
        let produce = || self.cluster_features(extracted, t, monitoring, lookback);
        match memo {
            Some(memo) => Cow::Borrowed(memo.get_or_init(produce)),
            None => Cow::Owned(produce()),
        }
    }

    /// The whole CPD+ verdict for one incident, and the branch that
    /// produced it: few named devices → [`CpdPlus::conservative_hits`],
    /// otherwise [`CpdPlus::cluster_row`] through `memo`, and either way
    /// [`CpdPlus::decide`]. Evidence is gathered here, on the path that
    /// reads it and on no other: an incident the selector hands to the
    /// forest pays for no change-point detection at all, neither the
    /// conservative check's nor the cluster row's.
    pub fn assess(
        &self,
        extracted: &ExtractedComponents,
        t: SimTime,
        monitoring: &MonitoringSystem<'_>,
        lookback: SimDuration,
        memo: Option<&OnceLock<Vec<f64>>>,
    ) -> (CpdVerdict, ModelUsed) {
        let device_count = extracted.device_count();
        if self.few_devices(device_count) {
            let hits = self.conservative_hits(extracted, t, monitoring, lookback);
            let verdict = self.decide(device_count, &hits, &[]);
            return (verdict, ModelUsed::CpdConservative);
        }
        let row = self.cluster_row(memo, extracted, t, monitoring, lookback);
        let verdict = self.decide(device_count, &[], &row);
        (verdict, ModelUsed::CpdCluster)
    }

    /// Decide from precomputed inputs. `device_count` is the number of
    /// named devices; `conservative_hits` and `cluster_features` must have
    /// been computed for the same incident.
    pub fn decide(
        &self,
        device_count: usize,
        conservative_hits: &[String],
        cluster_features: &[f64],
    ) -> CpdVerdict {
        if self.few_devices(device_count) {
            let responsible = !conservative_hits.is_empty();
            return CpdVerdict {
                responsible,
                // The hits *are* the explanation (§5.2.2); confidence is a
                // fixed conservative value either way.
                confidence: if responsible { 0.85 } else { 0.7 },
                evidence: conservative_hits.to_vec(),
            };
        }
        match &self.cluster_rf {
            Some(rf) => {
                let p = rf.predict_proba(cluster_features);
                CpdVerdict {
                    responsible: p[1] >= 0.5,
                    confidence: p[1].max(p[0]),
                    evidence: vec![format!(
                        "Cluster change profile scored {:.2} by the CPD+ forest.",
                        p[1]
                    )],
                }
            }
            None => {
                // Untrained cluster model: fall back to "any change at all".
                let any = cluster_features.iter().any(|&v| v > 0.2);
                CpdVerdict {
                    responsible: any,
                    confidence: 0.55,
                    evidence: vec![
                        "CPD+ cluster model untrained; using any-change heuristic.".into()
                    ],
                }
            }
        }
    }

    fn series_rng(&self, dataset: Dataset, device: u32) -> SmallRng {
        SmallRng::seed_from_u64(
            self.config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((dataset.index() as u64) << 32 | device as u64),
        )
    }
}

/// Is the level shift at `cp` large relative to the within-segment noise?
fn strong_shift(series: &[f64], cp: usize) -> bool {
    if cp == 0 || cp >= series.len() {
        return false;
    }
    let (a, b) = series.split_at(cp);
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let (ma, mb) = (mean(a), mean(b));
    let var = |s: &[f64], m: f64| s.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / s.len() as f64;
    let pooled = ((var(a, ma) + var(b, mb)) / 2.0).sqrt().max(1e-12);
    (ma - mb).abs() > 2.5 * pooled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::Extractor;
    use cloudsim::{Fault, FaultKind, FaultScope, Severity, Team, Topology, TopologyConfig};
    use monitoring::MonitoringConfig;

    fn fixture() -> (ScoutConfig, Topology, Vec<Fault>) {
        let topo = Topology::build(TopologyConfig::default());
        let tor = topo.by_name("tor-0.c0.dc0").unwrap().id;
        let cluster = topo.by_name("c0.dc0").unwrap().id;
        let fault = Fault {
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
        };
        (ScoutConfig::phynet(), topo, vec![fault])
    }

    fn cpd(config: &ScoutConfig) -> CpdPlus {
        CpdPlus::new(
            CpdPlusConfig::default(),
            CpdFeatureLayout::build(config, &[]),
        )
    }

    #[test]
    fn conservative_path_fires_on_faulty_device() {
        let (cfg, topo, faults) = fixture();
        let mon = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        let ex = Extractor::new(&cfg, &topo);
        let model = cpd(&cfg);
        // Window straddles the fault start — a change point exists.
        let found = ex.extract("issue with tor-0.c0.dc0");
        let hits = model.conservative_hits(
            &found,
            SimTime::from_hours(101),
            &mon,
            SimDuration::hours(2),
        );
        assert!(!hits.is_empty(), "fault onset must produce change evidence");
        let verdict = model.decide(found.device_count(), &hits, &[]);
        assert!(verdict.responsible);
        assert!(!verdict.evidence.is_empty());
    }

    #[test]
    fn conservative_path_mostly_quiet_on_healthy_devices() {
        // The any-change rule is inherently false-positive-prone (that is
        // why the selector reserves it for rare incidents); require that
        // the large majority of healthy devices stay quiet.
        let (cfg, topo, faults) = fixture();
        let mon = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        let ex = Extractor::new(&cfg, &topo);
        let model = cpd(&cfg);
        let mut noisy = 0;
        let probes = [
            ("tor-3.c2.dc1", 50),
            ("tor-1.c4.dc2", 30),
            ("tor-5.c1.dc3", 80),
            ("srv-2.c3.dc1", 44),
            ("srv-7.c2.dc2", 66),
            ("tor-2.c6.dc0", 140),
            ("srv-11.c5.dc4", 90),
            ("tor-4.c9.dc5", 120),
            ("srv-19.c8.dc3", 75),
            ("tor-0.c7.dc2", 33),
        ];
        for (name, hour) in probes {
            let found = ex.extract(&format!("checking {name}"));
            assert_eq!(found.device_count(), 1, "{name} resolves");
            let hits = model.conservative_hits(
                &found,
                SimTime::from_hours(hour),
                &mon,
                SimDuration::hours(2),
            );
            if model.decide(found.device_count(), &hits, &[]).responsible {
                noisy += 1;
            }
        }
        assert!(noisy <= 2, "healthy devices flagged: {noisy}/10");
    }

    #[test]
    fn cluster_features_distinguish_fault_windows() {
        let (cfg, topo, faults) = fixture();
        let mon = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        let ex = Extractor::new(&cfg, &topo);
        let model = cpd(&cfg);
        let found = ex.extract("widespread problems in c0.dc0");
        let during = model.cluster_features(
            &found,
            SimTime::from_hours(101),
            &mon,
            SimDuration::hours(2),
        );
        let before =
            model.cluster_features(&found, SimTime::from_hours(50), &mon, SimDuration::hours(2));
        assert_eq!(during.len(), model.layout().len());
        let sum_d: f64 = during.iter().sum();
        let sum_b: f64 = before.iter().sum();
        assert!(
            sum_d > sum_b,
            "fault window has more changes: {sum_d} vs {sum_b}"
        );
    }

    #[test]
    fn cluster_rf_learns_change_profiles() {
        let (cfg, _, _) = fixture();
        let mut model = cpd(&cfg);
        assert!(!model.has_cluster_model());
        // Synthetic training rows: failures have changes, healthy do not.
        let mut x = Vec::new();
        let mut y = Vec::new();
        let dim = model.layout().len();
        for i in 0..60 {
            let mut row = vec![0.0; dim];
            if i % 2 == 0 {
                row[0] = 1.0 + (i % 5) as f64 * 0.1;
                row[dim - 1] = 0.5;
                y.push(1);
            } else {
                y.push(0);
            }
            x.push(row);
        }
        let mut rng = SmallRng::seed_from_u64(1);
        model.fit_cluster_rf(&x, &y, &mut rng);
        assert!(model.has_cluster_model());
        let mut hot = vec![0.0; dim];
        hot[0] = 1.2;
        hot[dim - 1] = 0.5;
        let v = model.decide(10, &[], &hot);
        assert!(v.responsible);
        let v = model.decide(10, &[], &vec![0.0; dim]);
        assert!(!v.responsible);
    }

    #[test]
    fn untrained_cluster_model_uses_heuristic() {
        let (cfg, _, _) = fixture();
        let model = cpd(&cfg);
        let dim = model.layout().len();
        let mut hot = vec![0.0; dim];
        hot[3] = 1.0;
        assert!(model.decide(10, &[], &hot).responsible);
        assert!(!model.decide(10, &[], &vec![0.0; dim]).responsible);
    }

    #[test]
    fn degenerate_training_keeps_model_untrained() {
        let (cfg, _, _) = fixture();
        let mut model = cpd(&cfg);
        let mut rng = SmallRng::seed_from_u64(2);
        let dim = model.layout().len();
        model.fit_cluster_rf(&[vec![0.0; dim]], &[0], &mut rng);
        assert!(!model.has_cluster_model(), "single-class data rejected");
        model.fit_cluster_rf(&[], &[], &mut rng);
        assert!(!model.has_cluster_model());
    }
}
