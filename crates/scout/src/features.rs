//! Feature construction (§5.2.1).
//!
//! For every component type in the config, and every associated data set:
//!
//! * **time series** → 11 aggregate statistics (mean, std, min, max and the
//!   1/10/25/50/75/90/99th percentiles) over the *pooled* samples of every
//!   mentioned component of that type during the look-back window `[t-T,t]`;
//! * **events** → one count per event kind;
//!
//! plus one component-count feature per type ("can help the model identify
//! whether a change in the 99th percentile … is significant"). Pooling
//! variable numbers of devices into fixed statistics is the paper's answer
//! to variable-cardinality mentions; class-tagged data sets are normalized
//! before pooling so different hardware generations mix safely (the
//! normalization lives in `featcache`'s chunk builder, the single code
//! path that turns raw telemetry into pool samples). Component types with
//! no mention contribute zeros ("we remove its features" — a fixed-length
//! vector needs a neutral encoding, and an all-zero block with a zero
//! count feature is exactly that).
//!
//! Aggregation goes through [`featcache`]: telemetry is fetched as
//! immutable per-`(mentioned component, dataset, hour-bucket)` chunks —
//! each holding every device the mention covers — and merged device by
//! device, with or without a [`featcache::FeatCache`] behind the fetch.
//! Cached and uncached featurization run the *same* merge code over the
//! *same* chunk values, so the resulting vectors are bit-identical
//! (property-tested in `tests/featcache_prop.rs`).

use crate::config::{ComponentType, ScoutConfig};
use crate::extract::ExtractedComponents;
use cloudsim::{SimDuration, SimTime};
use monitoring::{DataType, Dataset, MonitoringSystem};

/// The statistics computed per time-series pool, in feature order.
pub const TS_STATS: [&str; 11] = [
    "mean", "std", "min", "max", "p1", "p10", "p25", "p50", "p75", "p90", "p99",
];

/// One contiguous block of the feature vector.
#[derive(Debug, Clone)]
pub struct Block {
    /// Component type the block aggregates.
    pub ctype: ComponentType,
    /// Data set it reads.
    pub dataset: Dataset,
    /// First feature index.
    pub offset: usize,
    /// Number of features (11 for series, #event-kinds for events).
    pub len: usize,
}

/// The fixed feature layout derived from a config (and the currently
/// deployed data sets).
#[derive(Debug, Clone)]
pub struct FeatureLayout {
    blocks: Vec<Block>,
    names: Vec<String>,
    /// Index of the first count feature.
    count_offset: usize,
}

impl FeatureLayout {
    /// Build the layout for `config`, skipping `disabled` data sets
    /// (the Fig. 9 deprecation hook).
    pub fn build(config: &ScoutConfig, disabled: &[Dataset]) -> FeatureLayout {
        let mut blocks = Vec::new();
        let mut names = Vec::new();
        let mut offset = 0;
        for ctype in ComponentType::ALL {
            for dataset in config.datasets_for(ctype) {
                if disabled.contains(&dataset) {
                    continue;
                }
                let len = match dataset.data_type() {
                    DataType::TimeSeries => {
                        for s in TS_STATS {
                            names.push(format!("{ctype}/{dataset}/{s}"));
                        }
                        TS_STATS.len()
                    }
                    DataType::Event => {
                        for k in dataset.event_kinds() {
                            names.push(format!("{ctype}/{dataset}/count[{k}]"));
                        }
                        dataset.event_kinds().len()
                    }
                };
                blocks.push(Block {
                    ctype,
                    dataset,
                    offset,
                    len,
                });
                offset += len;
            }
        }
        let count_offset = offset;
        for ctype in ComponentType::ALL {
            names.push(format!("count/{ctype}"));
        }
        FeatureLayout {
            blocks,
            names,
            count_offset,
        }
    }

    /// Total feature-vector length.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Is the layout empty? (Layouts built from a valid config never
    /// are — they always contain the per-type count features — but this
    /// must report the truth rather than hard-code it.)
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Human-readable feature names (for explanations, §8).
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The blocks, in feature order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Indices of features reading `dataset` — the deprecation hook
    /// (Fig. 9): dropping these columns equals rebuilding the layout with
    /// the data set disabled, because blocks are independent.
    pub fn indices_for_dataset(&self, dataset: monitoring::Dataset) -> Vec<usize> {
        let mut idx = Vec::new();
        for b in &self.blocks {
            if b.dataset == dataset {
                idx.extend(b.offset..b.offset + b.len);
            }
        }
        idx
    }

    /// Indices of features belonging to `ctype` (including its count
    /// feature) — the deflation-study hook (Table 5).
    pub fn indices_for_type(&self, ctype: ComponentType) -> Vec<usize> {
        let mut idx = Vec::new();
        for b in &self.blocks {
            if b.ctype == ctype {
                idx.extend(b.offset..b.offset + b.len);
            }
        }
        let pos = ComponentType::ALL.iter().position(|&t| t == ctype).unwrap();
        idx.push(self.count_offset + pos);
        idx
    }
}

/// How variable numbers of devices are merged into fixed statistics (§9
/// "Alternative design" / "The side-effect of aggregating sub-components").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Aggregation {
    /// The paper's choice: pool every device's samples, then compute the
    /// distribution statistics over the pooled samples.
    #[default]
    PooledSamples,
    /// Ablation: reduce each device's window to its mean first, then
    /// compute the statistics over the per-device means. Sharper for
    /// single-device faults (the sick device is one clear outlier among
    /// device means), coarser for time-local anomalies.
    DeviceMeans,
}

/// Computes feature vectors against a live monitoring plane.
#[derive(Debug)]
pub struct Featurizer<'a> {
    layout: &'a FeatureLayout,
    monitoring: &'a MonitoringSystem<'a>,
    /// Look-back window length `T` (§7 uses two hours).
    pub lookback: SimDuration,
    /// Device-merging strategy.
    pub aggregation: Aggregation,
    /// Chunk cache to fetch telemetry through; `None` builds every chunk
    /// fresh (identical output either way).
    pub cache: Option<&'a featcache::FeatCache>,
}

impl<'a> Featurizer<'a> {
    /// Bind a layout to a monitoring plane with look-back `T`.
    pub fn new(
        layout: &'a FeatureLayout,
        monitoring: &'a MonitoringSystem<'a>,
        lookback: SimDuration,
    ) -> Featurizer<'a> {
        Featurizer {
            layout,
            monitoring,
            lookback,
            aggregation: Aggregation::default(),
            cache: None,
        }
    }

    /// Same, with an explicit aggregation strategy (the `ablation_agg`
    /// experiment).
    pub fn with_aggregation(
        layout: &'a FeatureLayout,
        monitoring: &'a MonitoringSystem<'a>,
        lookback: SimDuration,
        aggregation: Aggregation,
    ) -> Featurizer<'a> {
        Featurizer {
            layout,
            monitoring,
            lookback,
            aggregation,
            cache: None,
        }
    }

    /// The feature vector for components extracted from an incident created
    /// at time `t`.
    pub fn features(&self, extracted: &ExtractedComponents, t: SimTime) -> Vec<f64> {
        let _span = obs::span!("scout.features.build");
        obs::counter("scout.features.vectors").inc();
        let mut out = vec![0.0; self.layout.len()];
        let window = (t.saturating_sub(self.lookback), t);
        for block in &self.layout.blocks {
            let mentioned = extracted.of_type(block.ctype);
            if mentioned.is_empty() {
                continue; // zero block: type absent from the incident
            }
            match block.dataset.data_type() {
                DataType::TimeSeries => match self.aggregation {
                    Aggregation::PooledSamples => {
                        let mut pool = featcache::PoolStats::new();
                        for &c in mentioned {
                            featcache::accumulate_series(
                                self.cache,
                                self.monitoring,
                                block.dataset,
                                c,
                                window,
                                &mut pool,
                            );
                        }
                        pool.write_stats(&mut out[block.offset..block.offset + block.len]);
                    }
                    Aggregation::DeviceMeans => {
                        let mut means = Vec::new();
                        for &c in mentioned {
                            featcache::device_means(
                                self.cache,
                                self.monitoring,
                                block.dataset,
                                c,
                                window,
                                &mut means,
                            );
                        }
                        write_ts_stats(&means, &mut out[block.offset..block.offset + block.len]);
                    }
                },
                DataType::Event => {
                    let counts = &mut out[block.offset..block.offset + block.len];
                    for &c in mentioned {
                        featcache::for_each_event(
                            self.cache,
                            self.monitoring,
                            block.dataset,
                            c,
                            window,
                            |e| {
                                let k = e.kind as usize;
                                if k < counts.len() {
                                    counts[k] += 1.0;
                                } else {
                                    // An event kind outside the layout's
                                    // block means the layout and the
                                    // monitoring plane have drifted apart;
                                    // dropping it silently would quietly
                                    // starve the forest of a feature.
                                    debug_assert!(
                                        k < counts.len(),
                                        "event kind {k} out of range for {}/{} (block len {})",
                                        block.ctype,
                                        block.dataset,
                                        counts.len()
                                    );
                                    obs::counter("scout.features.dropped_event_kinds").inc();
                                }
                            },
                        );
                    }
                }
            }
        }
        // Component-count features.
        for (i, ctype) in ComponentType::ALL.into_iter().enumerate() {
            out[self.layout.count_offset + i] = extracted.of_type(ctype).len() as f64;
        }
        if let Some(cache) = self.cache {
            cache.publish();
        }
        out
    }
}

/// Fill `out` (length 11) with the TS statistics of `pool`.
///
/// Delegates to the shared fused kernel
/// ([`featcache::stats::fill_ts_stats`]) — the same single-pass
/// moments + one-clamp variance + `total_cmp`-ordered percentile
/// selection that finalizes cached pools, so the uncached and cached
/// stats paths are bit-identical by construction.
///
/// Percentiles use linear interpolation between closest ranks (the
/// numpy/sklearn default the paper's pipeline sat on). The previous
/// nearest-rank rounding — `((n-1)·q).round()` — snapped p1 to the
/// minimum and p99 to the maximum for every pool under ~50 samples,
/// collapsing three of the paper's 11 statistics into duplicates of
/// min/max and feeding the forest redundant columns.
///
/// Defined behavior on numeric edges: `NaN` samples produce output that
/// is a deterministic function of the sample *multiset* (percentile
/// ranks follow `total_cmp`'s total order — the old
/// `partial_cmp`-unwrap-to-`Equal` sort was input-order dependent);
/// mean/std propagate `NaN`, min/max ignore it; large-offset
/// low-variance pools clamp the variance at zero instead of emitting
/// `NaN` from `sqrt` of a tiny negative.
///
/// Public so property tests and benches can drive it directly.
pub fn write_ts_stats(pool: &[f64], out: &mut [f64]) {
    debug_assert_eq!(out.len(), TS_STATS.len());
    featcache::stats::fill_ts_stats(pool, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::Extractor;
    use cloudsim::{
        ComponentId, Fault, FaultKind, FaultScope, Severity, Team, Topology, TopologyConfig,
    };
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

    #[test]
    fn layout_is_fixed_and_named() {
        let cfg = ScoutConfig::phynet();
        let layout = FeatureLayout::build(&cfg, &[]);
        assert_eq!(layout.len(), layout.names().len());
        assert!(
            layout.len() > 150,
            "rich feature vector, got {}",
            layout.len()
        );
        // Stable block structure: contiguous, non-overlapping.
        let mut expected = 0;
        for b in layout.blocks() {
            assert_eq!(b.offset, expected);
            expected += b.len;
        }
        assert!(layout
            .names()
            .iter()
            .any(|n| n == "cluster/ping-statistics/p99"));
        assert!(layout
            .names()
            .iter()
            .any(|n| n == "switch/snmp-syslog/count[link-down]"));
        assert!(layout.names().iter().any(|n| n == "count/server"));
    }

    #[test]
    fn deprecating_datasets_shrinks_the_layout() {
        let cfg = ScoutConfig::phynet();
        let full = FeatureLayout::build(&cfg, &[]);
        let reduced = FeatureLayout::build(&cfg, &[Dataset::PingStats, Dataset::SnmpSyslog]);
        assert!(reduced.len() < full.len());
        assert!(!reduced
            .names()
            .iter()
            .any(|n| n.contains("ping-statistics")));
        assert!(!reduced.names().iter().any(|n| n.contains("snmp-syslog")));
    }

    #[test]
    fn fault_lights_up_the_right_features() {
        let (cfg, topo, faults) = fixture();
        let layout = FeatureLayout::build(&cfg, &[]);
        let mon = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        let fz = Featurizer::new(&layout, &mon, SimDuration::hours(2));
        let ex = Extractor::new(&cfg, &topo);

        let during = ex.extract("drops on tor-0.c0.dc0 in c0.dc0");
        let v_during = fz.features(&during, SimTime::from_hours(103));
        let v_before = fz.features(&during, SimTime::from_hours(50));

        let idx = layout
            .names()
            .iter()
            .position(|n| n == "switch/link-loss-status/mean")
            .unwrap();
        assert!(
            v_during[idx] > v_before[idx] * 3.0 + 1e-6,
            "loss mean during {} vs before {}",
            v_during[idx],
            v_before[idx]
        );
        let drops = layout
            .names()
            .iter()
            .position(|n| n == "switch/switch-level-drops/count[switch-drop-detected]")
            .unwrap();
        assert!(
            v_during[drops] >= 3.0,
            "drop detections {}",
            v_during[drops]
        );
        assert!(v_before[drops] <= 1.0);
    }

    #[test]
    fn absent_types_have_zero_blocks_and_counts() {
        let (cfg, topo, faults) = fixture();
        let layout = FeatureLayout::build(&cfg, &[]);
        let mon = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        let fz = Featurizer::new(&layout, &mon, SimDuration::hours(2));
        let ex = Extractor::new(&cfg, &topo);
        let only_cluster = ex.extract("something wrong in c0.dc0");
        let v = fz.features(&only_cluster, SimTime::from_hours(10));
        for i in layout.indices_for_type(ComponentType::Server) {
            assert_eq!(
                v[i],
                0.0,
                "server feature {} must be zero",
                layout.names()[i]
            );
        }
        let count_cluster = layout
            .names()
            .iter()
            .position(|n| n == "count/cluster")
            .unwrap();
        assert_eq!(v[count_cluster], 1.0);
    }

    #[test]
    fn cluster_mention_pools_all_devices() {
        let (cfg, topo, faults) = fixture();
        let layout = FeatureLayout::build(&cfg, &[]);
        let mon = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        let fz = Featurizer::new(&layout, &mon, SimDuration::hours(2));
        let ex = Extractor::new(&cfg, &topo);
        // Only the cluster is implicated; the dead ToR shifts the upper
        // percentiles of the pooled cluster distribution (the paper's
        // intuition for why aggregation still detects device faults).
        let found = ex.extract("problems reported in c0.dc0");
        let v_during = fz.features(&found, SimTime::from_hours(103));
        let v_before = fz.features(&found, SimTime::from_hours(50));
        let p99 = layout
            .names()
            .iter()
            .position(|n| n == "cluster/ping-statistics/p99")
            .unwrap();
        let p50 = layout
            .names()
            .iter()
            .position(|n| n == "cluster/ping-statistics/p50")
            .unwrap();
        assert!(
            v_during[p99] > v_before[p99] * 1.3,
            "p99 moves: {} vs {}",
            v_during[p99],
            v_before[p99]
        );
        let p50_shift = (v_during[p50] - v_before[p50]).abs() / v_before[p50].max(1e-9);
        assert!(p50_shift < 0.5, "median stays close (shift {p50_shift})");
    }

    #[test]
    fn stats_match_hand_computation() {
        let mut out = [0.0; 11];
        write_ts_stats(&[1.0, 2.0, 3.0, 4.0], &mut out);
        assert!((out[0] - 2.5).abs() < 1e-12); // mean
        assert!((out[1] - (1.25f64).sqrt()).abs() < 1e-12); // std
        assert_eq!(out[2], 1.0); // min
        assert_eq!(out[3], 4.0); // max
                                 // Linear interpolation between ranks: rank(q) = 3q on 4 samples.
        assert!((out[4] - 1.03).abs() < 1e-12); // p1  → rank 0.03
        assert!((out[5] - 1.30).abs() < 1e-12); // p10 → rank 0.30
        assert!((out[6] - 1.75).abs() < 1e-12); // p25 → rank 0.75
        assert!((out[7] - 2.50).abs() < 1e-12); // p50 → rank 1.50
        assert!((out[8] - 3.25).abs() < 1e-12); // p75 → rank 2.25
        assert!((out[9] - 3.70).abs() < 1e-12); // p90 → rank 2.70
        assert!((out[10] - 3.97).abs() < 1e-12); // p99 → rank 2.97
                                                 // p1/p99 no longer collapse onto min/max on small pools.
        assert!(out[4] > out[2] && out[10] < out[3]);
        // Empty pool → zeros.
        write_ts_stats(&[], &mut out);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn indices_for_type_partition_the_vector() {
        let cfg = ScoutConfig::phynet();
        let layout = FeatureLayout::build(&cfg, &[]);
        let mut seen = vec![false; layout.len()];
        for t in ComponentType::ALL {
            for i in layout.indices_for_type(t) {
                assert!(!seen[i], "feature {i} assigned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every feature belongs to one type");
    }

    #[test]
    fn unknown_extraction_is_safe() {
        let (cfg, topo, faults) = fixture();
        let layout = FeatureLayout::build(&cfg, &[]);
        let mon = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        let fz = Featurizer::new(&layout, &mon, SimDuration::hours(2));
        let empty = ExtractedComponents::default();
        let v = fz.features(&empty, SimTime::from_hours(1));
        assert_eq!(v.len(), layout.len());
        assert!(v.iter().all(|&x| x == 0.0));
        let _ = ComponentId(0); // keep import used
    }
}
