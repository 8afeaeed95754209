//! Scout persistence: save a trained Scout to a plain-text model file and
//! load it back for inference.
//!
//! Production Scouts live in a model store (the paper's Resource Central
//! keeps trained models "in a highly available storage system and serves
//! them to the online component"); this is the single-file equivalent. The
//! format embeds the configuration DSL itself (regenerated from the parsed
//! config), so a saved model is also a readable record of what the Scout
//! watches.

use crate::config::ScoutConfig;
use crate::cpdplus::{CpdFeatureLayout, CpdPlus};
use crate::features::{Aggregation, FeatureLayout};
use crate::scout::{featurization_fingerprint, Scout, ScoutBuildConfig};
use crate::selector::{Selector, SelectorKind};
use cloudsim::SimDuration;
use ml::cpd::CpdConfig;
use ml::persist::{forest_from_lines, forest_to_text, Lines, PersistError};
use monitoring::Dataset;
use std::sync::Arc;

const MAGIC: &str = "scout-model v1";

impl Scout {
    /// Serialize the trained Scout to the model text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push('\n');

        out.push_str("[config]\n");
        out.push_str(&self.config.to_source());
        out.push_str("[end]\n");

        out.push_str("[build]\n");
        let b = &self.build;
        out.push_str(&format!("lookback_minutes {}\n", b.lookback.as_minutes()));
        out.push_str(&format!("selector_kind {}\n", b.selector.name()));
        out.push_str(&format!("meta_words {}\n", b.meta_words));
        out.push_str(&format!(
            "aggregation {}\n",
            match b.aggregation {
                Aggregation::PooledSamples => "pooled-samples",
                Aggregation::DeviceMeans => "device-means",
            }
        ));
        out.push_str(&format!(
            "cpd {} {} {} {:?} {} {:?}\n",
            b.cpdplus.few_device_threshold,
            b.cpdplus.cpd.min_segment,
            b.cpdplus.cpd.n_permutations,
            b.cpdplus.cpd.significance,
            b.cpdplus.seed,
            b.cpdplus.fast_threshold,
        ));
        let disabled: Vec<&str> = b.disabled_datasets.iter().map(|d| d.name()).collect();
        out.push_str(&format!("disabled {}\n", disabled.join(" ")));
        out.push_str("[end]\n");

        out.push_str("[forest]\n");
        out.push_str(&forest_to_text(&self.forest));
        out.push_str("[end]\n");

        out.push_str("[selector]\n");
        out.push_str(&self.selector.to_text());
        out.push_str("[end]\n");

        out.push_str("[cpd-cluster]\n");
        match self.cpd.cluster_model() {
            Some(rf) => {
                out.push_str("present\n");
                out.push_str(&forest_to_text(rf));
            }
            None => out.push_str("absent\n"),
        }
        out.push_str("[end]\n");
        out
    }

    /// Load a Scout from the model text format.
    pub fn from_text(src: &str) -> Result<Scout, PersistError> {
        let mut lines = Lines::new(src);
        lines.expect(MAGIC)?;

        lines.expect("[config]")?;
        let mut config_src = String::new();
        loop {
            let l = lines.next_line()?;
            if l == "[end]" {
                break;
            }
            config_src.push_str(l);
            config_src.push('\n');
        }
        let config = ScoutConfig::parse(&config_src)
            .map_err(|e| PersistError(format!("embedded config: {e}")))?;

        lines.expect("[build]")?;
        let mut build = ScoutBuildConfig::default();
        loop {
            let l = lines.next_line()?;
            if l == "[end]" {
                break;
            }
            let (key, rest) = l.split_once(' ').unwrap_or((l, ""));
            match key {
                "lookback_minutes" => {
                    let m: u64 = rest
                        .parse()
                        .map_err(|_| PersistError(format!("bad lookback '{rest}'")))?;
                    build.lookback = SimDuration::minutes(m);
                }
                "selector_kind" => {
                    build.selector = SelectorKind::ALL
                        .into_iter()
                        .find(|k| k.name() == rest)
                        .ok_or_else(|| PersistError(format!("unknown selector '{rest}'")))?;
                }
                "meta_words" => {
                    build.meta_words = rest
                        .parse()
                        .map_err(|_| PersistError(format!("bad meta_words '{rest}'")))?;
                }
                "aggregation" => {
                    build.aggregation = match rest {
                        "pooled-samples" => Aggregation::PooledSamples,
                        "device-means" => Aggregation::DeviceMeans,
                        other => {
                            return Err(PersistError(format!("unknown aggregation '{other}'")))
                        }
                    };
                }
                "cpd" => {
                    let f: Vec<f64> = rest
                        .split_whitespace()
                        .map(|v| {
                            v.parse()
                                .map_err(|_| PersistError(format!("bad cpd field '{v}'")))
                        })
                        .collect::<Result<_, _>>()?;
                    if f.len() != 6 {
                        return Err(PersistError("cpd line needs 6 fields".into()));
                    }
                    build.cpdplus.few_device_threshold = f[0] as usize;
                    build.cpdplus.cpd = CpdConfig {
                        min_segment: f[1] as usize,
                        n_permutations: f[2] as usize,
                        significance: f[3],
                    };
                    build.cpdplus.seed = f[4] as u64;
                    build.cpdplus.fast_threshold = f[5];
                }
                "disabled" => {
                    build.disabled_datasets = rest
                        .split_whitespace()
                        .map(|name| {
                            Dataset::ALL
                                .into_iter()
                                .find(|d| d.name() == name)
                                .ok_or_else(|| PersistError(format!("unknown data set '{name}'")))
                        })
                        .collect::<Result<_, _>>()?;
                }
                other => return Err(PersistError(format!("unknown build key '{other}'"))),
            }
        }

        lines.expect("[forest]")?;
        let forest = forest_from_lines(&mut lines)?;
        lines.expect("[end]")?;

        lines.expect("[selector]")?;
        let selector = Selector::from_lines(&mut lines)?;
        lines.expect("[end]")?;

        lines.expect("[cpd-cluster]")?;
        let cpd_layout = CpdFeatureLayout::build(&config, &build.disabled_datasets);
        let mut cpd = CpdPlus::new(build.cpdplus.clone(), cpd_layout);
        match lines.next_line()? {
            "present" => {
                cpd.set_cluster_model(Some(forest_from_lines(&mut lines)?));
            }
            "absent" => {}
            other => return Err(PersistError(format!("bad cpd-cluster marker '{other}'"))),
        }
        lines.expect("[end]")?;

        let layout = FeatureLayout::build(&config, &build.disabled_datasets);
        if layout.len() != forest.n_features() {
            return Err(PersistError(format!(
                "layout/forest shape mismatch: {} features vs {}",
                layout.len(),
                forest.n_features()
            )));
        }
        Ok(Scout {
            fingerprint: featurization_fingerprint(&config, &build),
            config,
            build,
            layout: Arc::new(layout),
            forest,
            cpd,
            selector,
        })
    }

    /// Save to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Load from a file.
    pub fn load(path: &std::path::Path) -> Result<Scout, PersistError> {
        let src = std::fs::read_to_string(path)
            .map_err(|e| PersistError(format!("cannot read {}: {e}", path.display())))?;
        Scout::from_text(&src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Example;
    use cloudsim::{
        ComponentKind, Fault, FaultKind, FaultScope, Severity, SimTime, Team, Topology,
        TopologyConfig,
    };
    use monitoring::{MonitoringConfig, MonitoringSystem};

    fn world() -> (Topology, Vec<Fault>) {
        let topo = Topology::build(TopologyConfig::default());
        let clusters: Vec<_> = topo.of_kind(ComponentKind::Cluster).map(|c| c.id).collect();
        let mut faults = Vec::new();
        for i in 0..40u64 {
            let cluster = clusters[i as usize % clusters.len()];
            let tors = topo.descendants_of_kind(cluster, ComponentKind::TorSwitch);
            let servers = topo.descendants_of_kind(cluster, ComponentKind::Server);
            let (kind, owner, dev) = if i % 2 == 0 {
                (
                    FaultKind::TorFailure,
                    Team::PhyNet,
                    tors[i as usize % tors.len()],
                )
            } else {
                (
                    FaultKind::ServerOverload,
                    Team::Compute,
                    servers[i as usize % servers.len()],
                )
            };
            faults.push(Fault {
                id: i as u32,
                kind,
                owner,
                scope: FaultScope::Devices {
                    devices: vec![dev],
                    cluster,
                },
                start: SimTime::from_hours(10 + i * 8),
                duration: SimDuration::hours(4),
                severity: Severity::Sev2,
                upgrade_related: false,
            });
        }
        (topo, faults)
    }

    fn examples(topo: &Topology, faults: &[Fault]) -> Vec<Example> {
        faults
            .iter()
            .map(|f| {
                let dev = &topo.component(f.scope.devices()[0]).name;
                let cl = &topo.component(f.scope.cluster()).name;
                Example::new(
                    format!("issue on {dev}\nDevice {dev} in {cl} misbehaving."),
                    f.start + SimDuration::minutes(40),
                    f.owner == Team::PhyNet,
                )
            })
            .collect()
    }

    #[test]
    fn saved_scout_predicts_identically() {
        let (topo, faults) = world();
        let mon = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        let exs = examples(&topo, &faults);
        let (scout, corpus) = Scout::train(
            ScoutConfig::phynet(),
            ScoutBuildConfig::default(),
            &exs,
            &mon,
        );
        let text = scout.to_text();
        let loaded = Scout::from_text(&text).expect("round trip");
        for item in corpus.items.iter().filter(|i| i.trainable()) {
            let a = scout.predict_prepared(item, &mon);
            let b = loaded.predict_prepared(item, &mon);
            assert_eq!(a.verdict, b.verdict);
            assert!((a.confidence - b.confidence).abs() < 1e-12);
            assert_eq!(a.model, b.model);
        }
    }

    #[test]
    fn fingerprint_names_the_five_featurization_inputs_and_survives_a_reload() {
        let fp = featurization_fingerprint;
        let (config, build) = (ScoutConfig::phynet(), ScoutBuildConfig::default());
        let base = fp(&config, &build);
        let stricter = format!("{}EXCLUDE TITLE = <drill>;\n", crate::config::PHYNET_CONFIG);
        let variants = [
            fp(&ScoutConfig::parse(&stricter).unwrap(), &build),
            fp(
                &config,
                &ScoutBuildConfig {
                    lookback: SimDuration::minutes(90),
                    ..build.clone()
                },
            ),
            fp(
                &config,
                &ScoutBuildConfig {
                    aggregation: Aggregation::DeviceMeans,
                    ..build.clone()
                },
            ),
            fp(
                &config,
                &ScoutBuildConfig {
                    disabled_datasets: vec![Dataset::PingStats],
                    ..build.clone()
                },
            ),
            fp(
                &config,
                &ScoutBuildConfig {
                    cpdplus: crate::CpdPlusConfig {
                        fast_threshold: build.cpdplus.fast_threshold * 2.0,
                        ..build.cpdplus.clone()
                    },
                    ..build.clone()
                },
            ),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(*v, base, "input {i} is not in the fingerprint");
            assert!(!variants[..i].contains(v), "inputs {i} and earlier collide");
        }
        // What only the models read leaves it alone: such Scouts share a
        // corpus.
        let other_models = ScoutBuildConfig {
            forest: ml::forest::ForestConfig {
                n_trees: 3,
                ..build.forest.clone()
            },
            selector: SelectorKind::AdaBoost,
            meta_words: 7,
            cluster_train_cap: 1,
            seed: 1,
            ..build.clone()
        };
        assert_eq!(fp(&config, &other_models), base);

        // Every input at a non-default value comes back from model text.
        let (topo, faults) = world();
        let mon = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        let exs = examples(&topo, &faults);
        let build = ScoutBuildConfig {
            lookback: SimDuration::minutes(90),
            aggregation: Aggregation::DeviceMeans,
            disabled_datasets: vec![Dataset::PingStats, Dataset::SnmpSyslog],
            cpdplus: crate::CpdPlusConfig {
                few_device_threshold: 2,
                seed: 99,
                fast_threshold: 3.25,
                ..build.cpdplus.clone()
            },
            ..other_models
        };
        let config = ScoutConfig::parse(&stricter).unwrap();
        let expected = fp(&config, &build);
        let (scout, _) = Scout::train(config, build, &exs, &mon);
        assert_eq!(scout.fingerprint(), expected);
        let loaded = Scout::from_text(&scout.to_text()).expect("round trip");
        assert_eq!(loaded.fingerprint(), expected);
    }

    #[test]
    fn file_round_trip() {
        let (topo, faults) = world();
        let mon = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        let exs = examples(&topo, &faults);
        let (scout, _) = Scout::train(
            ScoutConfig::phynet(),
            ScoutBuildConfig::default(),
            &exs,
            &mon,
        );
        let dir = std::env::temp_dir().join("scouts-rs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("phynet.scout");
        scout.save(&path).unwrap();
        let loaded = Scout::load(&path).unwrap();
        let pred = loaded.predict(
            "issue on tor-0.c0.dc0\nDevice tor-0.c0.dc0 in c0.dc0 misbehaving.",
            SimTime::from_hours(12),
            &mon,
        );
        assert!(pred.confidence.is_finite());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_files_are_rejected() {
        assert!(Scout::from_text("not a model").is_err());
        assert!(Scout::from_text("scout-model v1\n[config]\n[end]\n").is_err());
        // Valid header, truncated body.
        let (topo, faults) = world();
        let mon = MonitoringSystem::new(&topo, &faults, MonitoringConfig::default());
        let exs = examples(&topo, &faults);
        let (scout, _) = Scout::train(
            ScoutConfig::phynet(),
            ScoutBuildConfig::default(),
            &exs,
            &mon,
        );
        let text = scout.to_text();
        let truncated = &text[..text.len() / 2];
        assert!(Scout::from_text(truncated).is_err());
    }

    #[test]
    fn config_source_round_trips() {
        let cfg = ScoutConfig::phynet();
        let regenerated = ScoutConfig::parse(&cfg.to_source()).unwrap();
        assert_eq!(regenerated.patterns.len(), cfg.patterns.len());
        assert_eq!(regenerated.monitoring.len(), cfg.monitoring.len());
        assert_eq!(regenerated.excludes.len(), cfg.excludes.len());
        for (a, b) in cfg.monitoring.iter().zip(&regenerated.monitoring) {
            assert_eq!(a.dataset, b.dataset);
            assert_eq!(a.associations, b.associations);
            assert_eq!(a.class_tag, b.class_tag);
        }
    }
}
