//! The Scout itself: the end-to-end pipeline of §5.3.
//!
//! "When a new incident is created, the PhyNet Scout first extracts the
//! relevant components based on the configuration file. If it cannot
//! identify any specific components, incident routing falls back to the
//! legacy system. Otherwise, it constructs the model selector's feature
//! vector from the incident text, and the model selector decides whether
//! to use the RF or the CPD+ algorithm. Finally, the Scout will construct
//! the feature vector for the chosen model, run the algorithm, and report
//! the classification results to the user."
//!
//! Training is split in two stages so the expensive part (telemetry
//! featurization) can be cached across retraining experiments:
//! [`Scout::prepare`] turns raw [`Example`]s into a [`PreparedCorpus`];
//! [`Scout::train_prepared`] fits models on any index subset of it.

use crate::config::ScoutConfig;
use crate::cpdplus::{CpdFeatureLayout, CpdPlus, CpdPlusConfig};
use crate::explain::{self, Explanation};
use crate::extract::{ExtractedComponents, Extractor};
use crate::features::{Aggregation, FeatureLayout, Featurizer};
use crate::selector::{Selector, SelectorKind};
use crate::Example;
use cloudsim::{SimDuration, SimTime};
use ml::forest::{ForestConfig, RandomForest};
use ml::metrics::Confusion;
use ml::Classifier as _;
use monitoring::{Dataset, MonitoringSystem};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

/// Everything configurable about building a Scout.
#[derive(Debug, Clone)]
pub struct ScoutBuildConfig {
    /// Telemetry look-back window `T` (§7: two hours).
    pub lookback: SimDuration,
    /// Main supervised forest settings.
    pub forest: ForestConfig,
    /// Which model-selector algorithm to use (Fig. 8).
    pub selector: SelectorKind,
    /// CPD+ settings.
    pub cpdplus: CpdPlusConfig,
    /// Deprecated data sets (Fig. 9): their features are dropped.
    pub disabled_datasets: Vec<Dataset>,
    /// Device-merging strategy for time-series features (§9 ablation).
    pub aggregation: Aggregation,
    /// Number of important words in the selector's meta-features.
    pub meta_words: usize,
    /// Cap on incidents used to train the CPD+ cluster forest (its
    /// features need change-point detection across whole clusters, the
    /// most expensive computation in the pipeline).
    pub cluster_train_cap: usize,
    /// Determinism seed.
    pub seed: u64,
}

impl Default for ScoutBuildConfig {
    fn default() -> Self {
        ScoutBuildConfig {
            lookback: SimDuration::hours(2),
            forest: ForestConfig::default(),
            selector: SelectorKind::BagOfWordsRf,
            cpdplus: CpdPlusConfig::default(),
            disabled_datasets: Vec::new(),
            aggregation: Aggregation::default(),
            meta_words: 40,
            cluster_train_cap: 400,
            seed: 0x0005_C007,
        }
    }
}

/// The Scout's answer for one incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The team is responsible: route the incident here.
    Responsible,
    /// Not this team: route it away.
    NotResponsible,
    /// The Scout abstains (no components / excluded): use the legacy
    /// routing process.
    Fallback,
}

/// Which stage of the pipeline produced the verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelUsed {
    /// The supervised random forest.
    RandomForest,
    /// CPD+ conservative few-device rule.
    CpdConservative,
    /// CPD+ cluster-profile forest.
    CpdCluster,
    /// An EXCLUDE rule matched.
    Exclusion,
    /// No components found.
    Fallback,
}

/// Which pipeline path [`Scout::predict_path`] should take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathChoice {
    /// The normal model-selector pipeline.
    Auto,
    /// Force the supervised forest (Table 1 "RF" row).
    ForestOnly,
    /// Force CPD+ (Table 1 "CPD+" row).
    CpdOnly,
}

/// A full prediction: verdict, confidence, provenance, explanation (§4).
#[derive(Debug, Clone)]
pub struct Prediction {
    /// The routing decision.
    pub verdict: Verdict,
    /// Confidence in `[0.5, 1]` for model verdicts; 1.0 for rule verdicts.
    pub confidence: f64,
    /// Which model decided.
    pub model: ModelUsed,
    /// Operator-facing explanation.
    pub explanation: Explanation,
}

impl Prediction {
    /// Convenience: did the Scout say "responsible"?
    pub fn says_responsible(&self) -> bool {
        self.verdict == Verdict::Responsible
    }

    /// This prediction's audit record (§4, §8): who decided, how
    /// confidently, on which features, and where the incident went, in
    /// the vocabulary [`obs::AuditRecord`] documents. Both writers build
    /// it here — the Scout's own record (corpus ordinal, `model_version`
    /// 0) and the server's versioned one that feedback joins against.
    pub fn audit_record(
        &self,
        incident: u64,
        model_version: u64,
        trace_id: u64,
    ) -> obs::AuditRecord {
        obs::AuditRecord {
            incident,
            model: format!("{:?}", self.model),
            verdict: format!("{:?}", self.verdict),
            confidence: self.confidence,
            top_features: self.explanation.top_features.clone(),
            outcome: match self.verdict {
                Verdict::Responsible => "route-here",
                Verdict::NotResponsible => "route-away",
                Verdict::Fallback => "legacy-process",
            }
            .into(),
            model_version,
            trace_id,
        }
    }
}

/// One example after the (cacheable) featurization stage.
#[derive(Debug, Clone)]
pub struct PreparedExample {
    /// Position in the prepared corpus; doubles as the incident id in
    /// the audit log.
    pub ordinal: usize,
    /// The raw example.
    pub example: Example,
    /// Did an EXCLUDE rule veto it?
    pub excluded: bool,
    /// Extracted, resolved components.
    pub extracted: ExtractedComponents,
    /// Names of extracted components (explanations).
    pub component_names: Vec<String>,
    /// Main feature vector; `None` when excluded or component-free.
    pub features: Option<Vec<f64>>,
    /// The CPD+ cluster-path row's memo: present for exactly the
    /// cluster-only incidents (a cluster named, no device), unset until
    /// somebody needs the row. [`CpdPlus::cluster_row`] is the one
    /// producer behind it. Serving never fills it ahead of time: the
    /// first [`Scout::classify`] whose selector sends the item down
    /// CPD+'s cluster branch does, and every other team classifying the
    /// same shared corpus reads that row — so the pipeline's most
    /// expensive computation runs at most once per incident and not at
    /// all for one the forest answers. Offline [`Scout::prepare`] forces
    /// every memo before returning, because the row is also a
    /// label-independent *training* input: [`Scout::train_prepared`]
    /// fits the CPD+ cluster forest on these rows, and one prepared pass
    /// is shared across many [`PreparedCorpus::relabeled`] corpora.
    /// `None` (an incident naming devices): a CPD+ cluster decision
    /// computes its row for itself.
    pub cluster_features: Option<OnceLock<Vec<f64>>>,
}

impl PreparedExample {
    /// Is this example usable for supervised training?
    pub fn trainable(&self) -> bool {
        self.features.is_some()
    }

    /// The CPD+ cluster row, once produced (see
    /// [`PreparedExample::cluster_features`]).
    pub fn cluster_row(&self) -> Option<&[f64]> {
        Some(self.cluster_features.as_ref()?.get()?)
    }
}

/// A featurized corpus plus its layouts.
#[derive(Debug, Clone)]
pub struct PreparedCorpus {
    /// Per-example prepared data, in input order.
    pub items: Vec<PreparedExample>,
    /// The main feature layout used (shared with the Scouts trained on
    /// or preparing this corpus, never rebuilt per call).
    pub layout: Arc<FeatureLayout>,
}

impl PreparedCorpus {
    /// Indices of trainable items.
    pub fn trainable_indices(&self) -> Vec<usize> {
        (0..self.items.len())
            .filter(|&i| self.items[i].trainable())
            .collect()
    }

    /// The same featurized corpus with every label rewritten by
    /// `label(index, example)`.
    ///
    /// Featurization is label-independent (labels are only read at
    /// train time), so one expensive `prepare` pass can be shared across
    /// many per-team Scouts: relabel the corpus once per team ("is this
    /// team responsible?") and call [`Scout::train_prepared`] on each.
    /// This is how the synthetic fleet trains N Scouts in one
    /// featurization pass.
    pub fn relabeled(&self, label: impl Fn(usize, &Example) -> bool) -> PreparedCorpus {
        let mut corpus = self.clone();
        for (i, item) in corpus.items.iter_mut().enumerate() {
            item.example.label = label(i, &item.example);
        }
        corpus
    }
}

/// A trained Scout.
#[derive(Debug)]
pub struct Scout {
    pub(crate) config: ScoutConfig,
    pub(crate) build: ScoutBuildConfig,
    pub(crate) layout: Arc<FeatureLayout>,
    pub(crate) forest: RandomForest,
    pub(crate) cpd: CpdPlus,
    pub(crate) selector: Selector,
    /// See [`Scout::fingerprint`]; computed once at construction.
    pub(crate) fingerprint: String,
}

/// The canonical text of everything [`Scout::prepare_inputs`] reads
/// besides its inputs — see [`Scout::fingerprint`].
pub(crate) fn featurization_fingerprint(config: &ScoutConfig, build: &ScoutBuildConfig) -> String {
    format!(
        "{}lookback {:?}\naggregation {:?}\ndisabled {:?}\ncpdplus {:?}\n",
        config.to_source(),
        build.lookback,
        build.aggregation,
        build.disabled_datasets,
        build.cpdplus,
    )
}

impl Scout {
    /// Stage 1: featurize a corpus (cache this across retraining sweeps).
    ///
    /// Featurization is independent per example, so the corpus is mapped
    /// on the workspace thread pool. Ordinals and item order follow input
    /// order, and every per-example computation is a pure function of the
    /// example, so the corpus is bit-identical for any worker count.
    pub fn prepare(
        config: &ScoutConfig,
        build: &ScoutBuildConfig,
        examples: &[Example],
        monitoring: &MonitoringSystem<'_>,
    ) -> PreparedCorpus {
        Scout::prepare_cached(config, build, examples, monitoring, None)
    }

    /// [`Scout::prepare`] with telemetry fetched through a feature-chunk
    /// cache. Passing `None` builds every chunk fresh; either way the
    /// corpus is bit-identical (chunks are pure functions of their key).
    pub fn prepare_cached(
        config: &ScoutConfig,
        build: &ScoutBuildConfig,
        examples: &[Example],
        monitoring: &MonitoringSystem<'_>,
        cache: Option<&featcache::FeatCache>,
    ) -> PreparedCorpus {
        Scout::prepare_cached_on(
            pool::Pool::global(),
            config,
            build,
            examples,
            monitoring,
            cache,
        )
    }

    /// [`Scout::prepare_cached`] on an explicit worker pool (the
    /// determinism tests sweep worker counts through this).
    pub fn prepare_cached_on(
        workers: &pool::Pool,
        config: &ScoutConfig,
        build: &ScoutBuildConfig,
        examples: &[Example],
        monitoring: &MonitoringSystem<'_>,
        cache: Option<&featcache::FeatCache>,
    ) -> PreparedCorpus {
        Scout::prepare_traced_on(workers, config, build, examples, monitoring, cache, None)
    }

    /// [`Scout::prepare_cached_on`] with an optional per-example trace
    /// context (index-aligned with `examples`). Each example's feature
    /// construction runs under its own request context, so its spans —
    /// including cache-miss `featcache.build` spans — attach to the
    /// originating request's trace even when a coalescer gathered many
    /// requests into one prepare call. Tracing never touches the
    /// computation itself: prepared output is bit-identical with `ctxs`
    /// present, absent, or partially populated.
    pub fn prepare_traced_on(
        workers: &pool::Pool,
        config: &ScoutConfig,
        build: &ScoutBuildConfig,
        examples: &[Example],
        monitoring: &MonitoringSystem<'_>,
        cache: Option<&featcache::FeatCache>,
        ctxs: Option<&[obs::TraceContext]>,
    ) -> PreparedCorpus {
        let layout = Arc::new(FeatureLayout::build(config, &build.disabled_datasets));
        let cpd_layout = CpdFeatureLayout::build(config, &build.disabled_datasets);
        let cpd = CpdPlus::new(build.cpdplus.clone(), cpd_layout);
        let corpus = Preparer {
            config,
            build,
            layout: &layout,
        }
        .run(workers, examples, monitoring, cache, ctxs);
        // An offline corpus is what `train_prepared` fits the CPD+
        // cluster forest on: produce every cluster-only item's row now.
        workers.parallel_map(&corpus.items, |i, item| {
            let _trace = enter_context(ctxs, i);
            if let Some(memo) = &item.cluster_features {
                cpd.cluster_row(
                    Some(memo),
                    &item.extracted,
                    item.example.time,
                    monitoring,
                    build.lookback,
                );
            }
        });
        corpus
    }

    /// Stage 2: train on an index subset of a prepared corpus.
    pub fn train_prepared(
        config: ScoutConfig,
        build: ScoutBuildConfig,
        corpus: &PreparedCorpus,
        train_idx: &[usize],
        // Kept for API symmetry with prepare/predict; an offline corpus
        // holds its cluster rows so training itself never touches telemetry.
        _monitoring: &MonitoringSystem<'_>,
    ) -> Scout {
        let _span = obs::span!("scout.train");
        let mut rng = SmallRng::seed_from_u64(build.seed);
        let usable: Vec<usize> = train_idx
            .iter()
            .copied()
            .filter(|&i| corpus.items[i].trainable())
            .collect();
        assert!(
            usable.len() >= 4,
            "need at least a handful of trainable examples, got {}",
            usable.len()
        );
        let x: Vec<Vec<f64>> = usable
            .iter()
            .map(|&i| corpus.items[i].features.clone().unwrap())
            .collect();
        let y: Vec<usize> = usable
            .iter()
            .map(|&i| usize::from(corpus.items[i].example.label))
            .collect();
        let w: Vec<f64> = usable
            .iter()
            .map(|&i| corpus.items[i].example.weight)
            .collect();

        let forest = RandomForest::fit_weighted(&x, &y, &w, 2, build.forest.clone(), &mut rng);

        // Meta-learning labels: 2-fold cross-validated mistakes of the
        // main forest (§5.3: "find incidents where the RF is expected to
        // make mistakes").
        let rf_wrong = {
            let _span = obs::span!("scout.train.crossval");
            cross_val_mistakes(&x, &y, &w, &build.forest, &mut rng)
        };
        let texts: Vec<String> = usable
            .iter()
            .map(|&i| corpus.items[i].example.text.clone())
            .collect();
        let responsible: Vec<bool> = usable
            .iter()
            .map(|&i| corpus.items[i].example.label)
            .collect();
        let selector = Selector::fit(
            build.selector,
            &texts,
            &responsible,
            &rf_wrong,
            build.meta_words,
            &mut rng,
        );

        // CPD+ cluster forest: trained on cluster-implicating incidents
        // (capped — cluster-wide change-point detection is costly).
        let cpd_layout = CpdFeatureLayout::build(&config, &build.disabled_datasets);
        let mut cpd = CpdPlus::new(build.cpdplus.clone(), cpd_layout);
        let cluster_idx: Vec<usize> = usable
            .iter()
            .copied()
            .filter(|&i| corpus.items[i].cluster_row().is_some())
            .take(build.cluster_train_cap)
            .collect();
        if cluster_idx.len() >= 10 {
            let cx: Vec<Vec<f64>> = cluster_idx
                .iter()
                .filter_map(|&i| corpus.items[i].cluster_row().map(<[f64]>::to_vec))
                .collect();
            let cy: Vec<usize> = cluster_idx
                .iter()
                .map(|&i| usize::from(corpus.items[i].example.label))
                .collect();
            cpd.fit_cluster_rf(&cx, &cy, &mut rng);
        }

        Scout {
            fingerprint: featurization_fingerprint(&config, &build),
            config,
            build,
            layout: Arc::clone(&corpus.layout),
            forest,
            cpd,
            selector,
        }
    }

    /// Convenience: prepare + train on everything.
    pub fn train(
        config: ScoutConfig,
        build: ScoutBuildConfig,
        examples: &[Example],
        monitoring: &MonitoringSystem<'_>,
    ) -> (Scout, PreparedCorpus) {
        let corpus = Scout::prepare(&config, &build, examples, monitoring);
        let all: Vec<usize> = (0..corpus.items.len()).collect();
        let scout = Scout::train_prepared(config, build, &corpus, &all, monitoring);
        (scout, corpus)
    }

    /// The feature layout in use.
    pub fn layout(&self) -> &FeatureLayout {
        &self.layout
    }

    /// The featurization fingerprint: the canonical text of everything
    /// [`Scout::prepare_inputs`] and the cluster-row producer read
    /// besides their inputs and the monitoring plane — the config
    /// source, look-back, aggregation, disabled data sets and CPD+
    /// settings. Two Scouts with equal fingerprints prepare
    /// bit-identical corpora from the same inputs and produce
    /// bit-identical cluster rows, so a fleet pass featurizes once per
    /// fingerprint, every such Scout only
    /// [`classify`](Scout::classify)s, and whichever of them first
    /// needs an item's row fills the memo for all. Compare by equality;
    /// it is the text itself, not a hash, because a collision would
    /// silently feed one team another's features.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The underlying forest (for importance analyses).
    pub fn forest(&self) -> &RandomForest {
        &self.forest
    }

    /// Predict from a prepared example, forcing a specific pipeline path
    /// (Table 1 evaluates the RF and CPD+ components in isolation).
    pub fn predict_path(
        &self,
        item: &PreparedExample,
        monitoring: &MonitoringSystem<'_>,
        path: PathChoice,
    ) -> Prediction {
        if item.excluded || item.extracted.is_empty() {
            return self.predict_prepared(item, monitoring);
        }
        match path {
            PathChoice::Auto => self.predict_prepared(item, monitoring),
            PathChoice::ForestOnly => self.predict_forest(item),
            PathChoice::CpdOnly => self.predict_cpd(item, monitoring),
        }
    }

    /// Predict from a prepared example. Exactly one audit-log record is
    /// emitted per call (see [`obs::audit`]).
    pub fn predict_prepared(
        &self,
        item: &PreparedExample,
        monitoring: &MonitoringSystem<'_>,
    ) -> Prediction {
        let _span = obs::span!("scout.predict");
        // The selector (meta-feature tokenization plus its forest) is
        // consulted at most once per item, and never for a rule verdict.
        let pred = if item.excluded {
            Prediction {
                verdict: Verdict::NotResponsible,
                confidence: 1.0,
                model: ModelUsed::Exclusion,
                explanation: Explanation {
                    evidence: vec!["An EXCLUDE rule matched this incident.".into()],
                    ..Default::default()
                },
            }
        } else if item.extracted.is_empty() {
            Prediction {
                verdict: Verdict::Fallback,
                confidence: 0.0,
                model: ModelUsed::Fallback,
                explanation: Explanation {
                    evidence: vec!["No components could be extracted; the incident is too \
                         broad in scope for the Scout (§5.3)."
                        .into()],
                    ..Default::default()
                },
            }
        } else if self.selector.routes_to_cpd(&item.example.text) {
            self.predict_cpd(item, monitoring)
        } else {
            self.predict_forest(item)
        };
        self.audit(item, &pred);
        pred
    }

    /// Predict for raw incident text at time `t` (prepares on the fly).
    pub fn predict(&self, text: &str, t: SimTime, monitoring: &MonitoringSystem<'_>) -> Prediction {
        let examples = [Example::new(text, t, false)];
        let corpus = Scout::prepare(&self.config, &self.build, &examples, monitoring);
        self.predict_prepared(&corpus.items[0], monitoring)
    }

    /// Predict for a batch of raw `(text, time)` inputs in one prepared
    /// pass: the whole batch is featurized through one
    /// [`Scout::prepare_inputs`] call, then [`Scout::classify`] runs
    /// [`Scout::predict_prepared`] on each item; both fan out per item on
    /// the workspace thread pool.
    ///
    /// Every per-item computation in either half is a pure function of
    /// the item, so results are **identical to calling [`Scout::predict`]
    /// once per input** — batch size, batch composition, and worker count
    /// never leak into a prediction. This is what lets an online server
    /// micro-batch concurrent requests without giving up determinism.
    pub fn predict_many(
        &self,
        inputs: &[(&str, SimTime)],
        monitoring: &MonitoringSystem<'_>,
    ) -> Vec<Prediction> {
        self.predict_many_cached(inputs, monitoring, None)
    }

    /// [`Scout::predict_many`] with featurization fetched through a chunk
    /// cache. Repeated predicts over overlapping look-back windows (the
    /// online serving pattern) hit warm chunks and skip telemetry
    /// generation and sorting; predictions are bit-identical to the
    /// uncached path.
    pub fn predict_many_cached(
        &self,
        inputs: &[(&str, SimTime)],
        monitoring: &MonitoringSystem<'_>,
        cache: Option<&featcache::FeatCache>,
    ) -> Vec<Prediction> {
        self.predict_many_traced(inputs, monitoring, cache, None)
    }

    /// [`Scout::predict_many_cached`] with optional per-input trace
    /// contexts (index-aligned with `inputs`, as handed over by the
    /// server). Each input's featurization and classification
    /// spans — and its audit record — carry that input's trace id.
    /// Predictions are bit-identical whether `ctxs` is given or not.
    ///
    /// This is [`Scout::prepare_inputs`] then [`Scout::classify`], the
    /// same two calls a fleet pass makes — there once per fingerprint
    /// and once per team, here back to back.
    pub fn predict_many_traced(
        &self,
        inputs: &[(&str, SimTime)],
        monitoring: &MonitoringSystem<'_>,
        cache: Option<&featcache::FeatCache>,
        ctxs: Option<&[obs::TraceContext]>,
    ) -> Vec<Prediction> {
        let _span = obs::span!("scout.predict_many");
        let corpus = self.prepare_inputs(inputs, monitoring, cache, ctxs);
        self.classify(&corpus, monitoring, ctxs)
    }

    /// The model-independent half of a serving predict: exclusion,
    /// extraction and featurization for `inputs`, through `cache` when
    /// given, and an unset cluster-row memo on every cluster-only item
    /// (see [`PreparedExample::cluster_features`]). Reads only what
    /// [`Scout::fingerprint`] names — the Scout's own layout is
    /// borrowed, nothing is rebuilt per call — so the corpus equals
    /// [`Scout::prepare`]'s on the same config in everything but rows
    /// not yet demanded, and can be classified by any Scout with an
    /// equal fingerprint.
    pub fn prepare_inputs(
        &self,
        inputs: &[(&str, SimTime)],
        monitoring: &MonitoringSystem<'_>,
        cache: Option<&featcache::FeatCache>,
        ctxs: Option<&[obs::TraceContext]>,
    ) -> PreparedCorpus {
        let examples: Vec<Example> = inputs
            .iter()
            .map(|&(text, t)| Example::new(text, t, false))
            .collect();
        Preparer {
            config: &self.config,
            build: &self.build,
            layout: &self.layout,
        }
        .run(pool::Pool::global(), &examples, monitoring, cache, ctxs)
    }

    /// The per-model half: [`Scout::predict_prepared`] for every item of
    /// a corpus prepared under this Scout's
    /// [fingerprint](Scout::fingerprint), fanned out on the workspace
    /// pool. One prediction per item, in item order; `ctxs` as in
    /// [`Scout::predict_many_traced`]. Each item runs the single-item
    /// body itself, so a batch answers exactly as its items would one at
    /// a time.
    pub fn classify(
        &self,
        corpus: &PreparedCorpus,
        monitoring: &MonitoringSystem<'_>,
        ctxs: Option<&[obs::TraceContext]>,
    ) -> Vec<Prediction> {
        pool::Pool::global().parallel_map(&corpus.items, |i, item| {
            let _trace = enter_context(ctxs, i);
            self.predict_prepared(item, monitoring)
        })
    }

    /// The Scout's own audit record for `pred`, keyed by corpus ordinal
    /// (the server emits the versioned one, see
    /// [`Prediction::audit_record`]).
    fn audit(&self, item: &PreparedExample, pred: &Prediction) {
        if !obs::enabled() {
            return;
        }
        obs::observe("scout.predict.confidence", pred.confidence);
        let trace_id = obs::trace::current().map_or(0, |c| c.trace_id);
        pred.audit_record(item.ordinal as u64, 0, trace_id).emit();
    }

    fn predict_forest(&self, item: &PreparedExample) -> Prediction {
        let _span = obs::span!("scout.predict.forest");
        let features = item
            .features
            .as_ref()
            .expect("non-empty extraction has features");
        let mut proba = [0.0; 2];
        self.forest.predict_proba_into(features, &mut proba);
        let responsible = proba[1] >= 0.5;
        let (_, contributions) = self.forest.feature_contributions(features, 1);
        let top_features = explain::strongest(&contributions, 5)
            .into_iter()
            .map(|i| (self.layout.names()[i].clone(), contributions[i]))
            .collect();
        let explanation = Explanation {
            components: item.component_names.clone(),
            datasets: self.dataset_names(),
            top_features,
            evidence: Vec::new(),
        };
        Prediction {
            verdict: if responsible {
                Verdict::Responsible
            } else {
                Verdict::NotResponsible
            },
            confidence: proba[1].max(proba[0]),
            model: ModelUsed::RandomForest,
            explanation,
        }
    }

    fn predict_cpd(&self, item: &PreparedExample, monitoring: &MonitoringSystem<'_>) -> Prediction {
        let _span = obs::span!("scout.predict.cpd");
        let (verdict, model) = self.cpd.assess(
            &item.extracted,
            item.example.time,
            monitoring,
            self.build.lookback,
            item.cluster_features.as_ref(),
        );
        Prediction {
            verdict: if verdict.responsible {
                Verdict::Responsible
            } else {
                Verdict::NotResponsible
            },
            confidence: verdict.confidence,
            model,
            explanation: Explanation {
                components: item.component_names.clone(),
                datasets: self.dataset_names(),
                top_features: Vec::new(),
                evidence: verdict.evidence,
            },
        }
    }

    /// Evaluate on an index subset; Fallback verdicts are scored as
    /// "not responsible" (the legacy system handles them — §7 removes
    /// them from the data set, our experiments do the same via
    /// [`PreparedExample::trainable`]).
    pub fn evaluate(
        &self,
        corpus: &PreparedCorpus,
        idx: &[usize],
        monitoring: &MonitoringSystem<'_>,
    ) -> Confusion {
        let mut c = Confusion::default();
        for &i in idx {
            let item = &corpus.items[i];
            let pred = self.predict_prepared(item, monitoring);
            c.record(item.example.label, pred.says_responsible());
        }
        c
    }

    fn dataset_names(&self) -> Vec<String> {
        self.config
            .monitoring
            .iter()
            .filter(|m| !self.build.disabled_datasets.contains(&m.dataset))
            .map(|m| m.dataset.name().to_string())
            .collect()
    }
}

/// Enter input `i`'s trace context, if the caller handed one over.
fn enter_context(ctxs: Option<&[obs::TraceContext]>, i: usize) -> Option<obs::trace::ContextGuard> {
    ctxs.and_then(|c| c.get(i))
        .copied()
        .filter(|c| c.trace_id != 0)
        .map(obs::TraceContext::enter)
}

/// What featurization reads besides its inputs. Offline
/// [`Scout::prepare`] builds the layout from the config;
/// [`Scout::prepare_inputs`] lends the trained Scout's own.
struct Preparer<'a> {
    config: &'a ScoutConfig,
    build: &'a ScoutBuildConfig,
    layout: &'a Arc<FeatureLayout>,
}

impl Preparer<'_> {
    fn run(
        &self,
        workers: &pool::Pool,
        examples: &[Example],
        monitoring: &MonitoringSystem<'_>,
        cache: Option<&featcache::FeatCache>,
        ctxs: Option<&[obs::TraceContext]>,
    ) -> PreparedCorpus {
        let _span = obs::span!("scout.prepare");
        let Preparer {
            config,
            build,
            layout,
        } = *self;
        let topo = monitoring.topology();
        obs::gauge("scout.features.dim").set(layout.len() as f64);
        obs::counter("scout.prepare.examples").add(examples.len() as u64);
        let extractor = Extractor::new(config, topo);
        let mut featurizer =
            Featurizer::with_aggregation(layout, monitoring, build.lookback, build.aggregation);
        featurizer.cache = cache;
        let items = workers.parallel_map(examples, |ordinal, ex| {
            let _trace = enter_context(ctxs, ordinal);
            let _span = ctxs.is_some().then(|| obs::span!("scout.prepare.item"));
            let excluded = config.excludes_incident(&ex.text);
            let extracted = if excluded {
                ExtractedComponents::default()
            } else {
                extractor.extract(&ex.text)
            };
            let component_names = extracted
                .all()
                .iter()
                .map(|&c| topo.component(c).name.clone())
                .collect();
            let features = (!excluded && !extracted.is_empty())
                .then(|| featurizer.features(&extracted, ex.time));
            // The memo only: whoever first needs the row produces it.
            let cluster_features =
                (!excluded && extracted.device_count() == 0 && !extracted.clusters.is_empty())
                    .then(OnceLock::new);
            PreparedExample {
                ordinal,
                example: ex.clone(),
                excluded,
                extracted,
                component_names,
                features,
                cluster_features,
            }
        });
        PreparedCorpus {
            items,
            layout: Arc::clone(layout),
        }
    }
}

/// 2-fold cross-validated "the forest got this wrong" labels.
fn cross_val_mistakes(
    x: &[Vec<f64>],
    y: &[usize],
    w: &[f64],
    forest_cfg: &ForestConfig,
    rng: &mut SmallRng,
) -> Vec<bool> {
    let n = x.len();
    let mut wrong = vec![false; n];
    if n < 8 {
        return wrong;
    }
    // Cheaper forests are fine for the meta-labels.
    let cv_cfg = ForestConfig {
        n_trees: 20,
        ..forest_cfg.clone()
    };
    for fold in 0..2 {
        let (train, test): (Vec<usize>, Vec<usize>) = (0..n).partition(|i| i % 2 == fold);
        let tx: Vec<Vec<f64>> = train.iter().map(|&i| x[i].clone()).collect();
        let ty: Vec<usize> = train.iter().map(|&i| y[i]).collect();
        let tw: Vec<f64> = train.iter().map(|&i| w[i]).collect();
        if ty.iter().all(|&v| v == ty[0]) {
            continue;
        }
        let f = RandomForest::fit_weighted(&tx, &ty, &tw, 2, cv_cfg.clone(), rng);
        for &i in &test {
            wrong[i] = f.predict(&x[i]) != y[i];
        }
    }
    wrong
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::{
        ComponentKind, Fault, FaultKind, FaultScope, Severity, Team, Topology, TopologyConfig,
    };
    use monitoring::MonitoringConfig;

    /// A small labeled world: alternating PhyNet ToR faults and Compute
    /// overloads, each producing one incident that names the device or the
    /// cluster.
    struct World {
        topo: Topology,
        faults: Vec<Fault>,
    }

    fn world() -> World {
        let topo = Topology::build(TopologyConfig::default());
        let mut faults = Vec::new();
        let clusters: Vec<_> = topo.of_kind(ComponentKind::Cluster).map(|c| c.id).collect();
        for i in 0..60u64 {
            let cluster = clusters[i as usize % clusters.len()];
            let start = SimTime::from_hours(10 + i * 10);
            if i % 2 == 0 {
                let tors = topo.descendants_of_kind(cluster, ComponentKind::TorSwitch);
                let tor = tors[i as usize % tors.len()];
                faults.push(Fault {
                    id: i as u32,
                    kind: FaultKind::TorFailure,
                    owner: Team::PhyNet,
                    scope: FaultScope::Devices {
                        devices: vec![tor],
                        cluster,
                    },
                    start,
                    duration: SimDuration::hours(5),
                    severity: Severity::Sev2,
                    upgrade_related: false,
                });
            } else {
                let servers = topo.descendants_of_kind(cluster, ComponentKind::Server);
                let srv = servers[i as usize % servers.len()];
                faults.push(Fault {
                    id: i as u32,
                    kind: FaultKind::ServerOverload,
                    owner: Team::Compute,
                    scope: FaultScope::Devices {
                        devices: vec![srv],
                        cluster,
                    },
                    start,
                    duration: SimDuration::hours(5),
                    severity: Severity::Sev3,
                    upgrade_related: false,
                });
            }
        }
        World { topo, faults }
    }

    fn examples(w: &World) -> Vec<Example> {
        w.faults
            .iter()
            .map(|f| {
                let dev = f.scope.devices()[0];
                let name = &w.topo.component(dev).name;
                let cluster = &w.topo.component(f.scope.cluster()).name;
                let text = match f.kind {
                    FaultKind::TorFailure => format!(
                        "[PhyNet monitor] switch unreachable on {name}\nWatchdog: \
                         device {name} in cluster {cluster} stopped responding."
                    ),
                    _ => format!(
                        "[Compute watchdog] CPU saturation on {name}\nHost {name} in \
                         cluster {cluster} above 95% for 30 minutes."
                    ),
                };
                Example::new(
                    text,
                    f.start + SimDuration::minutes(30),
                    f.owner == Team::PhyNet,
                )
            })
            .collect()
    }

    fn build_cfg() -> ScoutBuildConfig {
        ScoutBuildConfig {
            forest: ForestConfig {
                n_trees: 20,
                ..ForestConfig::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn scout_learns_to_separate_teams() {
        let w = world();
        let mon = MonitoringSystem::new(&w.topo, &w.faults, MonitoringConfig::default());
        let exs = examples(&w);
        let (scout, corpus) = Scout::train(ScoutConfig::phynet(), build_cfg(), &exs, &mon);
        let idx = corpus.trainable_indices();
        let c = scout.evaluate(&corpus, &idx, &mon);
        let m = c.metrics();
        assert!(m.f1 > 0.9, "training-set F1 {} ({:?})", m.f1, c);
    }

    #[test]
    fn predictions_carry_explanations() {
        let w = world();
        let mon = MonitoringSystem::new(&w.topo, &w.faults, MonitoringConfig::default());
        let exs = examples(&w);
        let (scout, corpus) = Scout::train(ScoutConfig::phynet(), build_cfg(), &exs, &mon);
        let item = corpus.items.iter().find(|i| i.example.label).unwrap();
        let pred = scout.predict_prepared(item, &mon);
        assert!(!pred.explanation.components.is_empty());
        assert!(!pred.explanation.datasets.is_empty());
        if pred.model == ModelUsed::RandomForest {
            assert!(!pred.explanation.top_features.is_empty());
            assert!(pred.explanation.top_features.len() <= 5);
        }
        let rendered = pred
            .explanation
            .render("PhyNet", pred.says_responsible(), pred.confidence);
        assert!(rendered.contains("PhyNet"));
    }

    #[test]
    fn component_free_incident_falls_back() {
        let w = world();
        let mon = MonitoringSystem::new(&w.topo, &w.faults, MonitoringConfig::default());
        let exs = examples(&w);
        let (scout, _) = Scout::train(ScoutConfig::phynet(), build_cfg(), &exs, &mon);
        let pred = scout.predict(
            "something vague happened somewhere",
            SimTime::from_hours(20),
            &mon,
        );
        assert_eq!(pred.verdict, Verdict::Fallback);
        assert_eq!(pred.model, ModelUsed::Fallback);
    }

    #[test]
    fn excluded_incident_is_routed_away() {
        let w = world();
        let mon = MonitoringSystem::new(&w.topo, &w.faults, MonitoringConfig::default());
        let exs = examples(&w);
        let (scout, _) = Scout::train(ScoutConfig::phynet(), build_cfg(), &exs, &mon);
        let pred = scout.predict(
            "decommission of tor-0.c0.dc0\nplanned work",
            SimTime::from_hours(20),
            &mon,
        );
        assert_eq!(pred.verdict, Verdict::NotResponsible);
        assert_eq!(pred.model, ModelUsed::Exclusion);
    }

    /// Batched inference must be indistinguishable from one-at-a-time
    /// inference: same verdicts, same confidences, bit for bit.
    #[test]
    fn predict_many_matches_single_predictions() {
        let w = world();
        let mon = MonitoringSystem::new(&w.topo, &w.faults, MonitoringConfig::default());
        let exs = examples(&w);
        let (scout, _) = Scout::train(ScoutConfig::phynet(), build_cfg(), &exs, &mon);
        let inputs: Vec<(&str, SimTime)> =
            exs[..8].iter().map(|e| (e.text.as_str(), e.time)).collect();
        let batched = scout.predict_many(&inputs, &mon);
        assert_eq!(batched.len(), inputs.len());
        for (&(text, t), b) in inputs.iter().zip(&batched) {
            let single = scout.predict(text, t, &mon);
            assert_eq!(single.verdict, b.verdict);
            assert_eq!(single.model, b.model);
            assert!((single.confidence - b.confidence).abs() < 1e-15);
        }
    }

    /// The forced CPD+ path equals `decide` over hand-gathered inputs —
    /// verdict, confidence, branch and evidence lines in order — for
    /// cluster-only, few-device and many-device incidents alike, and a
    /// cached cluster row is the computed row.
    #[test]
    fn forced_cpd_path_equals_the_hand_assembled_decision() {
        let w = world();
        let mon = MonitoringSystem::new(&w.topo, &w.faults, MonitoringConfig::default());
        let mut exs = examples(&w);
        for (i, f) in w.faults.iter().enumerate().take(12) {
            let cluster = f.scope.cluster();
            let t = f.start + SimDuration::minutes(30);
            let label = f.owner == Team::PhyNet;
            let cname = &w.topo.component(cluster).name;
            exs.push(Example::new(
                format!("widespread packet loss across cluster {cname}"),
                t,
                label,
            ));
            let tors = w
                .topo
                .descendants_of_kind(cluster, ComponentKind::TorSwitch);
            let names: Vec<&str> = tors[..4 + i % 2]
                .iter()
                .map(|&d| w.topo.component(d).name.as_str())
                .collect();
            exs.push(Example::new(
                format!("links flapping on {}", names.join(", ")),
                t,
                label,
            ));
        }
        let (scout, corpus) = Scout::train(ScoutConfig::phynet(), build_cfg(), &exs, &mon);
        let mut seen = [0usize; 3];
        for item in &corpus.items {
            if item.excluded || item.extracted.is_empty() {
                continue;
            }
            let (x, t, lookback) = (&item.extracted, item.example.time, scout.build.lookback);
            let devices = x.device_count();
            let (bucket, branch) = match devices {
                0 => (0, ModelUsed::CpdCluster),
                1..=3 => (1, ModelUsed::CpdConservative),
                _ => (2, ModelUsed::CpdCluster),
            };
            seen[bucket] += 1;
            let by_hand = scout.cpd.decide(
                devices,
                &scout.cpd.conservative_hits(x, t, &mon, lookback),
                &scout.cpd.cluster_features(x, t, &mon, lookback),
            );
            let uncached = PreparedExample {
                cluster_features: None,
                ..item.clone()
            };
            assert_eq!(item.cluster_features.is_some(), devices == 0);
            for item in [item, &uncached] {
                let p = scout.predict_path(item, &mon, PathChoice::CpdOnly);
                assert_eq!(p.says_responsible(), by_hand.responsible);
                assert_eq!(p.confidence.to_bits(), by_hand.confidence.to_bits());
                assert_eq!(p.explanation.evidence, by_hand.evidence);
                assert_eq!(p.model, branch);
            }
        }
        assert!(
            seen.iter().all(|&n| n >= 12),
            "0 / 1-3 / >3 devices: {seen:?}"
        );
    }

    #[test]
    fn fresh_text_prediction_matches_pipeline() {
        let w = world();
        let mon = MonitoringSystem::new(&w.topo, &w.faults, MonitoringConfig::default());
        let exs = examples(&w);
        let (scout, _) = Scout::train(ScoutConfig::phynet(), build_cfg(), &exs, &mon);
        // A held-out PhyNet-style incident during a real fault window.
        let f = &w.faults[40]; // even → PhyNet
        let dev = &w.topo.component(f.scope.devices()[0]).name;
        let cl = &w.topo.component(f.scope.cluster()).name;
        let pred = scout.predict(
            &format!("[PhyNet monitor] switch unreachable on {dev}\nDevice {dev} in {cl} down."),
            f.start + SimDuration::hours(1),
            &mon,
        );
        assert_eq!(pred.verdict, Verdict::Responsible, "{:?}", pred.explanation);
        assert!(pred.confidence >= 0.5);
    }
}
