//! Random forests (§5.2.1): bagged CART trees with feature subsampling,
//! class weights, and the explanation machinery the paper's operators
//! required (§8 "Explanations are crucial").
//!
//! Every score — one served row, or an offline batch mapped across the
//! pool one row per item — runs the same per-row descent over the
//! flattened tables (`flat.rs`), so batch and single-row answers are the
//! same bytes by construction.

use crate::flat::FlatForest;
use crate::matrix::FeatureMatrix;
use crate::tree::{DecisionTree, TreeConfig};
use crate::Classifier;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Forest configuration.
#[derive(Debug, Clone)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree growing parameters. `max_features = None` here means √d
    /// (the usual forest default), chosen at fit time.
    pub tree: TreeConfig,
    /// Optional per-class weight multipliers (class-imbalance handling).
    /// When set, the length must equal `n_classes` at fit time — a
    /// shorter vector used to hand every class ≥ 8 a silent weight of
    /// 1.0, which skewed what the forest learned without any error.
    pub class_weight: Option<Vec<f64>>,
    /// Bootstrap sample size as a fraction of the training set.
    pub bootstrap_fraction: f64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 100,
            tree: TreeConfig {
                max_depth: 16,
                min_samples_leaf: 2,
                ..Default::default()
            },
            class_weight: None,
            bootstrap_fraction: 1.0,
        }
    }
}

/// A fitted random forest.
///
/// Prediction runs on node-major flattened tables built once at fit /
/// load time; the original [`DecisionTree`]s are kept for persistence
/// and the explanation walk ([`RandomForest::feature_contributions`]).
/// Flat and enum walks are bit-identical
/// ([`RandomForest::predict_proba_walk`] is the oracle).
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    flat: FlatForest,
    n_classes: usize,
    n_features: usize,
}

impl RandomForest {
    /// Fit with uniform sample weights.
    pub fn fit<R: Rng>(
        x: &[Vec<f64>],
        y: &[usize],
        n_classes: usize,
        config: ForestConfig,
        rng: &mut R,
    ) -> RandomForest {
        let w = vec![1.0; x.len()];
        RandomForest::fit_weighted(x, y, &w, n_classes, config, rng)
    }

    /// Fit with per-sample weights (the §8 down-weighting/up-weighting
    /// hook). Class weights from the config are multiplied on top.
    /// Trains on the global thread pool; see
    /// [`RandomForest::fit_weighted_on`].
    pub fn fit_weighted<R: Rng>(
        x: &[Vec<f64>],
        y: &[usize],
        weights: &[f64],
        n_classes: usize,
        config: ForestConfig,
        rng: &mut R,
    ) -> RandomForest {
        RandomForest::fit_weighted_on(pool::Pool::global(), x, y, weights, n_classes, config, rng)
    }

    /// [`RandomForest::fit_weighted`] on an explicit pool. Trees are
    /// seeded up front from the caller's RNG and trained as independent
    /// pool tasks, so the fitted forest is bit-identical for every
    /// worker count (the determinism tests assert 1 ≡ 2 ≡ 8 workers).
    pub fn fit_weighted_on<R: Rng>(
        pool: &pool::Pool,
        x: &[Vec<f64>],
        y: &[usize],
        weights: &[f64],
        n_classes: usize,
        config: ForestConfig,
        rng: &mut R,
    ) -> RandomForest {
        let _span = obs::span!("ml.forest.fit");
        assert!(!x.is_empty(), "cannot fit on an empty data set");
        assert!(
            config.n_trees > 0,
            "a forest needs at least one tree (predict_proba averages over trees)"
        );
        assert_eq!(x.len(), y.len());
        assert_eq!(x.len(), weights.len());
        obs::counter("ml.forest.fits").inc();
        obs::observe("ml.forest.fit.examples", x.len() as f64);
        let n_features = x[0].len();
        let mut tree_cfg = config.tree;
        if tree_cfg.max_features.is_none() {
            tree_cfg.max_features = Some((n_features as f64).sqrt().ceil() as usize);
        }
        let w: Vec<f64> = match &config.class_weight {
            None => weights.to_vec(),
            Some(cw) => {
                assert_eq!(
                    cw.len(),
                    n_classes,
                    "class_weight length {} does not match n_classes {}",
                    cw.len(),
                    n_classes
                );
                weights
                    .iter()
                    .zip(y)
                    .map(|(&wi, &yi)| wi * cw[yi])
                    .collect()
            }
        };

        let n_boot = ((x.len() as f64) * config.bootstrap_fraction)
            .round()
            .max(1.0) as usize;
        // Seed per-tree RNGs up front so training is deterministic given
        // the caller's RNG (and independent of pool scheduling), then
        // train trees as independent, bounded pool tasks.
        let seeds: Vec<u64> = (0..config.n_trees).map(|_| rng.gen()).collect();
        let trees: Vec<DecisionTree> = pool.parallel_map(&seeds, |_, &seed| {
            let mut trng = SmallRng::seed_from_u64(seed);
            // Weighted bootstrap: sample indices uniformly and keep
            // their weights.
            let idx: Vec<usize> = (0..n_boot).map(|_| trng.gen_range(0..x.len())).collect();
            let bx: Vec<Vec<f64>> = idx.iter().map(|&i| x[i].clone()).collect();
            let by: Vec<usize> = idx.iter().map(|&i| y[i]).collect();
            let bw: Vec<f64> = idx.iter().map(|&i| w[i]).collect();
            DecisionTree::fit(&bx, &by, &bw, n_classes, tree_cfg, &mut trng)
        });

        let flat = FlatForest::from_trees(&trees);
        RandomForest {
            trees,
            flat,
            n_classes,
            n_features,
        }
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The trees (persistence).
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Reassemble a forest from trees (persistence). Zero-tree forests
    /// are rejected — an empty average would be all-`NaN` probabilities
    /// and a bogus argmax route, so a truncated persisted model must
    /// fail loudly at load, not at predict. So are forests with no
    /// features (a leaf's descent step reads feature 0) and forests wider
    /// than the flattened tables' `u16` feature index can address.
    pub fn from_trees(trees: Vec<DecisionTree>) -> Result<RandomForest, String> {
        let first = trees.first().ok_or("a forest needs at least one tree")?;
        let (n_classes, n_features) = (first.n_classes(), first.n_features());
        if trees
            .iter()
            .any(|t| t.n_classes() != n_classes || t.n_features() != n_features)
        {
            return Err("trees disagree on shape".into());
        }
        if n_features == 0 {
            return Err("a forest needs at least one feature".into());
        }
        if n_features >= usize::from(u16::MAX) {
            return Err(format!(
                "{n_features} features is too wide: feature indices must fit in u16"
            ));
        }
        let flat = FlatForest::from_trees(&trees);
        Ok(RandomForest {
            trees,
            flat,
            n_classes,
            n_features,
        })
    }

    /// Number of input features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Probability estimate: average of the trees' leaf distributions.
    /// Runs on the flattened tables; bit-identical to
    /// [`RandomForest::predict_proba_walk`].
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut p = vec![0.0; self.n_classes];
        self.predict_proba_into(x, &mut p);
        p
    }

    /// [`RandomForest::predict_proba`] into a caller-provided buffer of
    /// length `n_classes` — the alloc-free form for hot loops.
    pub fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        obs::counter("ml.forest.predictions").inc();
        self.flat.predict_proba_into(x, out);
    }

    /// The reference enum-tree walk `predict_proba` ran on before the
    /// forest was flattened. Kept as the bit-identity oracle for the
    /// property tests and the legacy side of `benches/forest.rs`.
    pub fn predict_proba_walk(&self, x: &[f64]) -> Vec<f64> {
        let mut p = vec![0.0; self.n_classes];
        for t in &self.trees {
            for (acc, &v) in p.iter_mut().zip(t.predict_proba(x)) {
                *acc += v;
            }
        }
        for v in &mut p {
            *v /= self.trees.len() as f64;
        }
        p
    }

    /// Probability estimates for a batch: one
    /// [`RandomForest::predict_proba`] per row, mapped across the global
    /// thread pool. Order-preserving and bit-identical to the sequential
    /// map at any worker count.
    pub fn predict_proba_batch(&self, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let _span = obs::span!("ml.forest.predict_batch");
        pool::Pool::global().parallel_map(xs, |_, x| self.predict_proba(x))
    }

    /// [`RandomForest::predict_proba_batch`] over the rows of a
    /// [`FeatureMatrix`] on an explicit pool, returning a `rows ×
    /// n_classes` matrix.
    pub fn predict_proba_matrix_on(&self, pool: &pool::Pool, x: &FeatureMatrix) -> FeatureMatrix {
        let _span = obs::span!("ml.forest.predict_batch");
        let rows: Vec<&[f64]> = (0..x.rows()).map(|i| x.row(i)).collect();
        let scores = pool.parallel_map(&rows, |_, row| self.predict_proba(row));
        let mut out = FeatureMatrix::zeros(rows.len(), self.n_classes);
        for (i, p) in scores.iter().enumerate() {
            out.row_mut(i).copy_from_slice(p);
        }
        out
    }

    /// [`RandomForest::predict_proba_matrix_on`] on the global pool.
    pub fn predict_proba_matrix(&self, x: &FeatureMatrix) -> FeatureMatrix {
        self.predict_proba_matrix_on(pool::Pool::global(), x)
    }

    /// Class predictions for a batch (pooled; see
    /// [`RandomForest::predict_proba_batch`]).
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        self.predict_proba_batch(xs)
            .iter()
            .map(|p| crate::argmax(p))
            .collect()
    }

    /// Prediction confidence: the probability of the predicted class. The
    /// paper reports this alongside every routing decision (§4).
    pub fn confidence(&self, x: &[f64]) -> f64 {
        let p = self.predict_proba(x);
        p[crate::argmax(&p)]
    }

    /// Per-prediction feature contributions for `class`, averaged over
    /// trees (Palczewska et al. \[57\]). `bias + Σ contributions =
    /// P(class|x)`.
    pub fn feature_contributions(&self, x: &[f64], class: usize) -> (f64, Vec<f64>) {
        let mut bias = 0.0;
        let mut contrib = vec![0.0; self.n_features];
        for t in &self.trees {
            let (b, c) = t.feature_contributions(x, class);
            bias += b;
            for (acc, v) in contrib.iter_mut().zip(c) {
                *acc += v;
            }
        }
        let n = self.trees.len() as f64;
        bias /= n;
        for v in &mut contrib {
            *v /= n;
        }
        (bias, contrib)
    }

    /// Mean-decrease-impurity importances averaged over trees, normalized.
    pub fn feature_importances(&self, x: &[Vec<f64>], y: &[usize]) -> Vec<f64> {
        let mut imp = vec![0.0; self.n_features];
        for t in &self.trees {
            for (acc, v) in imp.iter_mut().zip(t.feature_importances(x, y)) {
                *acc += v;
            }
        }
        let s: f64 = imp.iter().sum();
        if s > 0.0 {
            for v in &mut imp {
                *v /= s;
            }
        }
        imp
    }
}

impl Classifier for RandomForest {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        RandomForest::predict_proba(self, x)
    }

    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        RandomForest::predict_batch(self, xs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(11)
    }

    /// Noisy two-moon-ish data: label depends on a nonlinear combination.
    fn nonlinear(n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let a = (i as f64 * 0.7919).fract() * 4.0 - 2.0;
            let b = (i as f64 * 0.3571).fract() * 4.0 - 2.0;
            let label = usize::from(a * a + b * b < 2.0);
            x.push(vec![a, b, (i as f64 * 0.11).fract()]);
            y.push(label);
        }
        (x, y)
    }

    #[test]
    fn learns_nonlinear_boundary() {
        let (x, y) = nonlinear(400);
        let forest = RandomForest::fit(&x, &y, 2, ForestConfig::default(), &mut rng());
        let preds = forest.predict_batch(&x);
        let acc = preds.iter().zip(&y).filter(|(p, y)| p == y).count() as f64 / y.len() as f64;
        assert!(acc > 0.95, "training accuracy {acc}");
    }

    #[test]
    fn probabilities_are_calibrated_distributions() {
        let (x, y) = nonlinear(200);
        let forest = RandomForest::fit(&x, &y, 2, ForestConfig::default(), &mut rng());
        for xi in x.iter().take(30) {
            let p = RandomForest::predict_proba(&forest, xi);
            assert_eq!(p.len(), 2);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
            let conf = forest.confidence(xi);
            assert!(conf >= 0.5, "binary confidence is at least 0.5, got {conf}");
        }
    }

    #[test]
    fn contributions_reconstruct_forest_probability() {
        let (x, y) = nonlinear(200);
        let forest = RandomForest::fit(&x, &y, 2, ForestConfig::default(), &mut rng());
        for xi in x.iter().take(10) {
            let (bias, contrib) = forest.feature_contributions(xi, 1);
            let total = bias + contrib.iter().sum::<f64>();
            assert!((total - RandomForest::predict_proba(&forest, xi)[1]).abs() < 1e-9);
        }
    }

    #[test]
    fn noise_feature_gets_little_importance() {
        let (x, y) = nonlinear(400);
        let forest = RandomForest::fit(&x, &y, 2, ForestConfig::default(), &mut rng());
        let imp = forest.feature_importances(&x, &y);
        assert!(
            imp[2] < imp[0] && imp[2] < imp[1],
            "noise importance {imp:?}"
        );
    }

    #[test]
    fn class_weights_bias_toward_minority() {
        // 95:5 imbalance; identical features except a weak signal.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let minority = i % 20 == 0;
            let v = if minority { 0.6 } else { 0.4 };
            x.push(vec![v + ((i * 13) % 10) as f64 * 0.03]);
            y.push(usize::from(minority));
        }
        let cfg = ForestConfig {
            class_weight: Some(vec![1.0, 20.0]),
            ..Default::default()
        };
        let weighted = RandomForest::fit(&x, &y, 2, cfg, &mut rng());
        let recall = |f: &RandomForest| {
            let preds = f.predict_batch(&x);
            let tp = preds
                .iter()
                .zip(&y)
                .filter(|&(&p, &l)| p == 1 && l == 1)
                .count();
            tp as f64 / y.iter().filter(|&&l| l == 1).count() as f64
        };
        assert!(
            recall(&weighted) > 0.9,
            "weighted recall {}",
            recall(&weighted)
        );
    }

    #[test]
    #[should_panic(expected = "class_weight length 3 does not match n_classes 2")]
    fn class_weight_length_mismatch_is_an_error() {
        let (x, y) = nonlinear(20);
        let cfg = ForestConfig {
            class_weight: Some(vec![1.0, 2.0, 3.0]),
            ..Default::default()
        };
        RandomForest::fit(&x, &y, 2, cfg, &mut rng());
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = nonlinear(100);
        let f1 = RandomForest::fit(&x, &y, 2, ForestConfig::default(), &mut rng());
        let f2 = RandomForest::fit(&x, &y, 2, ForestConfig::default(), &mut rng());
        for xi in x.iter().take(20) {
            assert_eq!(
                RandomForest::predict_proba(&f1, xi),
                RandomForest::predict_proba(&f2, xi)
            );
        }
    }

    #[test]
    fn sample_weights_flow_through() {
        let x = vec![vec![0.0], vec![0.0]];
        let y = vec![0, 1];
        let w = vec![0.05, 5.0];
        let cfg = ForestConfig {
            n_trees: 21,
            ..Default::default()
        };
        let forest = RandomForest::fit_weighted(&x, &y, &w, 2, cfg, &mut rng());
        assert_eq!(forest.predict(&[0.0]), 1);
    }
}
