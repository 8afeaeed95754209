//! CART decision trees with sample weights — the building block of the
//! random forest and the AdaBoost stumps.

use rand::seq::SliceRandom;
use rand::Rng;

/// Tree-growing configuration.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum weighted fraction of samples required in each child.
    pub min_samples_leaf: usize,
    /// Number of features examined per split; `None` = all features.
    /// Random forests pass √d here.
    pub max_features: Option<usize>,
    /// Minimum impurity decrease to accept a split.
    pub min_impurity_decrease: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 16,
            min_samples_leaf: 1,
            max_features: None,
            min_impurity_decrease: 0.0,
        }
    }
}

/// A node in the fitted tree. Every node stores its class distribution so
/// that feature contributions (Palczewska et al.) can be computed by
/// walking the decision path.
#[derive(Debug, Clone)]
pub enum Node {
    /// Terminal node.
    Leaf {
        /// Class-probability estimate at this leaf.
        proba: Vec<f64>,
    },
    /// Internal split on `feature <= threshold`.
    Split {
        /// Feature index tested.
        feature: usize,
        /// Split threshold: `x[feature] <= threshold` goes left.
        threshold: f64,
        /// Left child index.
        left: usize,
        /// Right child index.
        right: usize,
        /// Class distribution of the samples reaching this node.
        proba: Vec<f64>,
    },
}

impl Node {
    /// Class distribution at this node.
    pub fn proba(&self) -> &[f64] {
        match self {
            Node::Leaf { proba } | Node::Split { proba, .. } => proba,
        }
    }
}

/// A fitted CART classification tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_classes: usize,
    n_features: usize,
}

impl DecisionTree {
    /// Fit a tree on `(x, y)` with per-sample `weights`.
    ///
    /// `y` must contain dense labels `0..n_classes`. Weights scale each
    /// sample's influence on impurity and leaf distributions — the hook the
    /// Scout framework uses for down-weighting old incidents and
    /// up-weighting past mistakes (§8).
    pub fn fit<R: Rng>(
        x: &[Vec<f64>],
        y: &[usize],
        weights: &[f64],
        n_classes: usize,
        config: TreeConfig,
        rng: &mut R,
    ) -> DecisionTree {
        assert!(!x.is_empty(), "cannot fit on an empty data set");
        assert_eq!(x.len(), y.len());
        assert_eq!(x.len(), weights.len());
        debug_assert!(
            y.iter().all(|&c| c < n_classes),
            "labels must be < n_classes"
        );
        let n_features = x[0].len();
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            n_classes,
            n_features,
        };
        let indices: Vec<usize> = (0..x.len()).collect();
        tree.build(x, y, weights, indices, 0, config, rng);
        tree
    }

    /// Recursively grow; returns the new node's index.
    #[allow(clippy::too_many_arguments)] // recursive internal: x/y/w always travel together
    fn build<R: Rng>(
        &mut self,
        x: &[Vec<f64>],
        y: &[usize],
        w: &[f64],
        indices: Vec<usize>,
        depth: usize,
        config: TreeConfig,
        rng: &mut R,
    ) -> usize {
        let proba = class_distribution(y, w, &indices, self.n_classes);
        let node_gini = gini(&proba);
        let stop = depth >= config.max_depth
            || indices.len() < 2 * config.min_samples_leaf
            || node_gini <= 1e-12;
        let split = if stop {
            None
        } else {
            self.best_split(x, y, w, &indices, config, rng)
        };

        match split {
            None => {
                self.nodes.push(Node::Leaf { proba });
                self.nodes.len() - 1
            }
            Some(BestSplit {
                feature, threshold, ..
            }) => {
                let (li, ri): (Vec<usize>, Vec<usize>) =
                    indices.iter().partition(|&&i| x[i][feature] <= threshold);
                // Reserve our slot before children so child indices are known.
                let me = self.nodes.len();
                self.nodes.push(Node::Leaf {
                    proba: proba.clone(),
                }); // placeholder
                let left = self.build(x, y, w, li, depth + 1, config, rng);
                let right = self.build(x, y, w, ri, depth + 1, config, rng);
                self.nodes[me] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    proba,
                };
                me
            }
        }
    }

    fn best_split<R: Rng>(
        &self,
        x: &[Vec<f64>],
        y: &[usize],
        w: &[f64],
        indices: &[usize],
        config: TreeConfig,
        rng: &mut R,
    ) -> Option<BestSplit> {
        let mut features: Vec<usize> = (0..self.n_features).collect();
        if let Some(k) = config.max_features {
            features.shuffle(rng);
            features.truncate(k.max(1).min(self.n_features));
        }

        let total_w: f64 = indices.iter().map(|&i| w[i]).sum();
        let parent_counts = weighted_counts(y, w, indices, self.n_classes);
        let parent_gini = gini_from_counts(&parent_counts, total_w);

        let mut best: Option<BestSplit> = None;
        let mut sorted = indices.to_vec();
        for &f in &features {
            sorted.sort_unstable_by(|&a, &b| {
                x[a][f]
                    .partial_cmp(&x[b][f])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut left_counts = vec![0.0; self.n_classes];
            let mut left_w = 0.0;
            for pos in 0..sorted.len() - 1 {
                let i = sorted[pos];
                left_counts[y[i]] += w[i];
                left_w += w[i];
                let (xv, xn) = (x[i][f], x[sorted[pos + 1]][f]);
                if xv == xn {
                    continue; // cannot split between equal values
                }
                if pos + 1 < config.min_samples_leaf
                    || sorted.len() - pos - 1 < config.min_samples_leaf
                {
                    continue;
                }
                let right_w = total_w - left_w;
                if left_w <= 0.0 || right_w <= 0.0 {
                    continue;
                }
                let right_counts: Vec<f64> = parent_counts
                    .iter()
                    .zip(&left_counts)
                    .map(|(&p, &l)| p - l)
                    .collect();
                let g = (left_w * gini_from_counts(&left_counts, left_w)
                    + right_w * gini_from_counts(&right_counts, right_w))
                    / total_w;
                let decrease = parent_gini - g;
                if decrease >= config.min_impurity_decrease
                    && best.as_ref().is_none_or(|b| decrease > b.decrease)
                {
                    best = Some(BestSplit {
                        feature: f,
                        threshold: 0.5 * (xv + xn),
                        decrease,
                    });
                }
            }
        }
        best
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of input features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node arena, in construction order (persistence).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Reassemble a tree from its parts (persistence). Validates child
    /// indices, leaf arities, and that every node but the root is the
    /// child of exactly one split: a tree, not a DAG whose shared
    /// subtrees the flattened forest would copy once per path (2^depth
    /// nodes from a file of a few dozen lines).
    pub fn from_parts(
        nodes: Vec<Node>,
        n_classes: usize,
        n_features: usize,
    ) -> Result<DecisionTree, String> {
        if nodes.is_empty() {
            return Err("a tree needs at least one node".into());
        }
        let mut parents = vec![0u8; nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            if node.proba().len() != n_classes {
                return Err(format!("node {i}: probability arity mismatch"));
            }
            if let Node::Split {
                feature,
                left,
                right,
                ..
            } = node
            {
                if *feature >= n_features {
                    return Err(format!("node {i}: feature out of range"));
                }
                // Children must come after the parent (construction order),
                // which also guarantees the walk terminates.
                if *left <= i || *right <= i || *left >= nodes.len() || *right >= nodes.len() {
                    return Err(format!("node {i}: invalid child indices"));
                }
                for child in [*left, *right] {
                    parents[child] = parents[child].saturating_add(1);
                }
            }
        }
        if let Some(orphan) = (1..nodes.len()).find(|&i| parents[i] != 1) {
            return Err(format!(
                "node {orphan}: has {} parents, not exactly one",
                parents[orphan]
            ));
        }
        Ok(DecisionTree {
            nodes,
            n_classes,
            n_features,
        })
    }

    /// Class-probability estimate for `x`.
    ///
    /// This enum walk is the *reference* traversal: `x[feature] <=
    /// threshold` goes left, anything else — including a `NaN` feature,
    /// for which the comparison is false — goes right. The flattened
    /// forest (`flat.rs`) must preserve exactly this
    /// routing (its branchless predicate is `!(x <= t)`, not `x > t`,
    /// which would send `NaN` the other way).
    pub fn predict_proba(&self, x: &[f64]) -> &[f64] {
        let mut node = 0;
        loop {
            match &self.nodes[node] {
                Node::Leaf { proba } => return proba,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    node = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// The argmax class for `x`.
    pub fn predict(&self, x: &[f64]) -> usize {
        crate::argmax(self.predict_proba(x))
    }

    /// The decision path for `x`: the sequence of visited nodes.
    pub fn decision_path(&self, x: &[f64]) -> Vec<&Node> {
        let mut path = Vec::new();
        let mut node = 0;
        loop {
            path.push(&self.nodes[node]);
            match &self.nodes[node] {
                Node::Leaf { .. } => return path,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    node = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Per-prediction feature contributions for `class` (Palczewska et al.,
    /// the paper's \[57\]): at each split along the decision path, the
    /// change in class probability is credited to the split feature.
    /// Returns `(bias, contributions)` where `bias` is the root probability
    /// and `bias + Σ contributions = P(class | x)`.
    pub fn feature_contributions(&self, x: &[f64], class: usize) -> (f64, Vec<f64>) {
        let path = self.decision_path(x);
        let mut contrib = vec![0.0; self.n_features];
        let bias = path[0].proba()[class];
        for pair in path.windows(2) {
            if let Node::Split { feature, .. } = pair[0] {
                contrib[*feature] += pair[1].proba()[class] - pair[0].proba()[class];
            }
        }
        (bias, contrib)
    }

    /// Mean-decrease-impurity feature importance, normalized to sum to 1.
    pub fn feature_importances(&self, x: &[Vec<f64>], y: &[usize]) -> Vec<f64> {
        // Recompute node weights by dropping the training data through the
        // tree (the tree does not store per-node sample weights).
        let mut reach = vec![0.0f64; self.nodes.len()];
        for (xi, _) in x.iter().zip(y) {
            let mut node = 0;
            loop {
                reach[node] += 1.0;
                match &self.nodes[node] {
                    Node::Leaf { .. } => break,
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                        ..
                    } => {
                        node = if xi[*feature] <= *threshold {
                            *left
                        } else {
                            *right
                        };
                    }
                }
            }
        }
        let total = x.len() as f64;
        let mut imp = vec![0.0; self.n_features];
        for (ni, node) in self.nodes.iter().enumerate() {
            if let Node::Split {
                feature,
                left,
                right,
                proba,
                ..
            } = node
            {
                let wn = reach[ni] / total;
                let wl = reach[*left] / total;
                let wr = reach[*right] / total;
                let dec = wn * gini(proba)
                    - wl * gini(self.nodes[*left].proba())
                    - wr * gini(self.nodes[*right].proba());
                imp[*feature] += dec.max(0.0);
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

struct BestSplit {
    feature: usize,
    threshold: f64,
    decrease: f64,
}

fn weighted_counts(y: &[usize], w: &[f64], indices: &[usize], n_classes: usize) -> Vec<f64> {
    let mut counts = vec![0.0; n_classes];
    for &i in indices {
        counts[y[i]] += w[i];
    }
    counts
}

fn class_distribution(y: &[usize], w: &[f64], indices: &[usize], n_classes: usize) -> Vec<f64> {
    let mut counts = weighted_counts(y, w, indices, n_classes);
    let total: f64 = counts.iter().sum();
    if total > 0.0 {
        for c in &mut counts {
            *c /= total;
        }
    } else {
        // All-zero weights: fall back to uniform.
        counts = vec![1.0 / n_classes as f64; n_classes];
    }
    counts
}

/// Gini impurity of a probability distribution.
fn gini(proba: &[f64]) -> f64 {
    1.0 - proba.iter().map(|p| p * p).sum::<f64>()
}

fn gini_from_counts(counts: &[f64], total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    1.0 - counts
        .iter()
        .map(|c| (c / total) * (c / total))
        .sum::<f64>()
}

impl crate::Classifier for DecisionTree {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        DecisionTree::predict_proba(self, x).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    /// Two well-separated Gaussian-ish blobs.
    fn blobs(n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let t = (i as f64 * 0.7919).fract();
            let u = (i as f64 * 0.3571).fract();
            if i % 2 == 0 {
                x.push(vec![t, u]);
                y.push(0);
            } else {
                x.push(vec![t + 2.0, u + 2.0]);
                y.push(1);
            }
        }
        (x, y)
    }

    #[test]
    fn separable_data_is_learned_perfectly() {
        let (x, y) = blobs(200);
        let w = vec![1.0; x.len()];
        let tree = DecisionTree::fit(&x, &y, &w, 2, TreeConfig::default(), &mut rng());
        for (xi, &yi) in x.iter().zip(&y) {
            assert_eq!(tree.predict(xi), yi);
        }
    }

    #[test]
    fn xor_needs_depth_two() {
        let x = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let y = vec![0, 1, 1, 0];
        let w = vec![1.0; 4];
        let tree = DecisionTree::fit(&x, &y, &w, 2, TreeConfig::default(), &mut rng());
        for (xi, &yi) in x.iter().zip(&y) {
            assert_eq!(tree.predict(xi), yi, "xor point {xi:?}");
        }
    }

    #[test]
    fn max_depth_zero_gives_single_leaf() {
        let (x, y) = blobs(50);
        let w = vec![1.0; x.len()];
        let cfg = TreeConfig {
            max_depth: 0,
            ..Default::default()
        };
        let tree = DecisionTree::fit(&x, &y, &w, 2, cfg, &mut rng());
        assert_eq!(tree.node_count(), 1);
        let p = tree.predict_proba(&x[0]);
        assert!((p[0] - 0.5).abs() < 0.01, "balanced classes at root");
    }

    #[test]
    fn sample_weights_shift_the_decision() {
        // Same point appears with both labels; weight decides.
        let x = vec![vec![0.0], vec![0.0]];
        let y = vec![0, 1];
        let heavy_one = vec![0.1, 10.0];
        let tree = DecisionTree::fit(&x, &y, &heavy_one, 2, TreeConfig::default(), &mut rng());
        assert_eq!(tree.predict(&[0.0]), 1);
        let heavy_zero = vec![10.0, 0.1];
        let tree = DecisionTree::fit(&x, &y, &heavy_zero, 2, TreeConfig::default(), &mut rng());
        assert_eq!(tree.predict(&[0.0]), 0);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (x, y) = blobs(100);
        let w = vec![1.0; x.len()];
        let tree = DecisionTree::fit(&x, &y, &w, 2, TreeConfig::default(), &mut rng());
        for xi in &x {
            let p = tree.predict_proba(xi);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn contributions_reconstruct_probability() {
        let (x, y) = blobs(100);
        let w = vec![1.0; x.len()];
        let tree = DecisionTree::fit(&x, &y, &w, 2, TreeConfig::default(), &mut rng());
        for xi in x.iter().take(20) {
            let (bias, contrib) = tree.feature_contributions(xi, 1);
            let total = bias + contrib.iter().sum::<f64>();
            assert!((total - tree.predict_proba(xi)[1]).abs() < 1e-9);
        }
    }

    #[test]
    fn importances_find_the_informative_feature() {
        // Feature 0 carries the label; feature 1 is noise.
        let n = 200;
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let noise = ((i * 37) % 100) as f64 / 100.0;
            x.push(vec![(i % 2) as f64, noise]);
            y.push(i % 2);
        }
        let w = vec![1.0; n];
        let tree = DecisionTree::fit(&x, &y, &w, 2, TreeConfig::default(), &mut rng());
        let imp = tree.feature_importances(&x, &y);
        assert!(imp[0] > 0.9, "informative feature dominates: {imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let (x, y) = blobs(100);
        let w = vec![1.0; x.len()];
        let cfg = TreeConfig {
            min_samples_leaf: 40,
            ..Default::default()
        };
        let tree = DecisionTree::fit(&x, &y, &w, 2, cfg, &mut rng());
        // With 100 samples and min leaf 40, at most one split is possible.
        assert!(tree.node_count() <= 3);
    }
}
