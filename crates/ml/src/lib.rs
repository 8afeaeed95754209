//! `ml` — the machine-learning substrate, implemented from scratch.
//!
//! The paper's production Scout is served by Azure's Resource Central over
//! scikit-learn-style models. None of that exists off the shelf in this
//! reproduction, so this crate implements every model the paper trains,
//! compares against, or mentions:
//!
//! * [`forest`] — CART random forests with class weights, sample weights,
//!   impurity-based feature importance, and *per-prediction feature
//!   contributions* (Palczewska et al., the paper's explanation method
//!   \[57\]).
//! * [`cpd`] — nonparametric change-point detection (the e-divisive energy
//!   statistic of Matteson & James \[51\]), the core of CPD+.
//! * [`knn`], [`naive_bayes`], [`adaboost`], [`mlp`], [`qda`] — the Table-4
//!   comparison zoo.
//! * [`smo`] — a real one-class SVM (Schölkopf ν-formulation) trained by
//!   sequential minimal optimization; [`svm`] keeps a cheaper kernel-mean
//!   novelty detector for high-volume paths. Both provide the paper's
//!   "aggressive" (RBF) and "conservative" (polynomial) kernel split
//!   (§5.3 / Appendix B).
//! * [`metrics`] — precision / recall / F1 and confusion matrices.
//! * [`data`] — train/test splitting (random and time-ordered),
//!   standardization, and class re-balancing (§7's 35% down-sampling).
//!
//! All classifiers implement [`Classifier`]; all inputs are plain
//! `&[Vec<f64>]` feature matrices, keeping the crate dependency-free except
//! for `rand`.

pub mod adaboost;
pub mod cpd;
pub mod data;
mod flat;
pub mod forest;
pub mod knn;
pub mod linalg;
pub mod matrix;
pub mod metrics;
pub mod mlp;
pub mod naive_bayes;
pub mod persist;
pub mod qda;
pub mod smo;
pub mod svm;
pub mod tree;

pub use adaboost::AdaBoost;
pub use cpd::{detect_change_points, CpdConfig};
pub use data::{standardize, train_test_split, Scaler, SplitConfig};
pub use forest::{ForestConfig, RandomForest};
pub use knn::KnnClassifier;
pub use matrix::FeatureMatrix;
pub use metrics::{confusion, BinaryMetrics, Confusion};
pub use mlp::{Mlp, MlpConfig};
pub use naive_bayes::GaussianNb;
pub use qda::Qda;
pub use smo::{OneClassSvmSmo, SmoConfig};
pub use svm::{Kernel, OneClassSvm};
pub use tree::{DecisionTree, TreeConfig};

/// A trained classifier over fixed-length feature vectors.
///
/// `predict_proba` returns one probability per class; classes are dense
/// `0..n_classes` labels.
pub trait Classifier {
    /// Number of classes the model distinguishes.
    fn n_classes(&self) -> usize;

    /// Class-probability estimates for one sample.
    fn predict_proba(&self, x: &[f64]) -> Vec<f64>;

    /// The argmax class for one sample.
    fn predict(&self, x: &[f64]) -> usize {
        let p = self.predict_proba(x);
        argmax(&p)
    }

    /// Predictions for a batch.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        xs.iter().map(|x| self.predict(x)).collect()
    }
}

/// Index of the maximum element (first on ties). Empty slices return 0.
pub fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate() {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_picks_first_max() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[]), 0);
        assert_eq!(argmax(&[-5.0, -1.0]), 1);
    }
}
