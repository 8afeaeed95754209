//! Plain-text serialization for trained models.
//!
//! A deliberately simple line-oriented format (one node / vector per line,
//! `{:?}`-formatted floats so values round-trip exactly) so that saved
//! models are diffable, greppable, and loadable without any external
//! dependency. Used by `Scout::save`/`Scout::load` and `scoutctl`.

use crate::adaboost::AdaBoost;
use crate::forest::RandomForest;
use crate::smo::OneClassSvmSmo;
use crate::svm::Kernel;
use crate::tree::{DecisionTree, Node};
use std::fmt::Write as _;

/// A serialization / deserialization error.
#[derive(Debug)]
pub struct PersistError(pub String);

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model format error: {}", self.0)
    }
}

impl std::error::Error for PersistError {}

fn err(msg: impl Into<String>) -> PersistError {
    PersistError(msg.into())
}

/// Line-cursor over the textual form.
pub struct Lines<'a> {
    iter: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> Lines<'a> {
    /// Wrap a source string.
    pub fn new(src: &'a str) -> Lines<'a> {
        Lines {
            iter: src.lines(),
            line_no: 0,
        }
    }

    /// 1-based number of the most recently returned line.
    pub fn line_no(&self) -> usize {
        self.line_no
    }

    /// A format error pinned to the current line.
    pub fn error_here(&self, msg: impl std::fmt::Display) -> PersistError {
        err(format!("line {}: {msg}", self.line_no))
    }

    /// Next non-empty line.
    pub fn next_line(&mut self) -> Result<&'a str, PersistError> {
        loop {
            self.line_no += 1;
            match self.iter.next() {
                None => {
                    return Err(err(format!(
                        "unexpected end of model file at line {}",
                        self.line_no
                    )))
                }
                Some(l) if l.trim().is_empty() => continue,
                Some(l) => return Ok(l.trim()),
            }
        }
    }

    /// Next line, which must equal `expected`.
    pub fn expect(&mut self, expected: &str) -> Result<(), PersistError> {
        let l = self.next_line()?;
        if l != expected {
            return Err(err(format!(
                "line {}: expected '{expected}', found '{l}'",
                self.line_no
            )));
        }
        Ok(())
    }

    /// Parse the next line as whitespace-separated values.
    pub fn fields<T: std::str::FromStr>(&mut self) -> Result<Vec<T>, PersistError> {
        let l = self.next_line()?;
        let line_no = self.line_no;
        l.split_whitespace()
            .map(|f| {
                f.parse()
                    .map_err(|_| err(format!("line {line_no}: cannot parse '{f}' in '{l}'")))
            })
            .collect()
    }
}

fn floats(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:?}"))
        .collect::<Vec<_>>()
        .join(" ")
}

// ---------- decision trees ----------

/// Serialize a tree.
pub fn tree_to_text(tree: &DecisionTree) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "tree {} {} {}",
        tree.n_classes(),
        tree.n_features(),
        tree.node_count()
    );
    for node in tree.nodes() {
        match node {
            Node::Leaf { proba } => {
                let _ = writeln!(out, "L {}", floats(proba));
            }
            Node::Split {
                feature,
                threshold,
                left,
                right,
                proba,
            } => {
                let _ = writeln!(
                    out,
                    "S {feature} {threshold:?} {left} {right} {}",
                    floats(proba)
                );
            }
        }
    }
    out
}

/// Deserialize a tree.
pub fn tree_from_lines(lines: &mut Lines<'_>) -> Result<DecisionTree, PersistError> {
    let header = lines.next_line()?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("tree") {
        return Err(lines.error_here(format_args!("expected tree header, found '{header}'")));
    }
    let n_classes: usize = parts
        .next()
        .and_then(|p| p.parse().ok())
        .ok_or_else(|| lines.error_here("bad n_classes"))?;
    let n_features: usize = parts
        .next()
        .and_then(|p| p.parse().ok())
        .ok_or_else(|| lines.error_here("bad n_features"))?;
    let n_nodes: usize = parts
        .next()
        .and_then(|p| p.parse().ok())
        .ok_or_else(|| lines.error_here("bad node count"))?;
    // Counts read from a file never size an allocation up front: a
    // forged count must fail as a short file, not as a capacity panic.
    let mut nodes = Vec::new();
    for _ in 0..n_nodes {
        let l = lines.next_line()?;
        let at = |msg: String| err(format!("line {}: {msg}", lines.line_no()));
        let mut f = l.split_whitespace();
        match f.next() {
            Some("L") => {
                let proba: Vec<f64> = f
                    .map(|x| x.parse().map_err(|_| at(format!("bad float in '{l}'"))))
                    .collect::<Result<_, _>>()?;
                if proba.len() != n_classes {
                    return Err(at(format!("leaf arity mismatch in '{l}'")));
                }
                nodes.push(Node::Leaf { proba });
            }
            Some("S") => {
                let feature: usize = f
                    .next()
                    .and_then(|x| x.parse().ok())
                    .ok_or_else(|| at(format!("bad feature in '{l}'")))?;
                let threshold: f64 = f
                    .next()
                    .and_then(|x| x.parse().ok())
                    .ok_or_else(|| at(format!("bad threshold in '{l}'")))?;
                let left: usize = f
                    .next()
                    .and_then(|x| x.parse().ok())
                    .ok_or_else(|| at(format!("bad left in '{l}'")))?;
                let right: usize = f
                    .next()
                    .and_then(|x| x.parse().ok())
                    .ok_or_else(|| at(format!("bad right in '{l}'")))?;
                let proba: Vec<f64> = f
                    .map(|x| x.parse().map_err(|_| at(format!("bad float in '{l}'"))))
                    .collect::<Result<_, _>>()?;
                if left >= n_nodes || right >= n_nodes {
                    return Err(at(format!("child index out of range in '{l}'")));
                }
                nodes.push(Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    proba,
                });
            }
            _ => return Err(at(format!("unknown node line '{l}'"))),
        }
    }
    DecisionTree::from_parts(nodes, n_classes, n_features).map_err(err)
}

// ---------- forests ----------

/// Serialize a forest.
pub fn forest_to_text(forest: &RandomForest) -> String {
    let mut out = format!("forest {}\n", forest.n_trees());
    for tree in forest.trees() {
        out.push_str(&tree_to_text(tree));
    }
    out
}

/// Deserialize a forest.
pub fn forest_from_lines(lines: &mut Lines<'_>) -> Result<RandomForest, PersistError> {
    let header = lines.next_line()?;
    let n: usize = header
        .strip_prefix("forest ")
        .and_then(|p| p.parse().ok())
        .ok_or_else(|| {
            lines.error_here(format_args!("expected forest header, found '{header}'"))
        })?;
    let mut trees = Vec::new();
    for _ in 0..n {
        trees.push(tree_from_lines(lines)?);
    }
    RandomForest::from_trees(trees).map_err(err)
}

// ---------- AdaBoost ----------

/// Serialize an AdaBoost ensemble.
pub fn adaboost_to_text(model: &AdaBoost) -> String {
    let mut out = format!("adaboost {}\n", model.stumps().len());
    for (stump, alpha) in model.stumps() {
        let _ = writeln!(out, "alpha {alpha:?}");
        out.push_str(&tree_to_text(stump));
    }
    out
}

/// Deserialize an AdaBoost ensemble.
pub fn adaboost_from_lines(lines: &mut Lines<'_>) -> Result<AdaBoost, PersistError> {
    let header = lines.next_line()?;
    let n: usize = header
        .strip_prefix("adaboost ")
        .and_then(|p| p.parse().ok())
        .ok_or_else(|| {
            lines.error_here(format_args!("expected adaboost header, found '{header}'"))
        })?;
    let mut stumps = Vec::new();
    for _ in 0..n {
        let alpha_line = lines.next_line()?;
        let alpha: f64 = alpha_line
            .strip_prefix("alpha ")
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| {
                lines.error_here(format_args!("expected alpha line, found '{alpha_line}'"))
            })?;
        let tree = tree_from_lines(lines)?;
        stumps.push((tree, alpha));
    }
    AdaBoost::from_stumps(stumps).map_err(err)
}

// ---------- one-class SVM ----------

fn kernel_to_text(k: Kernel) -> String {
    match k {
        Kernel::Rbf { gamma } => format!("rbf {gamma:?}"),
        Kernel::Poly { degree, scale } => format!("poly {degree} {scale:?}"),
    }
}

fn kernel_from_text(s: &str) -> Result<Kernel, PersistError> {
    let mut f = s.split_whitespace();
    match f.next() {
        Some("rbf") => {
            let gamma = f
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| err("bad gamma"))?;
            Ok(Kernel::Rbf { gamma })
        }
        Some("poly") => {
            let degree = f
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| err("bad degree"))?;
            let scale = f
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| err("bad scale"))?;
            Ok(Kernel::Poly { degree, scale })
        }
        _ => Err(err(format!("unknown kernel '{s}'"))),
    }
}

/// Serialize a trained one-class SVM.
pub fn svm_to_text(model: &OneClassSvmSmo) -> String {
    let (svs, alphas, kernel, rho) = model.parts();
    let mut out = format!(
        "ocsvm {} {} {}\n",
        svs.len(),
        kernel_to_text(kernel),
        format_args!("{rho:?}")
    );
    let _ = writeln!(out, "{}", floats(alphas));
    for sv in svs {
        let _ = writeln!(out, "{}", floats(sv));
    }
    out
}

/// Deserialize a one-class SVM.
pub fn svm_from_lines(lines: &mut Lines<'_>) -> Result<OneClassSvmSmo, PersistError> {
    let header = lines.next_line()?;
    let rest = header
        .strip_prefix("ocsvm ")
        .ok_or_else(|| lines.error_here(format_args!("expected ocsvm header, found '{header}'")))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let n: usize = fields
        .first()
        .and_then(|x| x.parse().ok())
        .ok_or_else(|| lines.error_here("bad sv count"))?;
    let rho: f64 = fields
        .last()
        .and_then(|x| x.parse().ok())
        .ok_or_else(|| lines.error_here("bad rho"))?;
    let kernel = kernel_from_text(&fields[1..fields.len() - 1].join(" "))?;
    let alphas: Vec<f64> = lines.fields()?;
    if alphas.len() != n {
        return Err(err("alpha count mismatch"));
    }
    let mut svs = Vec::with_capacity(n);
    for _ in 0..n {
        svs.push(lines.fields()?);
    }
    OneClassSvmSmo::from_parts(svs, alphas, kernel, rho).map_err(err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::ForestConfig;
    use crate::smo::SmoConfig;
    use crate::Classifier;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn data() -> (Vec<Vec<f64>>, Vec<usize>) {
        let x: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![(i % 9) as f64 * 0.37, (i % 7) as f64 * 0.53])
            .collect();
        let y: Vec<usize> = (0..80).map(|i| usize::from((i % 9) > 4)).collect();
        (x, y)
    }

    #[test]
    fn tree_round_trips_exactly() {
        let (x, y) = data();
        let w = vec![1.0; x.len()];
        let mut rng = SmallRng::seed_from_u64(1);
        let tree = DecisionTree::fit(&x, &y, &w, 2, crate::tree::TreeConfig::default(), &mut rng);
        let text = tree_to_text(&tree);
        let back = tree_from_lines(&mut Lines::new(&text)).unwrap();
        for xi in &x {
            assert_eq!(tree.predict_proba(xi), back.predict_proba(xi));
        }
    }

    #[test]
    fn forest_round_trips_exactly() {
        let (x, y) = data();
        let mut rng = SmallRng::seed_from_u64(2);
        let f = RandomForest::fit(
            &x,
            &y,
            2,
            ForestConfig {
                n_trees: 9,
                ..Default::default()
            },
            &mut rng,
        );
        let text = forest_to_text(&f);
        let back = forest_from_lines(&mut Lines::new(&text)).unwrap();
        for xi in &x {
            assert_eq!(
                RandomForest::predict_proba(&f, xi),
                RandomForest::predict_proba(&back, xi)
            );
        }
    }

    #[test]
    fn adaboost_round_trips_exactly() {
        let (x, y) = data();
        let mut rng = SmallRng::seed_from_u64(3);
        let m = AdaBoost::fit(&x, &y, 2, 12, &mut rng);
        let text = adaboost_to_text(&m);
        let back = adaboost_from_lines(&mut Lines::new(&text)).unwrap();
        for xi in &x {
            assert_eq!(m.predict_proba(xi), back.predict_proba(xi));
        }
    }

    #[test]
    fn svm_round_trips_exactly() {
        let (x, _) = data();
        let m = OneClassSvmSmo::fit(&x, Kernel::Rbf { gamma: 0.7 }, SmoConfig::default());
        let text = svm_to_text(&m);
        let back = svm_from_lines(&mut Lines::new(&text)).unwrap();
        for xi in &x {
            assert_eq!(m.decision(xi), back.decision(xi));
        }
        let poly = OneClassSvmSmo::fit(
            &x,
            Kernel::Poly {
                degree: 3,
                scale: 2.0,
            },
            SmoConfig::default(),
        );
        let text = svm_to_text(&poly);
        let back = svm_from_lines(&mut Lines::new(&text)).unwrap();
        assert_eq!(poly.decision(&x[0]), back.decision(&x[0]));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = tree_from_lines(&mut Lines::new("tree 2 2 1\nX junk")).unwrap_err();
        assert!(e.0.contains("line 2"), "{e}");
        let e = forest_from_lines(&mut Lines::new("forest two")).unwrap_err();
        assert!(e.0.contains("line 1"), "{e}");
        let e = forest_from_lines(&mut Lines::new("forest 3\n")).unwrap_err();
        assert!(e.0.contains("line 2"), "{e}");
    }

    #[test]
    fn corrupted_input_is_rejected() {
        assert!(tree_from_lines(&mut Lines::new("nonsense")).is_err());
        assert!(forest_from_lines(&mut Lines::new("forest two")).is_err());
        assert!(tree_from_lines(&mut Lines::new("tree 2 2 1\nS 0 bad 1 2 0.5 0.5")).is_err());
        // Truncated file.
        assert!(forest_from_lines(&mut Lines::new("forest 3\n")).is_err());
        // Child index out of range.
        assert!(tree_from_lines(&mut Lines::new("tree 2 1 1\nS 0 1.0 5 6 0.5 0.5")).is_err());
    }
}
