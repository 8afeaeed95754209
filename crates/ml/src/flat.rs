//! Node-major flattened forests: the one descent every forest score runs.
//!
//! [`crate::tree::DecisionTree`] stores ~64-byte `Node` enums whose leaf
//! distributions live in per-node heap `Vec<f64>`s, so the enum walk
//! pays a pointer chase and a branch per level, per tree, per sample —
//! and each visit touches several scattered heap lines. [`FlatForest`]
//! re-lays every tree of a fitted forest, in preorder, into node-major
//! tables:
//!
//! * `nodes: Vec<PackedNode>` — one 32-byte-aligned record per node
//!   (two per cache line, never straddling one) holding the threshold,
//!   both child indices, and the split feature, so a descent step reads
//!   exactly one node line. **Leaves carry a `NaN` threshold and point
//!   both children at themselves**: the descent predicate `!(x ≤ NaN)`
//!   is always true, so a row that reaches a leaf steps onto itself,
//!   and that self-loop is the descent's only exit test;
//! * `dist_off: Vec<u32>` — per-node offset into the distribution arena
//!   (meaningful at leaves only, read once per tree per row);
//! * `dist: Vec<f64>` — all leaf distributions, `n_classes` apiece, in
//!   one arena;
//! * `roots: Vec<u32>` — per-tree root index.
//!
//! A descent step selects its child *by load* —
//! `children[usize::from(!(x ≤ t))]`, both slots on the node's own
//! cache line — because split directions are data-dependent coin flips:
//! a conditional branch mispredicts constantly, and shift/multiply
//! selects cost more than the load (both measured 2-3x slower here).
//!
//! # Why one row at a time
//!
//! A Scout answers one incident at a time (§5.2.1), so serving scores
//! one row per request through [`FlatForest::predict_proba_into`], and
//! batch scoring is a pool map of that same call. Batches are rare and
//! offline (a few experiments); a second, batch-shaped kernel would be a
//! second path to keep bit-identical for a regime no request runs.
//!
//! # Determinism
//!
//! The flat walk makes exactly the split decisions the enum walk makes:
//! the descent goes left precisely when the enum walk's `x[f] <= t` is
//! true — including for `NaN` features, which both send right (a
//! left-on-`!(x > t)` formulation would *not*: `x > t` is also false
//! for `NaN` and would mis-route left). Per sample, leaf distributions
//! accumulate in tree order and divide by the tree count at the end —
//! the same floating-point operations, in the same order, as
//! [`crate::RandomForest::predict_proba_walk`]. So flat and enum paths
//! are bit-identical (proptest-enforced in `tests/flat_prop.rs`).

use crate::tree::{DecisionTree, Node};

/// One flattened node: everything a descent step reads, padded to 32
/// bytes — two to a cache line, never straddling one. The next node
/// comes from a *load* (`children[go_right]`, both slots on the node's
/// own line), not a conditional branch or arithmetic select — split
/// directions are data-dependent coin flips, so a branch mispredicts
/// constantly, and shift/multiply selects put extra latency on every
/// step (both were measured 2-3x slower here).
#[derive(Debug, Clone, Copy)]
#[repr(C, align(32))]
struct PackedNode {
    /// Split threshold; `NaN` for leaves, so every comparison sends the
    /// row right — into the leaf's self-loop.
    threshold: f64,
    /// `[left, right]` child indices; both the node's own index for
    /// leaves (the self-loop that ends the descent).
    children: [u32; 2],
    /// Split feature (0 for leaves — read but unused).
    feature: u16,
}

impl PackedNode {
    /// Split feature index (0 for leaves).
    #[inline]
    fn feature(self) -> usize {
        usize::from(self.feature)
    }

    /// The child for this node's split decision on `xv`: `xv <= t` goes
    /// left (the enum walk's predicate); anything else — NaN features,
    /// and the NaN thresholds that mark leaves — goes right, by loading
    /// the other child slot.
    // The negated form is the point: `!(xv <= t)` must be true for NaN
    // `xv` (and the NaN thresholds that mark leaves), exactly like the
    // enum walk's `if x <= t {...} else {...}` falling to the else arm.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline]
    fn child(self, xv: f64) -> u32 {
        self.children[usize::from(!(xv <= self.threshold))]
    }
}

/// A forest flattened into node-major tables.
#[derive(Debug, Clone)]
pub(crate) struct FlatForest {
    n_classes: usize,
    n_features: usize,
    nodes: Vec<PackedNode>,
    dist_off: Vec<u32>,
    dist: Vec<f64>,
    roots: Vec<u32>,
}

impl FlatForest {
    /// Flatten fitted trees. The trees' own invariants (validated at fit
    /// and load time: child indices in range and strictly after their
    /// parent, every node but the root the child of exactly one split,
    /// features below `n_features`, distributions of `n_classes` values)
    /// bound the tables by the trees' own node counts.
    pub(crate) fn from_trees(trees: &[DecisionTree]) -> FlatForest {
        assert!(!trees.is_empty(), "a forest needs at least one tree");
        let n_classes = trees[0].n_classes();
        let n_features = trees[0].n_features();
        assert!(
            (1..usize::from(u16::MAX)).contains(&n_features),
            "feature indices must fit in u16, and leaves read feature 0"
        );
        let total: usize = trees.iter().map(|t| t.nodes().len()).sum();
        let mut flat = FlatForest {
            n_classes,
            n_features,
            nodes: Vec::with_capacity(total),
            dist_off: Vec::with_capacity(total),
            dist: Vec::new(),
            roots: Vec::with_capacity(trees.len()),
        };
        for tree in trees {
            assert_eq!(tree.n_classes(), n_classes);
            assert_eq!(tree.n_features(), n_features);
            flat.roots.push(flat.nodes.len() as u32);
            flat.emit(tree.nodes());
        }
        flat
    }

    /// Append one tree in preorder, so a left child always lands at its
    /// parent's index + 1. An explicit stack of `(source node, parent
    /// slot to patch)` replaces recursion: a loaded tree may be a chain
    /// as deep as its node count.
    fn emit(&mut self, src: &[Node]) {
        let mut stack: Vec<(usize, Option<(usize, usize)>)> = vec![(0, None)];
        while let Some((i, parent)) = stack.pop() {
            let me = self.nodes.len() as u32;
            if let Some((p, side)) = parent {
                self.nodes[p].children[side] = me;
            }
            match &src[i] {
                Node::Leaf { proba } => {
                    self.nodes.push(PackedNode {
                        threshold: f64::NAN,
                        children: [me, me],
                        feature: 0,
                    });
                    self.dist_off.push(self.dist.len() as u32);
                    self.dist.extend_from_slice(proba);
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    assert!(*feature < self.n_features);
                    // Children are patched in as each is emitted; the
                    // right one is pushed first so the left pops next.
                    self.nodes.push(PackedNode {
                        threshold: *threshold,
                        children: [0, 0],
                        feature: *feature as u16,
                    });
                    self.dist_off.push(0);
                    stack.push((*right, Some((me as usize, 1))));
                    stack.push((*left, Some((me as usize, 0))));
                }
            }
        }
    }

    /// Walk one tree for one row, returning the leaf's node index. Exits
    /// on the leaf self-loop, so latency tracks the row's actual leaf
    /// depth. Indexing is checked: node and child indices are in range by
    /// construction, and `x.len() == n_features` (asserted by the caller)
    /// covers every split feature and the leaves' feature 0.
    #[inline]
    fn descend(&self, x: &[f64], mut node: u32) -> u32 {
        loop {
            let nd = self.nodes[node as usize];
            let next = nd.child(x[nd.feature()]);
            if next == node {
                return node;
            }
            node = next;
        }
    }

    /// Leaf distribution of `node` (which must be a leaf).
    #[inline]
    fn leaf_dist(&self, node: u32) -> &[f64] {
        let off = self.dist_off[node as usize] as usize;
        &self.dist[off..off + self.n_classes]
    }

    /// Average-of-trees class probabilities for one row, written into
    /// `out` (length `n_classes`). Bit-identical to the enum walk.
    pub(crate) fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.n_features, "feature vector length");
        assert_eq!(out.len(), self.n_classes);
        out.fill(0.0);
        for &root in &self.roots {
            let leaf = self.descend(x, root);
            for (acc, &v) in out.iter_mut().zip(self.leaf_dist(leaf)) {
                *acc += v;
            }
        }
        let n = self.roots.len() as f64;
        for v in out {
            *v /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::{ForestConfig, RandomForest};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn fixture() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let a = (i as f64 * 0.7919).fract() * 4.0 - 2.0;
            let b = (i as f64 * 0.3571).fract() * 4.0 - 2.0;
            x.push(vec![a, b]);
            y.push(usize::from(a * b > 0.0));
        }
        (x, y)
    }

    #[test]
    fn packed_node_is_one_half_cache_line() {
        assert_eq!(std::mem::size_of::<PackedNode>(), 32);
        assert_eq!(std::mem::align_of::<PackedNode>(), 32);
    }

    #[test]
    fn flat_matches_enum_walk_bitwise() {
        let (x, y) = fixture();
        let forest = RandomForest::fit(
            &x,
            &y,
            2,
            ForestConfig {
                n_trees: 17,
                ..ForestConfig::default()
            },
            &mut SmallRng::seed_from_u64(3),
        );
        let mut out = [0.0; 2];
        for xi in &x {
            forest.predict_proba_into(xi, &mut out);
            assert_eq!(out.as_slice(), forest.predict_proba_walk(xi).as_slice());
        }
    }

    #[test]
    fn nan_features_route_like_the_enum_walk() {
        let (x, y) = fixture();
        let forest = RandomForest::fit(
            &x,
            &y,
            2,
            ForestConfig {
                n_trees: 7,
                ..ForestConfig::default()
            },
            &mut SmallRng::seed_from_u64(5),
        );
        let mut out = [0.0; 2];
        for bad in [
            vec![f64::NAN, 0.3],
            vec![0.7, f64::NAN],
            vec![f64::NAN, f64::NAN],
            vec![f64::INFINITY, f64::NEG_INFINITY],
        ] {
            forest.predict_proba_into(&bad, &mut out);
            assert_eq!(out.as_slice(), forest.predict_proba_walk(&bad).as_slice());
        }
    }
}
