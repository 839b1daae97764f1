//! Weighted-graph sparsification (§3.5, Theorem 3.8).
//!
//! > *"For graphs with polynomial edge weights, we will partition the
//! > input graph into O(log n) subgraphs where edge weights are in range
//! > [1,2), [2,4), …. We construct a graph sparsification for each
//! > subgraph and merge the graph sparsifications."*
//!
//! Each weight class `c` (weights in `[2^c, 2^{c+1})`) runs the Fig. 2
//! machinery with **value-carrying** updates: the sketched coordinate of an
//! edge holds `±w` instead of `±1`, so recovered edges arrive with their
//! weights ([`SubtractMode::Full`]); the freeze test uses unit (edge-count)
//! connectivity with `k` doubled — the `L = 2` slack of Lemma 3.6 — and a
//! frozen edge enters the output with weight `w · 2^j` (its inverse
//! sampling probability times its weight, exactly the estimator of
//! Lemma 3.6). Class sparsifiers merge by adding weighted graphs.

use crate::absorb::{absorb_planned, AbsorbWork, SplitAbsorb};
use crate::kedge::SubtractMode;
use crate::simple_sparsify::{SimpleSparsifyParams, SimpleSparsifySketch};
use gs_field::{BackendKind, M61};
use gs_graph::Graph;
use gs_sketch::bank::{CellBank, CellBanked};
use gs_sketch::par::{par_map, DecodePlan};
use gs_sketch::{EdgeUpdate, LinearSketch, Mergeable, CELL_BYTES};

/// Parameters for [`WeightedSparsifySketch`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeightedParams {
    /// Per-class Fig. 2 parameters (with `k` already carrying the L = 2
    /// factor of Lemma 3.6/3.7).
    pub class_params: SimpleSparsifyParams,
    /// Number of weight classes: weights up to `2^classes − 1` accepted
    /// (`O(log n)` for poly-bounded weights per Theorem 3.8).
    pub classes: usize,
}

impl WeightedParams {
    /// Scaled defaults for weights up to `max_weight`.
    pub fn scaled(n: usize, eps: f64, max_weight: u64) -> Self {
        let mut class_params = SimpleSparsifyParams::scaled(n, eps);
        // Lemma 3.6: increase k by the within-class weight spread L = 2.
        class_params.0.k *= 2;
        class_params.0.subtract = SubtractMode::Full;
        WeightedParams {
            class_params,
            classes: (64 - max_weight.max(1).leading_zeros()) as usize,
        }
    }

    /// Override the randomness regime.
    pub fn with_kind(mut self, kind: BackendKind) -> Self {
        self.class_params = self.class_params.with_kind(kind);
        self
    }
}

/// Single-pass ε-sparsifier for dynamic streams of **weighted** edges.
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedSparsifySketch {
    n: usize,
    params: WeightedParams,
    seed: u64,
    classes: Vec<SimpleSparsifySketch>,
}

impl WeightedSparsifySketch {
    /// A weighted sparsification sketch for weights in `[1, max_weight]`.
    pub fn new(n: usize, eps: f64, max_weight: u64, seed: u64) -> Self {
        Self::with_params(n, WeightedParams::scaled(n, eps, max_weight), seed)
    }

    /// Full-control constructor.
    pub fn with_params(n: usize, params: WeightedParams, seed: u64) -> Self {
        Self::build(n, params, seed, false)
    }

    /// As [`WeightedSparsifySketch::with_params`], compacting each weight
    /// class's lanes to its derived per-class delta bound: class `c`
    /// carries value-carrying updates `±w` with `w < 2^{c+1}`, so its
    /// bound is `2^{c+1} − 1` (see `LaneWidth::for_bounds`).
    pub fn with_bounds(n: usize, params: WeightedParams, seed: u64) -> Self {
        Self::build(n, params, seed, true)
    }

    fn build(n: usize, params: WeightedParams, seed: u64, bounded: bool) -> Self {
        assert!(params.classes >= 1);
        assert_eq!(
            params.class_params.0.subtract,
            SubtractMode::Full,
            "weighted classes need full-value removal semantics"
        );
        let classes = (0..params.classes)
            .map(|c| {
                let cseed = seed ^ (0x3E_0000 + c as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25);
                if bounded {
                    let class_bound = (1u64 << (c + 1).min(63)) - 1;
                    SimpleSparsifySketch::with_bounds(n, params.class_params, cseed, class_bound)
                } else {
                    SimpleSparsifySketch::with_params(n, params.class_params, cseed)
                }
            })
            .collect();
        WeightedSparsifySketch {
            n,
            params,
            seed,
            classes,
        }
    }

    /// Vertex count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The weight class (index of the range `[2^c, 2^{c+1})`) of `w`.
    fn class_of(&self, w: u64) -> usize {
        (63 - w.leading_zeros()) as usize
    }

    /// Inserts (`delta = +1`) or deletes (`delta = −1`) a weighted edge.
    /// A deletion must carry the same weight as its insertion (the model
    /// of §3.5: an edge is one object with one weight).
    ///
    /// # Panics
    /// Panics if `w = 0` or `w` exceeds the configured weight range.
    pub fn update_edge(&mut self, u: usize, v: usize, w: u64, delta: i64) {
        assert!(w >= 1, "weights must be ≥ 1");
        assert!(delta == 1 || delta == -1, "delta must be ±1");
        let c = self.class_of(w);
        assert!(
            c < self.classes.len(),
            "weight {w} exceeds configured maximum (class {c})"
        );
        // Value-carrying update: the coordinate holds ±w.
        self.classes[c].update_edge(u, v, delta * w as i64);
    }

    /// Sketch size in 1-sparse cells (`O(n(log⁷n + ε⁻²log⁶n))` with the
    /// paper's constants, Theorem 3.8).
    pub fn cell_count(&self) -> usize {
        self.classes.iter().map(|c| c.cell_count()).sum()
    }

    /// Decodes the merged sparsifier: the union of the per-class
    /// sparsifiers (weights add where classes overlap on an edge).
    pub fn decode(&self) -> Graph {
        self.decode_planned(&DecodePlan::sequential())
    }

    /// [`WeightedSparsifySketch::decode`] under a [`DecodePlan`]: the
    /// weight classes are independent sparsifier decodes, so they fan out
    /// one class per thread, with any surplus budget split down into each
    /// class's own level fan-out; class outputs are concatenated in class
    /// order, bit-identical to the sequential union.
    pub fn decode_planned(&self, plan: &DecodePlan) -> Graph {
        let inner = plan.split(self.classes.len());
        let per_class: Vec<Graph> = par_map(&self.classes, plan.threads(), |_, class| {
            class.decode_weighted_planned(&inner)
        });
        let mut acc: Vec<(usize, usize, u64)> = Vec::new();
        for g in &per_class {
            acc.extend(g.edges().iter().copied());
        }
        Graph::from_weighted_edges(self.n, acc)
    }
}

impl CellBanked for WeightedSparsifySketch {
    fn banks(&self) -> Vec<&CellBank> {
        self.classes.iter().flat_map(|c| c.banks()).collect()
    }

    fn banks_mut(&mut self) -> Vec<&mut CellBank> {
        self.classes
            .iter_mut()
            .flat_map(|c| c.banks_mut())
            .collect()
    }

    fn fingerprints(&self) -> Vec<M61> {
        self.classes.iter().flat_map(|c| c.fingerprints()).collect()
    }

    fn fingerprints_mut(&mut self) -> Vec<&mut M61> {
        self.classes
            .iter_mut()
            .flat_map(|c| c.fingerprints_mut())
            .collect()
    }
}

impl Mergeable for WeightedSparsifySketch {
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.seed, other.seed, "merging with different seeds");
        assert_eq!(self.n, other.n);
        assert_eq!(self.params.classes, other.params.classes);
        for (a, b) in self.classes.iter_mut().zip(&other.classes) {
            a.merge(b);
        }
    }
}

impl SplitAbsorb for WeightedSparsifySketch {
    /// Value-carrying convention (`delta = sign · w`): the batch is
    /// partitioned by weight class and each class sparsifier absorbs its
    /// share.
    fn absorb_work<'a>(
        &'a mut self,
        batch: &[EdgeUpdate],
        parts: usize,
        work: &mut AbsorbWork<'a>,
    ) {
        let mut per_class: Vec<Vec<EdgeUpdate>> = vec![Vec::new(); self.classes.len()];
        for up in batch {
            assert!(up.delta != 0, "value-carrying update must be non-zero");
            let c = self.class_of(up.weight());
            assert!(
                c < per_class.len(),
                "weight {} exceeds configured maximum (class {c})",
                up.weight()
            );
            per_class[c].push(*up);
        }
        let each = parts.div_ceil(per_class.iter().filter(|s| !s.is_empty()).count().max(1));
        for (class, share) in self.classes.iter_mut().zip(&per_class) {
            if !share.is_empty() {
                class.absorb_work(share, each, work);
            }
        }
    }
}

impl LinearSketch for WeightedSparsifySketch {
    type Output = Graph;

    fn n(&self) -> usize {
        self.n
    }

    /// Value-carrying convention (§3.5): `delta = sign · w` inserts or
    /// deletes the edge as one object of weight `w = |delta|`.
    fn update_edge(&mut self, u: usize, v: usize, delta: i64) {
        assert!(delta != 0, "value-carrying update must be non-zero");
        WeightedSparsifySketch::update_edge(self, u, v, delta.unsigned_abs(), delta.signum());
    }

    fn absorb(&mut self, batch: &[EdgeUpdate]) {
        absorb_planned(self, batch, &DecodePlan::sequential());
    }

    fn absorb_with(&mut self, batch: &[EdgeUpdate], plan: &DecodePlan) {
        absorb_planned(self, batch, plan);
    }

    fn lane_overflow(&self) -> Option<gs_sketch::lane::LaneOverflow> {
        CellBanked::lane_overflow(self)
    }

    fn resident_lane_bytes(&self) -> usize {
        CellBanked::resident_bytes(self)
    }

    fn space_bytes(&self) -> usize {
        self.cell_count() * CELL_BYTES
    }

    fn decode(&self) -> Graph {
        WeightedSparsifySketch::decode(self)
    }

    fn decode_with(&self, plan: &DecodePlan) -> Graph {
        self.decode_planned(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_graph::cuts::random_cut_audit;
    use gs_graph::gen;

    fn sparsify_weighted(g: &Graph, eps: f64, max_w: u64, seed: u64) -> Graph {
        let mut s = WeightedSparsifySketch::new(g.n(), eps, max_w, seed);
        for &(u, v, w) in g.edges() {
            s.update_edge(u, v, w, 1);
        }
        s.decode()
    }

    #[test]
    fn class_routing() {
        let s = WeightedSparsifySketch::new(8, 0.5, 100, 1);
        assert_eq!(s.class_of(1), 0);
        assert_eq!(s.class_of(2), 1);
        assert_eq!(s.class_of(3), 1);
        assert_eq!(s.class_of(4), 2);
        assert_eq!(s.class_of(100), 6);
        assert_eq!(s.classes.len(), 7);
    }

    #[test]
    #[should_panic]
    fn overweight_edge_rejected() {
        let mut s = WeightedSparsifySketch::new(8, 0.5, 10, 1);
        s.update_edge(0, 1, 1000, 1);
    }

    #[test]
    fn sparse_weighted_graph_reproduced_exactly() {
        // Low-connectivity weighted graph: every class freezes at level 0,
        // so weights come back exactly.
        let g = Graph::from_weighted_edges(
            6,
            [(0, 1, 5), (1, 2, 17), (2, 3, 3), (3, 4, 64), (4, 5, 9)],
        );
        let h = sparsify_weighted(&g, 0.5, 64, 3);
        assert_eq!(h.edges(), g.edges());
    }

    #[test]
    fn weighted_cuts_within_eps() {
        let g = gen::gnp_weighted(28, 0.5, 8, 5);
        let eps = 0.75;
        let h = sparsify_weighted(&g, eps, 8, 7);
        let err = random_cut_audit(&g, &h, 300, 9);
        assert!(err <= eps, "weighted cut error {err}");
    }

    #[test]
    fn deletion_cancels_weighted_edge() {
        let mut s = WeightedSparsifySketch::new(5, 0.5, 16, 11);
        s.update_edge(0, 1, 7, 1);
        s.update_edge(1, 2, 3, 1);
        s.update_edge(0, 1, 7, -1);
        let h = s.decode();
        assert_eq!(h.m(), 1);
        assert_eq!(h.edge_weight(1, 2), 3);
    }

    #[test]
    fn classes_merge_on_decode() {
        // Edges in different classes between the same endpoints add up.
        let mut s = WeightedSparsifySketch::new(4, 0.5, 16, 13);
        s.update_edge(0, 1, 2, 1); // class 1
        s.update_edge(0, 1, 8, 1); // class 3
        let h = s.decode();
        assert_eq!(h.edge_weight(0, 1), 10);
    }

    #[test]
    fn merge_is_linear() {
        let g = gen::gnp_weighted(12, 0.5, 8, 15);
        let mut a = WeightedSparsifySketch::new(12, 0.5, 8, 17);
        let mut b = WeightedSparsifySketch::new(12, 0.5, 8, 17);
        let mut central = WeightedSparsifySketch::new(12, 0.5, 8, 17);
        for (i, &(u, v, w)) in g.edges().iter().enumerate() {
            if i % 2 == 0 {
                a.update_edge(u, v, w, 1);
            } else {
                b.update_edge(u, v, w, 1);
            }
            central.update_edge(u, v, w, 1);
        }
        a.merge(&b);
        assert_eq!(a.decode().edges(), central.decode().edges());
    }
}
