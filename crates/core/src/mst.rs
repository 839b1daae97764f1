//! Approximate minimum spanning forest from linear sketches.
//!
//! §1.2 lists "finding minimum spanning trees" among the companion
//! results of \[4\] that this paper's machinery subsumes; we provide it as
//! a library feature because it composes directly out of [`ForestSketch`]:
//!
//! For weights in `[1, W]` and accuracy `ε`, maintain a forest sketch of
//! every *threshold subgraph* `G_i = {e : w(e) ≤ (1+ε)^i}`. By the
//! classical identity (Chazelle / \[4\]),
//!
//! ```text
//! w(MST) = n − (1+ε)^L·cc(G_{L}) + Σ_{i<L} ((1+ε)^{i+1} − (1+ε)^i)·(cc(G_i) − 1) …
//! ```
//!
//! equivalently: charge each forest edge of the coarsest level its
//! threshold, refine downward. We implement the constructive version —
//! decode forests level by level (coarse weights first refined by finer
//! levels), producing an actual spanning forest whose weight is within a
//! `(1+ε)` factor of optimal — more useful to a caller than the scalar.
//!
//! A weighted edge `(u, v, w)` is inserted into the sketches of all
//! levels `i` with `(1+ε)^i ≥ w`; deletions mirror insertions. Distinct
//! weights for the same edge are the caller's responsibility (an edge is
//! one object with one weight, as in §3.5).

use crate::absorb::{absorb_planned, AbsorbWork, SplitAbsorb};
use crate::connectivity::{ForestParams, ForestSketch};
use gs_field::M61;
use gs_graph::{Graph, UnionFind};
use gs_sketch::bank::{CellBank, CellBanked};
use gs_sketch::par::DecodePlan;
use gs_sketch::{EdgeUpdate, LinearSketch, Mergeable};

/// Parameters for [`MstSketch`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MstParams {
    /// Approximation accuracy: output weight ≤ (1+ε)·OPT.
    pub eps: f64,
    /// Maximum edge weight `W` (levels = ⌈log_{1+ε} W⌉ + 1).
    pub max_weight: u64,
    /// Forest-sketch parameters per level.
    pub forest: ForestParams,
}

/// Linear sketch for (1+ε)-approximate minimum spanning forests of
/// weighted dynamic streams.
#[derive(Clone, Debug, PartialEq)]
pub struct MstSketch {
    n: usize,
    params: MstParams,
    seed: u64,
    /// Level thresholds `t_i = (1+ε)^i`, ascending; last ≥ max_weight.
    thresholds: Vec<u64>,
    /// One forest sketch per threshold subgraph.
    levels: Vec<ForestSketch>,
}

impl MstSketch {
    /// An MST sketch for weights in `[1, max_weight]`.
    pub fn new(n: usize, eps: f64, max_weight: u64, seed: u64) -> Self {
        Self::with_params(
            n,
            MstParams {
                eps,
                max_weight,
                forest: ForestParams::for_n(n),
            },
            seed,
        )
    }

    /// Full-control constructor.
    pub fn with_params(n: usize, params: MstParams, seed: u64) -> Self {
        Self::build(n, params, seed, None)
    }

    /// As [`MstSketch::with_params`], deriving every threshold level's
    /// lane widths from the caller's bound on `|delta|` per update
    /// (the threshold subgraphs take unit membership updates, so the
    /// bound is the stream's multiplicity bound; see
    /// `LaneWidth::for_bounds`).
    pub fn with_bounds(n: usize, params: MstParams, seed: u64, max_abs_delta: u64) -> Self {
        Self::build(n, params, seed, Some(max_abs_delta))
    }

    fn build(n: usize, params: MstParams, seed: u64, bound: Option<u64>) -> Self {
        assert!(params.eps > 0.0, "eps must be positive");
        assert!(params.max_weight >= 1);
        let mut thresholds = Vec::new();
        let mut t = 1f64;
        loop {
            thresholds.push(t.floor() as u64);
            if t >= params.max_weight as f64 {
                break;
            }
            // Strictly increase integer thresholds (small ε plateaus).
            t = (t * (1.0 + params.eps)).max(t.floor() + 1.0);
        }
        let levels = (0..thresholds.len())
            .map(|i| {
                let lseed = seed ^ (0x4D_0000 + i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                match bound {
                    Some(d) => ForestSketch::with_bounds(n, params.forest, lseed, d),
                    None => ForestSketch::with_params(n, params.forest, lseed),
                }
            })
            .collect();
        MstSketch {
            n,
            params,
            seed,
            thresholds,
            levels,
        }
    }

    /// Number of threshold levels (`O(ε⁻¹ log W)`).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// The threshold-weight total of [`LinearSketch::decode`] — the scalar
    /// `(1+ε)`-approximation of `w(MSF)`.
    pub fn approximate_weight(&self) -> u64 {
        self.decode().total_weight()
    }
}

impl Mergeable for MstSketch {
    fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.seed, other.seed,
            "merging MST sketches with different seeds"
        );
        assert_eq!(self.n, other.n);
        assert_eq!(self.thresholds, other.thresholds);
        for (a, b) in self.levels.iter_mut().zip(&other.levels) {
            a.merge(b);
        }
    }
}

impl CellBanked for MstSketch {
    fn banks(&self) -> Vec<&CellBank> {
        self.levels.iter().flat_map(|l| l.banks()).collect()
    }

    fn banks_mut(&mut self) -> Vec<&mut CellBank> {
        self.levels.iter_mut().flat_map(|l| l.banks_mut()).collect()
    }

    fn fingerprints(&self) -> Vec<M61> {
        Vec::new()
    }

    fn fingerprints_mut(&mut self) -> Vec<&mut M61> {
        Vec::new()
    }
}

impl SplitAbsorb for MstSketch {
    /// Value-carrying convention (`delta = sign · w`): the batch is
    /// partitioned into per-threshold sub-batches of unit-delta updates,
    /// and each threshold forest absorbs its share.
    fn absorb_work<'a>(
        &'a mut self,
        batch: &[EdgeUpdate],
        parts: usize,
        work: &mut AbsorbWork<'a>,
    ) {
        let mut per_level: Vec<Vec<EdgeUpdate>> = vec![Vec::new(); self.thresholds.len()];
        for up in batch {
            assert!(up.delta != 0, "value-carrying update must be non-zero");
            let w = up.weight();
            assert!(
                w >= 1 && w <= self.params.max_weight,
                "weight {w} out of range"
            );
            for (i, &t) in self.thresholds.iter().enumerate() {
                if w <= t {
                    per_level[i].push(EdgeUpdate {
                        u: up.u,
                        v: up.v,
                        delta: up.sign(),
                    });
                }
            }
        }
        let each = parts.div_ceil(per_level.iter().filter(|s| !s.is_empty()).count().max(1));
        for (level, share) in self.levels.iter_mut().zip(&per_level) {
            if !share.is_empty() {
                work.forest(level.forest_work(share, each));
            }
        }
    }
}

impl LinearSketch for MstSketch {
    type Output = Graph;

    fn n(&self) -> usize {
        self.n
    }

    /// Value-carrying convention: `delta = sign · w` inserts or deletes
    /// the edge as one object of weight `w = |delta|` (an edge is one
    /// object with one weight, as in §3.5).
    ///
    /// # Panics
    /// Panics if `delta` is 0 or `|delta|` exceeds `max_weight`.
    fn update_edge(&mut self, u: usize, v: usize, delta: i64) {
        assert!(delta != 0, "value-carrying update must be non-zero");
        let w = delta.unsigned_abs();
        assert!(w <= self.params.max_weight, "weight {w} out of range");
        for (i, &t) in self.thresholds.iter().enumerate() {
            if w <= t {
                self.levels[i].update_edge(u, v, delta.signum());
            }
        }
    }

    fn absorb_with(&mut self, batch: &[EdgeUpdate], plan: &DecodePlan) {
        absorb_planned(self, batch, plan);
    }

    /// Decodes a spanning forest whose total weight (with each edge
    /// charged its level threshold) is within `(1+ε)` of the minimum
    /// spanning forest weight, w.h.p.
    ///
    /// Kruskal-flavored decode: walk levels from the cheapest threshold
    /// up, extending the partial forest with each level's sketch (finer
    /// levels connect what they can before coarser, more expensive edges
    /// are considered). The levels refine one shared partition (a data
    /// dependency), so the level walk stays sequential while each level's
    /// Boruvka group queries fan out across the plan's threads.
    fn decode_with(&self, plan: &DecodePlan) -> Graph {
        let mut uf = UnionFind::new(self.n);
        let mut edges: Vec<(usize, usize, u64)> = Vec::new();
        for (i, level) in self.levels.iter().enumerate() {
            if uf.component_count() == 1 {
                break;
            }
            let f = level.decode_excluding_with(&mut uf, &[], plan);
            let t = self.thresholds[i];
            edges.extend(f.edges.iter().map(|&(u, v, _)| (u, v, t)));
        }
        Graph::from_weighted_edges(self.n, edges)
    }
}

/// Exact minimum spanning forest weight (Kruskal) — the test baseline.
pub fn exact_msf_weight(g: &Graph) -> u64 {
    let mut edges: Vec<(usize, usize, u64)> = g.edges().to_vec();
    edges.sort_by_key(|&(_, _, w)| w);
    let mut uf = UnionFind::new(g.n());
    let mut total = 0;
    for (u, v, w) in edges {
        if uf.union(u, v) {
            total += w;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_graph::gen;

    fn sketch_of(g: &Graph, eps: f64, max_w: u64, seed: u64) -> MstSketch {
        let mut s = MstSketch::new(g.n(), eps, max_w, seed);
        for &(u, v, w) in g.edges() {
            s.update_edge(u, v, w as i64);
        }
        s
    }

    #[test]
    fn unweighted_graph_yields_spanning_forest() {
        let g = gen::connected_gnp(30, 0.2, 1);
        let g1 = g.map_weights(|_, _, _| 1);
        let s = sketch_of(&g1, 0.5, 1, 2);
        let f = s.decode();
        assert_eq!(f.m(), 29);
        assert_eq!(f.total_weight(), 29);
        assert!(f.is_connected());
    }

    #[test]
    fn weight_within_one_plus_eps() {
        let eps = 0.25;
        for seed in 0..5u64 {
            let g = gen::gnp_weighted(25, 0.4, 50, seed).map_weights(|_, _, w| w);
            if !g.is_connected() {
                continue;
            }
            let exact = exact_msf_weight(&g);
            let s = sketch_of(&g, eps, 50, 100 + seed);
            let approx = s.approximate_weight();
            assert!(
                approx as f64 >= exact as f64 * 0.999,
                "below OPT: {approx} < {exact}"
            );
            assert!(
                approx as f64 <= (1.0 + eps) * exact as f64 + 1.0,
                "seed {seed}: {approx} > (1+eps)*{exact}"
            );
        }
    }

    #[test]
    fn prefers_cheap_edges() {
        // Path of weight-1 edges plus expensive chords: MSF = the path.
        let mut edges = vec![];
        for i in 0..9usize {
            edges.push((i, i + 1, 1u64));
        }
        edges.push((0, 5, 100));
        edges.push((2, 9, 100));
        let g = Graph::from_weighted_edges(10, edges);
        let s = sketch_of(&g, 0.3, 100, 7);
        let f = s.decode();
        assert_eq!(f.total_weight(), 9);
    }

    #[test]
    fn bridge_must_be_taken_at_its_price() {
        // Two cheap cliques joined only by one expensive bridge.
        let mut edges = vec![];
        for u in 0..5usize {
            for v in (u + 1)..5 {
                edges.push((u, v, 1u64));
                edges.push((5 + u, 5 + v, 1));
            }
        }
        edges.push((0, 5, 64));
        let g = Graph::from_weighted_edges(10, edges);
        let s = sketch_of(&g, 0.5, 64, 9);
        let f = s.decode();
        assert!(f.is_connected());
        let exact = exact_msf_weight(&g); // 8 + 64 = 72
        assert_eq!(exact, 72);
        let approx = f.total_weight();
        assert!(
            approx >= 72 && approx as f64 <= 72.0 * 1.5 + 1.0,
            "approx {approx}"
        );
    }

    #[test]
    fn deletions_reroute_the_forest() {
        let mut s = MstSketch::new(4, 0.5, 10, 11);
        // Cheap path + expensive backup edge.
        s.update_edge(0, 1, 1);
        s.update_edge(1, 2, 1);
        s.update_edge(2, 3, 1);
        s.update_edge(0, 3, 9);
        assert_eq!(s.approximate_weight(), 3);
        // Delete a cheap edge: forest must now pay for the backup.
        s.update_edge(1, 2, -1);
        let f = s.decode();
        assert!(f.is_connected());
        assert!(f.total_weight() >= 11); // 1 + 1 + (9 rounded to a threshold ≥ 9)
    }

    #[test]
    fn disconnected_graph_gives_forest_per_component() {
        let g = Graph::from_weighted_edges(6, [(0, 1, 2), (1, 2, 3), (3, 4, 5)]);
        let s = sketch_of(&g, 0.5, 8, 13);
        let f = s.decode();
        assert_eq!(f.m(), 3);
        assert_eq!(f.components().component_count(), 3); // {0,1,2} {3,4} {5}
    }

    #[test]
    fn merge_is_linear() {
        let g = gen::gnp_weighted(15, 0.4, 20, 15);
        let mut a = MstSketch::new(15, 0.5, 20, 17);
        let mut b = MstSketch::new(15, 0.5, 20, 17);
        let mut central = MstSketch::new(15, 0.5, 20, 17);
        for (i, &(u, v, w)) in g.edges().iter().enumerate() {
            if i % 2 == 0 {
                a.update_edge(u, v, w as i64);
            } else {
                b.update_edge(u, v, w as i64);
            }
            central.update_edge(u, v, w as i64);
        }
        a.merge(&b);
        assert_eq!(a.decode().edges(), central.decode().edges());
    }

    #[test]
    fn level_count_scales_with_eps_and_w() {
        let coarse = MstSketch::new(8, 1.0, 100, 1).level_count();
        let fine = MstSketch::new(8, 0.1, 100, 1).level_count();
        assert!(fine > 2 * coarse, "fine {fine} vs coarse {coarse}");
    }

    #[test]
    #[should_panic]
    fn zero_weight_rejected() {
        let mut s = MstSketch::new(4, 0.5, 10, 1);
        s.update_edge(0, 1, 0);
    }
}
