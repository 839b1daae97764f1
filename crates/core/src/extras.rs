//! Companion queries from the authors' SODA'12 paper \[4\], which §1.2
//! lists as the substrate this paper builds on ("testing if a graph was
//! connected, k-connected, bipartite"). They fall out of the structures
//! already implemented here, so we provide them as library features.
//!
//! * [`BipartitenessSketch`] — G is bipartite iff its **double cover**
//!   (two copies `v₀, v₁` of every vertex; edge `{u,v}` becomes
//!   `{u₀,v₁}, {u₁,v₀}`) has exactly `2·c(G)` connected components, where
//!   `c(G)` is G's component count. Both counts come from forest sketches.
//! * [`KConnectivitySketch`] — G is k-edge-connected iff the
//!   `k-EDGECONNECT` witness is (Theorem 2.3's witness preserves every
//!   cut value up to `k`).

use crate::absorb::{absorb_planned, AbsorbWork, SplitAbsorb};
use crate::connectivity::{ForestParams, ForestSketch};
use crate::kedge::KEdgeConnectSketch;
use gs_field::M61;
use gs_graph::stoer_wagner;
use gs_sketch::bank::{CellBank, CellBanked};
use gs_sketch::par::DecodePlan;
use gs_sketch::{EdgeUpdate, LinearSketch, Mergeable, CELL_BYTES};

/// Single-pass bipartiteness tester for dynamic graph streams.
#[derive(Clone, Debug, PartialEq)]
pub struct BipartitenessSketch {
    n: usize,
    /// Forest sketch of G itself.
    base: ForestSketch,
    /// Forest sketch of the double cover (on `2n` vertices).
    cover: ForestSketch,
}

impl BipartitenessSketch {
    /// A tester for `n`-vertex streams.
    pub fn new(n: usize, seed: u64) -> Self {
        Self::with_params(n, ForestParams::for_n(2 * n), seed)
    }

    /// Full-control constructor (`params` applies to both forests).
    pub fn with_params(n: usize, params: ForestParams, seed: u64) -> Self {
        BipartitenessSketch {
            n,
            base: ForestSketch::with_params(n, params, seed ^ 0xB1_0001),
            cover: ForestSketch::with_params(2 * n, params, seed ^ 0xB1_0002),
        }
    }

    /// As [`BipartitenessSketch::with_params`], deriving both forests'
    /// lane widths from the caller's bound on `|delta|` per update
    /// (see `LaneWidth::for_bounds`).
    pub fn with_bounds(n: usize, params: ForestParams, seed: u64, max_abs_delta: u64) -> Self {
        BipartitenessSketch {
            n,
            base: ForestSketch::with_bounds(n, params, seed ^ 0xB1_0001, max_abs_delta),
            cover: ForestSketch::with_bounds(2 * n, params, seed ^ 0xB1_0002, max_abs_delta),
        }
    }

    /// Vertex count of the streamed graph (the cover works on `2n`).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sketch size in 1-sparse cells (base forest + double cover).
    pub fn cell_count(&self) -> usize {
        self.base.cell_count() + self.cover.cell_count()
    }

    /// Applies a stream update (Definition 1).
    pub fn update_edge(&mut self, u: usize, v: usize, delta: i64) {
        self.base.update_edge(u, v, delta);
        // Double cover: {u₀, v₁} and {u₁, v₀}.
        self.cover.update_edge(u, self.n + v, delta);
        self.cover.update_edge(self.n + u, v, delta);
    }

    /// `true` iff the streamed graph is bipartite (w.h.p.): the double
    /// cover has exactly twice as many components as the graph. An odd
    /// cycle merges its two cover copies into one component.
    pub fn is_bipartite(&self) -> bool {
        self.is_bipartite_with(&DecodePlan::sequential())
    }

    /// [`BipartitenessSketch::is_bipartite`] under a [`DecodePlan`]: both
    /// forest decodes fan their group queries across the plan's threads.
    pub fn is_bipartite_with(&self, plan: &DecodePlan) -> bool {
        let c = self.base.decode_with(plan).component_count();
        let cc = self.cover.decode_with(plan).component_count();
        cc == 2 * c
    }
}

impl Mergeable for BipartitenessSketch {
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.n, other.n);
        self.base.merge(&other.base);
        self.cover.merge(&other.cover);
    }
}

impl CellBanked for BipartitenessSketch {
    fn banks(&self) -> Vec<&CellBank> {
        let mut banks = self.base.banks();
        banks.extend(self.cover.banks());
        banks
    }

    fn banks_mut(&mut self) -> Vec<&mut CellBank> {
        let mut banks = self.base.banks_mut();
        banks.extend(self.cover.banks_mut());
        banks
    }

    fn fingerprints(&self) -> Vec<M61> {
        Vec::new()
    }

    fn fingerprints_mut(&mut self) -> Vec<&mut M61> {
        Vec::new()
    }
}

impl SplitAbsorb for BipartitenessSketch {
    /// The base forest absorbs the batch as-is, the double cover the
    /// doubled batch on twice the nodes: about twice the base's work, so
    /// the cover gets twice the parts.
    fn absorb_work<'a>(
        &'a mut self,
        batch: &[EdgeUpdate],
        parts: usize,
        work: &mut AbsorbWork<'a>,
    ) {
        let n = self.n;
        let cover_batch: Vec<EdgeUpdate> = batch
            .iter()
            .flat_map(|up| {
                [
                    EdgeUpdate {
                        u: up.u,
                        v: n + up.v,
                        delta: up.delta,
                    },
                    EdgeUpdate {
                        u: n + up.u,
                        v: up.v,
                        delta: up.delta,
                    },
                ]
            })
            .collect();
        work.forest(self.base.forest_work(batch, parts.div_ceil(2)));
        work.forest(self.cover.forest_work(&cover_batch, parts));
    }
}

impl LinearSketch for BipartitenessSketch {
    type Output = bool;

    fn n(&self) -> usize {
        self.n
    }

    fn update_edge(&mut self, u: usize, v: usize, delta: i64) {
        BipartitenessSketch::update_edge(self, u, v, delta);
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

    /// `true` iff the streamed graph is bipartite (w.h.p.).
    fn decode(&self) -> bool {
        self.is_bipartite()
    }

    fn decode_with(&self, plan: &DecodePlan) -> bool {
        self.is_bipartite_with(plan)
    }
}

/// Single-pass k-edge-connectivity tester.
#[derive(Clone, Debug, PartialEq)]
pub struct KConnectivitySketch {
    k: usize,
    inner: KEdgeConnectSketch,
}

impl KConnectivitySketch {
    /// A tester for "is the streamed graph k-edge-connected?".
    pub fn new(n: usize, k: usize, seed: u64) -> Self {
        KConnectivitySketch {
            k,
            inner: KEdgeConnectSketch::new(n, k, seed),
        }
    }

    /// As [`KConnectivitySketch::new`], deriving the witness stack's
    /// lane widths from the caller's bound on `|delta|` per update
    /// (see `LaneWidth::for_bounds`).
    pub fn with_bounds(n: usize, k: usize, seed: u64, max_abs_delta: u64) -> Self {
        KConnectivitySketch {
            k,
            inner: KEdgeConnectSketch::with_bounds(
                n,
                k,
                ForestParams::for_n(n),
                Default::default(),
                seed,
                max_abs_delta,
            ),
        }
    }

    /// Vertex count.
    pub fn n(&self) -> usize {
        self.inner.n()
    }

    /// The connectivity threshold `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Sketch size in 1-sparse cells.
    pub fn cell_count(&self) -> usize {
        self.inner.cell_count()
    }

    /// Applies a stream update.
    pub fn update_edge(&mut self, u: usize, v: usize, delta: i64) {
        self.inner.update_edge(u, v, delta);
    }

    /// `true` iff every cut of the streamed graph has ≥ k edges (w.h.p.).
    pub fn is_k_connected(&self) -> bool {
        self.is_k_connected_with(&DecodePlan::sequential())
    }

    /// [`KConnectivitySketch::is_k_connected`] under a [`DecodePlan`]:
    /// the witness decode fans out, the Stoer–Wagner audit stays inline.
    pub fn is_k_connected_with(&self, plan: &DecodePlan) -> bool {
        let h = self.inner.decode_witness_with(plan);
        if h.n() < 2 || h.m() == 0 {
            return false;
        }
        stoer_wagner::min_cut_value(&h) >= self.k as u64
    }
}

impl Mergeable for KConnectivitySketch {
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.k, other.k);
        self.inner.merge(&other.inner);
    }
}

impl CellBanked for KConnectivitySketch {
    fn banks(&self) -> Vec<&CellBank> {
        self.inner.banks()
    }

    fn banks_mut(&mut self) -> Vec<&mut CellBank> {
        self.inner.banks_mut()
    }

    fn fingerprints(&self) -> Vec<M61> {
        self.inner.fingerprints()
    }

    fn fingerprints_mut(&mut self) -> Vec<&mut M61> {
        self.inner.fingerprints_mut()
    }
}

impl SplitAbsorb for KConnectivitySketch {
    /// The witness layers' split absorb.
    fn absorb_work<'a>(
        &'a mut self,
        batch: &[EdgeUpdate],
        parts: usize,
        work: &mut AbsorbWork<'a>,
    ) {
        self.inner.absorb_work(batch, parts, work);
    }
}

impl LinearSketch for KConnectivitySketch {
    type Output = bool;

    fn n(&self) -> usize {
        KConnectivitySketch::n(self)
    }

    fn update_edge(&mut self, u: usize, v: usize, delta: i64) {
        KConnectivitySketch::update_edge(self, u, v, delta);
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

    /// `true` iff the streamed graph is k-edge-connected (w.h.p.).
    fn decode(&self) -> bool {
        self.is_k_connected()
    }

    fn decode_with(&self, plan: &DecodePlan) -> bool {
        self.is_k_connected_with(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_graph::{gen, Graph};
    use gs_stream::GraphStream;

    fn bip_of(g: &Graph, seed: u64) -> bool {
        let mut s = BipartitenessSketch::new(g.n(), seed);
        for &(u, v, w) in g.edges() {
            s.update_edge(u, v, w as i64);
        }
        s.is_bipartite()
    }

    #[test]
    fn even_cycle_is_bipartite() {
        assert!(bip_of(&gen::cycle(10), 1));
    }

    #[test]
    fn odd_cycle_is_not_bipartite() {
        assert!(!bip_of(&gen::cycle(9), 2));
    }

    #[test]
    fn grids_are_bipartite_cliques_are_not() {
        assert!(bip_of(&gen::grid(4, 5), 3));
        assert!(!bip_of(&gen::complete(5), 4));
    }

    #[test]
    fn empty_graph_is_bipartite() {
        let s = BipartitenessSketch::new(6, 5);
        assert!(s.is_bipartite());
    }

    #[test]
    fn deletion_restores_bipartiteness() {
        // Even cycle plus a chord that creates an odd cycle; delete it.
        let mut s = BipartitenessSketch::new(8, 7);
        for &(u, v, _) in gen::cycle(8).edges() {
            s.update_edge(u, v, 1);
        }
        assert!(s.is_bipartite());
        s.update_edge(0, 2, 1); // odd chord: triangle 0-1-2
        assert!(!s.is_bipartite());
        s.update_edge(0, 2, -1);
        assert!(s.is_bipartite());
    }

    #[test]
    fn bipartite_components_mixed() {
        // One bipartite component + one odd cycle: not bipartite overall.
        let mut edges: Vec<(usize, usize)> = gen::cycle(6)
            .edges()
            .iter()
            .map(|&(u, v, _)| (u, v))
            .collect();
        edges.extend([(6, 7), (7, 8), (6, 8)]); // triangle on 6,7,8
        let g = Graph::from_edges(9, edges);
        assert!(!bip_of(&g, 9));
    }

    #[test]
    fn k_connectivity_thresholds() {
        // C_12 is exactly 2-edge-connected.
        let g = gen::cycle(12);
        for (k, expect) in [(1usize, true), (2, true), (3, false)] {
            let mut s = KConnectivitySketch::new(g.n(), k, k as u64);
            GraphStream::with_churn(&g, 100, 3).replay(|u, v, d| s.update_edge(u, v, d));
            assert_eq!(s.is_k_connected(), expect, "k = {k}");
        }
    }

    #[test]
    fn k_connectivity_on_clique() {
        let g = gen::complete(8); // 7-edge-connected
        for (k, expect) in [(3usize, true), (7, true)] {
            let mut s = KConnectivitySketch::new(g.n(), k, 10 + k as u64);
            GraphStream::inserts_of(&g).replay(|u, v, d| s.update_edge(u, v, d));
            assert_eq!(s.is_k_connected(), expect, "k = {k}");
        }
    }

    #[test]
    fn disconnected_graph_is_never_k_connected() {
        let g = Graph::from_edges(6, [(0, 1), (2, 3)]);
        let mut s = KConnectivitySketch::new(6, 1, 11);
        for &(u, v, _) in g.edges() {
            s.update_edge(u, v, 1);
        }
        assert!(!s.is_k_connected());
    }

    #[test]
    fn bipartiteness_merges_across_sites() {
        let g = gen::cycle(9); // odd
        let mut a = BipartitenessSketch::new(9, 13);
        let mut b = BipartitenessSketch::new(9, 13);
        for (i, &(u, v, _)) in g.edges().iter().enumerate() {
            if i % 2 == 0 {
                a.update_edge(u, v, 1);
            } else {
                b.update_edge(u, v, 1);
            }
        }
        a.merge(&b);
        assert!(!a.is_bipartite());
    }
}
