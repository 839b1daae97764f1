//! `k-EDGECONNECT` (Theorem 2.3): a sketch-decodable k-edge-connectivity
//! witness.
//!
//! > *"There exists a sketch-based algorithm k-EDGECONNECT that returns a
//! > subgraph H with O(kn) edges such that e ∈ H if e belongs to a cut of
//! > size k or less in the input graph."*
//!
//! Construction (from the authors' SODA'12 paper): maintain `k`
//! independent [`ForestSketch`]es. Decode `F_1` = spanning forest of `G`;
//! then, **using linearity**, delete `F_1`'s edges from each group sum of
//! the second sketch's Boruvka rounds and decode `F_2` = spanning forest
//! of `G ∖ F_1`; and so on. No layer is copied: a decode reads the
//! resident sketch and holds O(n + |H|) of its own. The union
//! `H = F_1 ∪ … ∪ F_k` has ≤ `k(n−1)` edges and contains every edge of
//! every cut of size ≤ `k` (if fewer than `k` edges cross a cut, each
//! forest either picks one of them or has none left to pick, so all get
//! picked), and every cut of `H` has value ≥ `min(k, its value in G)` —
//! the "witness" property used by Figs. 1 and 2.

use crate::absorb::{absorb_planned, AbsorbWork, SplitAbsorb};
use crate::connectivity::{ForestParams, ForestSketch};
use gs_field::M61;
use gs_graph::{Graph, UnionFind};
use gs_sketch::bank::{CellBank, CellBanked};
use gs_sketch::par::DecodePlan;
use gs_sketch::{EdgeUpdate, LinearSketch, Mergeable};

/// How a recovered forest edge is removed from the next layer's sketch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SubtractMode {
    /// Remove one unit of multiplicity — multigraph semantics, where `m`
    /// parallel edges can serve `m` different forests (Definition 1
    /// streams with unit updates).
    #[default]
    Unit,
    /// Remove the full sketched value — weighted-edge semantics (§3.5),
    /// where an edge's coordinate holds its weight and the edge is a
    /// single object.
    Full,
}

/// Sketch state for `k-EDGECONNECT`.
#[derive(Clone, Debug, PartialEq)]
pub struct KEdgeConnectSketch {
    n: usize,
    k: usize,
    seed: u64,
    subtract: SubtractMode,
    forests: Vec<ForestSketch>,
}

impl KEdgeConnectSketch {
    /// A witness sketch for cuts of size up to `k`.
    pub fn new(n: usize, k: usize, seed: u64) -> Self {
        Self::with_params(n, k, ForestParams::for_n(n), seed)
    }

    /// Full-control constructor (the forest parameters are shared by all
    /// `k` layers).
    pub fn with_params(n: usize, k: usize, params: ForestParams, seed: u64) -> Self {
        Self::with_mode(n, k, params, SubtractMode::Unit, seed)
    }

    /// As [`KEdgeConnectSketch::with_params`] with explicit removal
    /// semantics (see [`SubtractMode`]).
    pub fn with_mode(
        n: usize,
        k: usize,
        params: ForestParams,
        subtract: SubtractMode,
        seed: u64,
    ) -> Self {
        Self::build(n, k, params, subtract, seed, None)
    }

    /// As [`KEdgeConnectSketch::with_mode`], deriving every forest
    /// layer's lane widths from the caller's bound on `|delta|` per
    /// update (see `LaneWidth::for_bounds`).
    pub fn with_bounds(
        n: usize,
        k: usize,
        params: ForestParams,
        subtract: SubtractMode,
        seed: u64,
        max_abs_delta: u64,
    ) -> Self {
        Self::build(n, k, params, subtract, seed, Some(max_abs_delta))
    }

    fn build(
        n: usize,
        k: usize,
        params: ForestParams,
        subtract: SubtractMode,
        seed: u64,
        bound: Option<u64>,
    ) -> Self {
        assert!(k >= 1);
        let forests = (0..k)
            .map(|i| {
                let lseed = seed ^ (0xEC_0000 + i as u64).wrapping_mul(0xD134_2543_DE82_EF95);
                match bound {
                    Some(d) => ForestSketch::with_bounds(n, params, lseed, d),
                    None => ForestSketch::with_params(n, params, lseed),
                }
            })
            .collect();
        KEdgeConnectSketch {
            n,
            k,
            seed,
            subtract,
            forests,
        }
    }

    /// The connectivity threshold `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Decodes the witness as the list of `(u, v, removed_amount)` forest
    /// selections, in discovery order, under a [`DecodePlan`]: the forest
    /// layers peel strictly in sequence (layer `i` removes the edges
    /// layers `1..i` used from its group sums — a data dependency), but
    /// each layer's Boruvka rounds fan their group queries across the
    /// plan's threads. Layer `i` reads its forest sketch in place: the
    /// edges of `F_1 … F_{i−1}` are taken out of each Boruvka group sum
    /// ([`ForestSketch::decode_excluding_with`]), so no layer is copied.
    pub fn decode_witness_edges_with(&self, plan: &DecodePlan) -> Vec<(usize, usize, i64)> {
        let mut removed: Vec<(usize, usize, i64)> = Vec::new();
        for forest in &self.forests {
            let f = forest.decode_excluding_with(&mut UnionFind::new(self.n), &removed, plan);
            if f.edges.is_empty() {
                break; // residual graph is empty; later layers add nothing
            }
            removed.extend(f.edges.iter().map(|&(u, v, val)| (u, v, self.amount(val))));
        }
        removed
    }

    /// How much of a sampled edge the next layers remove. The sampled
    /// value's sign only records which side of the cut the sample came
    /// from; the edge's multiplicity/weight is `|val|`, and the removal
    /// re-applies the Eq. 1 sign convention itself.
    fn amount(&self, val: i64) -> i64 {
        match self.subtract {
            SubtractMode::Unit => 1,
            SubtractMode::Full => val.abs(),
        }
    }

    /// The clone-then-subtract witness decode, kept verbatim as the
    /// baseline: each layer after the first copies its forest sketch and
    /// applies `update_edge(u, v, −amount)` for every edge removed so far.
    /// `bench_decode` measures the in-place peel against it and the
    /// parity tests pin bit-identity; it is not on any production path.
    #[doc(hidden)]
    pub fn decode_witness_edges_reference(&self, plan: &DecodePlan) -> Vec<(usize, usize, i64)> {
        let mut removed: Vec<(usize, usize, i64)> = Vec::new();
        for forest in &self.forests {
            let f = if removed.is_empty() {
                forest.decode_with(plan)
            } else {
                // Linearity: subtract every previously used edge, yielding
                // a sketch of G ∖ (F_1 ∪ … ∪ F_{i−1}).
                let mut sk = forest.clone();
                for &(u, v, amt) in &removed {
                    sk.update_edge(u, v, -amt);
                }
                sk.decode_with(plan)
            };
            if f.edges.is_empty() {
                break; // residual graph is empty; later layers add nothing
            }
            removed.extend(f.edges.iter().map(|&(u, v, val)| {
                // The sampled value's sign only records which side of the
                // cut the sample came from; the edge's multiplicity/weight
                // is |val|, and `update_edge` re-applies the Eq. 1 sign
                // convention itself.
                let amt = match self.subtract {
                    SubtractMode::Unit => 1,
                    SubtractMode::Full => val.abs(),
                };
                (u, v, amt)
            }));
        }
        removed
    }
}

impl Mergeable for KEdgeConnectSketch {
    fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.seed, other.seed,
            "merging witnesses with different seeds"
        );
        assert_eq!(self.k, other.k);
        assert_eq!(self.n, other.n);
        for (a, b) in self.forests.iter_mut().zip(&other.forests) {
            a.merge(b);
        }
    }
}

impl CellBanked for KEdgeConnectSketch {
    fn banks(&self) -> Vec<&CellBank> {
        self.forests.iter().flat_map(|f| f.banks()).collect()
    }

    fn banks_mut(&mut self) -> Vec<&mut CellBank> {
        self.forests
            .iter_mut()
            .flat_map(|f| f.banks_mut())
            .collect()
    }

    fn fingerprints(&self) -> Vec<M61> {
        Vec::new()
    }

    fn fingerprints_mut(&mut self) -> Vec<&mut M61> {
        Vec::new()
    }
}

impl SplitAbsorb for KEdgeConnectSketch {
    /// Every forest layer absorbs the whole batch (layers have
    /// independent seeds, so hash work is per layer).
    fn absorb_work<'a>(
        &'a mut self,
        batch: &[EdgeUpdate],
        parts: usize,
        work: &mut AbsorbWork<'a>,
    ) {
        let each = parts.div_ceil(self.forests.len());
        for f in &mut self.forests {
            work.forest(f.forest_work(batch, each));
        }
    }
}

impl LinearSketch for KEdgeConnectSketch {
    type Output = Graph;

    fn n(&self) -> usize {
        self.n
    }

    /// Applies a stream update (Definition 1) to all layers.
    fn update_edge(&mut self, u: usize, v: usize, delta: i64) {
        for f in &mut self.forests {
            f.update_edge(u, v, delta);
        }
    }

    fn absorb_with(&mut self, batch: &[EdgeUpdate], plan: &DecodePlan) {
        absorb_planned(self, batch, plan);
    }

    /// Decodes the witness `H = F_1 ∪ … ∪ F_k` as a multigraph, from
    /// [`KEdgeConnectSketch::decode_witness_edges_with`]. In
    /// [`SubtractMode::Unit`] an edge appearing in `j` forests has weight
    /// `j`; in [`SubtractMode::Full`] each edge appears once with weight 1
    /// (its sketched value is the removed amount in that edge list).
    fn decode_with(&self, plan: &DecodePlan) -> Graph {
        Graph::from_edges(
            self.n,
            self.decode_witness_edges_with(plan)
                .into_iter()
                .map(|(u, v, _)| (u, v)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_graph::{gen, stoer_wagner};
    use gs_stream::distributed::split_updates;

    fn sketch_of(g: &Graph, k: usize, seed: u64) -> KEdgeConnectSketch {
        let mut s = KEdgeConnectSketch::new(g.n(), k, seed);
        for &(u, v, w) in g.edges() {
            s.update_edge(u, v, w as i64);
        }
        s
    }

    #[test]
    fn witness_is_subgraph_with_bounded_size() {
        let g = gen::gnp(30, 0.4, 1);
        let k = 4;
        let h = sketch_of(&g, k, 2).decode();
        for &(u, v, _) in h.edges() {
            assert!(g.has_edge(u, v), "phantom edge ({u},{v})");
        }
        assert!(h.m() <= k * (g.n() - 1), "witness too large: {}", h.m());
    }

    #[test]
    fn witness_contains_small_cut_edges() {
        // Barbell bridges form a cut of size 3 ≤ k: all must be in H.
        let g = gen::barbell(10, 3);
        let h = sketch_of(&g, 5, 3).decode();
        for b in 0..3 {
            assert!(h.has_edge(b, 10 + b), "missing bridge ({b},{})", 10 + b);
        }
    }

    #[test]
    fn witness_preserves_min_cut_when_small() {
        let g = gen::barbell(8, 2);
        let h = sketch_of(&g, 6, 5).decode();
        // λ(G) = 2 < k ⇒ λ(H) = 2 as well.
        assert_eq!(stoer_wagner::min_cut_value(&h), 2);
    }

    #[test]
    fn witness_saturates_at_k_for_large_cuts() {
        // K_12 has λ = 11; a k = 3 witness must still be 3-edge-connected.
        let g = gen::complete(12);
        let h = sketch_of(&g, 3, 7).decode();
        let lam = stoer_wagner::min_cut_value(&h);
        assert!(lam >= 3, "witness min cut {lam} < k");
        assert!(h.m() <= 3 * 11);
    }

    #[test]
    fn layers_decompose_into_forests() {
        // The witness of k layers can have at most k parallel units per
        // edge and at most k(n−1) total units.
        let g = gen::gnp(20, 0.5, 9);
        let k = 3;
        let h = sketch_of(&g, k, 11).decode();
        assert!(h.edges().iter().all(|&(_, _, w)| w <= k as u64));
        assert!(h.total_weight() <= (k * (g.n() - 1)) as u64);
    }

    #[test]
    fn dynamic_stream_end_to_end() {
        let g = gen::barbell(8, 2);
        let stream = gen::churn_stream(&g, 300, 13);
        let mut s = KEdgeConnectSketch::new(g.n(), 4, 17);
        s.absorb(&stream);
        let h = s.decode();
        assert!(
            h.has_edge(0, 8) && h.has_edge(1, 9),
            "bridges lost under churn"
        );
        assert_eq!(stoer_wagner::min_cut_value(&h), 2);
    }

    #[test]
    fn merge_matches_central() {
        let g = gen::gnp(16, 0.4, 19);
        let stream = gen::churn_stream(&g, 100, 21);
        let parts = split_updates(&stream, 2, 23);
        let mut a = KEdgeConnectSketch::new(16, 3, 99);
        a.absorb(&parts[0]);
        let mut b = KEdgeConnectSketch::new(16, 3, 99);
        b.absorb(&parts[1]);
        a.merge(&b);
        let mut central = KEdgeConnectSketch::new(16, 3, 99);
        central.absorb(&stream);
        assert_eq!(a.decode().edges(), central.decode().edges());
    }

    #[test]
    fn empty_graph_gives_empty_witness() {
        let s = KEdgeConnectSketch::new(8, 3, 1);
        assert_eq!(s.decode().m(), 0);
    }
}
