//! Weighted undirected graphs.
//!
//! The model graph of Definition 1 is an unweighted multigraph with
//! non-negative edge multiplicities and no self-loops; sparsifiers
//! (Definition 4) are *weighted* subgraphs. Both are represented here as a
//! [`Graph`]: an undirected simple graph whose `u64` edge weight encodes
//! multiplicity (1 for simple unweighted graphs).

use crate::unionfind::UnionFind;
use gs_sketch::EdgeUpdate;
use std::collections::BTreeMap;

/// A weighted undirected graph on vertices `0..n` with no self-loops and
/// at most one (weighted) edge per vertex pair.
///
/// (Not serialized directly; ship the edge list and rebuild with
/// [`Graph::from_weighted_edges`] — the adjacency index is derived state.)
#[derive(Clone, Debug, Default)]
pub struct Graph {
    n: usize,
    /// Canonical edge list: `u < v`, weight ≥ 1, sorted, no duplicates.
    edges: Vec<(usize, usize, u64)>,
    /// Adjacency: `adj[u]` = (neighbor, edge index into `edges`).
    adj: Vec<Vec<(usize, usize)>>,
}

impl Graph {
    /// The empty graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            n,
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Builds a graph from an iterator of `(u, v, w)` triples, summing the
    /// weights of duplicate pairs and dropping zero-weight results.
    ///
    /// # Panics
    /// Panics on self-loops or out-of-range endpoints.
    pub fn from_weighted_edges(
        n: usize,
        iter: impl IntoIterator<Item = (usize, usize, u64)>,
    ) -> Self {
        let mut acc: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for (u, v, w) in iter {
            assert!(u != v, "self-loop at {u}");
            assert!(u < n && v < n, "endpoint out of range");
            let key = if u < v { (u, v) } else { (v, u) };
            *acc.entry(key).or_insert(0) += w;
        }
        let mut g = Graph::new(n);
        for ((u, v), w) in acc {
            if w > 0 {
                g.push_edge(u, v, w);
            }
        }
        g
    }

    /// The multigraph `A(i,j)` a stream of unit updates defines
    /// (Definition 1): each pair's net multiplicity becomes its edge
    /// weight. Every prefix of the stream is checked, not only the final
    /// multiplicities: a deletion without a matching prior insertion is
    /// refused even when a later insertion restores the count.
    ///
    /// # Errors
    /// The first pair, in stream order, whose running multiplicity goes
    /// negative (the model forbids it), as `(min, max)`.
    ///
    /// # Panics
    /// Panics on self-loops or out-of-range endpoints with a non-zero net
    /// multiplicity.
    pub fn from_unit_updates(n: usize, updates: &[EdgeUpdate]) -> Result<Graph, (usize, usize)> {
        let mut mult: BTreeMap<(usize, usize), i64> = BTreeMap::new();
        for up in updates {
            let pair = (up.u.min(up.v), up.u.max(up.v));
            let m = mult.entry(pair).or_insert(0);
            *m += up.delta;
            if *m < 0 {
                return Err(pair);
            }
        }
        let mut g = Graph::new(n);
        for ((u, v), m) in mult {
            if m > 0 {
                g.add_edge(u, v, m as u64);
            }
        }
        Ok(g)
    }

    /// Builds an unweighted graph (all weights 1) from `(u, v)` pairs;
    /// duplicate pairs accumulate multiplicity.
    pub fn from_edges(n: usize, iter: impl IntoIterator<Item = (usize, usize)>) -> Self {
        Self::from_weighted_edges(n, iter.into_iter().map(|(u, v)| (u, v, 1)))
    }

    fn push_edge(&mut self, u: usize, v: usize, w: u64) {
        debug_assert!(u < v);
        let idx = self.edges.len();
        self.edges.push((u, v, w));
        self.adj[u].push((v, idx));
        self.adj[v].push((u, idx));
    }

    /// Adds weight `w` to edge `{u,v}`, creating it if absent.
    pub fn add_edge(&mut self, u: usize, v: usize, w: u64) {
        assert!(u != v && u < self.n && v < self.n);
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        if let Some(&(_, idx)) = self.adj[a].iter().find(|&&(nbr, _)| nbr == b) {
            self.edges[idx].2 += w;
        } else {
            self.push_edge(a, b, w);
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of distinct edges.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> u64 {
        self.edges.iter().map(|e| e.2).sum()
    }

    /// The canonical edge list (`u < v`).
    pub fn edges(&self) -> &[(usize, usize, u64)] {
        &self.edges
    }

    /// Neighbors of `u` as `(neighbor, weight)`.
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.adj[u]
            .iter()
            .map(move |&(v, idx)| (v, self.edges[idx].2))
    }

    /// Unweighted degree (number of distinct neighbors).
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// Weighted degree (sum of incident edge weights).
    pub fn weighted_degree(&self, u: usize) -> u64 {
        self.neighbors(u).map(|(_, w)| w).sum()
    }

    /// The weight of edge `{u,v}`, or 0 if absent.
    pub fn edge_weight(&self, u: usize, v: usize) -> u64 {
        self.adj[u]
            .iter()
            .find(|&&(nbr, _)| nbr == v)
            .map(|&(_, idx)| self.edges[idx].2)
            .unwrap_or(0)
    }

    /// `true` iff `{u,v}` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.edge_weight(u, v) > 0
    }

    /// The capacity λ_A of the cut `(A, V∖A)` where `side[v]` marks `A`
    /// (Definition of λ_A in §2.2).
    ///
    /// # Panics
    /// Panics if `side.len() != n`.
    pub fn cut_value(&self, side: &[bool]) -> u64 {
        assert_eq!(side.len(), self.n);
        self.edges
            .iter()
            .filter(|&&(u, v, _)| side[u] != side[v])
            .map(|&(_, _, w)| w)
            .sum()
    }

    /// The edges crossing the cut `(A, V∖A)`.
    pub fn cut_edges(&self, side: &[bool]) -> Vec<(usize, usize, u64)> {
        assert_eq!(side.len(), self.n);
        self.edges
            .iter()
            .copied()
            .filter(|&(u, v, _)| side[u] != side[v])
            .collect()
    }

    /// Connected components as a union-find structure.
    pub fn components(&self) -> UnionFind {
        let mut uf = UnionFind::new(self.n);
        for &(u, v, _) in &self.edges {
            uf.union(u, v);
        }
        uf
    }

    /// `true` iff the graph is connected (vacuously true for n ≤ 1).
    pub fn is_connected(&self) -> bool {
        self.components().component_count() <= 1
    }

    /// The subgraph containing only edges accepted by `keep` (same vertex
    /// set).
    pub fn filter_edges(&self, mut keep: impl FnMut(usize, usize, u64) -> bool) -> Graph {
        Graph::from_weighted_edges(
            self.n,
            self.edges
                .iter()
                .copied()
                .filter(|&(u, v, w)| keep(u, v, w)),
        )
    }

    /// Reweights every edge through `f` (zero results drop the edge).
    pub fn map_weights(&self, mut f: impl FnMut(usize, usize, u64) -> u64) -> Graph {
        Graph::from_weighted_edges(
            self.n,
            self.edges.iter().map(|&(u, v, w)| (u, v, f(u, v, w))),
        )
    }

    /// The induced-subgraph edge bitmask over the `C(k,2)` pair slots of a
    /// sorted vertex subset (Fig. 4's column encoding); weights ≥ 1 count
    /// as present.
    pub fn induced_mask(&self, subset: &[usize]) -> u64 {
        let k = subset.len();
        let mut mask = 0u64;
        let mut slot = 0u32;
        for a in 0..k {
            for b in (a + 1)..k {
                if self.has_edge(subset[a], subset[b]) {
                    mask |= 1 << slot;
                }
                slot += 1;
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn counts_and_weights() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.total_weight(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.weighted_degree(0), 2);
    }

    #[test]
    fn duplicate_edges_accumulate() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.m(), 1);
        assert_eq!(g.edge_weight(0, 1), 3);
        assert_eq!(g.edge_weight(1, 0), 3);
    }

    #[test]
    #[should_panic]
    fn self_loop_rejected() {
        let _ = Graph::from_edges(3, [(1, 1)]);
    }

    #[test]
    fn cut_value_counts_crossing_weight() {
        let g = Graph::from_weighted_edges(4, [(0, 1, 5), (1, 2, 3), (2, 3, 2), (0, 3, 1)]);
        // Cut {0,1} vs {2,3}: crossing edges (1,2) and (0,3).
        let side = [true, true, false, false];
        assert_eq!(g.cut_value(&side), 4);
        assert_eq!(g.cut_edges(&side).len(), 2);
        // Complement side gives the same cut.
        let comp = [false, false, true, true];
        assert_eq!(g.cut_value(&comp), 4);
    }

    #[test]
    fn connectivity() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]);
        assert!(!g.is_connected());
        assert_eq!(g.components().component_count(), 2);
        let g2 = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert!(g2.is_connected());
    }

    #[test]
    fn filter_and_map() {
        let g = Graph::from_weighted_edges(4, [(0, 1, 2), (1, 2, 4), (2, 3, 6)]);
        let light = g.filter_edges(|_, _, w| w < 5);
        assert_eq!(light.m(), 2);
        let doubled = g.map_weights(|_, _, w| w * 2);
        assert_eq!(doubled.edge_weight(2, 3), 12);
        let dropped = g.map_weights(|_, _, w| if w == 4 { 0 } else { w });
        assert_eq!(dropped.m(), 2);
        assert!(!dropped.has_edge(1, 2));
    }

    #[test]
    fn induced_mask_matches_fig4_example() {
        // Fig. 4: graph on 5 nodes {1..5}; we use 0-indexed {0..4} with
        // edges of the figure: 1-2, 1-3, 2-3 triangle (=0,1,2 here), etc.
        let g = triangle();
        assert_eq!(g.induced_mask(&[0, 1, 2]), 0b111);
        let g2 = Graph::from_edges(4, [(0, 1), (2, 3)]);
        // Subset {0,1,2}: only pair (0,1) present → slot 0.
        assert_eq!(g2.induced_mask(&[0, 1, 2]), 0b001);
        // Subset {0,2,3}: only pair (2,3) → positions (1,2) → slot 2.
        assert_eq!(g2.induced_mask(&[0, 2, 3]), 0b100);
    }

    #[test]
    fn add_edge_merges() {
        let mut g = Graph::new(3);
        g.add_edge(2, 0, 1);
        g.add_edge(0, 2, 4);
        assert_eq!(g.m(), 1);
        assert_eq!(g.edge_weight(0, 2), 5);
    }

    #[test]
    fn unit_updates_fold_to_net_multiplicity() {
        let ups = [
            EdgeUpdate::insert(1, 0),
            EdgeUpdate::insert(0, 1),
            EdgeUpdate::insert(2, 3),
            EdgeUpdate::delete(3, 2),
        ];
        let g = Graph::from_unit_updates(4, &ups).unwrap();
        assert_eq!(g.edges(), &[(0, 1, 2)]);
        assert_eq!(Graph::from_unit_updates(4, &[]).unwrap().m(), 0);
        let ups = [EdgeUpdate::insert(0, 1), EdgeUpdate::delete(3, 2)];
        assert_eq!(Graph::from_unit_updates(4, &ups).unwrap_err(), (2, 3));
    }

    #[test]
    fn unit_updates_refuse_a_negative_prefix() {
        // The net multiplicity is 0, but the deletion came first.
        let ups = [EdgeUpdate::delete(0, 1), EdgeUpdate::insert(0, 1)];
        assert_eq!(Graph::from_unit_updates(2, &ups).unwrap_err(), (0, 1));
        // The first pair to go negative is named, in stream order.
        let ups = [
            EdgeUpdate::insert(0, 1),
            EdgeUpdate::delete(2, 3),
            EdgeUpdate::delete(1, 0),
            EdgeUpdate::delete(0, 1),
        ];
        assert_eq!(Graph::from_unit_updates(4, &ups).unwrap_err(), (2, 3));
    }
}
