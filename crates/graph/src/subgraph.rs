//! Exact induced-subgraph pattern counting — the ground truth for §4.
//!
//! §4 estimates `γ_H(G)`, the number of induced subgraphs isomorphic to a
//! pattern `H` divided by the number of non-empty induced subgraphs of
//! order `|H|`. This module provides the exact quantities by enumeration
//! (`O(n^k)`, fine at experiment scale) plus the isomorphism-class tables
//! `A_H`: the set of edge-bitmask values a squashed column can take while
//! being isomorphic to `H` ("the pattern graph H will correspond to
//! multiple values A_H", §4).

use crate::graph::Graph;
use gs_sketch::domain::pair_slot;
use std::collections::BTreeSet;

/// A pattern graph on `k ≤ 6` vertices, stored as an edge bitmask over the
/// `C(k,2)` lexicographic pair slots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pattern {
    k: usize,
    mask: u64,
}

impl Pattern {
    /// Builds a pattern from vertex count and edge list over `0..k`.
    ///
    /// # Panics
    /// Panics if `k < 2`, `k > 6`, or edges are invalid.
    pub fn new(k: usize, edges: &[(usize, usize)]) -> Self {
        assert!((2..=6).contains(&k), "pattern order {k} unsupported");
        let mut mask = 0u64;
        for &(a, b) in edges {
            assert!(a != b && a < k && b < k);
            let (a, b) = if a < b { (a, b) } else { (b, a) };
            mask |= 1 << pair_slot(a, b, k);
        }
        Pattern { k, mask }
    }

    /// The triangle `K_3`.
    pub fn triangle() -> Self {
        Pattern::new(3, &[(0, 1), (1, 2), (0, 2)])
    }

    /// The path on three vertices (two edges).
    pub fn path3() -> Self {
        Pattern::new(3, &[(0, 1), (1, 2)])
    }

    /// A single edge plus an isolated vertex (order 3).
    pub fn edge_plus_isolated() -> Self {
        Pattern::new(3, &[(0, 1)])
    }

    /// The 4-clique `K_4`.
    pub fn k4() -> Self {
        Pattern::new(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    }

    /// The 4-cycle `C_4`.
    pub fn c4() -> Self {
        Pattern::new(4, &[(0, 1), (1, 2), (2, 3), (0, 3)])
    }

    /// The 3-star (claw) `K_{1,3}`.
    pub fn star3() -> Self {
        Pattern::new(4, &[(0, 1), (0, 2), (0, 3)])
    }

    /// The path on four vertices.
    pub fn path4() -> Self {
        Pattern::new(4, &[(0, 1), (1, 2), (2, 3)])
    }

    /// Pattern order `k`.
    pub fn order(&self) -> usize {
        self.k
    }

    /// Number of edges.
    pub fn edge_count(&self) -> u32 {
        self.mask.count_ones()
    }

    /// The canonical bitmask of this labeled pattern.
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// The isomorphism class `A_H`: every bitmask obtainable by permuting
    /// the `k` vertices (brute force over `k! ≤ 720` permutations).
    pub fn iso_class(&self) -> BTreeSet<u64> {
        let k = self.k;
        let mut perm: Vec<usize> = (0..k).collect();
        let mut out = BTreeSet::new();
        permute(&mut perm, 0, &mut |p| {
            let mut m = 0u64;
            for a in 0..k {
                for b in (a + 1)..k {
                    if self.mask >> pair_slot(a, b, k) & 1 == 1 {
                        let (pa, pb) = (p[a].min(p[b]), p[a].max(p[b]));
                        m |= 1 << pair_slot(pa, pb, k);
                    }
                }
            }
            out.insert(m);
        });
        out
    }
}

fn permute(p: &mut Vec<usize>, i: usize, f: &mut impl FnMut(&[usize])) {
    if i == p.len() {
        f(p);
        return;
    }
    for j in i..p.len() {
        p.swap(i, j);
        permute(p, i + 1, f);
        p.swap(i, j);
    }
}

/// Exact counts by enumerating all `C(n,k)` subsets: returns
/// `(matches of H, non-empty order-k induced subgraphs)`.
pub fn exact_counts(g: &Graph, h: &Pattern) -> (u64, u64) {
    let k = h.order();
    let class = h.iso_class();
    let n = g.n();
    assert!(n >= k, "graph smaller than pattern");
    let mut matches = 0u64;
    let mut non_empty = 0u64;
    let mut subset: Vec<usize> = (0..k).collect();
    loop {
        let mask = g.induced_mask(&subset);
        if mask != 0 {
            non_empty += 1;
            if class.contains(&mask) {
                matches += 1;
            }
        }
        // Advance to the next k-subset in lexicographic order.
        let mut i = k;
        loop {
            if i == 0 {
                return (matches, non_empty);
            }
            i -= 1;
            if subset[i] != i + n - k {
                subset[i] += 1;
                for j in (i + 1)..k {
                    subset[j] = subset[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// The exact `γ_H(G)` of §4 (0 if no order-k induced subgraph is
/// non-empty).
pub fn gamma(g: &Graph, h: &Pattern) -> f64 {
    let (m, ne) = exact_counts(g, h);
    if ne == 0 {
        0.0
    } else {
        m as f64 / ne as f64
    }
}

/// Exact triangle count `T_3` (the special case highlighted by §4 and the
/// Buriol et al. comparison).
pub fn triangle_count(g: &Graph) -> u64 {
    exact_counts(g, &Pattern::triangle()).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use gs_sketch::domain::binomial;

    #[test]
    fn triangle_iso_class_is_single_mask() {
        // The triangle is vertex-transitive: A_H = {0b111}.
        assert_eq!(
            Pattern::triangle()
                .iso_class()
                .into_iter()
                .collect::<Vec<_>>(),
            vec![0b111]
        );
    }

    #[test]
    fn path3_iso_class_has_three_masks() {
        // Three choices of the middle vertex.
        assert_eq!(Pattern::path3().iso_class().len(), 3);
    }

    #[test]
    fn edge_plus_isolated_class() {
        assert_eq!(Pattern::edge_plus_isolated().iso_class().len(), 3);
    }

    #[test]
    fn k4_is_transitive() {
        assert_eq!(Pattern::k4().iso_class().len(), 1);
    }

    #[test]
    fn c4_class_size() {
        // 4! / |Aut(C4)| = 24 / 8 = 3 labeled copies.
        assert_eq!(Pattern::c4().iso_class().len(), 3);
    }

    #[test]
    fn star3_class_size() {
        // Choose the center: 4 labeled copies.
        assert_eq!(Pattern::star3().iso_class().len(), 4);
    }

    #[test]
    fn path4_class_size() {
        // 4!/|Aut(P4)| = 24/2 = 12.
        assert_eq!(Pattern::path4().iso_class().len(), 12);
    }

    #[test]
    fn complete_graph_triangle_count() {
        let g = gen::complete(7);
        assert_eq!(triangle_count(&g), binomial(7, 3));
        let (_, ne) = exact_counts(&g, &Pattern::triangle());
        assert_eq!(ne, binomial(7, 3));
        assert_eq!(gamma(&g, &Pattern::triangle()), 1.0);
    }

    #[test]
    fn cycle_has_no_triangles() {
        let g = gen::cycle(8);
        assert_eq!(triangle_count(&g), 0);
        // But it has paths: each vertex as middle of a path3.
        let (p3, _) = exact_counts(&g, &Pattern::path3());
        assert_eq!(p3, 8);
    }

    #[test]
    fn single_triangle_graph() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (0, 2)]);
        assert_eq!(triangle_count(&g), 1);
        // Non-empty order-3 subsets: those containing ≥ 1 of the 3 edges.
        // {0,1,2} + pairs-with-outsider: 3 edges × 2 outsiders = 6 → 7.
        let (_, ne) = exact_counts(&g, &Pattern::triangle());
        assert_eq!(ne, 7);
        assert!((gamma(&g, &Pattern::triangle()) - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn k4_counts_in_complete_graph() {
        let g = gen::complete(6);
        let (k4s, ne) = exact_counts(&g, &Pattern::k4());
        assert_eq!(k4s, binomial(6, 4));
        assert_eq!(ne, binomial(6, 4));
    }

    #[test]
    fn c4_count_in_grid() {
        // A 2×3 grid has exactly 2 unit squares and no other induced C4.
        let g = gen::grid(2, 3);
        let (c4s, _) = exact_counts(&g, &Pattern::c4());
        assert_eq!(c4s, 2);
    }

    #[test]
    fn gamma_bounds() {
        let g = gen::gnp(20, 0.3, 5);
        for h in [
            Pattern::triangle(),
            Pattern::path3(),
            Pattern::edge_plus_isolated(),
        ] {
            let gam = gamma(&g, &h);
            assert!((0.0..=1.0).contains(&gam));
        }
        // The three order-3 classes partition all non-empty subgraphs.
        let total: f64 = [
            Pattern::triangle(),
            Pattern::path3(),
            Pattern::edge_plus_isolated(),
        ]
        .iter()
        .map(|h| gamma(&g, h))
        .sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn pattern_larger_than_graph_panics() {
        let g = gen::complete(3);
        let _ = exact_counts(&g, &Pattern::k4());
    }
}
