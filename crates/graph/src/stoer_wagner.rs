//! Stoer–Wagner exact global minimum cut.
//!
//! The exact baseline for the MINCUT experiment (Fig. 1 / Theorem 3.2):
//! `λ(G)` with a witnessing side, weighted. [`min_cut`] works on
//! adjacency lists with a lazy max-heap, and contraction merges `t`'s
//! list into `s`'s, summing parallel entries: `O(n·(m log n + n))` time
//! and `O(n + m)` space, so a `k`-witness of at most `k(n − 1)` edges
//! costs what its edges cost rather than `n²`.
//!
//! **Tie rule.** Each phase adds the outside vertex most tightly
//! connected to the growing set; among equal weights it takes the
//! *largest* vertex id (the last maximum of an ascending scan). Phase
//! orders, contractions and therefore `(value, side)` are exactly those
//! of [`min_cut_dense`], the `O(n³)`-time, `n × n`-matrix original kept
//! as the test oracle.

use crate::graph::Graph;
use std::collections::BinaryHeap;

/// The global minimum cut `(λ(G), side)` of a connected weighted graph.
///
/// Returns weight 0 with a non-trivial side if the graph is disconnected.
///
/// # Panics
/// Panics if `n < 2`.
pub fn min_cut(g: &Graph) -> (u64, Vec<bool>) {
    let n = g.n();
    assert!(n >= 2, "minimum cut needs at least two vertices");

    // adj[v] lists (neighbour, weight) once per active vertex joined to
    // v's merged set, with the total weight between the two sets.
    let mut adj: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    for &(u, v, wt) in g.edges() {
        if wt > 0 {
            adj[u].push((v, wt));
            adj[v].push((u, wt));
        }
    }
    let mut merged: Vec<Vec<usize>> = (0..n).map(|v| vec![v]).collect();
    let mut active: Vec<usize> = (0..n).collect();
    let mut in_a = vec![false; n];
    let mut weight_to_a = vec![0u64; n];
    // Scratch: slot[y] = position of y in the list being merged into.
    let mut slot = vec![usize::MAX; n];
    // (weight to A, vertex): the max is the heaviest vertex, ties to the
    // largest id. Entries go stale when their vertex gains weight or
    // joins A; only positive weights are pushed.
    let mut heap: BinaryHeap<(u64, usize)> = BinaryHeap::new();

    let mut best: Option<(u64, Vec<bool>)> = None;

    while active.len() > 1 {
        // Maximum-adjacency ("minimum cut phase") ordering.
        for &v in &active {
            in_a[v] = false;
            weight_to_a[v] = 0;
        }
        heap.clear();
        // Every active vertex at or above `zero_scan` is in A: the next
        // weight-0 pick is the largest unvisited id below it.
        let mut zero_scan = active.len();
        let (mut s, mut t) = (usize::MAX, usize::MAX);
        for _ in 0..active.len() {
            let next = loop {
                match heap.pop() {
                    Some((w, v)) if !in_a[v] && w == weight_to_a[v] => break v,
                    Some(_) => {}
                    None => {
                        while in_a[active[zero_scan - 1]] {
                            zero_scan -= 1;
                        }
                        break active[zero_scan - 1];
                    }
                }
            };
            in_a[next] = true;
            (s, t) = (t, next);
            for &(y, wt) in &adj[next] {
                if !in_a[y] {
                    weight_to_a[y] += wt;
                    heap.push((weight_to_a[y], y));
                }
            }
        }
        // Cut-of-the-phase: {t's merged set} vs rest.
        let phase_cut = weight_to_a[t];
        if best.as_ref().is_none_or(|(b, _)| phase_cut < *b) {
            let mut side = vec![false; n];
            for &orig in &merged[t] {
                side[orig] = true;
            }
            best = Some((phase_cut, side));
        }
        // Contract t into s: each neighbour y of t re-points its t entry
        // at s (folding it into an s entry it already has), and s takes
        // t's entries the same way; the s–t edge is now inside.
        let t_merged = std::mem::take(&mut merged[t]);
        merged[s].extend(t_merged);
        let t_adj = std::mem::take(&mut adj[t]);
        adj[s].retain(|&(x, _)| x != t);
        for (i, &(x, _)) in adj[s].iter().enumerate() {
            slot[x] = i;
        }
        for (y, wt) in t_adj {
            if y == s {
                continue;
            }
            let ys = &mut adj[y];
            let at_t = ys
                .iter()
                .position(|&(x, _)| x == t)
                .expect("symmetric lists");
            if slot[y] == usize::MAX {
                ys[at_t].0 = s;
                slot[y] = adj[s].len();
                adj[s].push((y, wt));
            } else {
                ys.swap_remove(at_t);
                ys.iter_mut()
                    .find(|(x, _)| *x == s)
                    .expect("symmetric lists")
                    .1 += wt;
                adj[s][slot[y]].1 += wt;
            }
        }
        for &(x, _) in &adj[s] {
            slot[x] = usize::MAX;
        }
        active.retain(|&v| v != t);
    }

    best.expect("at least one phase")
}

/// The dense `O(n³)` Stoer–Wagner on an `n × n` weight matrix, kept
/// verbatim as the oracle [`min_cut`] is pinned to (same tie rule, same
/// `(value, side)`); not on any production path.
///
/// # Panics
/// Panics if `n < 2`.
#[doc(hidden)]
pub fn min_cut_dense(g: &Graph) -> (u64, Vec<bool>) {
    let n = g.n();
    assert!(n >= 2, "minimum cut needs at least two vertices");

    // Dense working copy; merged[v] lists original vertices contracted
    // into v.
    let mut w = vec![vec![0u64; n]; n];
    for &(u, v, wt) in g.edges() {
        w[u][v] += wt;
        w[v][u] += wt;
    }
    let mut merged: Vec<Vec<usize>> = (0..n).map(|v| vec![v]).collect();
    let mut active: Vec<usize> = (0..n).collect();

    let mut best: Option<(u64, Vec<bool>)> = None;

    while active.len() > 1 {
        // Maximum-adjacency ("minimum cut phase") ordering.
        let mut in_a = vec![false; n];
        let mut weight_to_a = vec![0u64; n];
        let mut order = Vec::with_capacity(active.len());
        for _ in 0..active.len() {
            let &next = active
                .iter()
                .filter(|&&v| !in_a[v])
                .max_by_key(|&&v| weight_to_a[v])
                .expect("non-empty");
            in_a[next] = true;
            order.push(next);
            for &v in &active {
                if !in_a[v] {
                    weight_to_a[v] += w[next][v];
                }
            }
        }
        let t = *order.last().unwrap();
        let s = order[order.len() - 2];
        // Cut-of-the-phase: {t's merged set} vs rest.
        let phase_cut = weight_to_a[t];
        let mut side = vec![false; n];
        for &orig in &merged[t] {
            side[orig] = true;
        }
        if best.as_ref().is_none_or(|(b, _)| phase_cut < *b) {
            best = Some((phase_cut, side));
        }
        // Contract t into s.
        let t_merged = std::mem::take(&mut merged[t]);
        merged[s].extend(t_merged);
        for &v in &active {
            if v != s && v != t {
                w[s][v] += w[t][v];
                w[v][s] = w[s][v];
            }
        }
        active.retain(|&v| v != t);
    }

    best.expect("at least one phase")
}

/// Convenience: just the value `λ(G)`.
pub fn min_cut_value(g: &Graph) -> u64 {
    min_cut(g).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuts::brute_force_min_cut;
    use crate::gen;
    use gs_field::SplitMix64;

    #[test]
    fn barbell_min_cut_is_bridge() {
        for bridge in 1..=4 {
            let g = gen::barbell(8, bridge);
            let (val, side) = min_cut(&g);
            assert_eq!(val, bridge as u64);
            assert_eq!(g.cut_value(&side), val);
        }
    }

    #[test]
    fn complete_graph_min_cut_isolates_vertex() {
        let g = gen::complete(8);
        let (val, side) = min_cut(&g);
        assert_eq!(val, 7);
        let a = side.iter().filter(|&&s| s).count();
        assert!(a == 1 || a == 7);
    }

    #[test]
    fn cycle_min_cut_is_two() {
        assert_eq!(min_cut_value(&gen::cycle(9)), 2);
    }

    #[test]
    fn disconnected_graph_reports_zero() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let (val, side) = min_cut(&g);
        assert_eq!(val, 0);
        assert_eq!(g.cut_value(&side), 0);
        assert!(side.iter().any(|&s| s) && side.iter().any(|&s| !s));
    }

    #[test]
    fn weighted_cut_prefers_light_edges() {
        // Heavy triangle with one light pendant edge.
        let g = Graph::from_weighted_edges(4, [(0, 1, 10), (1, 2, 10), (0, 2, 10), (2, 3, 1)]);
        let (val, side) = min_cut(&g);
        assert_eq!(val, 1);
        // Either orientation of the {3} vs {0,1,2} cut is a valid witness.
        let marked = side.iter().filter(|&&s| s).count();
        assert!(marked == 1 || marked == 3, "unexpected side {side:?}");
        assert_eq!(g.cut_value(&side), 1);
    }

    /// Asserts the sparse cut equals the dense oracle's `(value, side)`.
    fn assert_matches_dense(g: &Graph, label: &str) {
        assert_eq!(min_cut(g), min_cut_dense(g), "{label}");
    }

    #[test]
    fn sparse_matches_dense_on_seeded_gnp_across_densities() {
        let mut rng = SplitMix64::new(29);
        for trial in 0..120u64 {
            let n = 2 + (trial % 38) as usize;
            let p = [0.03, 0.08, 0.15, 0.3, 0.6, 1.0][(trial % 6) as usize];
            let seed = rng.next_u64();
            let g = if trial % 2 == 0 {
                gen::gnp(n, p, seed)
            } else {
                gen::gnp_weighted(n, p, 9, seed)
            };
            assert_matches_dense(&g, &format!("trial {trial}: n = {n}, p = {p}"));
        }
    }

    #[test]
    fn sparse_matches_dense_on_structured_graphs() {
        for size in 3..12 {
            assert_matches_dense(&gen::cycle(size), &format!("cycle {size}"));
            assert_matches_dense(&gen::complete(size), &format!("clique {size}"));
            assert_matches_dense(&gen::grid(size / 2 + 1, size), &format!("grid {size}"));
            for bridge in 1..=size.min(4) {
                let label = format!("barbell {size}/{bridge}");
                assert_matches_dense(&gen::barbell(size, bridge), &label);
            }
        }
    }

    #[test]
    fn sparse_matches_dense_on_ties_multi_edges_and_disconnection() {
        // Every weight equal: each phase is decided by the tie rule alone.
        for seed in 0..20 {
            let g = gen::gnp_weighted(16, 0.3, 1, seed);
            assert_matches_dense(&g, &format!("all-equal weights, seed {seed}"));
        }
        // Duplicate pairs fold into one weighted edge either way round.
        let multi = Graph::from_weighted_edges(
            5,
            [
                (0, 1, 2),
                (1, 0, 3),
                (1, 2, 1),
                (2, 3, 4),
                (3, 2, 1),
                (3, 4, 2),
                (4, 0, 1),
            ],
        );
        assert_matches_dense(&multi, "multi-edges");
        let mut zero = gen::cycle(6);
        zero.add_edge(0, 3, 0);
        assert_matches_dense(&zero, "zero-weight edge");
        let parts = Graph::from_edges(9, [(0, 1), (1, 2), (2, 0), (4, 5), (6, 7), (7, 8)]);
        assert_matches_dense(&parts, "disconnected, vertex 3 isolated");
        assert_matches_dense(&Graph::new(7), "no edges");
        assert_matches_dense(&Graph::from_edges(2, [(0, 1)]), "one edge");
        assert_matches_dense(&Graph::new(2), "two isolated vertices");
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        let mut rng = SplitMix64::new(17);
        for trial in 0..60u64 {
            let n = 4 + (trial % 7) as usize;
            let p = 0.3 + 0.4 * rng.next_f64();
            let g = gen::gnp(n, p, trial * 101 + 7);
            if g.m() == 0 {
                continue;
            }
            let (sw, side) = min_cut(&g);
            let bf = brute_force_min_cut(&g);
            assert_eq!(sw, bf, "trial {trial}: SW {sw} vs brute {bf}");
            assert_eq!(g.cut_value(&side), sw, "witness mismatch trial {trial}");
        }
    }
}
