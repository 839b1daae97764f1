//! Property-based tests for the paper's algorithms: soundness invariants
//! that must hold for *every* input, not just w.h.p. accuracy claims.
//!
//! Inputs are generated from seeded workloads (the offline workspace
//! carries no external property-testing dependency); every case is
//! deterministic and reproducible from its loop index.
//!
//! Linearity (merge-of-split-streams == central, bit for bit) is asserted
//! for every sketch type through the generic
//! `gs_stream::distributed::linearity_holds` harness — see
//! `tests/linearity.rs` at the workspace root.

use graph_sketches::{
    ForestSketch, KEdgeConnectSketch, MinCutSketch, SimpleSparsifySketch, SubgraphSketch,
};
use gs_field::SplitMix64;
use gs_graph::{Graph, UnionFind};
use gs_sketch::LinearSketch;

const CASES: u64 = 48;

/// A pseudo-random simple graph on 5..14 vertices.
fn small_graph(case: u64) -> Graph {
    let mut rng = SplitMix64::new(case.wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ 0xC04E);
    let n = 5 + rng.next_range(9) as usize;
    let pairs = rng.next_range(40) as usize;
    let mut edges = std::collections::BTreeSet::new();
    for _ in 0..pairs {
        let a = rng.next_range(n as u64) as usize;
        let b = rng.next_range(n as u64) as usize;
        if a != b {
            edges.insert((a.min(b), a.max(b)));
        }
    }
    Graph::from_edges(n, edges)
}

#[test]
fn forest_decode_is_always_sound() {
    for case in 0..CASES {
        let g = small_graph(case);
        let seed = case % 1000;
        // Whatever happens probabilistically, the decoded forest never
        // contains a phantom edge or a cycle, and never *over*-connects.
        let mut s = ForestSketch::new(g.n(), seed);
        for &(u, v, w) in g.edges() {
            s.update_edge(u, v, w as i64);
        }
        let f = s.decode();
        let mut uf = UnionFind::new(g.n());
        let mut truth = g.components();
        for &(u, v, _) in &f.edges {
            assert!(g.has_edge(u, v), "case {case}: phantom edge ({u},{v})");
            assert!(uf.union(u, v), "case {case}: cycle");
            assert!(truth.connected(u, v), "case {case}");
        }
    }
}

#[test]
fn kedge_witness_is_always_a_subgraph() {
    for case in 0..CASES {
        let g = small_graph(case ^ 0x100);
        let seed = case % 500;
        let k = 1 + (case as usize % 4);
        let mut s = KEdgeConnectSketch::new(g.n(), k, seed);
        for &(u, v, w) in g.edges() {
            s.update_edge(u, v, w as i64);
        }
        let h = s.decode();
        for &(u, v, w) in h.edges() {
            assert!(g.has_edge(u, v), "case {case}");
            assert!(w as usize <= k, "case {case}");
        }
        assert!(h.m() <= k * (g.n().max(1) - 1), "case {case}");
    }
}

#[test]
fn mincut_estimate_never_below_witnessed_cut() {
    for case in 0..CASES {
        let g = small_graph(case ^ 0x200);
        if g.m() < 1 {
            continue;
        }
        let mut s = MinCutSketch::new(g.n(), 0.5, case % 300);
        for &(u, v, w) in g.edges() {
            s.update_edge(u, v, w as i64);
        }
        if let Some(est) = s.decode() {
            // The returned side is a real cut of G; at level 0 its value
            // matches the estimate exactly, so the estimate is achievable.
            assert!(est.side.iter().any(|&x| x), "case {case}");
            assert!(est.side.iter().any(|&x| !x), "case {case}");
            if est.level == 0 {
                assert_eq!(g.cut_value(&est.side), est.value, "case {case}");
            }
        }
    }
}

#[test]
fn sparsifier_support_is_always_real() {
    for case in 0..CASES {
        let g = small_graph(case ^ 0x300);
        let mut s = SimpleSparsifySketch::new(g.n(), 0.75, case % 300);
        for &(u, v, w) in g.edges() {
            s.update_edge(u, v, w as i64);
        }
        let h = s.decode();
        for &(u, v, _) in h.edges() {
            assert!(g.has_edge(u, v), "case {case}");
        }
        // Zero cuts must stay zero: the sparsifier never bridges
        // components (Definition 4 with λ_A(G) = 0).
        let mut gc = g.components();
        for &(u, v, _) in h.edges() {
            assert!(gc.connected(u, v), "case {case}");
        }
    }
}

#[test]
fn subgraph_samples_are_real_induced_subgraphs() {
    for case in 0..CASES {
        let g = small_graph(case ^ 0x400);
        if g.n() < 3 {
            continue;
        }
        let mut s = SubgraphSketch::new(g.n(), 3, 0.34, case % 300);
        for &(u, v, _) in g.edges() {
            s.update_edge(u, v, 1);
        }
        // Every raw sample must be the exact induced-mask of *some*
        // 3-subset of G — i.e. the value is in the set of real masks.
        let mut real_masks = std::collections::BTreeSet::new();
        for a in 0..g.n() {
            for b in (a + 1)..g.n() {
                for c in (b + 1)..g.n() {
                    let m = g.induced_mask(&[a, b, c]);
                    if m != 0 {
                        real_masks.insert(m);
                    }
                }
            }
        }
        for m in s.decode() {
            assert!(
                real_masks.contains(&m),
                "case {case}: sampled mask {m:#b} not present in G"
            );
        }
    }
}

#[test]
fn deletion_of_everything_yields_empty_sketches() {
    for case in 0..CASES {
        let g = small_graph(case ^ 0x500);
        let mut s = ForestSketch::new(g.n(), case % 200);
        for &(u, v, w) in g.edges() {
            s.update_edge(u, v, w as i64);
        }
        for &(u, v, w) in g.edges() {
            s.update_edge(u, v, -(w as i64));
        }
        let f = s.decode();
        assert!(f.edges.is_empty(), "case {case}");
        assert_eq!(f.component_count(), g.n(), "case {case}");
    }
}
