//! Property-based tests for the exact-algorithm substrate: Gomory–Hu
//! against direct max-flow, Stoer–Wagner against enumeration and its
//! dense oracle, cut algebra, and pattern-class invariants.
//!
//! Inputs are generated from seeded workloads (the offline workspace
//! carries no external property-testing dependency); every case is
//! deterministic and reproducible from its loop index.

use gs_field::SplitMix64;
use gs_graph::cuts::{brute_force_min_cut, enumerate_cuts};
use gs_graph::maxflow::min_cut_uv;
use gs_graph::subgraph::{exact_counts, Pattern};
use gs_graph::{gen, stoer_wagner, GomoryHuTree, Graph};

const CASES: u64 = 64;

/// A pseudo-random small weighted graph with at least one edge.
fn small_graph(case: u64) -> Graph {
    let mut rng = SplitMix64::new(case.wrapping_mul(0xA076_1D64_78BD_642F) ^ 0x6A4F);
    let n = 4 + rng.next_range(5) as usize; // 4..9
    let g = gen::gnp_weighted(n, 0.55, 6, rng.next_u64() % 10_000);
    if g.m() == 0 {
        // Guarantee at least one edge so cut queries are non-trivial.
        Graph::from_weighted_edges(n, [(0, 1, 1)])
    } else {
        g
    }
}

#[test]
fn gomory_hu_matches_maxflow_for_all_pairs() {
    for case in 0..CASES {
        let g = small_graph(case);
        let t = GomoryHuTree::build(&g);
        for u in 0..g.n() {
            for v in (u + 1)..g.n() {
                assert_eq!(t.min_cut_value(u, v), min_cut_uv(&g, u, v).0, "case {case}");
            }
        }
    }
}

#[test]
fn gomory_hu_edges_induce_their_cut_value() {
    for case in 0..CASES {
        let g = small_graph(case ^ 0x100);
        let t = GomoryHuTree::build(&g);
        for (_, w, side) in t.induced_cuts() {
            assert_eq!(g.cut_value(&side), w, "case {case}");
        }
    }
}

#[test]
fn stoer_wagner_matches_enumeration() {
    for case in 0..CASES {
        let g = small_graph(case ^ 0x200);
        let (val, side) = stoer_wagner::min_cut(&g);
        assert_eq!(val, brute_force_min_cut(&g), "case {case}");
        assert_eq!(g.cut_value(&side), val, "case {case}");
        assert_eq!(
            (val, side),
            stoer_wagner::min_cut_dense(&g),
            "case {case}: sparse drifted from the dense oracle"
        );
    }
}

#[test]
fn min_cut_lower_bounds_every_st_cut() {
    for case in 0..CASES {
        let g = small_graph(case ^ 0x300);
        let lambda = stoer_wagner::min_cut_value(&g);
        for (s, t) in [(0usize, 1usize), (1, 3), (0, g.n() - 1)] {
            assert!(min_cut_uv(&g, s, t).0 >= lambda, "case {case}");
        }
    }
}

#[test]
fn cut_value_is_complement_invariant() {
    for case in 0..CASES {
        let g = small_graph(case ^ 0x400);
        for side in enumerate_cuts(g.n()) {
            let comp: Vec<bool> = side.iter().map(|s| !s).collect();
            assert_eq!(g.cut_value(&side), g.cut_value(&comp), "case {case}");
        }
    }
}

#[test]
fn maxflow_witness_is_tight() {
    for case in 0..CASES {
        let g = small_graph(case ^ 0x500);
        let (f, side) = min_cut_uv(&g, 0, g.n() - 1);
        assert_eq!(g.cut_value(&side), f, "case {case}");
    }
}

#[test]
fn order3_classes_partition_nonempty_subgraphs() {
    for seed in 0..200u64 {
        let g = gen::gnp(12, 0.4, seed * 25);
        let (t3, ne) = exact_counts(&g, &Pattern::triangle());
        let (p3, ne2) = exact_counts(&g, &Pattern::path3());
        let (e3, ne3) = exact_counts(&g, &Pattern::edge_plus_isolated());
        assert_eq!(ne, ne2);
        assert_eq!(ne, ne3);
        assert_eq!(t3 + p3 + e3, ne);
    }
}

#[test]
fn iso_class_is_permutation_closed() {
    let mut rng = SplitMix64::new(0x150);
    for case in 0..CASES {
        let mut edges = std::collections::BTreeSet::new();
        for _ in 0..rng.next_range(6) {
            let a = rng.next_range(4) as usize;
            let b = rng.next_range(4) as usize;
            if a != b {
                edges.insert((a.min(b), a.max(b)));
            }
        }
        let edges: Vec<(usize, usize)> = edges.into_iter().collect();
        let p = Pattern::new(4, &edges);
        let class = p.iso_class();
        // The class contains the pattern's own mask and is closed under
        // re-deriving classes from any member: same edge count everywhere.
        assert!(class.contains(&p.mask()), "case {case}");
        for &m in &class {
            assert_eq!(m.count_ones(), p.edge_count(), "case {case}");
        }
    }
}

#[test]
fn generators_produce_simple_graphs() {
    for seed in 0..200u64 {
        for g in [
            gen::gnp(20, 0.3, seed * 10),
            gen::planted_partition(20, 3, 0.6, 0.1, seed * 10),
            gen::preferential_attachment(20, 2, seed * 10),
        ] {
            for &(u, v, w) in g.edges() {
                assert!(u < v);
                assert!(w >= 1);
                assert!(v < g.n());
            }
            // Degrees are consistent with the edge list.
            let deg_sum: usize = (0..g.n()).map(|v| g.degree(v)).sum();
            assert_eq!(deg_sum, 2 * g.m());
        }
    }
}
