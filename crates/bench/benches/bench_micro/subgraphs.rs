//! E8 performance companion: the subgraph sketch (§4, Fig. 4).
//!
//! The interesting cost is the `O(n^{k−2})` column fan-out per edge
//! update — measured against `n` and pattern order `k` — plus the decode
//! and the exact-enumeration baseline.

use crate::Rows;
use graph_sketches::SubgraphSketch;
use gs_graph::gen;
use gs_graph::subgraph::{exact_counts, Pattern};
use gs_sketch::LinearSketch;

pub(crate) fn run(rows: &mut Rows) {
    for n in [16usize, 32, 64] {
        let mut s = SubgraphSketch::new(n, 3, 0.34, 1);
        rows.time(format!("subgraph_update/k3/{n}"), || s.update_edge(0, 1, 1));
    }
    for n in [12usize, 20] {
        let mut s = SubgraphSketch::new(n, 4, 0.5, 2);
        rows.time(format!("subgraph_update/k4/{n}"), || s.update_edge(0, 1, 1));
    }

    let g = gen::gnp(20, 0.4, 3);
    let mut s = SubgraphSketch::new(20, 3, 0.2, 5);
    for &(u, v, _) in g.edges() {
        s.update_edge(u, v, 1);
    }
    rows.time("subgraph_estimate/sketch_gamma_triangle".into(), || {
        s.estimate_gamma(&Pattern::triangle())
    });
    rows.time(
        "subgraph_estimate/exact_enumeration_baseline".into(),
        || exact_counts(&g, &Pattern::triangle()),
    );
}
