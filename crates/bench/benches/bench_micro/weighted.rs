//! E7 performance companion: weighted sparsification (§3.5) across weight
//! ranges.

use crate::Rows;
use graph_sketches::weighted::WeightedSparsifySketch;
use gs_graph::gen;
use gs_sketch::LinearSketch;

pub(crate) fn run(rows: &mut Rows) {
    let n = 24;
    for max_w in [4u64, 64] {
        let g = gen::gnp_weighted(n, 0.4, max_w, 1);
        rows.time(format!("weighted_sparsify/ingest/{max_w}"), || {
            let mut s = WeightedSparsifySketch::new(n, 0.75, max_w, 3);
            for &(u, v, w) in g.edges() {
                s.update_edge(u, v, w as i64);
            }
            s
        });
        let mut s = WeightedSparsifySketch::new(n, 0.75, max_w, 3);
        for &(u, v, w) in g.edges() {
            s.update_edge(u, v, w as i64);
        }
        rows.time(format!("weighted_sparsify/decode/{max_w}"), || s.decode());
    }
}
