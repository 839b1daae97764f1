//! E3 performance companion: spanning-forest sketches and `k-EDGECONNECT`
//! (Theorem 2.3) — stream ingestion and witness decoding.

use crate::Rows;
use graph_sketches::{ForestSketch, KEdgeConnectSketch};
use gs_graph::gen;
use gs_sketch::LinearSketch;

pub(crate) fn run(rows: &mut Rows) {
    for n in [32usize, 64, 128] {
        let g = gen::gnp(n, 0.2, 1);
        let updates = gen::churn_stream(&g, g.m(), 2);
        rows.time(format!("forest/ingest/{n}"), || {
            let mut s = ForestSketch::new(n, 3);
            s.absorb(&updates);
            s
        });
        let mut s = ForestSketch::new(n, 3);
        s.absorb(&updates);
        rows.time(format!("forest/decode/{n}"), || s.decode());
    }

    let n = 48;
    let g = gen::gnp(n, 0.3, 5);
    let updates = gen::insert_stream(&g);
    for k in [2usize, 4, 8] {
        rows.time(format!("kedge/ingest/{k}"), || {
            let mut s = KEdgeConnectSketch::new(n, k, 7);
            s.absorb(&updates);
            s
        });
        let mut s = KEdgeConnectSketch::new(n, k, 7);
        s.absorb(&updates);
        rows.time(format!("kedge/decode_witness/{k}"), || s.decode());
    }
}
