//! E5/E6 performance companion: Fig. 2 vs Fig. 3 sparsification, and the
//! offline Fung et al. baseline.

use crate::Rows;
use graph_sketches::{SimpleSparsifySketch, SparsifySketch};
use gs_graph::{gen, offline_sparsify};
use gs_sketch::LinearSketch;

pub(crate) fn run(rows: &mut Rows) {
    let n = 32;
    let g = gen::gnp(n, 0.4, 1);
    let stream = gen::insert_stream(&g);

    rows.time(format!("sparsify/fig2_ingest/{n}"), || {
        let mut s = SimpleSparsifySketch::new(n, 0.75, 3);
        for up in &stream {
            s.update_edge(up.u, up.v, up.delta);
        }
        s
    });
    rows.time(format!("sparsify/fig3_ingest/{n}"), || {
        let mut s = SparsifySketch::new(n, 0.75, 5);
        for up in &stream {
            s.update_edge(up.u, up.v, up.delta);
        }
        s
    });

    let mut s2 = SimpleSparsifySketch::new(n, 0.75, 3);
    s2.absorb(&stream);
    rows.time(format!("sparsify/fig2_decode/{n}"), || s2.decode());
    let mut s3 = SparsifySketch::new(n, 0.75, 5);
    s3.absorb(&stream);
    rows.time(format!("sparsify/fig3_decode/{n}"), || s3.decode());
    rows.time(format!("sparsify/fung_offline/{n}"), || {
        offline_sparsify::fung_connectivity(&g, 0.75, 1.0, 7)
    });
}
