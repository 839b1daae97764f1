//! E4 performance companion: `MINCUT` (Fig. 1) vs the exact Stoer–Wagner
//! baseline it emulates.

use crate::Rows;
use graph_sketches::MinCutSketch;
use gs_graph::{gen, stoer_wagner};
use gs_sketch::LinearSketch;

pub(crate) fn run(rows: &mut Rows) {
    for n in [24usize, 48] {
        let g = gen::barbell(n / 2, 2);
        let stream = gen::insert_stream(&g);
        rows.time(format!("mincut/ingest/{n}"), || {
            let mut s = MinCutSketch::new(n, 0.5, 1);
            for up in &stream {
                s.update_edge(up.u, up.v, up.delta);
            }
            s
        });
        let mut s = MinCutSketch::new(n, 0.5, 1);
        s.absorb(&stream);
        rows.time(format!("mincut/decode/{n}"), || {
            s.decode().expect("resolves").value
        });
        rows.time(format!("mincut/stoer_wagner_exact/{n}"), || {
            stoer_wagner::min_cut_value(&g)
        });
    }
}
