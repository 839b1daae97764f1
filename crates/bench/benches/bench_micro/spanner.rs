//! E10/E11 performance companion: spanner constructions (§5).

use crate::Rows;
use graph_sketches::spanner::{
    baswana_sen, recurse_connect, BaswanaSenParams, Meter, RecurseParams,
};
use gs_graph::gen;

pub(crate) fn run(rows: &mut Rows) {
    let n = 60;
    let g = gen::connected_gnp(n, 0.15, 1);
    let stream = gen::insert_stream(&g);
    for k in [2usize, 3] {
        rows.time(format!("spanner/baswana_sen/{k}"), || {
            let mut meter = Meter::new(g.n(), &stream);
            baswana_sen(&mut meter, BaswanaSenParams::scaled(n, k), 3)
        });
    }
    for k in [2usize, 4] {
        rows.time(format!("spanner/recurse_connect/{k}"), || {
            let mut meter = Meter::new(g.n(), &stream);
            recurse_connect(&mut meter, RecurseParams::scaled(k), 5)
        });
    }
}
