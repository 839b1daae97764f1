//! Distance oracles from few passes (§5): road-network spanners.
//!
//! A planner has a large road network on slow storage and wants an
//! in-memory distance oracle. Each scan of the edge file is expensive, so
//! pass count matters: Baswana–Sen needs `k` passes for stretch `2k−1`;
//! `RECURSECONNECT` needs only `⌈log₂ k⌉ + 1` passes for stretch
//! `k^{log₂5} − 1`. This example builds both on a grid-with-shortcuts
//! "road network" and compares passes / size / measured stretch.
//!
//! Run: `cargo run --release --example road_spanner`

use graph_sketches::spanner::recurse::stretch_bound;
use graph_sketches::spanner::{
    baswana_sen, recurse_connect, BaswanaSenParams, Meter, RecurseParams,
};
use gs_graph::paths::max_stretch;
use gs_graph::{gen, Graph};

fn main() {
    // A 10×10 grid plus random shortcuts: grid = local roads, shortcuts =
    // highways.
    let rows = 10;
    let cols = 10;
    let n = rows * cols;
    let grid = gen::grid(rows, cols);
    let extra = gen::gnp(n, 0.03, 3);
    let g = Graph::from_edges(
        n,
        grid.edges()
            .iter()
            .chain(extra.edges().iter())
            .map(|&(u, v, _)| (u, v)),
    );
    println!("road network: {} junctions, {} segments\n", n, g.m());

    let stream = gen::insert_stream(&g);

    println!(
        "{:<22} {:>6} {:>7} {:>10} {:>10}",
        "algorithm", "passes", "edges", "stretch", "bound"
    );
    for k in [2usize, 3, 4] {
        let mut meter = Meter::new(g.n(), &stream);
        let h = baswana_sen(&mut meter, BaswanaSenParams::scaled(n, k), 100 + k as u64);
        let s = max_stretch(&g, &h).unwrap_or(f64::INFINITY);
        println!(
            "{:<22} {:>6} {:>7} {:>10.2} {:>10}",
            format!("Baswana-Sen k={k}"),
            meter.passes(),
            h.m(),
            s,
            2 * k - 1
        );
    }
    for k in [2usize, 4] {
        let mut meter = Meter::new(g.n(), &stream);
        let (h, trace) = recurse_connect(&mut meter, RecurseParams::scaled(k), 200 + k as u64);
        let s = max_stretch(&g, &h).unwrap_or(f64::INFINITY);
        println!(
            "{:<22} {:>6} {:>7} {:>10.2} {:>10.1}",
            format!("RecurseConnect k={k}"),
            meter.passes(),
            h.m(),
            s,
            stretch_bound(k)
        );
        for p in &trace.phases {
            println!(
                "    phase {}: degree target {}, {} supervertices remain, {} retired",
                p.phase,
                p.degree_target,
                p.members.len(),
                p.retired
            );
        }
    }
    println!("\nFewer passes buy a weaker stretch bound — Theorem 5.1's trade-off.");
}
