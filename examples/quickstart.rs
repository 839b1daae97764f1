//! Quickstart: sketch a dynamic graph stream once, answer several
//! questions from the sketches — all through the unified
//! [`SketchSpec`]/[`AnySketch`] API.
//!
//! A stream of edge insertions *and deletions* arrives; we maintain linear
//! sketches only (no edge list), then decode:
//!   * connectivity + a spanning forest       (AGM substrate)
//!   * a (1+ε)-approximate minimum cut        (Fig. 1)
//!   * an ε-cut sparsifier                    (Fig. 3)
//!
//! Run: `cargo run --release --example quickstart`

use graph_sketches::api::{SketchAnswer, SketchSpec, SketchTask};
use gs_graph::{cuts, gen, stoer_wagner, Graph};
use gs_sketch::LinearSketch;

fn main() {
    let n = 48;
    let eps = 0.5;

    // The "true" graph the stream nets out to: two communities joined by a
    // sparse cut, plus 600 decoy edges inserted and later deleted.
    let g = gen::planted_partition(n, 2, 0.7, 0.06, 42);
    let updates = gen::churn_stream(&g, 600, 7);
    println!(
        "stream: {} updates ({} net edges on {} vertices, including deletions)",
        updates.len(),
        g.m(),
        n
    );

    // ---- single pass over the stream, three sketches in parallel ----
    let specs = [
        SketchSpec::new(SketchTask::Connectivity, n).with_seed(1),
        SketchSpec::new(SketchTask::MinCut, n)
            .with_eps(eps)
            .with_seed(2),
        SketchSpec::new(SketchTask::Sparsify, n)
            .with_eps(eps)
            .with_seed(3),
    ];
    let mut sketches: Vec<_> = specs.iter().map(SketchSpec::build).collect();
    for sketch in &mut sketches {
        sketch.absorb(&updates);
    }

    for sketch in &sketches {
        println!(
            "\n[{}] sketch size: {} KiB",
            sketch.task().command(),
            sketch.space_bytes() / 1024
        );
        match sketch.decode() {
            SketchAnswer::Connectivity {
                components,
                forest_edges,
                ..
            } => {
                println!(
                    "connectivity: {components} component(s); spanning forest has {} edges",
                    forest_edges.len()
                );
            }
            SketchAnswer::MinCut {
                resolved,
                value,
                level,
                ..
            } => {
                assert!(resolved, "MINCUT resolves");
                let exact = stoer_wagner::min_cut_value(&g);
                println!(
                    "min cut: sketch estimate {value} (resolved at level {level}), exact {exact}"
                );
            }
            SketchAnswer::Sparsifier { edges, .. } => {
                let h = Graph::from_weighted_edges(n, edges);
                let err = cuts::random_cut_audit(&g, &h, 500, 9);
                println!(
                    "sparsifier: {} of {} edges kept; worst error over 500 random cuts: {:.3} (ε = {})",
                    h.m(),
                    g.m(),
                    err,
                    eps
                );
                // The planted community cut specifically:
                let side: Vec<bool> = (0..n).map(|v| v < n / 2).collect();
                println!(
                    "planted community cut: G = {}, sparsifier = {}",
                    g.cut_value(&side),
                    h.cut_value(&side)
                );
            }
            other => panic!("unexpected answer {other:?}"),
        }
    }
}
