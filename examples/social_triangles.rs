//! Social-graph triangle trends under churn (§4).
//!
//! A friendship graph evolves: friendships form and dissolve. The
//! subgraph sketch maintains `O(ε⁻²)` ℓ0-samplers of `squash(X_G)`
//! (Fig. 4) and answers, at any moment, "what fraction of non-empty
//! 3-vertex groups are triangles / open wedges / lone edges?" — the local
//! clustering signal — without storing the graph.
//!
//! Run: `cargo run --release --example social_triangles`

use graph_sketches::SubgraphSketch;
use gs_graph::subgraph::{gamma, Pattern};
use gs_graph::{gen, Graph};
use gs_sketch::{EdgeUpdate, LinearSketch};

fn main() {
    let n = 32;
    let eps = 0.2;

    // Two eras of the network: a loose random phase, then a clustered
    // phase (communities densify, cross links dissolve).
    let era1 = gen::gnp(n, 0.2, 5);
    let era2 = gen::planted_partition(n, 4, 0.75, 0.03, 6);

    let mut sketch = SubgraphSketch::new(n, 3, eps, 0x50C1A1);

    // Era 1: stream in the loose graph (with churn).
    sketch.absorb(&gen::churn_stream(&era1, 200, 7));
    report("era 1 (loose)", &sketch, &era1);

    // Transition: delete era-1 edges not in era 2, insert the new ones.
    let mut transition = Vec::new();
    for &(u, v, _) in era1.edges() {
        if !era2.has_edge(u, v) {
            transition.push(EdgeUpdate::delete(u, v));
        }
    }
    for &(u, v, _) in era2.edges() {
        if !era1.has_edge(u, v) {
            transition.push(EdgeUpdate::insert(u, v));
        }
    }
    println!("transition: {} updates\n", transition.len());
    sketch.absorb(&transition);
    report("era 2 (clustered)", &sketch, &era2);
}

fn report(tag: &str, sketch: &SubgraphSketch, truth: &Graph) {
    let patterns = [
        ("triangle", Pattern::triangle()),
        ("open wedge", Pattern::path3()),
        ("lone edge", Pattern::edge_plus_isolated()),
    ];
    println!("{tag}:");
    let ests = sketch.estimate_many(&patterns.iter().map(|(_, p)| p.clone()).collect::<Vec<_>>());
    for ((name, p), est) in patterns.iter().zip(ests) {
        let exact = gamma(truth, p);
        println!(
            "  γ_{{{name}}}: sketch {:.3}  exact {:.3}",
            est.unwrap_or(f64::NAN),
            exact
        );
    }
    println!();
}
