//! The in-place k-EDGECONNECT peel, pinned to the clone-then-subtract
//! decode it replaced: `decode_witness_edges_with` removes the earlier
//! layers' forests from each Boruvka group sum instead of from a copy of
//! the next layer's sketch, and must return the same witness edges, in
//! the same order, as `decode_witness_edges_reference` — for every `k`,
//! both removal modes, every input shape, and every thread count.

use graph_sketches::connectivity::ForestParams;
use graph_sketches::kedge::{KEdgeConnectSketch, SubtractMode};
use gs_graph::gen;
use gs_sketch::par::DecodePlan;
use gs_sketch::{EdgeUpdate, LinearSketch};
use gs_workloads::GeneratorSpec;

const THREADS: [usize; 3] = [1, 2, 8];

/// The inputs: `(label, n, updates)`.
fn inputs() -> Vec<(&'static str, usize, Vec<EdgeUpdate>)> {
    let adversary = GeneratorSpec::MinCutAdversary {
        half: 12,
        bridge: 2,
        churn: 80,
        seed: 5,
    }
    .generate();
    let unit = gen::gnp(30, 0.25, 11);
    let weighted = gen::gnp_weighted(30, 0.25, 4, 13);
    let mut parallel = vec![EdgeUpdate::insert(0, 1); 3];
    parallel.extend([
        EdgeUpdate::insert(1, 2),
        EdgeUpdate::insert(1, 2),
        EdgeUpdate::insert(2, 3),
        EdgeUpdate::insert(3, 0),
        EdgeUpdate::delete(0, 1),
    ]);
    vec![
        ("mincut-adversary", adversary.n, adversary.updates),
        ("churned unit G(n,p)", 30, gen::churn_stream(&unit, 120, 17)),
        (
            "churned weighted G(n,p)",
            30,
            gen::churn_stream(&weighted, 120, 19),
        ),
        ("parallel edges", 4, parallel),
        ("empty graph", 6, Vec::new()),
        ("one edge", 5, vec![EdgeUpdate::insert(1, 3)]),
    ]
}

fn sketch(n: usize, k: usize, mode: SubtractMode, updates: &[EdgeUpdate]) -> KEdgeConnectSketch {
    let mut s =
        KEdgeConnectSketch::with_mode(n, k, ForestParams::for_n(n), mode, 0x9EE1 + k as u64);
    s.absorb(updates);
    s
}

#[test]
fn peeled_witness_equals_clone_then_subtract() {
    let mut peeled_layers = 0;
    for (label, n, updates) in inputs() {
        for k in 1..=4 {
            for mode in [SubtractMode::Unit, SubtractMode::Full] {
                let s = sketch(n, k, mode, &updates);
                let reference = s.decode_witness_edges_reference(&DecodePlan::sequential());
                for threads in THREADS {
                    let plan = DecodePlan::with_threads(threads);
                    assert_eq!(
                        s.decode_witness_edges_with(&plan),
                        reference,
                        "{label}, k = {k}, {mode:?}, {threads} threads"
                    );
                }
                if k > 1 && reference.len() >= n {
                    peeled_layers += 1;
                }
            }
        }
    }
    // Most cases must reach a second layer, or nothing was peeled.
    assert!(peeled_layers >= 12, "only {peeled_layers} cases peeled");
}
