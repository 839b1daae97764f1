//! The DecodeEngine determinism contract, pinned end to end: for every
//! task, decoding under any [`DecodePlan`] is **bit-identical** to the
//! sequential decode — same samples, same edges, same answer — because
//! every parallel loop fans out work whose items are independent (groups
//! fixed at round start, subsampling levels, Gomory–Hu cuts, samplers)
//! and reassembles results in the sequential order before anything
//! consumes them.
//!
//! The suite covers fed sketches, the empty graph, and a single-edge
//! graph, each at thread counts {1, 2, 8}, plus the engine's planned
//! read path and the pre-kernel reference decoder.

use graph_sketches::api::{SketchAnswer, SketchSpec, SketchTask};
use graph_sketches::ForestSketch;
use gs_graph::gen;
use gs_sketch::par::DecodePlan;
use gs_sketch::{EdgeUpdate, LinearSketch};
use gs_stream::engine::{EngineConfig, SketchEngine};

const THREADS: [usize; 3] = [1, 2, 8];

/// A churny update batch in each task's update convention.
fn updates_for(task: SketchTask, n: usize) -> Vec<EdgeUpdate> {
    match task {
        SketchTask::Mst | SketchTask::WeightedSparsify => (0..60)
            .flat_map(|i| {
                let (u, v, w) = (i % n, (i + 1 + i % (n - 1)) % n, 1 + (i * 7) % 60);
                let ins = EdgeUpdate::weighted(u, v, w as u64, 1);
                (u != v).then_some(ins).into_iter().chain(
                    (u != v && i % 3 == 0).then_some(EdgeUpdate::weighted(u, v, w as u64, -1)),
                )
            })
            .collect(),
        _ => {
            let g = gen::gnp(n, 0.35, 7 + task as u64);
            gen::churn_stream(&g, 220, 11 + task as u64)
        }
    }
}

/// Asserts the planned decode equals the sequential one at every width.
fn assert_parity(label: &str, sketch: &graph_sketches::api::AnySketch) -> SketchAnswer {
    let sequential = sketch.decode();
    for threads in THREADS {
        let planned = sketch.decode_with(&DecodePlan::with_threads(threads));
        assert_eq!(planned, sequential, "{label} drifted at {threads} threads");
    }
    sequential
}

#[test]
fn every_task_decodes_bit_identically_at_every_thread_count() {
    for task in SketchTask::ALL {
        let spec = SketchSpec::new(task, 14).with_eps(0.75).with_max_weight(64);
        let mut sketch = spec.build();
        sketch.absorb(&updates_for(task, 14));
        assert_parity(&format!("{task:?} (fed)"), &sketch);
    }
}

#[test]
fn empty_graph_decode_parity() {
    for task in SketchTask::ALL {
        let spec = SketchSpec::new(task, 9).with_eps(0.75);
        let sketch = spec.build();
        let answer = assert_parity(&format!("{task:?} (empty)"), &sketch);
        // The empty decode is also sane, not merely consistent.
        if let SketchAnswer::Connectivity { components, .. } = answer {
            assert_eq!(components, 9);
        }
    }
}

#[test]
fn single_edge_decode_parity() {
    for task in SketchTask::ALL {
        let spec = SketchSpec::new(task, 8).with_eps(0.75).with_max_weight(64);
        let mut sketch = spec.build();
        sketch.absorb(&[EdgeUpdate::insert(2, 5)]);
        let answer = assert_parity(&format!("{task:?} (single edge)"), &sketch);
        if let SketchAnswer::Connectivity { forest_edges, .. } = answer {
            assert_eq!(forest_edges, vec![(2, 5)]);
        }
    }
}

#[test]
fn engine_answer_matches_sealed_decode_at_every_width() {
    // The serving read path: a flushed engine's planned answer equals the
    // sealed central decode, thread count irrelevant.
    let spec = SketchSpec::new(SketchTask::Connectivity, 16).with_seed(0xA11);
    let updates = updates_for(SketchTask::Connectivity, 16);
    let mut engine = SketchEngine::new(EngineConfig::new(4).with_seed(3), || spec.build());
    engine.ingest(&updates);
    engine.flush();
    let answers: Vec<SketchAnswer> = THREADS
        .iter()
        .map(|&t| engine.answer(&DecodePlan::with_threads(t)))
        .collect();
    let sealed = engine.seal().decode();
    for (t, a) in THREADS.iter().zip(answers) {
        assert_eq!(a, sealed, "engine answer drifted at {t} threads");
    }
}

#[test]
fn kernel_decode_equals_the_pre_kernel_reference() {
    // The lazy bank-level group query against the preserved pre-PR path,
    // on a graph big enough to exercise several Boruvka rounds.
    let g = gen::connected_gnp(120, 0.06, 5);
    let mut s = ForestSketch::new(120, 9);
    for &(u, v, w) in g.edges() {
        s.update_edge(u, v, w as i64);
    }
    let reference = s.decode_reference();
    assert_eq!(s.decode().edges, reference.edges);
    for threads in THREADS {
        assert_eq!(
            s.decode_with(&DecodePlan::with_threads(threads)).edges,
            reference.edges,
            "threads = {threads}"
        );
    }
}
