//! The split absorb kernel (`LinearSketch::absorb_with`), for all ten
//! tasks: a batch absorbed by 1, 2, 3 or 8 threads writing disjoint
//! parts of one sketch must leave exactly what the sequential `absorb`
//! and the per-update `update_edge` loop leave — lanes, fingerprints,
//! dirty bitmaps and poison marks — on narrow and widened lanes, into an
//! empty sketch and into one already fed.
//!
//! A plan's split count is its thread count; only the fork-join that
//! runs the parts is clamped to the host's parallelism, so the 3- and
//! 8-way splits are exercised on any machine.

use graph_sketches::api::{AnySketch, SketchSpec, SketchTask};
use gs_field::M61;
use gs_graph::gen;
use gs_sketch::par::DecodePlan;
use gs_sketch::{CellBanked, EdgeUpdate, LaneOverflow, LinearSketch};
use gs_stream::GraphStream;

const SPLITS: [usize; 4] = [1, 2, 3, 8];

fn spec_for(task: SketchTask) -> SketchSpec {
    SketchSpec::new(task, 12)
        .with_eps(0.9)
        .with_max_weight(8)
        .with_seed(0xAB50)
}

fn task_updates(task: SketchTask, seed: u64) -> Vec<EdgeUpdate> {
    match task {
        SketchTask::WeightedSparsify | SketchTask::Mst => gen::gnp_weighted(12, 0.4, 8, seed)
            .edges()
            .iter()
            .map(|&(u, v, w)| EdgeUpdate::weighted(u, v, w, 1))
            .collect(),
        _ => GraphStream::with_churn(&gen::gnp(12, 0.3, seed), 200, seed ^ 0xD1).edge_updates(),
    }
}

/// Per bank: dirty words and poison mark; then the standalone
/// fingerprints. Together with lane equality, everything an absorb
/// leaves behind.
type Trace = (Vec<(Vec<u64>, Option<LaneOverflow>)>, Vec<M61>);

fn trace(s: &AnySketch) -> Trace {
    let banks = s
        .banks()
        .iter()
        .map(|b| (b.dirty_words().to_vec(), b.lane_overflow()))
        .collect();
    (banks, s.fingerprints())
}

/// The sketches a batch is absorbed into: empty and already fed, at the
/// spec's lane width or with every bank widened.
fn starts(task: SketchTask, spec: &SketchSpec) -> Vec<(String, AnySketch)> {
    let mut fed = spec.build();
    fed.absorb(&task_updates(task, 2));
    let mut out = Vec::new();
    for (name, sketch) in [("empty", spec.build()), ("fed", fed)] {
        let mut wide = sketch.clone();
        for bank in wide.banks_mut() {
            bank.force_wide();
        }
        out.push((format!("{name}, spec width"), sketch));
        out.push((format!("{name}, forced wide"), wide));
    }
    out
}

/// Absorbs `batch` into `start` every way there is and checks that all
/// of them leave the same sketch; returns it.
fn absorb_every_way(label: &str, start: &AnySketch, batch: &[EdgeUpdate]) -> AnySketch {
    let mut looped = start.clone();
    for up in batch {
        looped.update_edge(up.u, up.v, up.delta);
    }
    let mut sequential = start.clone();
    sequential.absorb(batch);
    assert!(sequential == looped, "{label}: absorb != update loop");
    assert_eq!(
        trace(&sequential),
        trace(&looped),
        "{label}: absorb != loop"
    );
    for threads in SPLITS {
        let mut split = start.clone();
        split.absorb_with(batch, &DecodePlan::with_threads(threads));
        assert!(split == sequential, "{label}: {threads}-way lanes");
        assert_eq!(trace(&split), trace(&sequential), "{label}: {threads}-way");
    }
    sequential
}

#[test]
fn split_absorb_equals_absorb_and_the_update_loop_for_every_task() {
    for task in SketchTask::ALL {
        let spec = spec_for(task);
        let batch = task_updates(task, 7);
        for (start_name, start) in starts(task, &spec) {
            let label = format!("{task:?}, {start_name}");
            let fed = absorb_every_way(&label, &start, &batch);
            assert!(fed != start, "{label}: the batch changed nothing");
            // An empty batch changes nothing at any split.
            let same = absorb_every_way(&format!("{label}, empty batch"), &start, &[]);
            assert!(same == start && trace(&same) == trace(&start), "{label}");
        }
    }
}

#[test]
fn an_overflow_inside_one_parts_rows_poisons_as_the_sequential_path_does() {
    // Tasks that take any delta: the weighted tasks refuse weights past
    // their classes and the subgraph encoding scales deltas, before any
    // counter could overflow.
    let unit_tasks = [
        SketchTask::Connectivity,
        SketchTask::Bipartite,
        SketchTask::MinCut,
        SketchTask::SimpleSparsify,
        SketchTask::Sparsify,
        SketchTask::KConnect,
        SketchTask::KEdgeWitness,
    ];
    for task in unit_tasks {
        let spec = spec_for(task);
        let mut batch = task_updates(task, 11);
        // Two maximal deltas on one edge wrap the counters of that edge's
        // endpoint rows, which lie inside one part of each forest.
        let hot = EdgeUpdate {
            u: 3,
            v: 8,
            delta: i64::MAX,
        };
        batch.insert(batch.len() / 3, hot);
        batch.insert(2 * batch.len() / 3, hot);
        for (start_name, start) in starts(task, &spec) {
            let label = format!("{task:?}, {start_name}, overflow");
            let poisoned = absorb_every_way(&label, &start, &batch);
            assert!(
                LinearSketch::lane_overflow(&poisoned).is_some(),
                "{label}: the overflow did not poison"
            );
        }
    }
}
