//! The unified-API hot path: batched [`LinearSketch::absorb`] ingestion
//! through [`AnySketch`](graph_sketches::api::AnySketch) runtime dispatch,
//! single-site vs distributed (engine shards on capped worker threads,
//! merged at a coordinator), the resident [`SketchEngine`]'s multi-shard
//! ingest throughput vs a single-thread absorb of the same stream, and
//! the incremental-sync pair.

use crate::Rows;
use graph_sketches::api::{SketchSpec, SketchTask};
use graph_sketches::ForestSketch;
use gs_graph::gen;
use gs_sketch::LinearSketch;
use gs_stream::distributed::sketch_distributed;
use gs_stream::engine::{EngineConfig, SketchEngine};

pub(crate) fn run(rows: &mut Rows) {
    absorb_dispatch(rows);
    distributed_ingest(rows);
    engine_ingest(rows);
    delta_and_merge_tree(rows);
}

fn absorb_dispatch(rows: &mut Rows) {
    let n = 64;
    let g = gen::gnp(n, 0.2, 1);
    let updates = gen::churn_stream(&g, g.m(), 2);
    for task in [SketchTask::Connectivity, SketchTask::MinCut] {
        let spec = SketchSpec::new(task, n).with_seed(3);
        rows.time(
            format!("api_absorb/{}/{}", task.command(), updates.len()),
            || {
                let mut s = spec.build();
                s.absorb(&updates);
                s
            },
        );
    }
}

fn distributed_ingest(rows: &mut Rows) {
    let n = 64;
    let g = gen::gnp(n, 0.2, 5);
    let updates = gen::churn_stream(&g, g.m(), 6);
    let spec = SketchSpec::new(SketchTask::Connectivity, n).with_seed(7);
    for sites in [1usize, 2, 4, 8] {
        rows.time(format!("api_distributed_ingest/sites/{sites}"), || {
            sketch_distributed(&updates, sites, 9, || spec.build())
        });
    }
}

/// Engine throughput: the same update stream, chunk-ingested through a
/// sharded engine at increasing shard counts, against the single-thread
/// `absorb` baseline (`shards = 0` row). On a machine with ≥ 4 cores the
/// multi-shard rows should absorb ≥ 2× faster than the baseline — the
/// per-update sketch work dominates routing by ~20× and shard sketches
/// are private, so workers never contend on a cell. (On a 1-core box
/// `EngineConfig` caps workers at 1 and the rows simply measure the
/// engine's routing/queueing overhead over the baseline.)
fn engine_ingest(rows: &mut Rows) {
    let n = 128;
    let g = gen::gnp(n, 0.2, 11);
    let updates = gen::churn_stream(&g, 4 * g.m(), 12);
    let spec = SketchSpec::new(SketchTask::Connectivity, n).with_seed(13);
    rows.time("api_engine_ingest/absorb_1thread/0".into(), || {
        let mut s = spec.build();
        s.absorb(&updates);
        s
    });
    for shards in [2usize, 4, 8] {
        rows.time(format!("api_engine_ingest/engine_shards/{shards}"), || {
            let mut engine =
                SketchEngine::new(EngineConfig::new(shards).with_seed(15), || spec.build());
            for chunk in updates.chunks(2048) {
                engine.ingest(chunk);
            }
            engine.seal()
        });
    }
}

/// The incremental-sync hot pair: shipping a full v2 sketch file vs the
/// delta record of a lightly-touched sketch (the coordinator-sync case the
/// delta path exists for — a round's updates touch a small fraction of the
/// cells, so the record is a fraction of the dump), and the engine's
/// read-path merge: sequential fold vs the parallel merge tree.
fn delta_and_merge_tree(rows: &mut Rows) {
    let n = 128;
    let spec = SketchSpec::new(SketchTask::Connectivity, n).with_seed(31);
    let g = gen::gnp(n, 0.02, 32);
    let round = gen::churn_stream(&g, 20, 33);
    let mut fed = spec.build();
    fed.absorb(&round);
    let file = graph_sketches::wire::SketchFile::new(spec, fed).expect("state matches spec");
    rows.time(format!("api_delta_sync/full_v2_bytes/{n}"), || {
        file.to_bytes()
    });
    // One whole sync round in steady state: emit (which drains) then
    // apply the record back into the same sketch, which restores both the
    // values and the dirty bits — so every iteration emits the identical
    // delta and the loop measures only delta_bytes + apply_delta, with no
    // per-iteration clone or spec.build() noise.
    let mut sync_file = file.clone();
    rows.time(format!("api_delta_sync/delta_emit_apply/{n}"), || {
        let bytes = sync_file.delta_bytes();
        sync_file.apply_delta(&bytes).expect("compatible delta");
        bytes.len()
    });
    let big = gen::gnp(n, 0.2, 34);
    let updates = gen::churn_stream(&big, big.m(), 35);
    let shards: Vec<ForestSketch> = (0..16)
        .map(|i| {
            let mut s = ForestSketch::new(n, 37);
            s.absorb(&updates[i * updates.len() / 16..(i + 1) * updates.len() / 16]);
            s
        })
        .collect();
    for budget in [1usize, 8] {
        rows.time(format!("api_delta_sync/merge_tree_budget/{budget}"), || {
            gs_stream::engine::merge_tree(shards.clone(), budget).unwrap()
        });
    }
}
