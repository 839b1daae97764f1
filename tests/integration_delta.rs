//! The incremental delta path, end to end: dirty-tracked sketches →
//! drained delta records → coordinator reconstruction must be **bit
//! identical** to single-process sketching for every task, and the
//! engine's parallel merge tree must be bit-identical to the sequential
//! fold it replaced.

use graph_sketches::api::{SketchSpec, SketchTask};
use graph_sketches::wire::{SketchDelta, SketchFile};
use gs_graph::gen;
use gs_sketch::bank::CellBanked;
use gs_sketch::{EdgeUpdate, LinearSketch, Mergeable};
use gs_stream::distributed::{sketch_central, split_updates};
use gs_stream::engine::{merge_tree, EngineConfig, SketchEngine};

fn churn_updates(n: usize, p: f64, seed: u64) -> Vec<EdgeUpdate> {
    let g = gen::gnp(n, p, seed);
    gen::churn_stream(&g, 200, seed ^ 0xD1)
}

fn weighted_updates(n: usize, seed: u64) -> Vec<EdgeUpdate> {
    let g = gen::gnp_weighted(n, 0.4, 8, seed);
    g.edges()
        .iter()
        .map(|&(u, v, w)| EdgeUpdate::weighted(u, v, w, 1))
        .collect()
}

fn task_updates(task: SketchTask, n: usize, seed: u64) -> Vec<EdgeUpdate> {
    match task {
        SketchTask::WeightedSparsify | SketchTask::Mst => weighted_updates(n, seed),
        _ => churn_updates(n, 0.3, seed),
    }
}

fn spec_for(task: SketchTask) -> SketchSpec {
    SketchSpec::new(task, 12)
        .with_eps(0.9)
        .with_max_weight(8)
        .with_seed(0x5EED)
}

#[test]
fn delta_rounds_reconstruct_central_for_every_task() {
    // 3 workers × 3 rounds of delta shipping: the coordinator's sum of
    // the 9 records must equal the central sketch of the whole stream,
    // bit for bit, for all 10 tasks.
    for task in SketchTask::ALL {
        let spec = spec_for(task);
        let updates = task_updates(task, 12, 11);
        let shares = split_updates(&updates, 3, 0xCAFE);
        let mut workers: Vec<SketchFile> = (0..3)
            .map(|_| SketchFile::new(spec, spec.build()).unwrap())
            .collect();
        let mut coordinator = SketchFile::new(spec, spec.build()).unwrap();
        for round in 0..3 {
            for (worker, share) in workers.iter_mut().zip(&shares) {
                let per_round = share.len().div_ceil(3);
                let lo = (round * per_round).min(share.len());
                let hi = ((round + 1) * per_round).min(share.len());
                worker.state.absorb(&share[lo..hi]);
                let bytes = worker.delta_bytes();
                // Only the touched cells ship, and draining resets the
                // worker's pending set.
                let record = SketchDelta::from_bytes(&bytes).expect("valid delta");
                assert_eq!(record.spec(), spec);
                assert_eq!(
                    worker.state.dirty_cells(),
                    0,
                    "{task:?}: drain left residue"
                );
                coordinator.apply_delta(&bytes).expect("compatible delta");
            }
        }
        // Every worker fully drained: they hold the zero measurement now.
        for worker in &workers {
            assert_eq!(worker.state, spec.build(), "{task:?}: worker not drained");
        }
        let central = sketch_central(&updates, || spec.build());
        assert_eq!(
            coordinator.state, central,
            "{task:?}: delta reconstruction drifted from central"
        );
        assert_eq!(
            coordinator.decode(),
            central.decode(),
            "{task:?}: answers differ"
        );
    }
}

#[test]
fn merge_tree_is_bit_identical_to_sequential_fold_for_every_task() {
    // The law the engine's parallel snapshot()/seal() stand on: a tree
    // reduction of per-site sketches equals the in-order sequential fold,
    // structurally, whatever the thread budget.
    for task in SketchTask::ALL {
        let spec = spec_for(task);
        let updates = task_updates(task, 12, 23);
        let parts = split_updates(&updates, 7, 0xBEEF);
        let fed: Vec<_> = parts
            .iter()
            .map(|part| sketch_central(part, || spec.build()))
            .collect();
        let mut sequential = fed[0].clone();
        for site in &fed[1..] {
            sequential.merge(site);
        }
        for budget in [1, 2, 4, 16] {
            assert_eq!(
                merge_tree(fed.clone(), budget).expect("non-empty"),
                sequential,
                "{task:?}: tree reduction at budget {budget} drifted from the fold"
            );
        }
    }
}

#[test]
fn engine_delta_snapshots_compose_across_processes() {
    // The resident engine as a periodically-draining worker: every drained
    // shard becomes a wire delta record, the coordinator sums them, and
    // after the final drain the coordinator holds the central sketch while
    // the engine seals to zero. An initial zero-update drain must ship one
    // valid empty delta per shard (the regression the seal()/drain
    // consistency fix pins).
    for task in [
        SketchTask::Connectivity,
        SketchTask::MinCut,
        SketchTask::Mst,
    ] {
        let spec = spec_for(task);
        let updates = task_updates(task, 12, 37);
        let cfg = EngineConfig::new(4).with_workers(2).with_seed(5);
        let mut engine = SketchEngine::new(cfg, || spec.build());
        let mut coordinator = SketchFile::new(spec, spec.build()).unwrap();
        fn apply_round(
            coordinator: &mut SketchFile,
            spec: SketchSpec,
            drained: Vec<graph_sketches::api::AnySketch>,
        ) {
            assert_eq!(drained.len(), 4, "a drain ships every shard");
            for shard in drained {
                let mut file = SketchFile::new(spec, shard).unwrap();
                let bytes = file.delta_bytes();
                SketchDelta::from_bytes(&bytes).expect("valid delta record");
                coordinator.apply_delta(&bytes).expect("compatible delta");
            }
        }
        // Zero-update round first: valid, empty, and a no-op.
        let before = coordinator.state.clone();
        apply_round(&mut coordinator, spec, engine.delta_snapshot());
        assert_eq!(
            coordinator.state, before,
            "{task:?}: empty round changed state"
        );
        for chunk in updates.chunks(97) {
            engine.ingest(chunk);
            apply_round(&mut coordinator, spec, engine.delta_snapshot());
        }
        let central = sketch_central(&updates, || spec.build());
        assert_eq!(
            coordinator.state, central,
            "{task:?}: engine delta rounds drifted from central"
        );
        // Everything was drained: the engine itself seals to zero.
        assert_eq!(
            engine.seal(),
            spec.build(),
            "{task:?}: residue after final drain"
        );
    }
}

#[test]
fn contended_engine_drains_still_satisfy_linearity() {
    // Stress the delta path under thread contention: tiny bounded queues,
    // more shards than workers, drains racing the applying workers. The
    // drained rounds plus the sealed residue must still sum to central —
    // the linearity law cannot be a casualty of scheduling.
    let spec = spec_for(SketchTask::Connectivity);
    let updates = churn_updates(12, 0.45, 71);
    let cfg = EngineConfig::new(8)
        .with_workers(3)
        .with_queue_batches(1)
        .with_seed(13);
    let mut engine = SketchEngine::new(cfg, || spec.build());
    let mut sum = spec.build();
    for (i, chunk) in updates.chunks(23).enumerate() {
        engine.ingest(chunk);
        if i % 2 == 1 {
            for shard in engine.delta_snapshot() {
                sum.merge(&shard);
            }
        }
    }
    sum.merge(&engine.seal());
    assert_eq!(sum, sketch_central(&updates, || spec.build()));
}
