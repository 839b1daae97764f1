//! The engine's in-place drain (`SketchEngine::drain_into`), for all ten
//! tasks: folding the shards into a base and resetting them must leave
//! the base equal to the central sketch, every drained shard equal to a
//! freshly built one (lanes, stamps, no poison), poison carried into the
//! base, and a refused fold must lose or double-count no update.

use graph_sketches::api::{AnySketch, SketchSpec, SketchTask};
use gs_field::M61;
use gs_graph::gen;
use gs_sketch::cache::stamps_of;
use gs_sketch::{CellBanked, EdgeUpdate, LinearSketch};
use gs_stream::distributed::sketch_central;
use gs_stream::engine::{EngineConfig, Router, SketchEngine};
use gs_stream::GraphStream;

fn spec_for(task: SketchTask) -> SketchSpec {
    SketchSpec::new(task, 12)
        .with_eps(0.9)
        .with_max_weight(8)
        .with_seed(0xD2A1)
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

/// Every shard the engine holds, taken out through `delta_snapshot`,
/// must be a freshly built sketch: equal lanes, equal stamps, no poison.
fn assert_all_shards_fresh(
    task: SketchTask,
    spec: &SketchSpec,
    engine: &mut SketchEngine<AnySketch>,
) {
    let fresh = spec.build();
    for (i, shard) in engine.delta_snapshot().iter().enumerate() {
        assert_eq!(*shard, fresh, "{task:?}: shard {i} lanes");
        assert_eq!(
            stamps_of(shard),
            stamps_of(&fresh),
            "{task:?}: shard {i} stamps"
        );
        assert!(
            LinearSketch::lane_overflow(shard).is_none(),
            "{task:?}: shard {i} still poisoned"
        );
        assert_eq!(shard.dirty_cells(), 0, "{task:?}: shard {i} bitmap");
    }
}

#[test]
fn drain_into_leaves_the_central_sketch_in_the_base_and_fresh_shards() {
    for task in SketchTask::ALL {
        let spec = spec_for(task);
        let updates = task_updates(task, 41);
        let third = updates.len() / 3;
        let cfg = EngineConfig::new(4).with_workers(2).with_seed(9);
        let mut engine = SketchEngine::new(cfg, || spec.build());
        // The base already holds a share (as a served tenant's base holds
        // applied delta records); the engine ingests the rest in two
        // rounds, drained after each.
        let mut base = spec.build();
        base.absorb(&updates[..third]);
        let mut before = stamps_of(&base);
        for round in [&updates[third..2 * third], &updates[2 * third..]] {
            engine.ingest(round);
            engine
                .drain_into(|shard| base.try_merge(shard))
                .expect("same-spec shards merge");
            // The base's stamps only move forward: it absorbs the
            // generation count every drained shard gives up.
            let after = stamps_of(&base);
            for (b, a) in before.iter().zip(&after) {
                assert!(
                    a.generation >= b.generation && a.drains == b.drains,
                    "{task:?}: base stamp moved backwards"
                );
            }
            assert_ne!(after, before, "{task:?}: a drain of ingest left the stamps");
            before = after;
        }
        let central = sketch_central(&updates, || spec.build());
        assert_eq!(base, central, "{task:?}: drained base != central");
        assert_eq!(engine.stats().deltas_drained, 2);
        // Nothing is left in the engine: reads see the zero sketch.
        assert_eq!(engine.snapshot(), spec.build(), "{task:?}: residue");
        assert_all_shards_fresh(task, &spec, &mut engine);
    }
}

#[test]
fn a_poisoned_shard_poisons_the_base_and_comes_back_clean() {
    // Weighted tasks refuse out-of-class weights before any counter can
    // overflow, so a poisoned shard is built directly: every update is
    // routed to shard 0, and the factory's first sketch (shard 0) carries
    // a true lane overflow.
    for task in SketchTask::ALL {
        let spec = spec_for(task);
        let mut built = 0;
        let make = || {
            let mut s = spec.build();
            if built == 0 {
                let bank = &mut s.banks_mut()[0];
                bank.apply(0, i64::MAX, 0, M61::ZERO);
                bank.apply(0, 1, 0, M61::ZERO);
            }
            built += 1;
            s
        };
        let router: Router = Box::new(|_| 0);
        let mut engine = SketchEngine::with_router(EngineConfig::new(3), router, make);
        engine.ingest(&task_updates(task, 43));
        engine.flush();
        assert_eq!(engine.stats().lane_overflows, 1, "{task:?}");
        let mut base = spec.build();
        engine
            .drain_into(|shard| base.try_merge(shard))
            .expect("same-spec shards merge");
        assert!(
            LinearSketch::lane_overflow(&base).is_some(),
            "{task:?}: the base must inherit the shard's poison"
        );
        assert_eq!(engine.stats().lane_overflows, 0, "{task:?}");
        assert_all_shards_fresh(task, &spec, &mut engine);
    }
}

#[test]
fn overflow_from_ingest_is_drained_into_the_base() {
    let spec = spec_for(SketchTask::Connectivity);
    let mut engine = SketchEngine::new(EngineConfig::new(2), || spec.build());
    // Two max-magnitude deltas on one edge wrap its `w` counters.
    engine.ingest(
        &[EdgeUpdate {
            u: 0,
            v: 1,
            delta: i64::MAX,
        }; 2],
    );
    engine.flush();
    assert_eq!(engine.stats().lane_overflows, 1);
    let mut base = spec.build();
    engine
        .drain_into(|shard| base.try_merge(shard))
        .expect("same-spec shards merge");
    assert!(LinearSketch::lane_overflow(&base).is_some());
    assert_all_shards_fresh(SketchTask::Connectivity, &spec, &mut engine);
}

#[test]
fn a_refused_fold_loses_and_repeats_no_update() {
    for task in SketchTask::ALL {
        let spec = spec_for(task);
        let updates = task_updates(task, 47);
        // Round-robin routing keeps all four shards active.
        let mut next = 0;
        let router: Router = Box::new(move |_| {
            next = (next + 1) % 4;
            next
        });
        let mut engine =
            SketchEngine::with_router(EngineConfig::new(4).with_workers(2), router, || {
                spec.build()
            });
        engine.ingest(&updates);
        let mut base = spec.build();
        let mut calls = 0;
        let refused = engine.drain_into(|shard| {
            calls += 1;
            if calls == 3 {
                return Err("refused");
            }
            base.try_merge(shard).map_err(|_| "mismatch")
        });
        assert_eq!(refused, Err("refused"));
        // Two shards moved into the base; the refused one and the last
        // are untouched, so base + engine is still exactly the stream.
        let mut total = base.clone();
        total.try_merge(&engine.snapshot()).unwrap();
        let central = sketch_central(&updates, || spec.build());
        assert_eq!(total, central, "{task:?}: lost or doubled updates");
        // A retry drains exactly the two remaining shards.
        let mut retried = 0;
        engine
            .drain_into(|shard| {
                retried += 1;
                base.try_merge(shard)
            })
            .expect("same-spec shards merge");
        assert_eq!(retried, 2, "{task:?}: the retry revisited a drained shard");
        assert_eq!(base, central, "{task:?}: drained base != central");
        assert_all_shards_fresh(task, &spec, &mut engine);
    }
}
