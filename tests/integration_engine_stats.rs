//! [`SketchEngine::stats`] under load: the driver thread interleaves
//! `ingest`, `stats`, and `delta_snapshot` while the engine's worker
//! threads concurrently drain their queues — every cumulative counter
//! must read monotone through the races, `deltas_drained` must count
//! exactly the drains performed, and the drained records plus the final
//! seal must still sum to the central sketch bit for bit.

use graph_sketches::api::{AnySketch, SketchSpec, SketchTask};
use gs_graph::gen;
use gs_sketch::{EdgeUpdate, LinearSketch};
use gs_stream::engine::{EngineConfig, EngineStats, SketchEngine};

fn churn_updates(n: usize, seed: u64) -> Vec<EdgeUpdate> {
    let g = gen::gnp(n, 0.35, seed);
    gen::churn_stream(&g, 400, seed ^ 0xA7)
}

/// Asserts every cumulative counter moved forward (or held) between two
/// readings, and that the structural fields never change at all.
fn assert_monotone(prev: &EngineStats, next: &EngineStats) {
    assert!(
        next.updates_routed >= prev.updates_routed,
        "updates_routed regressed"
    );
    assert!(
        next.batches_enqueued >= prev.batches_enqueued,
        "batches_enqueued regressed"
    );
    assert!(
        next.deltas_drained >= prev.deltas_drained,
        "deltas_drained regressed"
    );
    assert!(
        next.offers_refused >= prev.offers_refused,
        "offers_refused regressed"
    );
    assert_eq!(
        next.shards, prev.shards,
        "shard count is fixed at construction"
    );
    assert_eq!(
        next.workers, prev.workers,
        "worker count is fixed at construction"
    );
    assert_eq!(
        next.queue_capacity, prev.queue_capacity,
        "queue capacity is fixed at construction"
    );
    assert!(
        next.updates_pending <= next.updates_routed,
        "pending cannot exceed everything ever routed"
    );
}

#[test]
fn stats_stay_monotone_and_drains_are_counted_exactly() {
    let spec = SketchSpec::new(SketchTask::Connectivity, 24).with_seed(0x57A75);
    let updates = churn_updates(24, 5);
    let mut engine = SketchEngine::new(EngineConfig::new(4).with_workers(2).with_seed(17), || {
        spec.build()
    });
    let mut drained: Vec<AnySketch> = Vec::new();
    let mut drains_performed: u64 = 0;
    let mut prev = engine.stats();
    assert_eq!(prev.deltas_drained, 0);
    assert_eq!(prev.updates_routed, 0);

    for (round, batch) in updates.chunks(17).enumerate() {
        engine.try_ingest(batch).expect("valid batch");
        // Poll a few times while the workers race the reader: each
        // successive reading must still be monotone.
        for _ in 0..3 {
            let next = engine.stats();
            assert_monotone(&prev, &next);
            prev = next;
        }
        if round % 3 == 2 {
            // delta_snapshot flushes internally; the drain must bump the
            // counter by exactly one regardless of worker timing.
            drained.extend(engine.delta_snapshot());
            drains_performed += 1;
            let next = engine.stats();
            assert_monotone(&prev, &next);
            assert_eq!(
                next.deltas_drained, drains_performed,
                "deltas_drained != drains performed"
            );
            assert_eq!(
                next.updates_pending, 0,
                "a drain flushes: nothing may still be pending"
            );
            prev = next;
        }
    }

    engine.flush();
    let settled = engine.stats();
    assert_monotone(&prev, &settled);
    assert_eq!(settled.updates_pending, 0, "flush drains the queues");
    assert_eq!(
        settled.updates_routed,
        updates.len() as u64,
        "every update was routed exactly once"
    );
    assert_eq!(settled.deltas_drained, drains_performed);

    // Linearity closes the loop: drained increments + the final seal
    // must reconstruct the central sketch bit for bit, proving the
    // drains observed by the counters really carried all the state.
    let mut total = spec.build();
    for shard in drained.iter().chain(std::iter::once(&engine.seal())) {
        total.try_merge(shard).expect("same geometry");
    }
    let mut central = spec.build();
    central.absorb(&updates);
    assert_eq!(total, central, "drains + seal != central sketch");
}

#[test]
fn stats_hold_up_under_many_small_racing_rounds() {
    // A tighter race: 1-update batches against 3 workers with drains
    // every few rounds, maximizing reader/worker interleavings.
    let spec = SketchSpec::new(SketchTask::Connectivity, 12).with_seed(0xBEE);
    let updates = churn_updates(12, 9);
    let mut engine = SketchEngine::new(EngineConfig::new(6).with_workers(3).with_seed(23), || {
        spec.build()
    });
    let mut drained: Vec<AnySketch> = Vec::new();
    let mut drains: u64 = 0;
    let mut prev = engine.stats();
    for (i, up) in updates.iter().enumerate() {
        engine
            .try_ingest(std::slice::from_ref(up))
            .expect("valid update");
        let next = engine.stats();
        assert_monotone(&prev, &next);
        prev = next;
        if i % 7 == 6 {
            drained.extend(engine.delta_snapshot());
            drains += 1;
        }
    }
    let last = engine.stats();
    assert_monotone(&prev, &last);
    assert_eq!(last.deltas_drained, drains);
    let mut total = spec.build();
    for shard in drained.iter().chain(std::iter::once(&engine.seal())) {
        total.try_merge(shard).expect("same geometry");
    }
    let mut central = spec.build();
    central.absorb(&updates);
    assert_eq!(total, central);
}
