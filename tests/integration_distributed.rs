//! Distributed-stream integration (§1.1): merged site sketches must equal
//! the single-observer sketch for every structure in the crate, including
//! under cross-site insert/delete splits and with threads.
//!
//! The per-type test copies this file used to carry are gone: the generic
//! [`linearity_holds`] harness asserts the law **bit for bit** (structural
//! sketch equality, not merely equal decodes) once, and is instantiated
//! for every [`AnySketch`] variant through [`SketchSpec`].

use graph_sketches::api::{SketchAnswer, SketchSpec, SketchTask};
use graph_sketches::ForestSketch;
use gs_graph::gen;
use gs_sketch::{EdgeUpdate, LinearSketch, Mergeable};
use gs_stream::distributed::{linearity_holds, sketch_central, sketch_distributed};
use gs_stream::engine::{default_workers, EngineConfig, SketchEngine};

fn churn_updates(n: usize, p: f64, seed: u64) -> Vec<EdgeUpdate> {
    let g = gen::gnp(n, p, seed);
    gen::churn_stream(&g, 400, seed ^ 0xD1)
}

/// Weighted value-carrying workload for the §3.5 tasks: every edge is one
/// object with one weight; deletions carry the insertion's weight.
fn weighted_updates(n: usize, seed: u64) -> Vec<EdgeUpdate> {
    let g = gen::gnp_weighted(n, 0.4, 8, seed);
    let mut ups: Vec<EdgeUpdate> = g
        .edges()
        .iter()
        .map(|&(u, v, w)| EdgeUpdate::weighted(u, v, w, 1))
        .collect();
    // Insert-then-delete churn on a few decoy edges.
    for (i, &(u, v, w)) in g.edges().iter().enumerate().take(5) {
        let decoy_w = (w % 7) + 1;
        ups.insert(i * 2, EdgeUpdate::weighted(u, v, decoy_w, 1));
        ups.push(EdgeUpdate::weighted(u, v, decoy_w, -1));
    }
    ups
}

#[test]
fn linearity_holds_for_every_any_sketch_variant() {
    for task in SketchTask::ALL {
        let spec = SketchSpec::new(task, 16).with_eps(0.75).with_seed(0xAB);
        let updates = match task {
            // Value-carrying tasks get a weighted workload.
            SketchTask::WeightedSparsify | SketchTask::Mst => weighted_updates(16, 3),
            _ => churn_updates(16, 0.3, 3),
        };
        linearity_holds(&updates, &[1, 2, 3, 8], || spec.build());
    }
}

#[test]
fn static_dispatch_takes_the_same_path() {
    // The harness also works on a concrete sketch type (no AnySketch
    // wrapper): the trait is the interface, dispatch is orthogonal.
    let updates = churn_updates(30, 0.2, 1);
    linearity_holds(&updates, &[2, 3, 8], || ForestSketch::new(30, 0xAA));
}

#[test]
fn decoded_answers_match_across_sites() {
    let updates = churn_updates(18, 0.35, 13);
    for task in [
        SketchTask::MinCut,
        SketchTask::Sparsify,
        SketchTask::Subgraphs,
    ] {
        let spec = SketchSpec::new(task, 18).with_eps(0.6).with_seed(0xDD);
        let central = spec.run(&updates, 1);
        for sites in [3, 5] {
            assert_eq!(
                spec.run(&updates, sites),
                central,
                "{task:?} @ {sites} sites"
            );
        }
    }
}

#[test]
fn merge_order_is_irrelevant() {
    // Linear measurements commute: any merge order gives the same sketch.
    let updates = churn_updates(16, 0.3, 23);
    let parts = gs_stream::distributed::split_updates(&updates, 4, 25);
    let mk = |part: &[EdgeUpdate]| {
        let mut s = ForestSketch::new(16, 0x123);
        s.absorb(part);
        s
    };
    let mut fwd = mk(&parts[0]);
    for p in &parts[1..] {
        fwd.merge(&mk(p));
    }
    let mut rev = mk(&parts[3]);
    for p in parts[..3].iter().rev() {
        rev.merge(&mk(p));
    }
    assert_eq!(fwd, rev);
}

#[test]
fn more_sites_than_updates_returns_exact_sketch() {
    // 3 updates, up to 64 sites: surplus sites are idle, the answer is
    // unchanged, and an empty stream yields the empty-constructed sketch.
    let updates = vec![
        EdgeUpdate::insert(0, 1),
        EdgeUpdate::insert(1, 2),
        EdgeUpdate::delete(0, 1),
    ];
    let spec = SketchSpec::new(SketchTask::Connectivity, 4).with_seed(9);
    let central = sketch_central(&updates, || spec.build());
    for sites in [4, 16, 64] {
        let dist = sketch_distributed(&updates, sites, 11, || spec.build());
        assert_eq!(dist, central, "sites = {sites}");
    }
    let empty = sketch_distributed(&[], 16, 11, || spec.build());
    assert_eq!(empty, spec.build());
}

#[test]
fn thousand_site_topology_runs_on_capped_workers() {
    // 1024 sites used to mean 1024 OS threads; they are now engine shards
    // applied by at most `default_workers()` threads — and the site-order
    // merge keeps the answer bit-identical to one observer's.
    let updates = churn_updates(16, 0.3, 31);
    let spec = SketchSpec::new(SketchTask::Connectivity, 16).with_seed(0xCAFE);
    let central = sketch_central(&updates, || spec.build());
    let dist = sketch_distributed(&updates, 1024, 0xBEEF, || spec.build());
    assert_eq!(dist, central);
    assert!(default_workers() >= 1);
}

#[test]
fn resident_engine_serves_snapshots_mid_stream() {
    // The serving shape: a long-lived engine answers queries while the
    // stream keeps flowing, and sealing still equals the one-shot sketch.
    let g = gen::connected_gnp(20, 0.3, 17);
    let updates = gen::churn_stream(&g, 400, 19);
    let spec = SketchSpec::new(SketchTask::Connectivity, 20).with_seed(0x5EA);
    let mut engine = SketchEngine::new(EngineConfig::new(4).with_seed(2), || spec.build());
    let mid = updates.len() / 2;
    engine.ingest(&updates[..mid]);
    // Quiesce-free read: decodes whatever sub-multiset has been applied.
    let early = engine.snapshot().decode();
    assert!(matches!(early, SketchAnswer::Connectivity { .. }));
    // Flushed read: exactly the central sketch of the prefix.
    engine.flush();
    assert_eq!(
        engine.snapshot(),
        sketch_central(&updates[..mid], || spec.build())
    );
    engine.ingest(&updates[mid..]);
    let sealed = engine.seal();
    let central = sketch_central(&updates, || spec.build());
    assert_eq!(sealed, central);
    match sealed.decode() {
        SketchAnswer::Connectivity {
            components,
            connected,
            ..
        } => {
            assert_eq!(components, 1);
            assert!(connected);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn engine_stats_account_for_the_stream() {
    let updates = churn_updates(16, 0.3, 37);
    let spec = SketchSpec::new(SketchTask::Connectivity, 16).with_seed(0xABC);
    let mut engine = SketchEngine::new(EngineConfig::new(3), || spec.build());
    for chunk in updates.chunks(50) {
        engine.ingest(chunk);
    }
    engine.flush();
    let stats = engine.stats();
    assert_eq!(stats.updates_routed, updates.len() as u64);
    assert_eq!(stats.updates_pending, 0);
    assert_eq!(stats.shards, 3);
    assert!(stats.bytes_resident >= 3 * spec.build().space_bytes());
    drop(engine);
}

#[test]
#[should_panic]
fn incompatible_seeds_refuse_to_merge() {
    let mut a = ForestSketch::new(8, 1);
    let b = ForestSketch::new(8, 2);
    a.merge(&b);
}

#[test]
#[should_panic]
fn cross_task_merge_refuses() {
    let mut a = SketchSpec::new(SketchTask::Connectivity, 8).build();
    let b = SketchSpec::new(SketchTask::MinCut, 8).build();
    a.merge(&b);
}
