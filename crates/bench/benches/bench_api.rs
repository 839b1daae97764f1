//! The unified-API hot path: batched [`LinearSketch::absorb`] ingestion
//! through [`AnySketch`] runtime dispatch, single-site vs distributed
//! (engine shards on capped worker threads, merged at a coordinator), and
//! the resident [`SketchEngine`]'s multi-shard ingest throughput vs a
//! single-thread absorb of the same stream.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graph_sketches::api::{SketchSpec, SketchTask};
use graph_sketches::ForestSketch;
use gs_graph::gen;
use gs_sketch::{LinearSketch, Mergeable};
use gs_stream::distributed::sketch_distributed;
use gs_stream::engine::{EngineConfig, SketchEngine};

fn bench_absorb_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("api_absorb");
    group.sample_size(10);
    let n = 64;
    let g = gen::gnp(n, 0.2, 1);
    let updates = gen::churn_stream(&g, g.m(), 2);
    for task in [SketchTask::Connectivity, SketchTask::MinCut] {
        let spec = SketchSpec::new(task, n).with_seed(3);
        group.bench_with_input(
            BenchmarkId::new(task.command(), updates.len()),
            &(),
            |b, _| {
                b.iter(|| {
                    let mut s = spec.build();
                    s.absorb(&updates);
                    s
                })
            },
        );
    }
    group.finish();
}

fn bench_distributed_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("api_distributed_ingest");
    group.sample_size(10);
    let n = 64;
    let g = gen::gnp(n, 0.2, 5);
    let updates = gen::churn_stream(&g, g.m(), 6);
    let spec = SketchSpec::new(SketchTask::Connectivity, n).with_seed(7);
    for sites in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("sites", sites), &sites, |b, &sites| {
            b.iter(|| sketch_distributed(&updates, sites, 9, || spec.build()))
        });
    }
    group.finish();
}

/// Engine throughput: the same update stream, chunk-ingested through a
/// sharded engine at increasing shard counts, against the single-thread
/// `absorb` baseline (`shards = 0` row). On a machine with ≥ 4 cores the
/// multi-shard rows should absorb ≥ 2× faster than the baseline — the
/// per-update sketch work dominates routing by ~20× and shard sketches
/// are private, so workers never contend on a cell. (On a 1-core box
/// `EngineConfig` caps workers at 1 and the rows simply measure the
/// engine's routing/queueing overhead over the baseline.)
fn bench_engine_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("api_engine_ingest");
    group.sample_size(10);
    let n = 128;
    let g = gen::gnp(n, 0.2, 11);
    let updates = gen::churn_stream(&g, 4 * g.m(), 12);
    let spec = SketchSpec::new(SketchTask::Connectivity, n).with_seed(13);
    group.bench_with_input(BenchmarkId::new("absorb_1thread", 0), &(), |b, _| {
        b.iter(|| {
            let mut s = spec.build();
            s.absorb(&updates);
            s
        })
    });
    for shards in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("engine_shards", shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let mut engine =
                        SketchEngine::new(EngineConfig::new(shards).with_seed(15), || spec.build());
                    for chunk in updates.chunks(2048) {
                        engine.ingest(chunk);
                    }
                    engine.seal()
                })
            },
        );
    }
    group.finish();
}

/// The cell-bank kernels: batched absorb (hash-once fan-out) and merge
/// (contiguous lane adds). `bench_bank` measures the same pair and
/// writes the `BENCH_bank.json` artifact for CI.
fn bench_bank_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("bank_kernels");
    group.sample_size(10);
    let n = 96;
    let g = gen::gnp(n, 0.2, 21);
    let updates = gen::churn_stream(&g, 2 * g.m(), 22);
    group.bench_with_input(
        BenchmarkId::new("absorb_bank", updates.len()),
        &(),
        |b, _| {
            b.iter(|| {
                let mut s = ForestSketch::new(n, 23);
                s.absorb(&updates);
                s
            })
        },
    );
    let mut bank_a = ForestSketch::new(n, 23);
    bank_a.absorb(&updates);
    let bank_b = bank_a.clone();
    group.bench_with_input(BenchmarkId::new("merge_bank", n), &(), |b, _| {
        b.iter(|| {
            let mut acc = bank_a.clone();
            acc.merge(&bank_b);
            acc
        })
    });
    group.finish();
}

/// The incremental-sync hot pair: shipping a full v2 sketch file vs the
/// delta record of a lightly-touched sketch (the coordinator-sync case the
/// delta path exists for — a round's updates touch a small fraction of the
/// cells, so the record is a fraction of the dump), and the engine's
/// read-path merge: sequential fold vs the parallel merge tree.
fn bench_delta_and_merge_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("api_delta_sync");
    group.sample_size(10);
    let n = 128;
    let spec = SketchSpec::new(SketchTask::Connectivity, n).with_seed(31);
    let g = gen::gnp(n, 0.02, 32);
    let round = gen::churn_stream(&g, 20, 33);
    let mut fed = spec.build();
    fed.absorb(&round);
    let file = graph_sketches::wire::SketchFile::new(spec, fed).expect("state matches spec");
    group.bench_with_input(BenchmarkId::new("full_v2_bytes", n), &(), |b, _| {
        b.iter(|| file.to_bytes())
    });
    // One whole sync round in steady state: emit (which drains) then
    // apply the record back into the same sketch, which restores both the
    // values and the dirty bits — so every iteration emits the identical
    // delta and the loop measures only delta_bytes + apply_delta, with no
    // per-iteration clone or spec.build() noise.
    let mut sync_file = file.clone();
    group.bench_with_input(BenchmarkId::new("delta_emit_apply", n), &(), |b, _| {
        b.iter(|| {
            let bytes = sync_file.delta_bytes();
            sync_file.apply_delta(&bytes).expect("compatible delta");
            bytes.len()
        })
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
        group.bench_with_input(
            BenchmarkId::new("merge_tree_budget", budget),
            &budget,
            |b, &budget| b.iter(|| gs_stream::engine::merge_tree(shards.clone(), budget).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_absorb_dispatch,
    bench_distributed_ingest,
    bench_engine_ingest,
    bench_bank_kernels,
    bench_delta_and_merge_tree
);
criterion_main!(benches);
