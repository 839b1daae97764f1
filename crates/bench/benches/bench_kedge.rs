//! E3 performance companion: spanning-forest sketches and `k-EDGECONNECT`
//! (Theorem 2.3) — stream ingestion and witness decoding.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graph_sketches::{ForestSketch, KEdgeConnectSketch};
use gs_graph::gen;
use gs_sketch::LinearSketch;

fn bench_forest(c: &mut Criterion) {
    let mut group = c.benchmark_group("forest");
    group.sample_size(10);
    for n in [32usize, 64, 128] {
        let g = gen::gnp(n, 0.2, 1);
        let updates = gen::churn_stream(&g, g.m(), 2);
        group.bench_with_input(BenchmarkId::new("ingest", n), &(), |b, _| {
            b.iter(|| {
                let mut s = ForestSketch::new(n, 3);
                s.absorb(&updates);
                s
            })
        });
        let mut s = ForestSketch::new(n, 3);
        s.absorb(&updates);
        group.bench_with_input(BenchmarkId::new("decode", n), &(), |b, _| {
            b.iter(|| s.decode())
        });
    }
    group.finish();
}

fn bench_kedge(c: &mut Criterion) {
    let mut group = c.benchmark_group("kedge");
    group.sample_size(10);
    let n = 48;
    let g = gen::gnp(n, 0.3, 5);
    let updates = gen::insert_stream(&g);
    for k in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("ingest", k), &k, |b, &k| {
            b.iter(|| {
                let mut s = KEdgeConnectSketch::new(n, k, 7);
                s.absorb(&updates);
                s
            })
        });
        let mut s = KEdgeConnectSketch::new(n, k, 7);
        s.absorb(&updates);
        group.bench_with_input(BenchmarkId::new("decode_witness", k), &(), |b, _| {
            b.iter(|| s.decode())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_forest, bench_kedge);
criterion_main!(benches);
