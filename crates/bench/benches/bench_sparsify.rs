//! E5/E6 performance companion: Fig. 2 vs Fig. 3 sparsification, and the
//! offline Fung et al. baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graph_sketches::{SimpleSparsifySketch, SparsifySketch};
use gs_graph::{gen, offline_sparsify};
use gs_sketch::LinearSketch;

fn bench_sparsify(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparsify");
    group.sample_size(10);
    let n = 32;
    let g = gen::gnp(n, 0.4, 1);
    let stream = gen::insert_stream(&g);

    group.bench_with_input(BenchmarkId::new("fig2_ingest", n), &(), |b, _| {
        b.iter(|| {
            let mut s = SimpleSparsifySketch::new(n, 0.75, 3);
            for up in &stream {
                s.update_edge(up.u, up.v, up.delta);
            }
            s
        })
    });
    group.bench_with_input(BenchmarkId::new("fig3_ingest", n), &(), |b, _| {
        b.iter(|| {
            let mut s = SparsifySketch::new(n, 0.75, 5);
            for up in &stream {
                s.update_edge(up.u, up.v, up.delta);
            }
            s
        })
    });

    let mut s2 = SimpleSparsifySketch::new(n, 0.75, 3);
    s2.absorb(&stream);
    group.bench_with_input(BenchmarkId::new("fig2_decode", n), &(), |b, _| {
        b.iter(|| s2.decode())
    });
    let mut s3 = SparsifySketch::new(n, 0.75, 5);
    s3.absorb(&stream);
    group.bench_with_input(BenchmarkId::new("fig3_decode", n), &(), |b, _| {
        b.iter(|| s3.decode())
    });
    group.bench_with_input(BenchmarkId::new("fung_offline", n), &(), |b, _| {
        b.iter(|| offline_sparsify::fung_connectivity(&g, 0.75, 1.0, 7))
    });
    group.finish();
}

criterion_group!(benches, bench_sparsify);
criterion_main!(benches);
