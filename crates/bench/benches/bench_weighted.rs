//! E7 performance companion: weighted sparsification (§3.5) across weight
//! ranges.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graph_sketches::weighted::WeightedSparsifySketch;
use gs_graph::gen;
use gs_sketch::LinearSketch;

fn bench_weighted(c: &mut Criterion) {
    let mut group = c.benchmark_group("weighted_sparsify");
    group.sample_size(10);
    let n = 24;
    for max_w in [4u64, 64] {
        let g = gen::gnp_weighted(n, 0.4, max_w, 1);
        group.bench_with_input(BenchmarkId::new("ingest", max_w), &(), |b, _| {
            b.iter(|| {
                let mut s = WeightedSparsifySketch::new(n, 0.75, max_w, 3);
                for &(u, v, w) in g.edges() {
                    s.update_edge(u, v, w as i64);
                }
                s
            })
        });
        let mut s = WeightedSparsifySketch::new(n, 0.75, max_w, 3);
        for &(u, v, w) in g.edges() {
            s.update_edge(u, v, w as i64);
        }
        group.bench_with_input(BenchmarkId::new("decode", max_w), &(), |b, _| {
            b.iter(|| s.decode())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_weighted);
criterion_main!(benches);
