//! E8 performance companion: the subgraph sketch (§4, Fig. 4).
//!
//! The interesting cost is the `O(n^{k−2})` column fan-out per edge
//! update — measured against `n` and pattern order `k` — plus the decode
//! and the exact-enumeration baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graph_sketches::SubgraphSketch;
use gs_graph::gen;
use gs_graph::subgraph::{exact_counts, Pattern};
use gs_sketch::LinearSketch;

fn bench_update_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("subgraph_update");
    group.sample_size(10);
    for n in [16usize, 32, 64] {
        group.bench_with_input(BenchmarkId::new("k3", n), &n, |b, &n| {
            let mut s = SubgraphSketch::new(n, 3, 0.34, 1);
            b.iter(|| s.update_edge(0, 1, 1));
        });
    }
    for n in [12usize, 20] {
        group.bench_with_input(BenchmarkId::new("k4", n), &n, |b, &n| {
            let mut s = SubgraphSketch::new(n, 4, 0.5, 2);
            b.iter(|| s.update_edge(0, 1, 1));
        });
    }
    group.finish();
}

fn bench_estimate(c: &mut Criterion) {
    let mut group = c.benchmark_group("subgraph_estimate");
    group.sample_size(10);
    let g = gen::gnp(20, 0.4, 3);
    let mut s = SubgraphSketch::new(20, 3, 0.2, 5);
    for &(u, v, _) in g.edges() {
        s.update_edge(u, v, 1);
    }
    group.bench_function("sketch_gamma_triangle", |b| {
        b.iter(|| s.estimate_gamma(&Pattern::triangle()))
    });
    group.bench_function("exact_enumeration_baseline", |b| {
        b.iter(|| exact_counts(&g, &Pattern::triangle()))
    });
    group.finish();
}

criterion_group!(benches, bench_update_fanout, bench_estimate);
criterion_main!(benches);
