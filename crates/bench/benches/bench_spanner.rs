//! E10/E11 performance companion: spanner constructions (§5).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graph_sketches::spanner::{
    baswana_sen, recurse_connect, BaswanaSenParams, Meter, RecurseParams,
};
use gs_graph::gen;

fn bench_spanners(c: &mut Criterion) {
    let mut group = c.benchmark_group("spanner");
    group.sample_size(10);
    let n = 60;
    let g = gen::connected_gnp(n, 0.15, 1);
    let stream = gen::insert_stream(&g);
    for k in [2usize, 3] {
        group.bench_with_input(BenchmarkId::new("baswana_sen", k), &k, |b, &k| {
            b.iter(|| {
                let mut meter = Meter::new(g.n(), &stream);
                baswana_sen(&mut meter, BaswanaSenParams::scaled(n, k), 3)
            })
        });
    }
    for k in [2usize, 4] {
        group.bench_with_input(BenchmarkId::new("recurse_connect", k), &k, |b, &k| {
            b.iter(|| {
                let mut meter = Meter::new(g.n(), &stream);
                recurse_connect(&mut meter, RecurseParams::scaled(k), 5)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_spanners);
criterion_main!(benches);
