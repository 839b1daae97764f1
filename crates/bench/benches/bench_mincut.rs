//! E4 performance companion: `MINCUT` (Fig. 1) vs the exact Stoer–Wagner
//! baseline it emulates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graph_sketches::MinCutSketch;
use gs_graph::{gen, stoer_wagner};
use gs_sketch::LinearSketch;

fn bench_mincut(c: &mut Criterion) {
    let mut group = c.benchmark_group("mincut");
    group.sample_size(10);
    for n in [24usize, 48] {
        let g = gen::barbell(n / 2, 2);
        let stream = gen::insert_stream(&g);
        group.bench_with_input(BenchmarkId::new("ingest", n), &(), |b, _| {
            b.iter(|| {
                let mut s = MinCutSketch::new(n, 0.5, 1);
                for up in &stream {
                    s.update_edge(up.u, up.v, up.delta);
                }
                s
            })
        });
        let mut s = MinCutSketch::new(n, 0.5, 1);
        s.absorb(&stream);
        group.bench_with_input(BenchmarkId::new("decode", n), &(), |b, _| {
            b.iter(|| s.decode().expect("resolves").value)
        });
        group.bench_with_input(BenchmarkId::new("stoer_wagner_exact", n), &(), |b, _| {
            b.iter(|| stoer_wagner::min_cut_value(&g))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mincut);
criterion_main!(benches);
