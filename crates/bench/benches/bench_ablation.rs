//! Ablation benches for the design choices called out in DESIGN.md §4:
//!
//! * fresh-per-round vs shared detector banks in Boruvka decoding
//!   (DESIGN §4.3 / the `share_rounds` knob) — success rate is measured in
//!   the unit tests; here we measure the memory/time trade.
//! * oracle vs Nisan randomness backends — per-hash cost (§3.4's price).
//! * detector vs uniform sampler in the forest roles (DESIGN §4.3).

use criterion::{criterion_group, criterion_main, Criterion};
use graph_sketches::connectivity::{ForestParams, ForestSketch};
use gs_field::{BackendKind, HashBackend, Randomness};
use gs_graph::gen;
use gs_sketch::{L0Detector, L0Sampler, LinearSketch};

fn ablation_share_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_share_rounds");
    group.sample_size(10);
    let n = 64;
    let g = gen::connected_gnp(n, 0.15, 1);
    for share in [false, true] {
        let mut params = ForestParams::for_n(n);
        params.share_rounds = share;
        group.bench_function(if share { "shared_bank" } else { "fresh_banks" }, |b| {
            b.iter(|| {
                let mut s = ForestSketch::with_params(n, params, 3);
                for &(u, v, w) in g.edges() {
                    s.update_edge(u, v, w as i64);
                }
                s.decode()
            })
        });
    }
    group.finish();
}

fn ablation_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_hash_backend");
    for (name, kind) in [
        ("oracle", BackendKind::Oracle),
        ("nisan", BackendKind::Nisan),
    ] {
        let h: HashBackend = kind.backend(1, 2);
        let mut x = 0u64;
        group.bench_function(name, |b| {
            b.iter(|| {
                x = x.wrapping_add(1);
                h.hash64(x)
            })
        });
    }
    group.finish();
}

fn ablation_detector_vs_sampler(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_l0_flavor");
    let domain = 1u64 << 20;
    group.bench_function("detector_update", |b| {
        let mut d = L0Detector::new(domain, 1);
        let mut x = 0u64;
        b.iter(|| {
            x = (x + 7919) % domain;
            d.update(x, 1)
        });
    });
    group.bench_function("sampler_update", |b| {
        let mut s = L0Sampler::new(domain, 1);
        let mut x = 0u64;
        b.iter(|| {
            x = (x + 7919) % domain;
            s.update(x, 1)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    ablation_share_rounds,
    ablation_backends,
    ablation_detector_vs_sampler
);
criterion_main!(benches);
