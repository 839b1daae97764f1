//! DecodeEngine benchmark with an append-only perf trajectory.
//!
//! Measures spanning-forest decoding of a 10k-vertex connectivity sketch
//! along three one-shot paths:
//!
//! * **reference** — the pinned pre-kernel decoder
//!   ([`ForestSketch::decode_reference`]): per-cell indexed adds into
//!   freshly allocated lanes, a proxy detector built per group.
//! * **kernel ×1** — the bank-level batched group query
//!   ([`LinearSketch::decode_with`] of a forest at one thread): whole contiguous rows
//!   lane-summed into reused scratch, decoded in place.
//! * **kernel ×8** — the same kernel with the Boruvka group queries
//!   fanned across 8 scoped threads (clamped to the host's parallelism,
//!   so a single-core runner reports ≈ the ×1 number).
//!
//! plus a **read-heavy delta workload** (`read-heavy-fresh`): small
//! deltas trickle into an emptied sketch while queries outnumber updates
//! more than 10:1, and every query decodes from scratch. Sketches keep
//! no decode memo; a served tenant's answer memo lives in gs-serve.
//!
//! plus **KConnect post-processing rows** at n = 512 and 1024 (k = 2,
//! a `MinCutAdversary` stream): the k-EDGECONNECT witness decode by
//! clone-then-subtract (`decode_witness_edges_reference`) against the
//! in-place peel, the dense Stoer–Wagner (`min_cut_dense`) against the
//! sparse one on that witness, and the whole KConnect `decode_with`.
//!
//! Every number is gated on **bit identity** before any clock starts:
//! the three one-shot paths must agree edge for edge, the peel must
//! return the reference's witness, and the sparse cut the dense
//! `(value, side)`.
//!
//! Each run appends one record to the `BENCH_decode.json` trajectory
//! through [`gs_bench::trajectory`]: git sha, UTC date, host, per-config
//! rows, and the derived speedups.
//!
//! Method: per measurement, one warm-up run, then `RUNS` timed runs; the
//! reported number is the minimum (least-noise estimator). Every
//! one-shot row is timed by [`time_ns`]; its calls last milliseconds, so
//! each run is one call.

use graph_sketches::extras::KConnectivitySketch;
use graph_sketches::{ForestSketch, KEdgeConnectSketch};
use gs_bench::trajectory::{self, churn, fixed, object, time_ns};
use gs_graph::{stoer_wagner, Graph};
use gs_sketch::par::DecodePlan;
use gs_sketch::{CellBanked, EdgeUpdate, LinearSketch};
use gs_workloads::GeneratorSpec;
use serde::{Serialize, Value};
use std::hint::black_box;
use std::time::Instant;

const RUNS: usize = 3;

/// Read-heavy workload shape: per delta round, `DELTA_LEN` updates then
/// `QUERIES` decodes — 100 queries against 8 updates, a 12.5:1 ratio.
const ROUNDS: usize = 4;
const DELTA_LEN: usize = 2;
const QUERIES: usize = 25;

/// One pass of the read-heavy workload: per round, absorb one small
/// delta, then answer `QUERIES` queries. Returns total nanoseconds.
/// Restores the sketch's lane state afterwards (outside the clock) by
/// replaying every delta negated, so passes are measured on identical
/// measurement state.
fn read_heavy_pass(
    sketch: &mut ForestSketch,
    deltas: &[Vec<EdgeUpdate>],
    plan: &DecodePlan,
) -> f64 {
    let t = Instant::now();
    for delta in deltas {
        sketch.absorb(delta);
        for _ in 0..QUERIES {
            black_box(sketch.decode_with(plan));
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    let inverse: Vec<EdgeUpdate> = deltas
        .iter()
        .flatten()
        .map(|u| EdgeUpdate {
            u: u.u,
            v: u.v,
            delta: -u.delta,
        })
        .collect();
    sketch.absorb(&inverse);
    ns
}

/// KConnect's decode post-processing at `n` vertices, k = 2, on a
/// `MinCutAdversary` stream (a barbell of two `n/2`-cliques joined by
/// two bridges, plus decoy cross-edge churn): prints a summary and
/// returns the record rows.
fn kconnect_rows(n: usize) -> Vec<Value> {
    let k = 2;
    let seed = 0xDEC2 + n as u64;
    let trace = GeneratorSpec::MinCutAdversary {
        half: n / 2,
        bridge: 2,
        churn: 2 * n,
        seed,
    }
    .generate();
    let mut witness = KEdgeConnectSketch::new(n, k, seed);
    witness.absorb(&trace.updates);
    // The tester wraps a witness sketch with the same seed.
    let mut tester = KConnectivitySketch::new(n, k, seed);
    tester.absorb(&trace.updates);
    let one = DecodePlan::with_threads(1);

    // Determinism gate: peel == clone-then-subtract, sparse == dense.
    let edges = witness.decode_witness_edges_with(&one);
    assert_eq!(
        witness.decode_witness_edges_reference(&one),
        edges,
        "n = {n}: peeled witness drifted from clone-then-subtract"
    );
    let h = Graph::from_edges(n, edges.iter().map(|&(u, v, _)| (u, v)));
    let dense = stoer_wagner::min_cut_dense(&h);
    assert_eq!(
        stoer_wagner::min_cut(&h),
        dense,
        "n = {n}: sparse cut drifted"
    );
    let connected = tester.decode_with(&one);
    assert_eq!(connected, dense.0 >= k as u64, "n = {n}: verdict drifted");

    let reference_ns = time_ns(|| witness.decode_witness_edges_reference(&one));
    let peel_ns = time_ns(|| witness.decode_witness_edges_with(&one));
    let dense_ns = time_ns(|| stoer_wagner::min_cut_dense(&h));
    let sparse_ns = time_ns(|| stoer_wagner::min_cut(&h));
    let full_ns = time_ns(|| tester.decode_with(&one));
    let row = |config: &str, ns: f64| {
        vec![
            ("config", config.to_value()),
            ("ns", fixed(ns, 0)),
            ("n", n.to_value()),
            ("k", k.to_value()),
            ("updates", trace.updates.len().to_value()),
            ("witness_edges", h.m().to_value()),
        ]
    };
    let mut is_k_connected = row("kconnect-is-k-connected", full_ns);
    is_k_connected.push(("connected", connected.to_value()));
    let rows = vec![
        object(row("kconnect-witness-reference", reference_ns)),
        object(row("kconnect-witness-peel", peel_ns)),
        object(row("kconnect-min-cut-dense", dense_ns)),
        object(row("kconnect-min-cut-sparse", sparse_ns)),
        object(is_k_connected),
    ];
    println!(
        "kconnect n = {n}, k = {k} ({} witness edges): witness reference {:>7.1} ms, \
         peel {:>7.1} ms; min cut dense {:>8.1} ms, sparse {:>7.1} ms; \
         is_k_connected {:>7.1} ms",
        h.m(),
        reference_ns / 1e6,
        peel_ns / 1e6,
        dense_ns / 1e6,
        sparse_ns / 1e6,
        full_ns / 1e6,
    );
    rows
}

fn main() {
    let n = 10_000;
    let updates = churn(n, 30_000);
    let seed = 0xDEC0;
    let mut sketch = ForestSketch::new(n, seed);
    sketch.absorb_batch(&updates);

    // Determinism gate: the three one-shot paths must agree edge for
    // edge before any of them is worth timing.
    let reference = sketch.decode_reference();
    let seq = sketch.decode_with(&DecodePlan::with_threads(1));
    let par8 = sketch.decode_with(&DecodePlan::with_threads(8));
    assert_eq!(
        reference.edges, seq.edges,
        "kernel decode drifted from the reference"
    );
    assert_eq!(seq.edges, par8.edges, "parallel decode drifted");

    let reference_ns = time_ns(|| sketch.decode_reference());
    let seq_ns = time_ns(|| sketch.decode_with(&DecodePlan::with_threads(1)));
    let par8_ns = time_ns(|| sketch.decode_with(&DecodePlan::with_threads(8)));
    let kernel_speedup = reference_ns / seq_ns;
    let parallel_speedup = reference_ns / par8_ns;
    let thread_speedup = seq_ns / par8_ns;
    println!("== decode engine (10k-vertex connectivity sketch) ==");
    println!(
        "reference: {:>9.1} ms   kernel x1: {:>9.1} ms ({kernel_speedup:.2}x)   \
         kernel x8: {:>9.1} ms ({parallel_speedup:.2}x total, {thread_speedup:.2}x from threads)",
        reference_ns / 1e6,
        seq_ns / 1e6,
        par8_ns / 1e6,
    );

    // ---- read-heavy delta workload, on the sketch emptied of its bulk
    // load (the shape every earlier record of this row measured).
    sketch.drain_dirty();
    let plan = DecodePlan::with_threads(1);
    let deltas: Vec<Vec<EdgeUpdate>> = (0..ROUNDS)
        .map(|r| {
            (0..DELTA_LEN)
                .map(|i| {
                    let k = 31_000 + r * DELTA_LEN + i;
                    let u = (k * 13) % n;
                    let v = (u + 1 + (k * 7) % (n - 1)) % n;
                    EdgeUpdate { u, v, delta: 1 }
                })
                .filter(|up| up.u != up.v)
                .collect()
        })
        .collect();
    let delta_updates: usize = deltas.iter().map(Vec::len).sum();
    let queries = ROUNDS * QUERIES;

    let mut fresh_ns = f64::INFINITY;
    for round in 0..=RUNS {
        let ns = read_heavy_pass(&mut sketch, &deltas, &plan);
        if round > 0 {
            fresh_ns = fresh_ns.min(ns);
        }
    }
    println!(
        "read-heavy ({queries} queries : {delta_updates} updates): fresh {:>9.1} ms",
        fresh_ns / 1e6,
    );

    let config = |config: &str, ns: f64| vec![("config", config.to_value()), ("ns", fixed(ns, 0))];
    let mut read_heavy = config("read-heavy-fresh", fresh_ns);
    read_heavy.push(("queries", queries.to_value()));
    read_heavy.push(("delta_updates", delta_updates.to_value()));
    let rows = [
        object(config("reference", reference_ns)),
        object(config("kernel-1thread", seq_ns)),
        object(config("kernel-8threads", par8_ns)),
        object(read_heavy),
    ]
    .into_iter()
    .chain([512, 1024].into_iter().flat_map(kconnect_rows))
    .collect();
    let path = trajectory::append(
        "decode",
        [
            ("n", n.to_value()),
            ("updates", updates.len().to_value()),
            ("forest_edges", reference.edges.len().to_value()),
            ("cells", sketch.cell_count().to_value()),
            ("host_parallelism", DecodePlan::auto().threads().to_value()),
            ("rows", Value::Seq(rows)),
            (
                "speedups",
                object([
                    ("kernel", fixed(kernel_speedup, 2)),
                    ("threads", fixed(thread_speedup, 2)),
                    ("total", fixed(parallel_speedup, 2)),
                ]),
            ),
            ("bit_identical", true.to_value()),
        ],
    )
    .unwrap_or_else(|e| panic!("{e}"));
    println!("appended record to {}", path.display());
}
