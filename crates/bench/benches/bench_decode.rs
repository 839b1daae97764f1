//! DecodeEngine benchmark with an append-only perf trajectory.
//!
//! Measures spanning-forest decoding of a 10k-vertex connectivity sketch
//! along three one-shot paths:
//!
//! * **reference** — the pinned pre-kernel decoder
//!   ([`ForestSketch::decode_reference`]): per-cell indexed adds into
//!   freshly allocated lanes, a proxy detector built per group.
//! * **kernel ×1** — the bank-level batched group query
//!   ([`ForestSketch::decode_with`] at one thread): whole contiguous rows
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
//! sparse one on that witness, and the whole `is_k_connected_with`.
//!
//! Every number is gated on **bit identity** before any clock starts:
//! the three one-shot paths must agree edge for edge, the peel must
//! return the reference's witness, and the sparse cut the dense
//! `(value, side)`.
//!
//! Results append one record per run to `BENCH_decode.json` (override
//! the path with `BENCH_DECODE_OUT`): git sha (+`-dirty` flag), UTC
//! date, per-config rows, and the derived speedups. The file is a JSON
//! array and is never truncated — CI uploads it as an artifact alongside
//! `BENCH_bank.json`, so the decode perf trajectory is recorded per
//! commit instead of living in scrollback.
//!
//! Method: per measurement, one warm-up run, then `RUNS` timed runs; the
//! reported number is the minimum (least-noise estimator).

use graph_sketches::extras::KConnectivitySketch;
use graph_sketches::{ForestSketch, KEdgeConnectSketch};
use gs_graph::{stoer_wagner, Graph};
use gs_sketch::par::DecodePlan;
use gs_sketch::{CellBanked, EdgeUpdate, LinearSketch};
use gs_workloads::GeneratorSpec;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

const RUNS: usize = 3;

/// Read-heavy workload shape: per delta round, `DELTA_LEN` updates then
/// `QUERIES` decodes — 100 queries against 8 updates, a 12.5:1 ratio.
const ROUNDS: usize = 4;
const DELTA_LEN: usize = 2;
const QUERIES: usize = 25;

/// Minimum wall time of `RUNS` runs of `f`, in nanoseconds.
fn time_ns(mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn churn(n: usize, len: usize) -> Vec<EdgeUpdate> {
    (0..len)
        .map(|i| {
            let u = (i * 13) % n;
            let v = (u + 1 + (i * 7) % (n - 1)) % n;
            EdgeUpdate {
                u,
                v,
                delta: if i % 5 == 0 { -1 } else { 1 },
            }
        })
        .filter(|up| up.u != up.v)
        .collect()
}

fn git_sha() -> String {
    let sha = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let dirty = Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .is_some_and(|o| !o.stdout.is_empty());
    if dirty {
        format!("{sha}-dirty")
    } else {
        sha
    }
}

fn utc_date() -> String {
    Command::new("date")
        .args(["-u", "+%Y-%m-%dT%H:%M:%SZ"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| {
            let secs = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0);
            format!("epoch:{secs}")
        })
}

/// Appends `record` to the JSON array in `path`, creating the array if
/// the file is missing or not in trajectory format. Existing records are
/// never modified or dropped.
fn append_record(path: &str, record: &str) {
    let prior = std::fs::read_to_string(path).unwrap_or_default();
    let trimmed = prior.trim();
    let json = if trimmed.starts_with('[') && trimmed.ends_with(']') {
        let body = trimmed[1..trimmed.len() - 1].trim_end();
        if body.is_empty() {
            format!("[\n{record}\n]\n")
        } else {
            format!("[{body},\n{record}\n]\n")
        }
    } else {
        format!("[\n{record}\n]\n")
    };
    std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
}

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
/// two bridges, plus decoy cross-edge churn): JSON rows and a summary.
fn kconnect_rows(n: usize) -> (String, String) {
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
    let connected = tester.is_k_connected_with(&one);
    assert_eq!(connected, dense.0 >= k as u64, "n = {n}: verdict drifted");

    let reference_ns = time_ns(|| {
        black_box(witness.decode_witness_edges_reference(&one));
    });
    let peel_ns = time_ns(|| {
        black_box(witness.decode_witness_edges_with(&one));
    });
    let dense_ns = time_ns(|| {
        black_box(stoer_wagner::min_cut_dense(&h));
    });
    let sparse_ns = time_ns(|| {
        black_box(stoer_wagner::min_cut(&h));
    });
    let full_ns = time_ns(|| {
        black_box(tester.is_k_connected_with(&one));
    });
    let shape = format!(
        "\"n\": {n}, \"k\": {k}, \"updates\": {}, \"witness_edges\": {}",
        trace.updates.len(),
        h.m()
    );
    let rows = format!(
        "      {{ \"config\": \"kconnect-witness-reference\", \"ns\": {reference_ns:.0}, {shape} }},\n      \
         {{ \"config\": \"kconnect-witness-peel\", \"ns\": {peel_ns:.0}, {shape} }},\n      \
         {{ \"config\": \"kconnect-min-cut-dense\", \"ns\": {dense_ns:.0}, {shape} }},\n      \
         {{ \"config\": \"kconnect-min-cut-sparse\", \"ns\": {sparse_ns:.0}, {shape} }},\n      \
         {{ \"config\": \"kconnect-is-k-connected\", \"ns\": {full_ns:.0}, {shape}, \
         \"connected\": {connected} }}"
    );
    let summary = format!(
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
    (rows, summary)
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

    let reference_ns = time_ns(|| {
        black_box(sketch.decode_reference());
    });
    let seq_ns = time_ns(|| {
        black_box(sketch.decode_with(&DecodePlan::with_threads(1)));
    });
    let par8_ns = time_ns(|| {
        black_box(sketch.decode_with(&DecodePlan::with_threads(8)));
    });

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
    let kconnect: Vec<(String, String)> = [512, 1024].into_iter().map(kconnect_rows).collect();
    let kernel_speedup = reference_ns / seq_ns;
    let parallel_speedup = reference_ns / par8_ns;
    let thread_speedup = seq_ns / par8_ns;

    let rows = format!(
        "      {{ \"config\": \"reference\", \"ns\": {reference_ns:.0} }},\n      \
         {{ \"config\": \"kernel-1thread\", \"ns\": {seq_ns:.0} }},\n      \
         {{ \"config\": \"kernel-8threads\", \"ns\": {par8_ns:.0} }},\n      \
         {{ \"config\": \"read-heavy-fresh\", \"ns\": {fresh_ns:.0}, \
         \"queries\": {queries}, \"delta_updates\": {delta_updates} }},\n{}",
        kconnect
            .iter()
            .map(|(rows, _)| rows.as_str())
            .collect::<Vec<_>>()
            .join(",\n")
    );
    let record = format!(
        "  {{\n    \"sha\": \"{}\",\n    \"date\": \"{}\",\n    \"n\": {n},\n    \
         \"updates\": {},\n    \"forest_edges\": {},\n    \"cells\": {},\n    \
         \"host_parallelism\": {},\n    \"rows\": [\n{rows}\n    ],\n    \
         \"speedups\": {{ \"kernel\": {kernel_speedup:.2}, \
         \"threads\": {thread_speedup:.2}, \"total\": {parallel_speedup:.2} }},\n    \
         \"bit_identical\": true\n  }}",
        git_sha(),
        utc_date(),
        updates.len(),
        reference.edges.len(),
        sketch.cell_count(),
        DecodePlan::auto().threads(),
    );
    // cargo runs benches with the package (not workspace) root as cwd;
    // anchor the default at the workspace root so the trajectory file is
    // the committed one.
    let out = std::env::var("BENCH_DECODE_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_decode.json").into());
    append_record(&out, &record);

    println!("== decode engine (10k-vertex connectivity sketch) ==");
    println!(
        "reference: {:>9.1} ms   kernel x1: {:>9.1} ms ({kernel_speedup:.2}x)   \
         kernel x8: {:>9.1} ms ({parallel_speedup:.2}x total, {thread_speedup:.2}x from threads)",
        reference_ns / 1e6,
        seq_ns / 1e6,
        par8_ns / 1e6,
    );
    println!(
        "read-heavy ({queries} queries : {delta_updates} updates): fresh {:>9.1} ms",
        fresh_ns / 1e6,
    );
    for (_, summary) in &kconnect {
        println!("{summary}");
    }
    println!("appended record to {out}");
}
