//! `gs-serve` loopback benchmark with an append-only perf trajectory.
//!
//! Boots an in-process server on `127.0.0.1:0` and measures, over one
//! loopback TCP connection each:
//!
//! * **ingest throughput** — raw-update `INGEST` frames/sec (and
//!   updates/sec), `BUSY` backpressure retried and counted rather than
//!   hidden;
//! * **memo-hit query latency** — p50/p99 over repeated `QUERY` frames
//!   against the loaded tenant. No update arrives between them, so every
//!   one is answered from the tenant's answer memo: a frame round trip,
//!   the memo probe and the answer's JSON, with no flush and no decode.
//!   `STATS` must show exactly that many `decode_cache_hits` before the
//!   percentiles are reported.
//!
//! Before any number is reported the served answer is asserted
//! bit-identical to the offline single-process decode of the same
//! updates — the service is only worth timing if it is correct. Each
//! run appends one record to the `BENCH_serve.json` trajectory through
//! [`gs_bench::trajectory`].
//!
//! Loopback numbers measure protocol + scheduling overhead, not network:
//! useful for regression tracking, not capacity planning.

use graph_sketches::api::{SketchAnswer, SketchSpec, SketchTask};
use graph_sketches::frame::ServiceStats;
use gs_bench::trajectory::{self, churn, fixed};
use gs_serve::{Client, Outcome, ServeConfig, Server};
use gs_sketch::par::DecodePlan;
use gs_sketch::LinearSketch;
use serde::{Deserialize, Serialize, Value};
use std::hint::black_box;
use std::time::{Duration, Instant};

const INGEST_FRAMES: usize = 400;
const BATCH: usize = 256;
const QUERIES: usize = 120;

fn percentile(sorted_ns: &[f64], p: f64) -> f64 {
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx]
}

/// The tenant's `decode_cache_hits`, from its `STATS`.
fn memo_hits(client: &mut Client, tenant: &str) -> u64 {
    let json = client.stats(tenant).expect("stats");
    let stats = ServiceStats::from_value(&Value::from_json(&json).expect("json")).expect("stats");
    // A tenant's STATS holds that tenant alone.
    stats.per_tenant[0].decode_cache_hits
}

fn main() {
    let n = 2_000;
    let spec = SketchSpec::new(SketchTask::Connectivity, n).with_seed(0x5E17E);
    let updates = churn(n, INGEST_FRAMES * BATCH);

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("gs-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServeConfig {
        state_dir: dir.clone(),
        tcp: Some("127.0.0.1:0".into()),
        checkpoint_every: Duration::ZERO,
        quiet: true,
        ..ServeConfig::default()
    })
    .expect("server start");
    let addr = server.tcp_addr().expect("tcp addr").to_string();
    let mut client = Client::connect_tcp(&addr).expect("connect");
    client.create("bench", &spec.to_json()).expect("create");

    // Ingest: one frame per BATCH updates, BUSY retried (and counted).
    let mut busy_retries: u64 = 0;
    let ingest_start = Instant::now();
    for batch in updates.chunks(BATCH) {
        let bytes = graph_sketches::frame::encode_updates(batch);
        loop {
            match client.ingest_bytes("bench", bytes.clone()).expect("ingest") {
                Outcome::Ok(_) => break,
                Outcome::Busy { retry_after_ms } => {
                    busy_retries += 1;
                    std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 50) as u64));
                }
            }
        }
    }
    let ingest_secs = ingest_start.elapsed().as_secs_f64();
    let frames = updates.len().div_ceil(BATCH);
    let ingest_fps = frames as f64 / ingest_secs;
    let ingest_ups = updates.len() as f64 / ingest_secs;

    // Correctness gate before timing queries: served == offline decode.
    let served_json = client.query("bench", 1).expect("query");
    let served =
        SketchAnswer::from_value(&Value::from_json(&served_json).expect("json")).expect("answer");
    let mut offline = spec.build();
    offline.absorb(&updates);
    let expected = offline.decode_with(&DecodePlan::with_threads(1));
    assert_eq!(
        served, expected,
        "served answer drifted from offline decode"
    );

    // Memo-hit latency distribution: each sample is one frame round trip
    // answered from the memo the parity query above filled.
    let hits_before = memo_hits(&mut client, "bench");
    let mut samples_ns: Vec<f64> = Vec::with_capacity(QUERIES);
    for _ in 0..QUERIES {
        let t = Instant::now();
        black_box(client.query("bench", 1).expect("query"));
        samples_ns.push(t.elapsed().as_nanos() as f64);
    }
    assert_eq!(
        memo_hits(&mut client, "bench") - hits_before,
        QUERIES as u64,
        "a timed query missed the answer memo"
    );
    samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let p50_ms = percentile(&samples_ns, 0.50) / 1e6;
    let p99_ms = percentile(&samples_ns, 0.99) / 1e6;

    let path = trajectory::append(
        "serve",
        [
            ("n", n.to_value()),
            ("updates", updates.len().to_value()),
            ("batch", BATCH.to_value()),
            ("ingest_frames", frames.to_value()),
            ("busy_retries", busy_retries.to_value()),
            ("ingest_frames_per_sec", fixed(ingest_fps, 0)),
            ("ingest_updates_per_sec", fixed(ingest_ups, 0)),
            ("query_samples", QUERIES.to_value()),
            ("query_hit_p50_ms", fixed(p50_ms, 3)),
            ("query_hit_p99_ms", fixed(p99_ms, 3)),
            ("parity_with_offline_decode", true.to_value()),
        ],
    )
    .unwrap_or_else(|e| panic!("{e}"));

    println!("== gs-serve loopback ({n}-vertex connectivity tenant) ==");
    println!(
        "ingest: {frames} frames x {BATCH} updates in {ingest_secs:.2}s \
         ({ingest_fps:.0} frames/s, {ingest_ups:.0} updates/s, {busy_retries} BUSY retries)"
    );
    println!("memo-hit query: p50 {p50_ms:.2} ms   p99 {p99_ms:.2} ms over {QUERIES} round trips");
    println!("appended record to {}", path.display());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
