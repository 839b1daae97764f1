//! Served ingest writes one sketch per tenant. A tenant absorbs raw
//! update batches straight into its one sketch, splitting each batch
//! across its claimed threads, so after ingest that writes every lane
//! page, a query and a checkpoint, the process holds about one sketch of
//! lanes, not one per worker.
//!
//! Linux-only: the peak resident set is read from `/proc/self/status`.
//! `VmHWM` is per process, so this binary holds this single test.
#![cfg(target_os = "linux")]

use graph_sketches::api::{SketchSpec, SketchTask};
use gs_field::SplitMix64;
use gs_serve::{Client, ServeConfig, Server};
use gs_sketch::{CellBanked, EdgeUpdate};
use std::time::Duration;

/// The process's peak resident set (`VmHWM`), in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a VmHWM line in kB")
}

#[test]
fn two_worker_ingest_query_and_checkpoint_hold_one_sketch() {
    let dir = std::env::temp_dir().join(format!("gs-serve-ingest-mem-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServeConfig {
        state_dir: dir.clone(),
        tcp: Some("127.0.0.1:0".into()),
        worker_budget: 2,
        checkpoint_every: Duration::ZERO,
        quiet: true,
        ..ServeConfig::default()
    })
    .expect("server start");
    let addr = server.tcp_addr().expect("tcp listener").to_string();
    let mut client = Client::connect_tcp(&addr).expect("connect");
    // The ladder's ingest-powerlaw tenant: about 54 MiB of lanes (20 B a cell).
    let spec = SketchSpec::new(SketchTask::Connectivity, 4096).with_seed(41);
    let per_sketch_kib = spec.build().resident_bytes() as u64 / 1024;

    let before = peak_rss_kib();
    client.create("t", &spec.to_json()).expect("create");
    // 16 Ki random edges put about eight endpoints on every node, so
    // every round's rows — every lane page — are written.
    let mut rng = SplitMix64::new(0x3E3);
    let updates: Vec<EdgeUpdate> = (0..16 * 1024)
        .map(|_| {
            let u = rng.next_range(4096) as usize;
            let v = (u + 1 + rng.next_range(4095) as usize) % 4096;
            EdgeUpdate::insert(u, v)
        })
        .collect();
    client
        .ingest_chunked("t", &updates, 1024, Duration::from_secs(120))
        .expect("ingest");
    client.query("t", 0).expect("query");
    assert_eq!(client.checkpoint("t").expect("checkpoint"), 1);
    let grown_kib = peak_rss_kib() - before;
    assert!(
        grown_kib * 2 < per_sketch_kib * 3,
        "ingest, query and checkpoint raised the peak resident set by {} MiB; \
         one sketch is {} MiB",
        grown_kib / 1024,
        per_sketch_kib / 1024
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
