//! A KConnect query decodes the tenant's one resident sketch in place.
//! The k-EDGECONNECT witness peels each earlier layer's forest out of
//! the Boruvka group sums instead of out of a copy of the next layer's
//! forest sketch, and the exact min-cut runs on the witness's adjacency
//! lists, not on an n × n matrix. So a fresh query's transient is
//! O(n + witness): at n = 1024 it must stay far below one forest layer
//! (about 9.7 MiB) or one dense matrix (8 MiB).
//!
//! Linux-only: the peak resident set is read from `/proc/self/status`.
//! `VmHWM` is per process, so this binary holds this single test.
#![cfg(target_os = "linux")]

use graph_sketches::api::{SketchAnswer, SketchSpec, SketchTask};
use gs_serve::{Client, ServeConfig, Server};
use gs_sketch::{EdgeUpdate, LinearSketch};
use serde::{Deserialize, Value};
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
fn a_fresh_kconnect_query_holds_no_copy_of_the_sketch() {
    let dir = std::env::temp_dir().join(format!("gs-serve-kconnect-mem-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServeConfig {
        state_dir: dir.clone(),
        tcp: Some("127.0.0.1:0".into()),
        checkpoint_every: Duration::ZERO,
        quiet: true,
        ..ServeConfig::default()
    })
    .expect("server start");
    let addr = server.tcp_addr().expect("tcp listener").to_string();
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let n = 1024;
    let spec = SketchSpec::new(SketchTask::KConnect, n)
        .with_k(2)
        .with_seed(0x6B2);
    client.create("kc", &spec.to_json()).expect("create");

    // A 1024-cycle plus 300 chords: every node's rows in every layer and
    // round are written, so every lane page is resident before the
    // query, yet the stream itself stays small.
    let mut updates: Vec<EdgeUpdate> = (0..n).map(|u| EdgeUpdate::insert(u, (u + 1) % n)).collect();
    updates.extend((0..300).map(|i| EdgeUpdate::insert(i * 3, (i * 3 + n / 2 + 7) % n)));
    client
        .ingest_chunked("kc", &updates, 256, Duration::from_secs(120))
        .expect("ingest");
    // CHECKPOINT drains the absorber without decoding.
    assert_eq!(client.checkpoint("kc").expect("checkpoint"), 1);

    let before = peak_rss_kib();
    let served = client.query("kc", 0).expect("query");
    let grown_kib = peak_rss_kib() - before;
    assert!(
        grown_kib < 2 * 1024,
        "a fresh KConnect query raised the peak resident set by {grown_kib} KiB"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // Only now build the offline sketch: its lanes would have raised the
    // peak before the measurement and hidden the server's transient.
    let served = SketchAnswer::from_value(&Value::from_json(&served).expect("answer JSON"))
        .expect("answer schema");
    let mut offline = spec.build();
    offline.absorb(&updates);
    assert_eq!(served, offline.decode(), "served != offline decode");
    assert_eq!(
        served,
        SketchAnswer::KConnected {
            k: 2,
            connected: true
        }
    );
}
