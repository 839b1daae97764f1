//! A `SNAPSHOT` too large for a frame is refused before its blob is
//! encoded. A freshly created connectivity tenant at n = 4096 is
//! 90 439 806 B of v2 bytes, over the default 64 MiB frame cap; encoding
//! it anyway cost two copies of the blob (the payload and the frame body)
//! before the frame was refused and the connection closed without a
//! reply.
//!
//! Linux-only: the peak resident set is read from `/proc/self/status`.
//! `VmHWM` is per process, so this binary holds this single test.
#![cfg(target_os = "linux")]

use graph_sketches::api::{SketchSpec, SketchTask};
use graph_sketches::frame::{ErrCode, MAX_FRAME};
use gs_serve::{Client, ClientError, ServeConfig, Server};
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
fn snapshot_over_the_frame_cap_is_refused_before_it_is_encoded() {
    let dir = std::env::temp_dir().join(format!("gs-serve-snapshot-mem-{}", std::process::id()));
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
    let spec = SketchSpec::new(SketchTask::Connectivity, 4096);
    client.create("big", &spec.to_json()).expect("create");

    let before = peak_rss_kib();
    match client.snapshot("big") {
        Err(ClientError::Server { code, msg }) => {
            assert_eq!(code, ErrCode::Wire, "{msg}");
            // The blob plus the 10-byte response header.
            let expected = format!("snapshot of 90439816 B exceeds the frame cap of {MAX_FRAME} B");
            assert_eq!(msg, expected);
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    let grown_mib = (peak_rss_kib() - before) / 1024;
    assert!(
        grown_mib < 32,
        "the refused SNAPSHOT raised the peak resident set by {grown_mib} MiB"
    );
    assert_eq!(client.ping(b"alive").expect("ping"), b"alive");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
