//! A tenant's resident memory follows the cells it has written. Creating
//! a tenant builds its one sketch, lazily zeroed, and streams the
//! sketch's first checkpoint to disk, so CREATE must not make the
//! process touch the sketch's lane pages or buffer a whole state file.
//!
//! Linux-only: the peak resident set is read from `/proc/self/status`.
//! The binary holds this single test, so nothing else allocates in the
//! process while the peak is measured.
#![cfg(target_os = "linux")]

use graph_sketches::api::{SketchSpec, SketchTask};
use graph_sketches::frame::ServiceStats;
use gs_serve::{Client, ServeConfig, Server};
use gs_sketch::CellBanked;
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
fn create_touches_no_lane_pages_and_holds_one_sketch() {
    let dir = std::env::temp_dir().join(format!("gs-serve-memory-{}", std::process::id()));
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
    // The ladder's ingest-powerlaw tenant: about 54 MiB of lanes, so
    // touching the sketch's pages breaks the bound.
    let spec = SketchSpec::new(SketchTask::Connectivity, 4096).with_seed(41);

    let before = peak_rss_kib();
    client.create("t", &spec.to_json()).expect("create");
    let grown_mib = (peak_rss_kib() - before) / 1024;
    assert!(
        grown_mib < 32,
        "CREATE raised the peak resident set by {grown_mib} MiB"
    );

    let stats = client.stats("t").expect("stats");
    let stats = ServiceStats::from_value(&Value::from_json(&stats).expect("stats JSON"))
        .expect("stats schema");
    let tenant = &stats.per_tenant[0];
    let per_sketch = spec.build().resident_bytes() as u64;
    assert_eq!(
        tenant.lane_bytes_resident, per_sketch,
        "a tenant holds one sketch, whatever its worker share"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
