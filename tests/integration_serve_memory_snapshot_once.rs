//! A `SNAPSHOT` under the frame cap holds its blob once. The server
//! writes the v2 bytes straight behind the response envelope into one
//! frame body sized by `SketchFile::encoded_len`; it used to encode them
//! into a payload and then copy that into the frame body, holding the
//! 86 MiB blob of a fresh n = 4096 connectivity tenant twice.
//!
//! The client here drains the frame through a 64 KiB buffer, so the
//! growth of the peak resident set is the server's.
//!
//! Linux-only: the peak resident set is read from `/proc/self/status`.
//! `VmHWM` is per process, so this binary holds this single test.
#![cfg(target_os = "linux")]

use graph_sketches::api::{SketchSpec, SketchTask};
use graph_sketches::frame::{self, Opcode, Request, Response};
use graph_sketches::SketchFile;
use gs_serve::{Client, ServeConfig, Server};
use std::io::Read;
use std::net::TcpStream;
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

/// FNV-1a 64 folded over `bytes`, from state `h`: the v2 checksum.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// What a raw client saw of one drained `SNAPSHOT` frame.
struct Drained {
    envelope: Response,
    blob_len: usize,
    /// FNV-1a of every blob byte before the trailing checksum word.
    sum: u64,
    /// The blob's trailing 8 bytes: its own checksum word.
    trailer: Vec<u8>,
}

/// Reads one response frame off `conn` through a 64 KiB buffer, without
/// ever holding more of it than the buffer.
fn drain_snapshot(conn: &mut TcpStream) -> Drained {
    let mut prefix = [0u8; 4];
    conn.read_exact(&mut prefix).expect("frame length");
    let body_len = u32::from_le_bytes(prefix) as usize;
    let mut head = [0u8; 10];
    conn.read_exact(&mut head).expect("response envelope");
    let envelope = Response::decode(&head).expect("an envelope");
    let blob_len = body_len - head.len();
    let (mut sum, mut trailer, mut at) = (FNV_OFFSET, Vec::new(), 0);
    let mut buf = vec![0u8; 64 << 10];
    while at < blob_len {
        let want = buf.len().min(blob_len - at);
        let got = conn.read(&mut buf[..want]).expect("snapshot bytes");
        assert!(got > 0, "the server closed mid-frame at {at} of {blob_len}");
        let chunk = &buf[..got];
        let hashed = (blob_len - 8).saturating_sub(at).min(got);
        sum = fnv1a(sum, &chunk[..hashed]);
        trailer.extend_from_slice(&chunk[hashed..]);
        at += got;
    }
    Drained {
        envelope,
        blob_len,
        sum,
        trailer,
    }
}

#[test]
fn snapshot_under_the_frame_cap_holds_its_blob_once() {
    let dir = std::env::temp_dir().join(format!("gs-serve-snapshot-once-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let max_frame = 128 << 20;
    let server = Server::start(ServeConfig {
        state_dir: dir.clone(),
        tcp: Some("127.0.0.1:0".into()),
        checkpoint_every: Duration::ZERO,
        max_frame,
        quiet: true,
        ..ServeConfig::default()
    })
    .expect("server start");
    let addr = server.tcp_addr().expect("tcp listener").to_string();
    let spec = SketchSpec::new(SketchTask::Connectivity, 4096);
    Client::connect_tcp(&addr)
        .expect("connect")
        .create("big", &spec.to_json())
        .expect("create");
    let blob = SketchFile::new(spec, spec.build()).unwrap().encoded_len() as usize;
    assert_eq!(blob, 90_439_806);

    let mut conn = TcpStream::connect(&addr).expect("raw connect");
    let request = |op, payload: &[u8]| Request {
        corr: 7,
        op,
        tenant: "big".into(),
        payload: payload.to_vec(),
    };
    let before = peak_rss_kib();
    frame::write_frame(
        &mut conn,
        &request(Opcode::Snapshot, b"").encode(),
        max_frame,
    )
    .unwrap();
    let drained = drain_snapshot(&mut conn);
    let grown = (peak_rss_kib() - before) * 1024;
    assert_eq!(
        drained.envelope,
        Response::Ok {
            corr: 7,
            payload: Vec::new()
        }
    );
    assert!(
        grown < blob as u64 * 3 / 2,
        "SNAPSHOT of a {blob} B blob raised the peak resident set by {grown} B"
    );

    // The drained bytes are the tenant's v2 file: they hash to the
    // checksum that `to_bytes` seals.
    let expected = SketchFile::new(spec, spec.build()).unwrap().to_bytes();
    assert_eq!(drained.blob_len, expected.len());
    let sealed = &expected[expected.len() - 8..];
    assert_eq!(drained.trailer, sealed);
    assert_eq!(drained.sum.to_le_bytes(), sealed);
    assert_eq!(
        fnv1a(FNV_OFFSET, &expected[..expected.len() - 8]),
        drained.sum
    );

    // The connection is still framed: PING answers on it.
    frame::write_frame(
        &mut conn,
        &request(Opcode::Ping, b"alive").encode(),
        max_frame,
    )
    .unwrap();
    let pong = frame::read_frame(&mut conn, max_frame)
        .unwrap()
        .expect("a PING reply");
    assert_eq!(
        Response::decode(&pong).unwrap(),
        Response::Ok {
            corr: 7,
            payload: b"alive".to_vec()
        }
    );
    drop(conn);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
