//! The resident service, end to end: answers served by `gs-serve` after
//! multi-client ingest must be **bit identical** to the offline
//! single-process decode of the same update multiset; a SIGKILL-style
//! restart must reproduce exactly the answers of the last completed
//! checkpoint; and hostile frames must be refused with typed errors on a
//! server that keeps serving.

use graph_sketches::api::{SketchAnswer, SketchSpec, SketchTask};
use graph_sketches::frame::{self, ErrCode, Opcode, Request, Response, ServiceStats, TenantStats};
use graph_sketches::wire::SketchFile;
use gs_graph::gen;
use gs_serve::{Client, ClientError, Outcome, ServeConfig, Server};
use gs_sketch::par::DecodePlan;
use gs_sketch::{EdgeUpdate, LinearSketch};
use gs_stream::distributed::split_updates;
use gs_stream::GraphStream;
use serde::{Deserialize, Value};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// A scratch state directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "gs-serve-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A loopback server with checkpointing disabled (tests drive
/// durability points explicitly through `CHECKPOINT` frames).
fn start_server(state_dir: &std::path::Path) -> Server {
    Server::start(ServeConfig {
        state_dir: state_dir.to_path_buf(),
        tcp: Some("127.0.0.1:0".into()),
        checkpoint_every: Duration::ZERO,
        quiet: true,
        ..ServeConfig::default()
    })
    .expect("server start")
}

fn connect(server: &Server) -> Client {
    Client::connect_tcp(&server.tcp_addr().expect("tcp listener").to_string()).expect("connect")
}

fn churn_updates(n: usize, seed: u64) -> Vec<EdgeUpdate> {
    let g = gen::gnp(n, 0.3, seed);
    GraphStream::with_churn(&g, 150, seed ^ 0xD1).edge_updates()
}

fn answer_of(json: &str) -> SketchAnswer {
    let value = Value::from_json(json).expect("answer JSON parses");
    SketchAnswer::from_value(&value).expect("answer JSON is a SketchAnswer")
}

/// The acceptance-criteria parity matrix: for three integer-answer tasks
/// (connectivity, MST, k-connectivity — no float fields to survive a
/// JSON round trip), two clients split the stream — one ships raw update
/// batches, the other sketches its share offline and ships the delta
/// record — and the served answer must equal the offline single-process
/// decode of the full stream, bit for bit.
#[test]
fn served_answers_match_offline_decode_after_multi_client_ingest() {
    let tasks = [
        SketchTask::Connectivity,
        SketchTask::Mst,
        SketchTask::KConnect,
    ];
    let scratch = Scratch::new("parity");
    let server = start_server(scratch.path());
    for (i, task) in tasks.into_iter().enumerate() {
        let spec = SketchSpec::new(task, 14)
            .with_eps(0.9)
            .with_k(2)
            .with_max_weight(8)
            .with_seed(0x5EED + i as u64);
        let tenant = format!("parity-{}", spec.task.command());
        let updates = churn_updates(14, 23 + i as u64);
        let shares = split_updates(&updates, 2, 0xCAFE);

        let mut creator = connect(&server);
        creator.create(&tenant, &spec.to_json()).expect("create");

        // Client A: raw update batches through the engine path.
        let mut client_a = connect(&server);
        for batch in shares[0].chunks(16) {
            client_a
                .ingest_retry(&tenant, batch, Duration::from_secs(10))
                .expect("raw ingest");
        }
        // Client B: its share sketched offline, shipped as a delta record.
        let mut worker = SketchFile::new(spec, spec.build()).unwrap();
        worker.state.absorb(&shares[1]);
        let delta = worker.delta_bytes();
        let mut client_b = connect(&server);
        match client_b.ingest_bytes(&tenant, delta).expect("delta ingest") {
            Outcome::Ok(_) => {}
            Outcome::Busy { .. } => panic!("delta ingest answered BUSY"),
        }

        let served = answer_of(&client_a.query(&tenant, 3).expect("query"));

        let mut offline = spec.build();
        offline.absorb(&updates);
        let expected = offline.decode_with(&DecodePlan::with_threads(3));
        assert_eq!(served, expected, "{task:?}: served != offline decode");

        // The SNAPSHOT blob must decode to the same answer client-side.
        let blob = client_b.snapshot(&tenant).expect("snapshot");
        let file = SketchFile::from_bytes(&blob).expect("snapshot blob verifies");
        assert_eq!(
            file.decode_with(&DecodePlan::with_threads(3)),
            expected,
            "{task:?}: snapshot decode != offline decode"
        );
    }
    server.shutdown();
}

/// Crash recovery: everything up to the last completed checkpoint
/// survives a kill, everything after it is lost — and the recovered
/// answers are bit-identical to the pre-kill checkpointed ones.
#[test]
fn restart_after_abort_reproduces_checkpointed_answers() {
    let scratch = Scratch::new("recovery");
    let spec = SketchSpec::new(SketchTask::Connectivity, 12).with_seed(0xFEED);
    let updates = churn_updates(12, 7);
    let (first, second) = updates.split_at(updates.len() / 2);

    let server = start_server(scratch.path());
    let mut client = connect(&server);
    client.create("durable", &spec.to_json()).expect("create");
    client
        .ingest_retry("durable", first, Duration::from_secs(10))
        .expect("ingest first half");
    assert_eq!(client.checkpoint("").expect("checkpoint"), 1);
    let checkpointed = answer_of(&client.query("durable", 2).expect("query"));
    // Post-checkpoint ingest that the crash must lose.
    client
        .ingest_retry("durable", second, Duration::from_secs(10))
        .expect("ingest second half");
    let with_tail = answer_of(&client.query("durable", 2).expect("query"));
    drop(client);
    server.abort(); // SIGKILL semantics: no final checkpoint.

    let server = start_server(scratch.path());
    let mut client = connect(&server);
    let recovered = answer_of(&client.query("durable", 2).expect("query after restart"));
    assert_eq!(
        recovered, checkpointed,
        "recovery must reproduce the checkpointed answer exactly"
    );
    // The lost tail really was lost (the two halves differ), so equality
    // above is meaningful.
    let mut full = spec.build();
    full.absorb(&updates);
    assert_eq!(
        with_tail,
        full.decode(),
        "pre-kill state covered the full stream"
    );
    server.shutdown();

    // Graceful shutdown DID checkpoint: a third boot serves the
    // checkpointed (first-half) state — nothing further was ingested
    // after the restart.
    let server = start_server(scratch.path());
    let mut client = connect(&server);
    assert_eq!(
        answer_of(&client.query("durable", 2).expect("query")),
        checkpointed
    );
    server.shutdown();
}

/// `QUERY`, `SNAPSHOT` and `CHECKPOINT` all flush the tenant's absorber
/// and read its one sketch in place. Interleaved with raw and delta
/// ingest and with abort/restart, every `QUERY` must still equal the
/// offline decode of the updates the server holds, and every `SNAPSHOT`
/// the offline `to_bytes`, byte for byte. A step's first query after
/// ingest decodes the base and its repeat is answered from the tenant's
/// memo, so both paths meet the offline decode in one run.
#[test]
fn interleaved_reads_checkpoints_and_restarts_match_the_offline_sketch() {
    let scratch = Scratch::new("drain-on-read");
    let mut server = start_server(scratch.path());
    let mut client = connect(&server);
    for (i, task) in [SketchTask::Connectivity, SketchTask::Mst]
        .into_iter()
        .enumerate()
    {
        let spec = SketchSpec::new(task, 14)
            .with_max_weight(8)
            .with_seed(0xD2A1 + i as u64);
        let name = format!("drain-{}", task.command());
        client.create(&name, &spec.to_json()).expect("create");
        let updates = churn_updates(14, 61 + i as u64);
        // `held` is what the server holds; `durable` the prefix of it
        // covered by the last completed checkpoint.
        let (mut held, mut durable): (Vec<EdgeUpdate>, usize) = (Vec::new(), 0);
        let check = |client: &mut Client, held: &[EdgeUpdate], step: usize| {
            let mut offline = spec.build();
            offline.absorb(held);
            let answer = offline.decode_with(&DecodePlan::with_threads(2));
            let bytes = SketchFile::new(spec, offline).unwrap().to_bytes();
            let query = |c: &mut Client| answer_of(&c.query(&name, 2).expect("query"));
            // Alternate which read flushes first; the repeated query is a
            // memo hit.
            if step.is_multiple_of(2) {
                assert_eq!(query(client), answer, "{task:?} step {step}: query");
                assert_eq!(
                    client.snapshot(&name).unwrap(),
                    bytes,
                    "{task:?} step {step}"
                );
            } else {
                assert_eq!(
                    client.snapshot(&name).unwrap(),
                    bytes,
                    "{task:?} step {step}"
                );
                assert_eq!(query(client), answer, "{task:?} step {step}: query");
            }
            assert_eq!(query(client), answer, "{task:?} step {step}: repeat");
        };
        for (step, chunk) in updates.chunks(23).enumerate() {
            if step % 3 == 1 {
                let mut site = SketchFile::new(spec, spec.build()).unwrap();
                site.state.absorb(chunk);
                match client.ingest_bytes(&name, site.delta_bytes()).unwrap() {
                    Outcome::Ok(_) => {}
                    Outcome::Busy { .. } => panic!("delta ingest answered BUSY"),
                }
            } else {
                client
                    .ingest_retry(&name, chunk, Duration::from_secs(10))
                    .expect("raw ingest");
            }
            held.extend_from_slice(chunk);
            check(&mut client, &held, step);
            if step % 4 == 2 {
                assert_eq!(client.checkpoint(&name).expect("checkpoint"), 1);
                durable = held.len();
                check(&mut client, &held, step);
            }
            if step % 5 == 4 {
                // A crash loses exactly what the last checkpoint missed.
                drop(client);
                server.abort();
                server = start_server(scratch.path());
                client = connect(&server);
                held.truncate(durable);
                check(&mut client, &held, step);
            }
        }
    }
    server.shutdown();
}

/// A corrupt checkpoint costs one tenant (quarantined, typed log), never
/// the service: healthy tenants recover next to it.
#[test]
fn corrupt_state_files_are_quarantined_not_fatal() {
    let scratch = Scratch::new("quarantine");
    let spec = SketchSpec::new(SketchTask::Connectivity, 10).with_seed(1);
    {
        let server = start_server(scratch.path());
        let mut client = connect(&server);
        client.create("good", &spec.to_json()).expect("create");
        server.shutdown();
    }
    // A damaged sibling: right name shape, garbage bytes.
    std::fs::write(scratch.path().join("evil.state"), b"AGMSKB2\n****corrupt").unwrap();
    // And a sketch file of the retired JSON format 1, which is no longer
    // a state file either.
    std::fs::write(
        scratch.path().join("legacy.state"),
        include_str!("fixtures/v1_connectivity_n2.json"),
    )
    .unwrap();

    let server = start_server(scratch.path());
    let mut client = connect(&server);
    let stats = client.stats("").expect("stats");
    let value = Value::from_json(&stats).expect("stats JSON");
    let stats = frame::ServiceStats::from_value(&value).expect("stats schema");
    assert_eq!(stats.tenants, 1, "only the healthy tenant recovered");
    assert_eq!(stats.per_tenant[0].name, "good");
    for name in ["evil", "legacy"] {
        assert!(
            scratch
                .path()
                .join(format!("{name}.state.quarantined"))
                .exists(),
            "{name}: corrupt file is renamed aside for inspection"
        );
        assert!(!scratch.path().join(format!("{name}.state")).exists());
    }
    server.shutdown();
}

/// Raw-socket hostility: oversized length prefixes, garbage bodies,
/// unknown opcodes, truncated frames, and corrupt wire payloads must all
/// come back as typed refusals (or a closed connection where the framing
/// itself is lost) — and the server must keep serving afterwards.
#[test]
fn hostile_frames_get_typed_errors_and_never_kill_the_server() {
    let scratch = Scratch::new("hostile");
    let server = start_server(scratch.path());
    let addr = server.tcp_addr().unwrap().to_string();

    // 1. A frame declaring more than the cap: best-effort typed refusal,
    //    then the connection closes (the framing is lost).
    {
        let mut raw = TcpStream::connect(&addr).unwrap();
        use std::io::Write;
        raw.write_all(&(u32::MAX).to_le_bytes()).unwrap();
        raw.flush().unwrap();
        let resp = frame::read_frame(&mut raw, frame::MAX_FRAME)
            .expect("server answers before closing")
            .expect("a refusal frame");
        match Response::decode(&resp).unwrap() {
            Response::Err { code, .. } => assert_eq!(code, ErrCode::Malformed),
            other => panic!("expected ERR, got {other:?}"),
        }
        assert!(
            matches!(frame::read_frame(&mut raw, frame::MAX_FRAME), Ok(None)),
            "connection closes after an oversized frame"
        );
    }
    // 2. A well-framed garbage body: typed error, connection survives
    //    and answers a PING next.
    {
        let mut raw = TcpStream::connect(&addr).unwrap();
        frame::write_frame(&mut raw, b"\xFF\xFF total garbage", frame::MAX_FRAME).unwrap();
        let resp = frame::read_frame(&mut raw, frame::MAX_FRAME)
            .unwrap()
            .unwrap();
        match Response::decode(&resp).unwrap() {
            Response::Err { code, corr, .. } => {
                assert_eq!(code, ErrCode::Malformed);
                assert_eq!(corr, 0, "unparseable request: correlation unknown");
            }
            other => panic!("expected ERR, got {other:?}"),
        }
        let ping = Request {
            corr: 42,
            op: Opcode::Ping,
            tenant: String::new(),
            payload: b"still-alive".to_vec(),
        };
        frame::write_frame(&mut raw, &ping.encode(), frame::MAX_FRAME).unwrap();
        let resp = frame::read_frame(&mut raw, frame::MAX_FRAME)
            .unwrap()
            .unwrap();
        match Response::decode(&resp).unwrap() {
            Response::Ok { corr, payload } => {
                assert_eq!(corr, 42);
                assert_eq!(payload, b"still-alive");
            }
            other => panic!("expected OK, got {other:?}"),
        }
    }
    // 3. A truncated frame followed by a hangup: the server just drops
    //    the connection; the listener keeps accepting.
    {
        let mut raw = TcpStream::connect(&addr).unwrap();
        use std::io::Write;
        raw.write_all(&100u32.to_le_bytes()).unwrap();
        raw.write_all(b"only a few bytes").unwrap();
        drop(raw);
    }
    // 4. Typed tenant/payload errors through the real client.
    {
        let spec = SketchSpec::new(SketchTask::Connectivity, 8).with_seed(2);
        let mut client = connect(&server);
        let refused = |e: gs_serve::ClientError, want: ErrCode| match e {
            gs_serve::ClientError::Server { code, .. } => assert_eq!(code, want),
            other => panic!("expected a typed server refusal, got {other}"),
        };
        refused(client.query("ghost", 1).unwrap_err(), ErrCode::NoSuchTenant);
        refused(
            client.create("../evil", &spec.to_json()).unwrap_err(),
            ErrCode::BadTenantName,
        );
        client.create("t", &spec.to_json()).expect("create");
        refused(
            client.create("t", &spec.to_json()).unwrap_err(),
            ErrCode::TenantExists,
        );
        refused(
            client.create("t2", "{\"not\": \"a spec\"}").unwrap_err(),
            ErrCode::Malformed,
        );
        // A corrupt delta record: the wire taxonomy surfaces remotely.
        let mut worker = SketchFile::new(spec, spec.build()).unwrap();
        worker.state.absorb(&[EdgeUpdate::insert(0, 1)]);
        let mut delta = worker.delta_bytes();
        let at = delta.len() - 9;
        delta[at] ^= 0xFF;
        refused(client.ingest_bytes("t", delta).unwrap_err(), ErrCode::Wire);
    }
    server.shutdown();
}

/// The connection cap answers excess connections with a protocol-level
/// `BUSY` frame instead of queueing them without bound.
#[test]
fn connection_cap_answers_busy() {
    let scratch = Scratch::new("conncap");
    let server = Server::start(ServeConfig {
        state_dir: scratch.path().to_path_buf(),
        tcp: Some("127.0.0.1:0".into()),
        checkpoint_every: Duration::ZERO,
        max_connections: 1,
        quiet: true,
        ..ServeConfig::default()
    })
    .expect("server start");
    let addr = server.tcp_addr().unwrap().to_string();

    // Occupy the only slot with a live conversation.
    let mut holder = Client::connect_tcp(&addr).unwrap();
    holder.ping(b"hold").expect("holder is served");

    // The next connection is told BUSY (corr 0: no request was read).
    let mut refused = TcpStream::connect(&addr).unwrap();
    let resp = frame::read_frame(&mut refused, frame::MAX_FRAME)
        .expect("busy frame")
        .expect("busy frame body");
    match Response::decode(&resp).unwrap() {
        Response::Busy {
            corr,
            retry_after_ms,
        } => {
            assert_eq!(corr, 0);
            assert!(retry_after_ms > 0);
        }
        other => panic!("expected BUSY, got {other:?}"),
    }
    drop(holder);
    // Once the slot frees, new connections are served again.
    let served = (0..50).any(|_| {
        std::thread::sleep(Duration::from_millis(20));
        Client::connect_tcp(&addr)
            .and_then(|mut c| c.ping(b"again"))
            .is_ok()
    });
    assert!(served, "the freed slot accepts again");
    server.shutdown();
}

/// One tenant's `STATS` entry.
fn tenant_stats(client: &mut Client, name: &str) -> TenantStats {
    let stats = client.stats(name).expect("stats");
    let stats = ServiceStats::from_value(&Value::from_json(&stats).expect("stats JSON"))
        .expect("stats schema");
    stats
        .per_tenant
        .into_iter()
        .next()
        .expect("the tenant's entry")
}

/// Regression: a checkpoint followed by a restart laundered lane-overflow
/// poison. v2 carries no poison mark and a load clears it, so a poisoned
/// tenant persisted its wrapped counters and came back from a restart
/// answering from them as if they were sound. `CHECKPOINT` and
/// `SNAPSHOT` of a poisoned tenant now answer a typed error, its last
/// good state file stays as it was, and a restart recovers that.
#[test]
fn poisoned_tenant_refuses_checkpoint_and_snapshot_and_restarts_from_its_last_good_state() {
    let scratch = Scratch::new("poison");
    let spec = SketchSpec::new(SketchTask::Connectivity, 8).with_seed(0xB0B);
    let path = scratch.path().join("p.state");
    let server = start_server(scratch.path());
    let mut client = connect(&server);
    client.create("p", &spec.to_json()).expect("create");
    let last_good = std::fs::read(&path).expect("CREATE checkpoints");
    let wrap = EdgeUpdate {
        u: 0,
        v: 1,
        delta: i64::MAX,
    };
    for update in [wrap, wrap, EdgeUpdate::insert(2, 3)] {
        client
            .ingest_retry("p", &[update], Duration::from_secs(10))
            .expect("raw ingest");
    }
    // Both refusals flush the absorber first, so the overflow has
    // reached the base by the time either encodes it.
    let refusals = [
        client.checkpoint("p").map(|_| ()),
        client.snapshot("p").map(|_| ()),
    ];
    for refused in refusals {
        match refused {
            Err(ClientError::Server { code, msg }) => {
                assert_eq!(code, ErrCode::Wire, "{msg}");
                assert!(msg.contains("bank") && msg.contains("overflow"), "{msg}");
            }
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    }
    // An all-tenant CHECKPOINT logs the failure and persists nothing.
    assert_eq!(client.checkpoint("").expect("checkpoint all"), 0);
    let stats = tenant_stats(&mut client, "p");
    assert!(stats.dirty, "a refused checkpoint leaves the tenant dirty");
    assert_eq!(stats.lane_overflows, 1);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        last_good,
        "old file untouched"
    );
    drop(client);
    server.abort();

    let server = start_server(scratch.path());
    let mut client = connect(&server);
    assert_eq!(tenant_stats(&mut client, "p").lane_overflows, 0);
    assert_eq!(
        answer_of(&client.query("p", 1).expect("query")),
        spec.build().decode(),
        "the restart recovers the CREATE-time empty state"
    );
    assert_eq!(client.snapshot("p").expect("snapshot"), last_good);
    server.shutdown();
}

/// A QUERY of a tenant poisoned by a lane overflow is refused with
/// `ERR wire`, as CHECKPOINT and SNAPSHOT refuse it. It used to decode the
/// wrapped lanes: fed (0, 1, i64::MAX) twice and then (2, 3), an n = 8
/// connectivity tenant answered with the forest [[2, 3]], silently
/// dropping edge (0, 1). A unit-bound spec holds `w` as `i32`, so one
/// update of |Δ| = 2^31 poisons it too. The memo, armed by a clean answer
/// first, must never serve an answer across the poison.
#[test]
fn poisoned_tenant_refuses_query_instead_of_decoding_wrapped_lanes() {
    let scratch = Scratch::new("poison-query");
    let server = start_server(scratch.path());
    let mut client = connect(&server);
    let wrap = |delta| EdgeUpdate { u: 0, v: 1, delta };
    let feeds = [
        ("twice", vec![wrap(i64::MAX), wrap(i64::MAX)]),
        ("once", vec![wrap(1 << 31)]),
    ];
    for (name, feed) in feeds {
        let spec = SketchSpec::new(SketchTask::Connectivity, 8).with_seed(0xB0B);
        client.create(name, &spec.to_json()).expect("create");
        let warm = [EdgeUpdate::insert(4, 5)];
        client
            .ingest_retry(name, &warm, Duration::from_secs(10))
            .expect("raw ingest");
        let mut clean = spec.build();
        clean.absorb(&warm);
        assert_eq!(
            answer_of(&client.query(name, 1).expect("clean query")),
            clean.decode(),
            "{name}"
        );
        for update in feed.into_iter().chain([EdgeUpdate::insert(2, 3)]) {
            client
                .ingest_retry(name, &[update], Duration::from_secs(10))
                .expect("raw ingest");
        }
        for _ in 0..2 {
            match client.query(name, 1) {
                Err(ClientError::Server { code, msg }) => {
                    assert_eq!(code, ErrCode::Wire, "{name}: {msg}");
                    assert!(msg.contains("bank") && msg.contains("overflow"), "{msg}");
                }
                other => panic!("{name}: expected a typed refusal, got {other:?}"),
            }
        }
        let stats = tenant_stats(&mut client, name);
        assert_eq!(stats.lane_overflows, 1, "{name}");
        assert_eq!(stats.decode_cache_hits, 0, "{name}: no memo hit");
    }
    server.shutdown();
}

/// A freshly created tenant is the zero sketch. Its state file has the
/// full v2 length, but only the blocks holding its header and trailer
/// are written: every all-zero block of the stream is a hole. Linux
/// only: allocated blocks come from `stat`.
#[cfg(target_os = "linux")]
#[test]
fn created_tenant_state_file_is_sparse_and_recovers() {
    use std::os::unix::fs::MetadataExt;
    let scratch = Scratch::new("sparse");
    // The ladder's ingest-powerlaw tenant. Its SNAPSHOT (86 MiB) exceeds
    // the default frame cap, so both ends of this test raise it.
    let spec = SketchSpec::new(SketchTask::Connectivity, 4096);
    let max_frame = 128 << 20;
    let start = || {
        Server::start(ServeConfig {
            state_dir: scratch.path().to_path_buf(),
            tcp: Some("127.0.0.1:0".into()),
            checkpoint_every: Duration::ZERO,
            max_frame,
            quiet: true,
            ..ServeConfig::default()
        })
        .expect("server start")
    };
    let server = start();
    connect(&server)
        .create("big", &spec.to_json())
        .expect("create");
    let path = scratch.path().join("big.state");
    let meta = std::fs::metadata(&path).expect("CREATE checkpoints");
    assert_eq!(meta.len(), 90_439_806, "the full v2 length");
    let allocated = meta.blocks() * 512;
    assert!(
        allocated < 1 << 20,
        "an empty tenant's state file allocates {allocated} B"
    );

    let mut raw = TcpStream::connect(server.tcp_addr().unwrap()).unwrap();
    let snapshot = Request {
        corr: 1,
        op: Opcode::Snapshot,
        tenant: "big".into(),
        payload: Vec::new(),
    };
    frame::write_frame(&mut raw, &snapshot.encode(), max_frame).unwrap();
    let body = frame::read_frame(&mut raw, max_frame).unwrap().unwrap();
    match Response::decode(&body).unwrap() {
        Response::Ok { payload, .. } => assert!(
            std::fs::read(&path).unwrap() == payload,
            "the state file's bytes are the SNAPSHOT"
        ),
        other => panic!("expected OK, got {other:?}"),
    }
    drop((raw, body));
    server.abort();

    let server = start();
    let answer = answer_of(
        &connect(&server)
            .query("big", 2)
            .expect("query after restart"),
    );
    assert_eq!(
        answer,
        spec.build().decode_with(&DecodePlan::with_threads(2))
    );
    server.shutdown();
}

/// An ingest refusal from a corrupt delta leaves the tenant exactly as
/// it was: the typed error is all-or-nothing at the protocol layer too.
#[test]
fn refused_ingest_leaves_served_answers_unchanged() {
    let scratch = Scratch::new("atomic");
    let server = start_server(scratch.path());
    let spec = SketchSpec::new(SketchTask::Connectivity, 10).with_seed(9);
    let updates = churn_updates(10, 31);
    let mut client = connect(&server);
    client.create("t", &spec.to_json()).expect("create");
    client
        .ingest_retry("t", &updates, Duration::from_secs(10))
        .expect("ingest");
    let before = answer_of(&client.query("t", 1).expect("query"));

    let mut worker = SketchFile::new(spec, spec.build()).unwrap();
    worker.state.absorb(&updates);
    let mut delta = worker.delta_bytes();
    let last = delta.len() - 1;
    delta[last] ^= 0x5A; // breaks the trailing checksum
    assert!(client.ingest_bytes("t", delta).is_err());

    let after = answer_of(&client.query("t", 1).expect("query"));
    assert_eq!(after, before, "refused delta must leave no residue");
    server.shutdown();
}

/// The tenant's answer memo, the system's only decode cache, as `STATS`
/// reports it (the serving ladder tells fresh queries from memo hits by
/// `decode_cache_hits`). A repeat `QUERY` is one hit at any thread
/// count; `CHECKPOINT`, `SNAPSHOT` and a refused `INGEST` leave the memo
/// armed; a raw and a delta `INGEST` each invalidate it exactly once; a
/// restarted server starts without one. Every answer, hit or miss,
/// equals the offline decode of what the tenant holds.
#[test]
fn tenant_memo_hits_and_invalidations_follow_counted_ingest() {
    let scratch = Scratch::new("memo");
    let spec = SketchSpec::new(SketchTask::Connectivity, 12).with_seed(0x3E30);
    let updates = churn_updates(12, 71);
    let chunks: Vec<&[EdgeUpdate]> = updates.chunks(updates.len().div_ceil(3)).collect();
    let mut server = start_server(scratch.path());
    let mut client = connect(&server);
    client.create("m", &spec.to_json()).expect("create");
    let mut held: Vec<EdgeUpdate> = Vec::new();
    // Queries `m` at `threads` and checks the answer against the offline
    // decode of `held`, then the memo counters (hits, invalidations).
    let query = |client: &mut Client, held: &[EdgeUpdate], threads: u32, want: (u64, u64)| {
        let mut offline = spec.build();
        offline.absorb(held);
        let expected = offline.decode_with(&DecodePlan::with_threads(threads as usize));
        let served = answer_of(&client.query("m", threads).expect("query"));
        assert_eq!(served, expected, "served != offline at {want:?}");
        let stats = tenant_stats(client, "m");
        assert_eq!(
            (stats.decode_cache_hits, stats.decode_cache_invalidations),
            want
        );
    };

    client
        .ingest_retry("m", chunks[0], Duration::from_secs(10))
        .expect("raw ingest");
    held.extend_from_slice(chunks[0]);
    // The first decode replaces no memo; repeats hit at any width.
    query(&mut client, &held, 2, (0, 0));
    query(&mut client, &held, 2, (1, 0));
    query(&mut client, &held, 1, (2, 0));
    // Reads and refusals do not move the key.
    assert_eq!(client.checkpoint("m").expect("checkpoint"), 1);
    query(&mut client, &held, 3, (3, 0));
    client.snapshot("m").expect("snapshot");
    query(&mut client, &held, 2, (4, 0));
    let self_loop = [EdgeUpdate::insert(4, 4)];
    match client.ingest_retry("m", &self_loop, Duration::from_secs(10)) {
        Err(ClientError::Server {
            code: ErrCode::Update,
            ..
        }) => {}
        other => panic!("a self-loop must be refused with ERR update, got {other:?}"),
    }
    query(&mut client, &held, 2, (5, 0));
    // A raw batch and a delta record each invalidate once.
    client
        .ingest_retry("m", chunks[1], Duration::from_secs(10))
        .expect("raw ingest");
    held.extend_from_slice(chunks[1]);
    query(&mut client, &held, 2, (5, 1));
    query(&mut client, &held, 2, (6, 1));
    let mut site = SketchFile::new(spec, spec.build()).unwrap();
    site.state.absorb(chunks[2]);
    match client.ingest_bytes("m", site.delta_bytes()).expect("delta") {
        Outcome::Ok(_) => {}
        Outcome::Busy { .. } => panic!("delta ingest answered BUSY"),
    }
    held.extend_from_slice(chunks[2]);
    query(&mut client, &held, 2, (6, 2));
    query(&mut client, &held, 1, (7, 2));
    // A restarted tenant has no memo: its first query decodes.
    assert_eq!(client.checkpoint("m").expect("checkpoint"), 1);
    drop(client);
    server.abort();
    server = start_server(scratch.path());
    let mut client = connect(&server);
    query(&mut client, &held, 2, (0, 0));
    query(&mut client, &held, 2, (1, 0));
    server.shutdown();
}

/// Regression for task bounds on served ingest: raw `INGEST` used to
/// check only Definition 1, so an MST tenant acknowledged a weight above
/// its `max_weight`, its ingest worker then panicked on it and every
/// later `QUERY` of the tenant closed the connection; a subgraphs tenant
/// acknowledged a non-unit weight and encoded it into the wrong bitmask
/// bit. Both batches must be refused whole, before anything is
/// acknowledged, and both tenants must keep answering.
#[test]
fn task_bound_violations_are_refused_before_ingest_is_acknowledged() {
    let scratch = Scratch::new("bounds");
    let server = start_server(scratch.path());
    let mut client = connect(&server);
    let deadline = Duration::from_secs(10);
    let refused = |outcome: Result<(), ClientError>, what: &str| match outcome {
        Err(ClientError::Server {
            code: ErrCode::Update,
            msg,
        }) => msg,
        other => panic!("{what} must be refused with ERR update, got {other:?}"),
    };

    let mst = SketchSpec::new(SketchTask::Mst, 8)
        .with_max_weight(64)
        .with_seed(5);
    client.create("mst", &mst.to_json()).expect("create");
    let fine = [EdgeUpdate::weighted(2, 3, 64, 1)];
    client.ingest_retry("mst", &fine, deadline).expect("ingest");
    let heavy = [
        EdgeUpdate::weighted(0, 1, 7, 1),
        EdgeUpdate::weighted(0, 1, 100, 1),
    ];
    let msg = refused(client.ingest_retry("mst", &heavy, deadline), "weight 100");
    assert!(msg.contains("update 1 of batch"), "{msg}");
    let mut offline = mst.build();
    offline.absorb(&fine);
    let served = client.query("mst", 1).expect("the tenant still answers");
    assert_eq!(
        answer_of(&served),
        offline.decode(),
        "no residue of the batch"
    );

    let sub = SketchSpec::new(SketchTask::Subgraphs, 6).with_seed(7);
    client.create("sub", &sub.to_json()).expect("create");
    let triple = [EdgeUpdate {
        u: 0,
        v: 1,
        delta: 3,
    }];
    refused(client.ingest_retry("sub", &triple, deadline), "weight 3");
    let served = client.query("sub", 1).expect("the tenant still answers");
    assert_eq!(answer_of(&served), sub.build().decode());
    server.shutdown();
}

/// Regression (slow-client framing): a client that trickles a frame a
/// few bytes at a time, pausing longer than the server's 100 ms read
/// timeout between writes, must still be served. Before the fix the
/// per-connection reader restarted the frame on every idle tick, so a
/// slow-but-live client was dropped mid-frame.
#[test]
fn slow_client_trickling_one_frame_is_served() {
    use std::io::Write;

    let scratch = Scratch::new("trickle");
    let server = start_server(scratch.path());
    let addr = server.tcp_addr().unwrap().to_string();
    let mut stream = TcpStream::connect(&addr).unwrap();

    let body = Request {
        corr: 7,
        op: Opcode::Ping,
        tenant: String::new(),
        payload: b"slowly".to_vec(),
    }
    .encode();
    let mut wire = (body.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&body);

    // Dribble the frame in 3-byte slices, sleeping well past the
    // server's read timeout so several idle ticks land mid-frame.
    for piece in wire.chunks(3) {
        stream.write_all(piece).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(150));
    }

    let resp = frame::read_frame(&mut stream, frame::MAX_FRAME)
        .expect("response frame")
        .expect("server kept the slow connection");
    match Response::decode(&resp).unwrap() {
        Response::Ok { corr, payload } => {
            assert_eq!(corr, 7);
            assert_eq!(payload, b"slowly");
        }
        other => panic!("expected OK pong, got {other:?}"),
    }
    server.shutdown();
}

/// Regression: a response too large for a frame closed the connection
/// without a reply. It is now refused with a typed `ERR wire` on a
/// connection that goes on serving: `SNAPSHOT` before its blob is
/// encoded (its memory bound is pinned in
/// `integration_serve_memory_snapshot`), any other response once it is
/// encoded.
#[test]
fn responses_over_the_frame_cap_get_a_typed_error_and_the_connection_serves_on() {
    let scratch = Scratch::new("framecap");
    let max_frame = 2048;
    let server = Server::start(ServeConfig {
        state_dir: scratch.path().to_path_buf(),
        tcp: Some("127.0.0.1:0".into()),
        checkpoint_every: Duration::ZERO,
        max_frame,
        quiet: true,
        ..ServeConfig::default()
    })
    .expect("server start");
    let mut client = connect(&server);
    let spec = SketchSpec::new(SketchTask::Connectivity, 8).with_seed(5);
    let framed = SketchFile::new(spec, spec.build())
        .unwrap()
        .to_bytes()
        .len()
        + 10;
    assert!(framed > max_frame);
    let refused = |outcome: Result<(), ClientError>, what: &str| match outcome {
        Err(ClientError::Server { code, msg }) => {
            assert_eq!(code, ErrCode::Wire, "{msg}");
            assert!(msg.starts_with(what), "{msg}");
            assert!(
                msg.ends_with(&format!("exceeds the frame cap of {max_frame} B")),
                "{msg}"
            );
            msg
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    };

    client.create("t0", &spec.to_json()).expect("create");
    let msg = refused(client.snapshot("t0").map(|_| ()), "snapshot");
    assert!(msg.starts_with(&format!("snapshot of {framed} B")), "{msg}");
    assert_eq!(
        client.ping(b"alive").expect("ping after SNAPSHOT"),
        b"alive"
    );

    // Tenants until the service-wide STATS answer outgrows the cap.
    let mut outgrown = Ok(());
    for i in 1..64 {
        if let Err(e) = client.stats("") {
            outgrown = Err(e);
            break;
        }
        client
            .create(&format!("t{i}"), &spec.to_json())
            .expect("create");
    }
    refused(outgrown, "response of");
    assert_eq!(client.ping(b"again").expect("ping after STATS"), b"again");
    assert!(client.stats("t0").is_ok(), "one tenant's STATS still fits");
    server.shutdown();
}

/// Regression: `start` spawned the TCP accept thread before it bound the
/// Unix listener. When the Unix bind failed (a live server holds the
/// path), `start` returned an error and left the TCP listener serving
/// the tenants it had just recovered, with nothing able to stop it.
#[cfg(unix)]
#[test]
fn a_failed_start_leaves_no_listener_behind() {
    let scratch = Scratch::new("failedstart");
    let sock = scratch.path().join("live.sock");
    let config = |dir: &str, tcp: Option<String>| ServeConfig {
        state_dir: scratch.path().join(dir),
        tcp,
        unix: Some(sock.clone()),
        checkpoint_every: Duration::ZERO,
        quiet: true,
        ..ServeConfig::default()
    };
    let live = Server::start(config("live", None)).expect("live server");
    // A port nothing listens on once this reservation is dropped.
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("a free port")
        .port();
    match Server::start(config("second", Some(format!("127.0.0.1:{port}")))) {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::AddrInUse, "{e}"),
        Ok(_) => panic!("a second server took a live server's Unix path"),
    }
    assert!(
        TcpStream::connect(("127.0.0.1", port)).is_err(),
        "the failed start left its TCP listener accepting"
    );
    live.shutdown();
}

/// Accept threads block in `accept`, and stopping wakes each one through
/// its own listener. `shutdown`, `abort` and drop each return within a
/// second on every listener kind (a TCP listener on the unspecified
/// address is woken through loopback), whether no client ever connected
/// or an idle one is still connected; and one Unix path serves a loop of
/// starts and aborts.
#[test]
fn stopping_returns_promptly_on_every_listener() {
    let scratch = Scratch::new("stop");
    let mut listeners = vec![(Some("127.0.0.1:0"), None), (Some("0.0.0.0:0"), None)];
    #[cfg(unix)]
    listeners.push((None, Some(scratch.path().join("stop.sock"))));
    let start = |tcp: Option<&str>, unix: &Option<PathBuf>| {
        Server::start(ServeConfig {
            state_dir: scratch.path().join("state"),
            tcp: tcp.map(str::to_string),
            unix: unix.clone(),
            quiet: true,
            ..ServeConfig::default()
        })
        .expect("server start")
    };
    for (tcp, unix) in &listeners {
        for idle_client in [false, true] {
            for stop in ["shutdown", "abort", "drop"] {
                let server = start(*tcp, unix);
                // A Unix listener is reached through a hard link, which
                // outlives the socket file the server removes on stop.
                let connect: Box<dyn Fn() -> Result<Client, ClientError>> =
                    match (server.tcp_addr(), server.unix_path()) {
                        (Some(addr), _) => {
                            let addr = format!("127.0.0.1:{}", addr.port());
                            Box::new(move || Client::connect_tcp(&addr))
                        }
                        #[cfg(unix)]
                        (None, Some(path)) => {
                            let link = path.with_extension("link");
                            let _ = std::fs::remove_file(&link);
                            std::fs::hard_link(path, &link).expect("link the socket");
                            Box::new(move || Client::connect_unix(&link))
                        }
                        _ => unreachable!("one listener is bound"),
                    };
                let client = idle_client.then(|| {
                    let mut client = connect().expect("connect");
                    client.ping(b"idle").expect("ping");
                    client
                });
                let started = std::time::Instant::now();
                match stop {
                    "shutdown" => server.shutdown(),
                    "abort" => server.abort(),
                    _ => drop(server),
                }
                let took = started.elapsed();
                let case = format!("{stop} of {tcp:?} {unix:?} (idle client: {idle_client})");
                assert!(took < Duration::from_secs(1), "{case} took {took:?}");
                // The accept thread was joined, so its listener is closed.
                assert!(connect().is_err(), "{case}: the listener still accepts");
                drop(client);
            }
        }
    }
    #[cfg(unix)]
    {
        let unix = Some(scratch.path().join("loop.sock"));
        for round in 0..20 {
            let server = start(None, &unix);
            let started = std::time::Instant::now();
            server.abort();
            let took = started.elapsed();
            assert!(took < Duration::from_secs(1), "round {round}: {took:?}");
        }
    }
}
