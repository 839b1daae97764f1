//! The resident server: listeners, tenant registry, checkpointing, and
//! crash recovery.
//!
//! ## Threads
//!
//! One accept thread per listener (TCP, Unix socket) hands each accepted
//! connection to its own handler thread, bounded by
//! [`ServeConfig::max_connections`] — a connection over the cap is
//! answered with a typed `BUSY` frame and closed, never queued without
//! bound. Handler threads block on frame reads with a short timeout so
//! they notice shutdown within one idle tick. A periodic checkpoint
//! thread persists dirty tenants; [`Server::shutdown`] performs a final
//! checkpoint, [`Server::abort`] (and `Drop`) deliberately does not —
//! that is what the crash-recovery tests use to simulate a SIGKILL.
//!
//! ## Consistency model
//!
//! Each tenant owns a checkpoint *base* ([`SketchFile`]) plus a sharded
//! [`SketchEngine`]. Delta records fold directly into the base; raw
//! update batches flow through the engine. Sketch linearity makes the
//! split sound, and it also means moving an engine shard's contents into
//! the base never changes an answer. So `QUERY`, `SNAPSHOT` and
//! `CHECKPOINT` share one read path: drain the engine into the base in
//! place ([`SketchEngine::drain_into`], which resets each drained shard)
//! and then decode, encode or persist the base itself — bit-identical to
//! a single-process decode of the same update multiset, in any arrival
//! order, with no per-request copy of any sketch. A checkpoint writes the
//! drained base with the wire-v2 write-then-rename discipline, so an
//! interrupted checkpoint leaves the previous file intact and a recovered
//! server replays exactly the state of the last completed checkpoint.

use graph_sketches::api::{SketchAnswer, SketchSpec};
use graph_sketches::frame::{
    self, ErrCode, FrameError, Opcode, Request, Response, ServiceStats, TenantStats,
};
use graph_sketches::wire::{self, SketchDelta, WireError};
use graph_sketches::AnySketch;
use graph_sketches::SketchFile;
use gs_sketch::par::DecodePlan;
use gs_sketch::{BankStamp, DecodeCache, LinearSketch};
use gs_stream::engine::{BudgetClaim, EngineConfig, OfferError, SketchEngine, WorkerBudget};
use serde::Serialize;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread;
use std::time::{Duration, Instant};

/// How a [`Server`] is stood up.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Directory of tenant checkpoint files (`<tenant>.state`); created
    /// if absent, scanned for recovery at startup.
    pub state_dir: PathBuf,
    /// TCP bind address (e.g. `127.0.0.1:0`); `None` = no TCP listener.
    pub tcp: Option<String>,
    /// Unix-socket path; `None` = no Unix listener. A stale socket file
    /// left by a killed server is detected (nothing accepts on it) and
    /// replaced.
    pub unix: Option<PathBuf>,
    /// Process-wide engine worker budget shared by all tenants
    /// (0 = [`gs_stream::engine::default_workers`]).
    pub worker_budget: usize,
    /// Cap on simultaneous client connections across all listeners.
    pub max_connections: usize,
    /// Checkpoint period. [`Duration::ZERO`] disables the periodic
    /// thread — tenants then persist only on `CREATE`, explicit
    /// `CHECKPOINT` frames, and graceful shutdown (how the recovery
    /// tests control durability points exactly).
    pub checkpoint_every: Duration,
    /// The retry delay suggested by `BUSY` responses, milliseconds.
    pub retry_after_ms: u32,
    /// Frame body cap for this server (see [`frame::MAX_FRAME`]).
    pub max_frame: usize,
    /// Suppress stderr logging (tests, benches).
    pub quiet: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            state_dir: PathBuf::from("gs-state"),
            tcp: None,
            unix: None,
            worker_budget: 0,
            max_connections: 64,
            checkpoint_every: Duration::from_secs(2),
            retry_after_ms: 25,
            max_frame: frame::MAX_FRAME,
            quiet: false,
        }
    }
}

/// One resident tenant: the durable base, the hot engine, and counters.
struct Tenant {
    name: String,
    /// Checkpoint base: the spec plus every update already drained out
    /// of the engine or applied from delta records.
    base: SketchFile,
    /// Hot path for raw update batches.
    engine: SketchEngine<AnySketch>,
    /// The engine's workers, claimed from the process-wide budget;
    /// holding the claim for the tenant's lifetime is what returns the
    /// workers to the pool when the tenant drops.
    _claim: BudgetClaim,
    /// `true` iff state has changed since the last completed checkpoint.
    dirty: bool,
    /// Set by `DROP`, under this tenant's lock, before its state file is
    /// deleted: a checkpoint that took an `Arc` to the tenant earlier
    /// must not write the file back.
    dropped: bool,
    updates_ingested: u64,
    deltas_applied: u64,
    busy_rejections: u64,
    /// Memoized `QUERY` answers, keyed on the ingest counters above: a
    /// query between two ingests is answered without draining or
    /// decoding anything. Draining the engine into the base changes
    /// neither counter nor the tenant's total state, so the memo survives
    /// queries' and checkpoints' drains.
    cache: DecodeCache<SketchAnswer>,
    /// Nanoseconds spent serving the `QUERY` frames the cache answered.
    cached_answer_ns: u64,
}

impl Tenant {
    /// Drains the engine into the base in place, so `base` alone carries
    /// the tenant's full state: the one merge path `QUERY`, `SNAPSHOT`
    /// and `CHECKPOINT` share. Engine shards share the base's geometry by
    /// construction, so a merge refusal is an internal invariant
    /// violation (and leaves the refused shard in the engine).
    ///
    /// The base's bank stamps stay monotone across drains: each fold adds
    /// the shard's whole generation count to the base, so the decode memo
    /// kept for the base stays sound while shards restart from zero.
    fn drain_into_base(&mut self) -> Result<(), String> {
        let state = &mut self.base.state;
        self.engine
            .drain_into(|shard| state.try_merge(shard))
            .map_err(|e| format!("engine shard refused to merge into base: {e}"))
    }

    fn stats(&self) -> TenantStats {
        let e = self.engine.stats();
        TenantStats {
            name: self.name.clone(),
            task: self.base.spec.task.command().to_string(),
            n: self.base.spec.n as u64,
            updates_ingested: self.updates_ingested,
            deltas_applied: self.deltas_applied,
            busy_rejections: self.busy_rejections,
            decode_cache_hits: self.cache.hits(),
            decode_cache_invalidations: self.cache.invalidations(),
            cached_answer_ns: self.cached_answer_ns,
            workers: e.workers as u64,
            bytes_resident: (e.bytes_resident + self.base.state.space_bytes()) as u64,
            lane_bytes_resident: (e.lane_bytes_resident + self.base.state.resident_lane_bytes())
                as u64,
            lane_overflows: e.lane_overflows as u64
                + self.base.state.lane_overflow().is_some() as u64,
            dirty: self.dirty,
        }
    }
}

/// State shared by every thread of one server.
struct Shared {
    tenants: RwLock<BTreeMap<String, Arc<Mutex<Tenant>>>>,
    budget: Arc<WorkerBudget>,
    state_dir: PathBuf,
    stop: AtomicBool,
    connections: AtomicU64,
    frames_served: AtomicU64,
    retry_after_ms: u32,
    max_frame: usize,
    quiet: bool,
}

impl Shared {
    fn log(&self, msg: std::fmt::Arguments<'_>) {
        if !self.quiet {
            eprintln!("gs-serve: {msg}");
        }
    }

    /// Registry read access that survives lock poisoning. Request
    /// handlers are panic-free by the no-panic-paths lint, so poison can
    /// only come from a bug outside them — and even then the map (names
    /// to `Arc`'d tenants) tolerates a mid-panic view: insert/remove on
    /// a `BTreeMap` either happened or did not, and per-tenant state is
    /// guarded separately. Refusing all service forever would turn one
    /// dead worker into a full outage.
    fn registry_read(&self) -> RwLockReadGuard<'_, BTreeMap<String, Arc<Mutex<Tenant>>>> {
        self.tenants.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write counterpart of [`Shared::registry_read`]; same poisoning
    /// argument.
    fn registry_write(&self) -> RwLockWriteGuard<'_, BTreeMap<String, Arc<Mutex<Tenant>>>> {
        self.tenants.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Tenant lock that survives poisoning, same argument as
/// [`Shared::registry_read`]: a tenant abandoned mid-mutation stays
/// `dirty`, so the write-then-rename checkpoint discipline still never
/// persists a torn state file.
fn lock_tenant(tenant: &Mutex<Tenant>) -> std::sync::MutexGuard<'_, Tenant> {
    tenant.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The running server. Bind with [`Server::start`], stop with
/// [`Server::shutdown`] (graceful: final checkpoint) or
/// [`Server::abort`] (simulated crash: no checkpoint). Dropping without
/// either behaves like `abort`.
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<thread::JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl Server {
    /// Creates the state directory, recovers the tenant set from it
    /// (checksum-verified; corrupt files are quarantined with a logged
    /// typed error, never a crash), binds the configured listeners, and
    /// spawns the accept + checkpoint threads.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        std::fs::create_dir_all(&config.state_dir)?;
        let budget_size = if config.worker_budget == 0 {
            gs_stream::engine::default_workers()
        } else {
            config.worker_budget
        };
        let shared = Arc::new(Shared {
            tenants: RwLock::new(BTreeMap::new()),
            budget: WorkerBudget::new(budget_size),
            state_dir: config.state_dir.clone(),
            stop: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            frames_served: AtomicU64::new(0),
            retry_after_ms: config.retry_after_ms,
            max_frame: config.max_frame,
            quiet: config.quiet,
        });
        recover_tenants(&shared);

        let max_conns = config.max_connections.max(1);
        let mut threads = Vec::new();
        let mut tcp_addr = None;
        if let Some(addr) = &config.tcp {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            tcp_addr = Some(listener.local_addr()?);
            let shared = Arc::clone(&shared);
            threads.push(
                thread::Builder::new()
                    .name("gs-serve-accept-tcp".into())
                    .spawn(move || accept_loop(listener_tcp(listener), shared, max_conns))?,
            );
        }
        let mut unix_path = None;
        #[cfg(unix)]
        if let Some(path) = &config.unix {
            let listener = bind_unix(path)?;
            listener.set_nonblocking(true)?;
            unix_path = Some(path.clone());
            let shared = Arc::clone(&shared);
            threads.push(
                thread::Builder::new()
                    .name("gs-serve-accept-unix".into())
                    .spawn(move || accept_loop(listener_unix(listener), shared, max_conns))?,
            );
        }
        #[cfg(not(unix))]
        if config.unix.is_some() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "unix-socket listeners need a unix platform",
            ));
        }

        if config.checkpoint_every > Duration::ZERO {
            let shared = Arc::clone(&shared);
            let every = config.checkpoint_every;
            threads.push(
                thread::Builder::new()
                    .name("gs-serve-checkpoint".into())
                    .spawn(move || checkpoint_loop(shared, every))?,
            );
        }

        shared.log(format_args!(
            "serving {} tenant(s), worker budget {budget_size}, state dir {}",
            shared.registry_read().len(),
            config.state_dir.display(),
        ));
        Ok(Server {
            shared,
            threads,
            tcp_addr,
            unix_path,
        })
    }

    /// The bound TCP address (with the OS-chosen port when the config
    /// asked for port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound Unix-socket path.
    pub fn unix_path(&self) -> Option<&Path> {
        self.unix_path.as_deref()
    }

    /// Checkpoints every dirty tenant now; returns how many were
    /// persisted. (What the `CHECKPOINT` frame with an empty tenant
    /// name does.)
    pub fn checkpoint_now(&self) -> usize {
        checkpoint_all(&self.shared)
    }

    /// Graceful stop: refuse new work, drain connections (bounded
    /// wait), take a final checkpoint of every dirty tenant, then
    /// release sockets and threads.
    pub fn shutdown(mut self) {
        self.stop_threads();
        checkpoint_all(&self.shared);
        self.cleanup_paths();
    }

    /// Hard stop *without* the final checkpoint: everything since the
    /// last completed checkpoint is lost, exactly as under SIGKILL.
    /// The recovery tests restart a server over the same state dir
    /// after this and assert the checkpointed answers come back.
    pub fn abort(mut self) {
        self.stop_threads();
        self.cleanup_paths();
    }

    fn stop_threads(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Handler threads are detached; give in-flight frames one idle
        // tick to finish so the final checkpoint sees their effects.
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.shared.connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
    }

    fn cleanup_paths(&mut self) {
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.shared.stop.load(Ordering::SeqCst) {
            self.stop_threads();
            self.cleanup_paths();
        }
    }
}

/// Binds a Unix listener, replacing a stale socket file (one nothing
/// accepts on) but refusing to steal a live server's path.
#[cfg(unix)]
fn bind_unix(path: &Path) -> std::io::Result<UnixListener> {
    if path.exists() {
        if UnixStream::connect(path).is_ok() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AddrInUse,
                format!("{} already has a live server", path.display()),
            ));
        }
        std::fs::remove_file(path)?;
    }
    UnixListener::bind(path)
}

/// One accepted connection, abstracted over the two socket families.
trait Conn: Read + Write + Send {
    fn set_read_timeout_ms(&self, ms: u64) -> std::io::Result<()>;
}

impl Conn for TcpStream {
    fn set_read_timeout_ms(&self, ms: u64) -> std::io::Result<()> {
        self.set_read_timeout(Some(Duration::from_millis(ms)))
    }
}

#[cfg(unix)]
impl Conn for UnixStream {
    fn set_read_timeout_ms(&self, ms: u64) -> std::io::Result<()> {
        self.set_read_timeout(Some(Duration::from_millis(ms)))
    }
}

/// A polling accept source: `Ok(None)` = nothing pending right now.
type AcceptFn = Box<dyn FnMut() -> std::io::Result<Option<Box<dyn Conn>>> + Send>;

fn listener_tcp(listener: TcpListener) -> AcceptFn {
    Box::new(move || match listener.accept() {
        Ok((stream, _)) => {
            // Frames are request/response turns; leaving Nagle on costs
            // a delayed-ACK round (~40 ms) per frame on loopback.
            let _ = stream.set_nodelay(true);
            Ok(Some(Box::new(stream)))
        }
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
        Err(e) => Err(e),
    })
}

#[cfg(unix)]
fn listener_unix(listener: UnixListener) -> AcceptFn {
    Box::new(move || match listener.accept() {
        Ok((stream, _)) => Ok(Some(Box::new(stream))),
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
        Err(e) => Err(e),
    })
}

/// Polls one listener until shutdown, spawning a handler thread per
/// accepted connection. A connection over the cap is told `BUSY` and
/// closed immediately instead of being queued.
fn accept_loop(mut accept: AcceptFn, shared: Arc<Shared>, max_conns: usize) {
    while !shared.stop.load(Ordering::SeqCst) {
        match accept() {
            Ok(Some(mut conn)) => {
                let live = shared.connections.fetch_add(1, Ordering::SeqCst) + 1;
                if live as usize > max_conns {
                    shared.connections.fetch_sub(1, Ordering::SeqCst);
                    let busy = Response::Busy {
                        corr: 0,
                        retry_after_ms: shared.retry_after_ms,
                    };
                    let _ = frame::write_frame(&mut conn, &busy.encode(), shared.max_frame);
                    continue;
                }
                let for_conn = Arc::clone(&shared);
                let spawned =
                    thread::Builder::new()
                        .name("gs-serve-conn".into())
                        .spawn(move || {
                            handle_connection(conn, &for_conn);
                            for_conn.connections.fetch_sub(1, Ordering::SeqCst);
                        });
                if spawned.is_err() {
                    shared.connections.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Ok(None) => thread::sleep(Duration::from_millis(5)),
            Err(e) => {
                shared.log(format_args!("accept failed: {e}"));
                thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Serves one connection until the peer closes, the transport dies, or
/// the server stops. Body-level damage (a frame that does not parse as a
/// request) is answered with a typed error on the still-healthy
/// connection; loss of the length framing itself closes it.
///
/// Reads go through a stateful [`frame::FrameReader`]: the 100 ms read
/// timeout exists to poll the shutdown flag, and a slow client whose
/// frame trickles in across several timeout windows keeps its partial
/// progress parked in the reader instead of being dropped mid-frame.
/// Only shutdown, a clean close, or a genuinely dead transport (EOF or
/// an I/O error mid-frame) ends the connection.
fn handle_connection(mut conn: Box<dyn Conn>, shared: &Shared) {
    if conn.set_read_timeout_ms(100).is_err() {
        return;
    }
    let mut reader = frame::FrameReader::new();
    loop {
        let body = match reader.read(&mut conn, shared.max_frame) {
            Ok(Some(body)) => body,
            Ok(None) => return,
            Err(FrameError::Idle) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(FrameError::TooLarge { declared, max }) => {
                // The body bytes were never read: the framing is lost.
                // Best-effort typed refusal, then close.
                let resp = Response::Err {
                    corr: 0,
                    code: ErrCode::Malformed,
                    msg: format!("frame declares {declared} bytes, the cap is {max}"),
                };
                let _ = frame::write_frame(&mut conn, &resp.encode(), shared.max_frame);
                return;
            }
            Err(_) => return,
        };
        let resp = match Request::decode(&body) {
            Ok(req) => dispatch(shared, req),
            Err(e) => Response::Err {
                corr: 0,
                code: ErrCode::Malformed,
                msg: e.to_string(),
            },
        };
        shared.frames_served.fetch_add(1, Ordering::SeqCst);
        if frame::write_frame(&mut conn, &resp.encode(), shared.max_frame).is_err() {
            return;
        }
    }
}

/// Routes one request to its verb handler; every refusal is a typed
/// error frame, never a panic or a dropped connection.
fn dispatch(shared: &Shared, req: Request) -> Response {
    let corr = req.corr;
    if shared.stop.load(Ordering::SeqCst) {
        return err(corr, ErrCode::Shutdown, "server is shutting down");
    }
    let needs_tenant = !matches!(req.op, Opcode::Ping | Opcode::Stats | Opcode::Checkpoint);
    if needs_tenant && !frame::valid_tenant(&req.tenant) {
        return err(
            corr,
            ErrCode::BadTenantName,
            format!(
                "tenant {:?} is not [A-Za-z0-9][A-Za-z0-9_-]{{0,63}}",
                req.tenant
            ),
        );
    }
    if !req.tenant.is_empty()
        && matches!(req.op, Opcode::Stats | Opcode::Checkpoint)
        && !frame::valid_tenant(&req.tenant)
    {
        return err(corr, ErrCode::BadTenantName, "bad tenant name");
    }
    match req.op {
        Opcode::Ping => Response::Ok {
            corr,
            payload: req.payload,
        },
        Opcode::Create => handle_create(shared, corr, &req.tenant, &req.payload),
        Opcode::Ingest => handle_ingest(shared, corr, &req.tenant, &req.payload),
        Opcode::Query => handle_query(shared, corr, &req.tenant, &req.payload),
        Opcode::Snapshot => handle_snapshot(shared, corr, &req.tenant),
        Opcode::Drop => handle_drop(shared, corr, &req.tenant),
        Opcode::Stats => handle_stats(shared, corr, &req.tenant),
        Opcode::Checkpoint => handle_checkpoint(shared, corr, &req.tenant),
    }
}

fn err(corr: u64, code: ErrCode, msg: impl Into<String>) -> Response {
    Response::Err {
        corr,
        code,
        msg: msg.into(),
    }
}

/// Looks a tenant up under the registry read lock.
fn lookup(shared: &Shared, name: &str) -> Option<Arc<Mutex<Tenant>>> {
    shared.registry_read().get(name).cloned()
}

fn handle_create(shared: &Shared, corr: u64, name: &str, payload: &[u8]) -> Response {
    let text = match std::str::from_utf8(payload) {
        Ok(t) => t,
        Err(_) => return err(corr, ErrCode::Malformed, "spec payload is not UTF-8 JSON"),
    };
    let spec = match SketchSpec::from_json(text) {
        Ok(s) => s,
        Err(e) => return err(corr, ErrCode::Malformed, format!("spec JSON: {e}")),
    };
    let state = match spec.try_build() {
        Ok(s) => s,
        Err(e) => return err(corr, ErrCode::Spec, e.to_string()),
    };
    let base = match SketchFile::new(spec, state) {
        Ok(f) => f,
        Err(e) => return err(corr, ErrCode::from_wire(&e), e.to_string()),
    };
    let mut registry = shared.registry_write();
    if registry.contains_key(name) {
        return err(
            corr,
            ErrCode::TenantExists,
            format!("tenant {name:?} already exists"),
        );
    }
    let tenant = build_tenant(shared, registry.len(), name.to_string(), base);
    let tenant = Arc::new(Mutex::new(tenant));
    // Persist immediately so a freshly created tenant survives a crash
    // that happens before the first periodic checkpoint.
    if let Err(e) = checkpoint_tenant(&mut lock_tenant(&tenant), &shared.state_dir) {
        return err(corr, ErrCode::Internal, e);
    }
    registry.insert(name.to_string(), tenant);
    shared.log(format_args!(
        "created tenant {name} ({}, n={})",
        spec.task.command(),
        spec.n
    ));
    Response::Ok {
        corr,
        payload: Vec::new(),
    }
}

/// Assembles a tenant around a base file, claiming engine workers from
/// the shared budget: an even share of the budget among all tenants
/// including this one (`ntenants` = tenants registered so far — passed
/// in, not read from the registry, because `handle_create` calls this
/// while holding the registry write lock), never below the 1-worker
/// floor.
///
/// The engine gets exactly one shard per worker. Worker `s % workers`
/// absorbs shard `s`, so a second shard per worker would add no
/// parallelism, only another sketch to hold and fold at every drain; by
/// linearity the shard count never changes an answer.
fn build_tenant(shared: &Shared, ntenants: usize, name: String, base: SketchFile) -> Tenant {
    let want = (shared.budget.total() / (ntenants + 1)).max(1);
    let claim = shared.budget.claim(want);
    let workers = claim.workers();
    let spec = base.spec;
    let config = EngineConfig::new(workers)
        .with_workers(workers)
        .with_seed(spec.seed);
    let engine = SketchEngine::new(config, || spec.build());
    Tenant {
        name,
        base,
        engine,
        _claim: claim,
        dirty: true,
        dropped: false,
        updates_ingested: 0,
        deltas_applied: 0,
        busy_rejections: 0,
        cache: DecodeCache::new(),
        cached_answer_ns: 0,
    }
}

fn handle_ingest(shared: &Shared, corr: u64, name: &str, payload: &[u8]) -> Response {
    let Some(tenant) = lookup(shared, name) else {
        return err(corr, ErrCode::NoSuchTenant, format!("no tenant {name:?}"));
    };
    let mut t = lock_tenant(&tenant);
    if payload.starts_with(wire::DELTA_MAGIC) {
        let delta = match SketchDelta::from_bytes(payload) {
            Ok(d) => d,
            Err(e) => return err(corr, ErrCode::from_wire(&e), e.to_string()),
        };
        if let Err(e) = t.base.apply_delta_parsed(&delta) {
            return err(corr, ErrCode::from_wire(&e), e.to_string());
        }
        t.deltas_applied += 1;
        t.dirty = true;
        return Response::Ok {
            corr,
            payload: Vec::new(),
        };
    }
    if payload.starts_with(frame::UPDATES_MAGIC) {
        let updates = match frame::decode_updates(payload) {
            Ok(u) => u,
            Err(e) => return err(corr, ErrCode::Malformed, e.to_string()),
        };
        return match t.engine.offer(&updates) {
            Ok(()) => {
                t.updates_ingested += updates.len() as u64;
                t.dirty = true;
                Response::Ok {
                    corr,
                    payload: Vec::new(),
                }
            }
            Err(OfferError::Busy { .. }) => {
                t.busy_rejections += 1;
                Response::Busy {
                    corr,
                    retry_after_ms: shared.retry_after_ms,
                }
            }
            Err(OfferError::Invalid(e)) => err(corr, ErrCode::Update, e.to_string()),
        };
    }
    err(
        corr,
        ErrCode::Malformed,
        "ingest payload is neither a delta record (AGMSKD2) nor an update batch (AGMSKU1)",
    )
}

fn handle_query(shared: &Shared, corr: u64, name: &str, payload: &[u8]) -> Response {
    let threads = match frame::decode_query(payload) {
        Ok(t) => t,
        Err(e) => return err(corr, ErrCode::Malformed, e.to_string()),
    };
    let Some(tenant) = lookup(shared, name) else {
        return err(corr, ErrCode::NoSuchTenant, format!("no tenant {name:?}"));
    };
    let mut t = lock_tenant(&tenant);
    let plan = match threads {
        0 => DecodePlan::sequential(),
        n => DecodePlan::with_threads(n as usize),
    };
    // The memo key is the pair of ingest counters: both are bumped by
    // exactly the operations that change the tenant's total state, so
    // equal keys certify the previous answer verbatim and a hit skips
    // the drain-decode path entirely.
    let key = vec![BankStamp {
        generation: t.updates_ingested,
        drains: t.deltas_applied,
    }];
    let started = Instant::now();
    let mut cache = std::mem::take(&mut t.cache);
    let answer = match cache.answer_hit(&key) {
        Some(answer) => {
            t.cached_answer_ns += started.elapsed().as_nanos() as u64;
            answer
        }
        None => {
            if let Err(e) = t.drain_into_base() {
                t.cache = cache;
                return err(corr, ErrCode::Internal, e);
            }
            let base = &t.base.state;
            cache.answer_banked(key, |c| {
                let mut inner: DecodeCache<SketchAnswer> = c
                    .take_detail()
                    .unwrap_or_else(|| DecodeCache::with_disabled(c.is_disabled()));
                let (reused, recomputed) = (inner.groups_reused(), inner.groups_recomputed());
                let a = base.decode_cached(&mut inner, &plan);
                c.note_groups(
                    inner.groups_reused() - reused,
                    inner.groups_recomputed() - recomputed,
                );
                c.set_detail(inner);
                a
            })
        }
    };
    t.cache = cache;
    Response::Ok {
        corr,
        payload: answer.to_json().into_bytes(),
    }
}

fn handle_snapshot(shared: &Shared, corr: u64, name: &str) -> Response {
    let Some(tenant) = lookup(shared, name) else {
        return err(corr, ErrCode::NoSuchTenant, format!("no tenant {name:?}"));
    };
    let mut t = lock_tenant(&tenant);
    if let Err(e) = t.drain_into_base() {
        return err(corr, ErrCode::Internal, e);
    }
    Response::Ok {
        corr,
        payload: t.base.to_bytes(),
    }
}

fn handle_drop(shared: &Shared, corr: u64, name: &str) -> Response {
    let mut registry = shared.registry_write();
    let Some(tenant) = registry.remove(name) else {
        return err(corr, ErrCode::NoSuchTenant, format!("no tenant {name:?}"));
    };
    // Mark the tenant dropped under its own lock, and delete its file,
    // while the registry write lock still holds off a same-name CREATE.
    // A checkpoint that took an `Arc` to this tenant earlier has either
    // finished (its file is deleted here) or will see the mark and skip,
    // so it can neither rename the file back after the delete nor share
    // a staging path with a new tenant of the same name.
    let mut t = lock_tenant(&tenant);
    t.dropped = true;
    let _ = std::fs::remove_file(state_path(&shared.state_dir, name));
    drop(t);
    drop(registry);
    shared.log(format_args!("dropped tenant {name}"));
    Response::Ok {
        corr,
        payload: Vec::new(),
    }
}

fn handle_stats(shared: &Shared, corr: u64, name: &str) -> Response {
    let registry = shared.registry_read();
    let mut per_tenant = Vec::new();
    for (tname, tenant) in registry.iter() {
        if !name.is_empty() && tname != name {
            continue;
        }
        per_tenant.push(lock_tenant(tenant).stats());
    }
    if !name.is_empty() && per_tenant.is_empty() {
        return err(corr, ErrCode::NoSuchTenant, format!("no tenant {name:?}"));
    }
    let stats = ServiceStats {
        tenants: registry.len() as u64,
        connections: shared.connections.load(Ordering::SeqCst),
        frames_served: shared.frames_served.load(Ordering::SeqCst),
        worker_budget: shared.budget.total() as u64,
        workers_claimed: shared.budget.claimed() as u64,
        per_tenant,
    };
    Response::Ok {
        corr,
        payload: stats.to_value().to_json().into_bytes(),
    }
}

fn handle_checkpoint(shared: &Shared, corr: u64, name: &str) -> Response {
    if name.is_empty() {
        let n = checkpoint_all(shared);
        return Response::Ok {
            corr,
            payload: format!("{n}").into_bytes(),
        };
    }
    let Some(tenant) = lookup(shared, name) else {
        return err(corr, ErrCode::NoSuchTenant, format!("no tenant {name:?}"));
    };
    let mut t = lock_tenant(&tenant);
    match checkpoint_tenant(&mut t, &shared.state_dir) {
        Ok(persisted) => Response::Ok {
            corr,
            payload: format!("{}", persisted as u8).into_bytes(),
        },
        Err(e) => err(corr, ErrCode::Internal, e),
    }
}

fn state_path(dir: &Path, tenant: &str) -> PathBuf {
    dir.join(format!("{tenant}.state"))
}

/// Persists one tenant if dirty: the base's wire-v2 bytes are streamed
/// into a staging file, fsynced, renamed over `<name>.state`, and the
/// directory fsynced ([`wire::replace_file_durably`]), so a completed
/// checkpoint survives a power loss. Returns whether a write happened.
/// A dropped tenant is never written: the caller may hold an `Arc`
/// taken before the `DROP`.
fn checkpoint_tenant(t: &mut Tenant, dir: &Path) -> Result<bool, String> {
    if !t.dirty || t.dropped {
        return Ok(false);
    }
    t.drain_into_base()?;
    let tmp = dir.join(format!("{}.state.tmp.{}", t.name, std::process::id()));
    wire::replace_file_durably(&state_path(dir, &t.name), &tmp, |out| t.base.write_to(out))
        .map_err(|e| format!("checkpoint: {e}"))?;
    t.dirty = false;
    Ok(true)
}

/// Checkpoints every dirty tenant; returns how many were persisted.
fn checkpoint_all(shared: &Shared) -> usize {
    let tenants: Vec<_> = shared.registry_read().values().cloned().collect();
    let mut persisted = 0;
    for tenant in tenants {
        let mut t = lock_tenant(&tenant);
        match checkpoint_tenant(&mut t, &shared.state_dir) {
            Ok(true) => persisted += 1,
            Ok(false) => {}
            Err(e) => shared.log(format_args!("checkpoint of {} failed: {e}", t.name)),
        }
    }
    persisted
}

/// The checkpoint thread's schedule: fixed ticks anchored to the start
/// instant, not to when the previous checkpoint *finished*. Re-anchoring
/// on completion would stretch every period by the checkpoint's own
/// duration (a 2 s checkpoint on a 10 s period drifts to 12 s); anchored
/// ticks keep the long-run cadence at `every`, and a checkpoint that
/// overruns its whole period skips forward to the next future tick
/// instead of firing a catch-up burst.
struct CheckpointTimer {
    next: Instant,
    every: Duration,
}

/// The longest single sleep the checkpoint thread takes: it must notice
/// the shutdown flag promptly even on multi-minute periods, without the
/// old behavior of busy-waking every 20 ms regardless of the period.
const CHECKPOINT_POLL_CAP: Duration = Duration::from_millis(250);

impl CheckpointTimer {
    fn new(start: Instant, every: Duration) -> Self {
        CheckpointTimer {
            next: start + every,
            every,
        }
    }

    /// How long to sleep at `now`: the remaining time to the next tick,
    /// capped so the shutdown flag is polled at least every 250 ms.
    fn sleep_for(&self, now: Instant) -> Duration {
        self.next
            .saturating_duration_since(now)
            .min(CHECKPOINT_POLL_CAP)
    }

    /// Whether a tick is due at `now`. When it is, the next deadline
    /// advances by whole periods from the *intended* tick (staying
    /// anchored), landing strictly in the future.
    fn due(&mut self, now: Instant) -> bool {
        if now < self.next {
            return false;
        }
        while self.next <= now {
            self.next += self.every;
        }
        true
    }
}

fn checkpoint_loop(shared: Arc<Shared>, every: Duration) {
    let mut timer = CheckpointTimer::new(Instant::now(), every);
    while !shared.stop.load(Ordering::SeqCst) {
        thread::sleep(timer.sleep_for(Instant::now()));
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        if timer.due(Instant::now()) {
            checkpoint_all(&shared);
        }
    }
}

/// Startup recovery: every `<name>.state` in the state dir whose name is
/// a legal tenant name and whose bytes verify becomes a resident tenant;
/// damaged files are renamed to `<name>.state.quarantined` with a logged
/// typed error so an operator can inspect them — a corrupt checkpoint
/// must cost one tenant's last increments, never the whole service.
fn recover_tenants(shared: &Shared) {
    let entries = match std::fs::read_dir(&shared.state_dir) {
        Ok(e) => e,
        Err(e) => {
            shared.log(format_args!(
                "state dir {} is unreadable: {e}",
                shared.state_dir.display()
            ));
            return;
        }
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(fname) = path.file_name().and_then(|f| f.to_str()) else {
            continue;
        };
        let Some(name) = fname.strip_suffix(".state") else {
            // Leftover `.state.tmp.<pid>` staging files from an
            // interrupted checkpoint are dead weight; remove them.
            if fname.contains(".state.tmp.") {
                let _ = std::fs::remove_file(&path);
            }
            continue;
        };
        if !frame::valid_tenant(name) {
            shared.log(format_args!(
                "ignoring state file with illegal name {fname:?}"
            ));
            continue;
        }
        let loaded = std::fs::read(&path)
            .map_err(|e| WireError::Json(format!("unreadable: {e}")))
            .and_then(|bytes| SketchFile::from_bytes(&bytes));
        match loaded {
            Ok(base) => {
                let recovered_so_far = shared.registry_read().len();
                let mut tenant = build_tenant(shared, recovered_so_far, name.to_string(), base);
                // `build_tenant` marks fresh tenants dirty; a recovered
                // tenant is byte-identical to its file until new ingest.
                tenant.dirty = false;
                shared
                    .registry_write()
                    .insert(name.to_string(), Arc::new(Mutex::new(tenant)));
                shared.log(format_args!("recovered tenant {name}"));
            }
            Err(e) => {
                let quarantine = path.with_extension("state.quarantined");
                let _ = std::fs::rename(&path, &quarantine);
                shared.log(format_args!(
                    "quarantined corrupt state file {fname:?}: {e}"
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_sketches::api::SketchTask;

    /// Regression for a dropped tenant coming back on restart: `DROP`
    /// used to delete `<name>.state` without the tenant lock, so a
    /// checkpoint working on an `Arc` taken before the `DROP` could
    /// rename the file back afterwards — or, once a same-name `CREATE`
    /// had run, overwrite the new tenant's file with the dropped one.
    #[test]
    fn checkpoint_through_an_arc_held_across_drop_writes_no_state_file() {
        let dir = std::env::temp_dir().join(format!("gs-serve-drop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServeConfig {
            state_dir: dir.clone(),
            checkpoint_every: Duration::ZERO,
            quiet: true,
            ..ServeConfig::default()
        })
        .expect("server start");
        let shared = &server.shared;
        let created = |seed: u64| {
            let spec = SketchSpec::new(SketchTask::Connectivity, 8).with_seed(seed);
            matches!(
                handle_create(shared, 1, "gone", spec.to_json().as_bytes()),
                Response::Ok { .. }
            )
        };
        assert!(created(3));
        let path = state_path(&dir, "gone");
        assert!(path.exists(), "CREATE checkpoints at once");

        let held = lookup(shared, "gone").expect("registered");
        assert!(matches!(
            handle_drop(shared, 2, "gone"),
            Response::Ok { .. }
        ));
        assert!(!path.exists());
        // The dropped tenant has state no checkpoint has seen, yet a
        // checkpoint through the old `Arc` writes nothing.
        lock_tenant(&held).dirty = true;
        assert_eq!(checkpoint_tenant(&mut lock_tenant(&held), &dir), Ok(false));
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
        assert!(left.is_empty(), "a dropped tenant left files: {left:?}");

        // A same-name CREATE owns the name from now on: the old `Arc`
        // still cannot touch its file.
        assert!(created(4));
        let fresh = std::fs::read(&path).expect("the new tenant's file");
        assert_eq!(checkpoint_tenant(&mut lock_tenant(&held), &dir), Ok(false));
        assert_eq!(std::fs::read(&path).unwrap(), fresh);
        let file = SketchFile::from_bytes(&fresh).expect("state file verifies");
        assert_eq!(file.spec.seed, 4, "the file is the new tenant's");

        server.abort();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression for the checkpoint-cadence bug: the old loop re-anchored
    /// `last = Instant::now()` after the checkpoint finished, so every
    /// period stretched by the checkpoint's duration. The timer must keep
    /// ticks anchored to the start instant no matter how long each
    /// checkpoint takes (short of overrunning a whole period).
    #[test]
    fn checkpoint_ticks_stay_anchored_despite_slow_checkpoints() {
        let start = Instant::now();
        let every = Duration::from_secs(10);
        let checkpoint_cost = Duration::from_secs(2);
        let mut timer = CheckpointTimer::new(start, every);
        for tick in 1..=5u32 {
            let intended = start + every * tick;
            assert!(!timer.due(intended - Duration::from_millis(1)));
            assert!(timer.due(intended), "tick {tick} fires on schedule");
            // The checkpoint runs for 2 s; the *next* tick must still be
            // exactly one period after this tick's intended instant, not
            // one period after the checkpoint finished.
            let _finished_at = intended + checkpoint_cost;
            assert_eq!(timer.next, intended + every, "tick {tick} did not drift");
        }
    }

    /// A checkpoint that overruns whole periods skips to the next future
    /// tick instead of firing a burst of catch-up checkpoints.
    #[test]
    fn overrunning_a_period_skips_to_the_next_future_tick() {
        let start = Instant::now();
        let every = Duration::from_secs(10);
        let mut timer = CheckpointTimer::new(start, every);
        // The first tick fires 25 s late (2.5 periods of checkpoint work).
        assert!(timer.due(start + Duration::from_secs(35)));
        assert_eq!(timer.next, start + Duration::from_secs(40));
    }

    /// Regression for the busy-wake bug: the old loop slept a flat 20 ms
    /// regardless of `checkpoint_every` (50 wakeups/s forever). The sleep
    /// must track the remaining time to the tick, capped at 250 ms for
    /// shutdown responsiveness.
    #[test]
    fn sleep_tracks_remaining_time_capped_for_shutdown_polling() {
        let start = Instant::now();
        let every = Duration::from_secs(10);
        let timer = CheckpointTimer::new(start, every);
        // Far from the tick: the cap governs.
        assert_eq!(timer.sleep_for(start), CHECKPOINT_POLL_CAP);
        // Inside the last quarter second: sleep exactly the remainder.
        let near = start + every - Duration::from_millis(40);
        assert_eq!(timer.sleep_for(near), Duration::from_millis(40));
        // At (or past) the tick: no sleep at all.
        assert_eq!(timer.sleep_for(start + every), Duration::ZERO);
        assert_eq!(
            timer.sleep_for(start + every + Duration::from_secs(1)),
            Duration::ZERO
        );
    }
}
