//! The resident server: listeners, tenant registry, checkpointing, and
//! crash recovery.
//!
//! ## Threads
//!
//! One accept thread per listener (TCP, Unix socket) blocks in `accept`
//! and hands each accepted connection to its own handler thread, bounded
//! by [`ServeConfig::max_connections`] — a connection over the cap is
//! answered with a typed `BUSY` frame and closed, never queued without
//! bound. A client is accepted as soon as it connects; to stop, the
//! server sets its stop flag and wakes each accept thread by connecting
//! to that thread's own listener. Handler threads block on frame reads
//! with a short timeout so they notice shutdown within one idle tick. A
//! response too large for a frame is answered with a typed `ERR wire`
//! on the same connection. A periodic checkpoint thread persists dirty
//! tenants; [`Server::shutdown`] performs a final checkpoint,
//! [`Server::abort`] (and `Drop`) deliberately does not — that is what
//! the crash-recovery tests use to simulate a SIGKILL.
//!
//! Each tenant also runs one absorber thread (see below), which takes
//! worker threads from the process-wide budget for the batches it
//! absorbs.
//!
//! ## Consistency model
//!
//! Each tenant owns exactly one sketch, its checkpoint *base*
//! ([`SketchFile`]). Delta records fold directly into the base. Raw
//! update batches are acknowledged once they are queued for the tenant's
//! absorber thread, which absorbs each batch into the base with the
//! split kernel (`LinearSketch::absorb_with`): the threads the tenant
//! claimed write disjoint rows of the one sketch, bit-identical to a
//! sequential absorb. A full queue answers `BUSY`.
//!
//! Lock order is tenant → sketch; the absorber takes only the sketch
//! lock. `QUERY`, `SNAPSHOT` and `CHECKPOINT` share one read path: while
//! holding the tenant lock (so no new batch can be queued) they wait
//! until the absorber has absorbed every queued batch, then decode,
//! encode or persist the base in place — bit-identical to a
//! single-process decode of the same update multiset, in any arrival
//! order, with no copy or merge of any sketch. A dead absorber is
//! reported as `ERR internal`, never waited on. A checkpoint writes the
//! base with the wire-v2 write-then-rename discipline, so an interrupted
//! checkpoint leaves the previous file intact and a recovered server
//! replays exactly the state of the last completed checkpoint. A base
//! poisoned by a lane overflow is never encoded: `SNAPSHOT` and
//! `CHECKPOINT` answer `ERR wire`, and the last good file stays.
//!
//! ## The answer memo
//!
//! A tenant keeps its last `QUERY` answer, keyed on its two ingest
//! counters (raw updates ingested, delta records applied). An answer is
//! a pure function of the base, and only a counted `INGEST` changes the
//! base, so a query under an unchanged key is answered from the memo
//! without waiting for the absorber or decoding; any other query flushes
//! and decodes the base with `decode_with`, then re-arms the memo. It is
//! the only decode cache in the system. `STATS` reports its hits and
//! invalidations.

use graph_sketches::api::{SketchAnswer, SketchSpec};
use graph_sketches::frame::{
    self, ErrCode, FrameError, Opcode, Request, Response, ServiceStats, TenantStats,
};
use graph_sketches::wire::{self, SketchDelta};
use graph_sketches::SketchFile;
use gs_sketch::par::DecodePlan;
use gs_sketch::{CellBanked, EdgeUpdate, LinearSketch};
use gs_stream::engine::{BudgetClaim, WorkerBudget};
use serde::Serialize;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
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
    /// Process-wide budget of ingest threads shared by all tenants
    /// (0 = [`gs_stream::engine::default_workers`]): each tenant claims
    /// an even share, and its absorber splits every batch across that
    /// many threads writing disjoint rows of the tenant's one sketch.
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

/// Raw update batches a tenant's absorber queue holds before `INGEST`
/// answers `BUSY`: eight 1024-update frames, the backlog of the
/// per-worker engine queues this queue replaced.
const ABSORB_QUEUE_BATCHES: usize = 8;

/// The absorber keeps appending queued batches to the one it absorbs
/// while it holds fewer updates than this.
const ABSORB_COALESCE_UPDATES: usize = 16 * 1024;

/// A tenant's absorber: one thread fed by a bounded queue of raw update
/// batches, which it absorbs into the tenant's sketch, split across the
/// tenant's claimed threads (`LinearSketch::absorb_with`). Batches that
/// are already queued when it takes one are absorbed in the same pass,
/// so a backlog pays one fork-join per pass rather than per frame (the
/// result is the same: absorbing a concatenation is absorbing its parts
/// in order). Dropping the absorber closes the queue and joins the
/// thread once it has absorbed what was queued.
struct Absorber {
    /// `None` only while dropping.
    queue: Option<SyncSender<Vec<EdgeUpdate>>>,
    /// Updates queued and not yet absorbed.
    pending: Arc<AtomicU64>,
    thread: Option<thread::JoinHandle<()>>,
}

impl Absorber {
    fn spawn(
        name: &str,
        base: Arc<Mutex<SketchFile>>,
        plan: DecodePlan,
    ) -> std::io::Result<Absorber> {
        let (queue, batches) = sync_channel::<Vec<EdgeUpdate>>(ABSORB_QUEUE_BATCHES);
        let pending = Arc::new(AtomicU64::new(0));
        let left = Arc::clone(&pending);
        let thread = thread::Builder::new()
            .name(format!("gs-absorb-{name}"))
            .spawn(move || {
                while let Ok(mut batch) = batches.recv() {
                    while batch.len() < ABSORB_COALESCE_UPDATES {
                        match batches.try_recv() {
                            Ok(more) => batch.extend(more),
                            Err(_) => break,
                        }
                    }
                    lock_sketch(&base).state.absorb_with(&batch, &plan);
                    // Counted down only once the sketch lock is released:
                    // a flush that sees zero then reads the whole batch.
                    left.fetch_sub(batch.len() as u64, Ordering::SeqCst);
                }
            })?;
        Ok(Absorber {
            queue: Some(queue),
            pending,
            thread: Some(thread),
        })
    }

    /// Queues a batch without blocking: `Ok(false)` when the queue is
    /// full (the caller answers `BUSY`), an error when the absorber is
    /// gone.
    fn offer(&self, batch: Vec<EdgeUpdate>) -> Result<bool, String> {
        let count = batch.len() as u64;
        let Some(queue) = &self.queue else {
            return Err("the absorber is stopping".into());
        };
        self.pending.fetch_add(count, Ordering::SeqCst);
        let refused = match queue.try_send(batch) {
            Ok(()) => return Ok(true),
            Err(TrySendError::Full(_)) => Ok(false),
            Err(TrySendError::Disconnected(_)) => Err("the absorber thread exited".into()),
        };
        self.pending.fetch_sub(count, Ordering::SeqCst);
        refused
    }

    /// Waits until every queued update is absorbed. The caller holds the
    /// tenant lock, so nothing new is queued meanwhile. An absorber that
    /// died with updates queued is an error, not a wait.
    fn flush(&self) -> Result<(), String> {
        loop {
            let pending = self.pending.load(Ordering::SeqCst);
            if pending == 0 {
                return Ok(());
            }
            if self.thread.as_ref().is_none_or(|t| t.is_finished()) {
                return Err(format!(
                    "the absorber thread exited with {pending} update(s) pending"
                ));
            }
            thread::sleep(Duration::from_micros(20));
        }
    }
}

impl Drop for Absorber {
    fn drop(&mut self) {
        self.queue = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// One resident tenant: its one sketch, the absorber feeding it, and
/// counters.
struct Tenant {
    name: String,
    /// The tenant's spec (also inside `base`), readable without the
    /// sketch lock.
    spec: SketchSpec,
    /// The tenant's one sketch and checkpoint base: the spec plus every
    /// update absorbed or applied from delta records. Locked after the
    /// tenant (lock order tenant → sketch); the absorber takes only this
    /// lock.
    base: Arc<Mutex<SketchFile>>,
    absorber: Absorber,
    /// The threads the absorber splits batches across, claimed from the
    /// process-wide budget; holding the claim for the tenant's lifetime
    /// is what returns them to the pool when the tenant drops.
    claim: BudgetClaim,
    /// `true` iff state has changed since the last completed checkpoint.
    dirty: bool,
    /// Set by `DROP`, under this tenant's lock, before its state file is
    /// deleted: a checkpoint that took an `Arc` to the tenant earlier
    /// must not write the file back.
    dropped: bool,
    updates_ingested: u64,
    deltas_applied: u64,
    busy_rejections: u64,
    /// The last `QUERY` answer, keyed on `(updates_ingested,
    /// deltas_applied)` when it was decoded: a query between two ingests
    /// is answered from it without flushing or decoding anything. The
    /// tenant's only decode memo.
    memo: Option<((u64, u64), SketchAnswer)>,
    /// `QUERY` frames answered from `memo`.
    memo_hits: u64,
    /// Decodes that replaced a stale `memo`.
    memo_invalidations: u64,
    /// Nanoseconds spent serving the `QUERY` frames `memo` answered.
    cached_answer_ns: u64,
}

impl Tenant {
    /// Waits for the absorber, then locks the base: the one read path
    /// `QUERY`, `SNAPSHOT` and `CHECKPOINT` share. The base then carries
    /// every acknowledged update.
    fn flushed_base(&self) -> Result<MutexGuard<'_, SketchFile>, String> {
        self.absorber.flush()?;
        Ok(lock_sketch(&self.base))
    }

    fn stats(&self) -> TenantStats {
        let base = lock_sketch(&self.base);
        TenantStats {
            name: self.name.clone(),
            task: self.spec.task.command().to_string(),
            n: self.spec.n as u64,
            updates_ingested: self.updates_ingested,
            deltas_applied: self.deltas_applied,
            busy_rejections: self.busy_rejections,
            decode_cache_hits: self.memo_hits,
            decode_cache_invalidations: self.memo_invalidations,
            cached_answer_ns: self.cached_answer_ns,
            workers: self.claim.workers() as u64,
            bytes_resident: base.state.space_bytes() as u64,
            lane_bytes_resident: base.state.resident_bytes() as u64,
            lane_overflows: base.state.lane_overflow().is_some() as u64,
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
fn lock_tenant(tenant: &Mutex<Tenant>) -> MutexGuard<'_, Tenant> {
    tenant.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sketch lock that survives poisoning. The absorber is the only code
/// that can panic while holding it; its pending updates then never
/// drain, so every read path refuses with `ERR internal` and no
/// checkpoint persists the torn state.
fn lock_sketch(base: &Mutex<SketchFile>) -> MutexGuard<'_, SketchFile> {
    base.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The running server. Bind with [`Server::start`], stop with
/// [`Server::shutdown`] (graceful: final checkpoint) or
/// [`Server::abort`] (simulated crash: no checkpoint). Dropping without
/// either behaves like `abort`.
pub struct Server {
    shared: Arc<Shared>,
    /// The accept thread of the TCP listener, blocked in `accept`.
    accept_tcp: Option<thread::JoinHandle<()>>,
    /// The accept thread of the Unix listener, blocked in `accept`.
    accept_unix: Option<thread::JoinHandle<()>>,
    checkpointer: Option<thread::JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl Server {
    /// Creates the state directory, binds the configured listeners,
    /// recovers the tenant set from the directory (checksum-verified;
    /// corrupt files are quarantined with a logged typed error, never a
    /// crash), and spawns the accept + checkpoint threads.
    ///
    /// Every listener is bound before any state file is read or any
    /// thread starts, so a start that fails (a live server holds the Unix
    /// path, say) leaves nothing running and no state file read, swept
    /// or quarantined.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        #[cfg(not(unix))]
        if config.unix.is_some() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "unix-socket listeners need a unix platform",
            ));
        }
        std::fs::create_dir_all(&config.state_dir)?;
        let tcp = config.tcp.as_deref().map(TcpListener::bind).transpose()?;
        let tcp_addr = tcp.as_ref().map(TcpListener::local_addr).transpose()?;
        #[cfg(unix)]
        let unix = config.unix.as_deref().map(bind_unix).transpose()?;

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

        // From here a failed spawn drops `server`, which stops the threads
        // already running and removes the socket file.
        let mut server = Server {
            shared,
            accept_tcp: None,
            accept_unix: None,
            checkpointer: None,
            tcp_addr,
            unix_path: config.unix.clone(),
        };
        let max_conns = config.max_connections.max(1);
        if let Some(listener) = tcp {
            let shared = Arc::clone(&server.shared);
            server.accept_tcp = Some(
                thread::Builder::new()
                    .name("gs-serve-accept-tcp".into())
                    .spawn(move || accept_loop(listener_tcp(listener), shared, max_conns))?,
            );
        }
        #[cfg(unix)]
        if let Some(listener) = unix {
            let shared = Arc::clone(&server.shared);
            server.accept_unix = Some(
                thread::Builder::new()
                    .name("gs-serve-accept-unix".into())
                    .spawn(move || accept_loop(listener_unix(listener), shared, max_conns))?,
            );
        }
        if config.checkpoint_every > Duration::ZERO {
            let shared = Arc::clone(&server.shared);
            let every = config.checkpoint_every;
            server.checkpointer = Some(
                thread::Builder::new()
                    .name("gs-serve-checkpoint".into())
                    .spawn(move || checkpoint_loop(shared, every))?,
            );
        }

        server.shared.log(format_args!(
            "serving {} tenant(s), worker budget {budget_size}, state dir {}",
            server.shared.registry_read().len(),
            config.state_dir.display(),
        ));
        Ok(server)
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
        // An accept thread sleeps in `accept` until a connection arrives,
        // so a connection of our own wakes it; it drops that connection
        // and exits. A thread whose wake cannot connect is not waited
        // for: it exits on its next accept.
        if let (Some(thread), Some(addr)) = (self.accept_tcp.take(), self.tcp_addr) {
            if let Ok(_wake) = TcpStream::connect_timeout(&reachable(addr), WAKE_TIMEOUT) {
                let _ = thread.join();
            }
        }
        #[cfg(unix)]
        if let (Some(thread), Some(path)) = (self.accept_unix.take(), &self.unix_path) {
            if let Ok(_wake) = UnixStream::connect(path) {
                let _ = thread.join();
            }
        }
        if let Some(thread) = self.checkpointer.take() {
            let _ = thread.join();
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

/// How long [`Server::stop_threads`] waits to connect to its own TCP
/// listener to wake the accept thread.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// An address this host can connect to that reaches a listener bound to
/// `addr`: a listener on the unspecified address (`0.0.0.0`, `::`) is
/// reached through the loopback address of its family.
fn reachable(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
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

/// A blocking accept source: waits for the next connection on one
/// listener.
type AcceptFn = Box<dyn FnMut() -> std::io::Result<Box<dyn Conn>> + Send>;

fn listener_tcp(listener: TcpListener) -> AcceptFn {
    Box::new(move || {
        let (stream, _) = listener.accept()?;
        // Frames are request/response turns; leaving Nagle on costs
        // a delayed-ACK round (~40 ms) per frame on loopback.
        let _ = stream.set_nodelay(true);
        Ok(Box::new(stream))
    })
}

#[cfg(unix)]
fn listener_unix(listener: UnixListener) -> AcceptFn {
    Box::new(move || Ok(Box::new(listener.accept()?.0)))
}

/// Accepts on one listener until shutdown, spawning a handler thread per
/// accepted connection. A connection over the cap is told `BUSY` and
/// closed immediately instead of being queued. The loop blocks in
/// `accept`; once `stop` is set it drops whatever it accepted and
/// returns ([`Server::stop_threads`] wakes it with a connection of its
/// own).
fn accept_loop(mut accept: AcceptFn, shared: Arc<Shared>, max_conns: usize) {
    loop {
        let accepted = accept();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok(mut conn) => {
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
        // The request takes the frame body over, so an INGEST payload
        // is held once.
        let (corr, body) = match Request::decode(body) {
            Ok(req) => (req.corr, dispatch(shared, req)),
            Err(e) => (0, err(0, ErrCode::Malformed, e.to_string()).encode()),
        };
        shared.frames_served.fetch_add(1, Ordering::SeqCst);
        let body = match body {
            body if body.len() <= shared.max_frame => body,
            body => err(
                corr,
                ErrCode::Wire,
                over_cap("response", body.len() as u64, shared.max_frame),
            )
            .encode(),
        };
        if frame::write_frame(&mut conn, &body, shared.max_frame).is_err() {
            return;
        }
    }
}

/// Routes one request to its verb handler and returns the response's
/// frame body; every refusal is a typed error frame, never a panic or a
/// dropped connection.
fn dispatch(shared: &Shared, req: Request) -> Vec<u8> {
    let corr = req.corr;
    if shared.stop.load(Ordering::SeqCst) {
        return err(corr, ErrCode::Shutdown, "server is shutting down").encode();
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
        )
        .encode();
    }
    if !req.tenant.is_empty()
        && matches!(req.op, Opcode::Stats | Opcode::Checkpoint)
        && !frame::valid_tenant(&req.tenant)
    {
        return err(corr, ErrCode::BadTenantName, "bad tenant name").encode();
    }
    let resp = match req.op {
        Opcode::Ping => Response::Ok {
            corr,
            payload: req.payload,
        },
        Opcode::Create => handle_create(shared, corr, &req.tenant, &req.payload),
        Opcode::Ingest => handle_ingest(shared, corr, &req.tenant, &req.payload),
        Opcode::Query => handle_query(shared, corr, &req.tenant, &req.payload),
        Opcode::Snapshot => return handle_snapshot(shared, corr, &req.tenant),
        Opcode::Drop => handle_drop(shared, corr, &req.tenant),
        Opcode::Stats => handle_stats(shared, corr, &req.tenant),
        Opcode::Checkpoint => handle_checkpoint(shared, corr, &req.tenant),
    };
    resp.encode()
}

fn err(corr: u64, code: ErrCode, msg: impl Into<String>) -> Response {
    Response::Err {
        corr,
        code,
        msg: msg.into(),
    }
}

/// The refusal of a response whose frame body of `len` bytes would
/// exceed the frame cap `max`.
fn over_cap(what: &str, len: u64, max: usize) -> String {
    format!("{what} of {len} B exceeds the frame cap of {max} B")
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
    let tenant = match build_tenant(shared, registry.len(), name.to_string(), base) {
        Ok(t) => Arc::new(Mutex::new(t)),
        Err(e) => {
            return err(
                corr,
                ErrCode::Internal,
                format!("starting the absorber: {e}"),
            )
        }
    };
    // Persist immediately so a freshly created tenant survives a crash
    // that happens before the first periodic checkpoint.
    if let Err((code, e)) = checkpoint_tenant(&mut lock_tenant(&tenant), &shared.state_dir) {
        return err(corr, code, e);
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

/// Assembles a tenant around a base file, claiming absorb threads from
/// the shared budget: an even share of the budget among all tenants
/// including this one (`ntenants` = tenants registered so far — passed
/// in, not read from the registry, because `handle_create` calls this
/// while holding the registry write lock), never below the 1-thread
/// floor. The tenant holds one sketch, whatever its share.
fn build_tenant(
    shared: &Shared,
    ntenants: usize,
    name: String,
    base: SketchFile,
) -> std::io::Result<Tenant> {
    let want = (shared.budget.total() / (ntenants + 1)).max(1);
    let claim = shared.budget.claim(want);
    let spec = base.spec;
    let base = Arc::new(Mutex::new(base));
    let plan = DecodePlan::with_threads(claim.workers());
    let absorber = Absorber::spawn(&name, Arc::clone(&base), plan)?;
    Ok(Tenant {
        name,
        spec,
        base,
        absorber,
        claim,
        dirty: true,
        dropped: false,
        updates_ingested: 0,
        deltas_applied: 0,
        busy_rejections: 0,
        memo: None,
        memo_hits: 0,
        memo_invalidations: 0,
        cached_answer_ns: 0,
    })
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
        if let Err(e) = lock_sketch(&t.base).apply_delta_parsed(&delta) {
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
        // The whole batch is refused before anything is queued: the
        // absorber must never meet an update its sketch asserts on.
        for (at, up) in updates.iter().enumerate() {
            if let Err(e) = t.spec.check_update(up) {
                return err(corr, ErrCode::Update, format!("update {at} of batch: {e}"));
            }
        }
        let count = updates.len() as u64;
        if count == 0 {
            return Response::Ok {
                corr,
                payload: Vec::new(),
            };
        }
        return match t.absorber.offer(updates) {
            Ok(true) => {
                t.updates_ingested += count;
                t.dirty = true;
                Response::Ok {
                    corr,
                    payload: Vec::new(),
                }
            }
            Ok(false) => {
                t.busy_rejections += 1;
                Response::Busy {
                    corr,
                    retry_after_ms: shared.retry_after_ms,
                }
            }
            Err(e) => err(corr, ErrCode::Internal, e),
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
    // exactly the operations that change the tenant's total state, and
    // a miss reads the base only after the absorber has absorbed every
    // counted update, so equal keys certify the previous answer verbatim
    // (decoding is a pure function of the base, at every thread count)
    // and a hit skips the flush-decode path entirely.
    let key = (t.updates_ingested, t.deltas_applied);
    let started = Instant::now();
    let hit = match &t.memo {
        Some((at, answer)) if *at == key => Some(answer.clone()),
        _ => None,
    };
    let answer = match hit {
        Some(answer) => {
            t.memo_hits += 1;
            t.cached_answer_ns += started.elapsed().as_nanos() as u64;
            Ok(answer)
        }
        None => decode_flushed(&t, &plan).inspect(|answer| {
            t.memo_invalidations += u64::from(t.memo.is_some());
            t.memo = Some((key, answer.clone()));
        }),
    };
    match answer {
        Ok(answer) => Response::Ok {
            corr,
            payload: answer.to_json().into_bytes(),
        },
        Err((code, e)) => err(corr, code, e),
    }
}

/// Decodes a tenant's flushed base. A base poisoned by a lane overflow
/// holds wrapped lanes, not a linear measurement, so it is refused with
/// [`ErrCode::Wire`], as `CHECKPOINT` and `SNAPSHOT` refuse it, instead of
/// being decoded into an answer (and the memo) that silently drops the
/// overflowed edges.
fn decode_flushed(t: &Tenant, plan: &DecodePlan) -> Result<SketchAnswer, (ErrCode, String)> {
    let base = t.flushed_base().map_err(|e| (ErrCode::Internal, e))?;
    if let Some(overflow) = base.state.lane_overflow() {
        return Err((
            ErrCode::Wire,
            format!(
                "query: {overflow}; the poisoned sketch is no longer a linear measurement \
                 and is not decoded"
            ),
        ));
    }
    Ok(base.state.decode_with(plan))
}

/// Answers `SNAPSHOT` with a frame body encoded in place: the `Ok`
/// envelope, then the v2 bytes written straight after it into a body
/// sized by [`SketchFile::encoded_len`], so the server holds the blob
/// once (a payload encoded on its own and then copied behind the
/// envelope was held twice).
fn handle_snapshot(shared: &Shared, corr: u64, name: &str) -> Vec<u8> {
    let Some(tenant) = lookup(shared, name) else {
        return err(corr, ErrCode::NoSuchTenant, format!("no tenant {name:?}")).encode();
    };
    let t = lock_tenant(&tenant);
    let base = match t.flushed_base() {
        Ok(base) => base,
        Err(e) => return err(corr, ErrCode::Internal, e).encode(),
    };
    let mut body = Response::Ok {
        corr,
        payload: Vec::new(),
    }
    .encode();
    // A response too large for a frame is refused before the blob is
    // encoded.
    let blob = base.encoded_len();
    let framed = body.len() as u64 + blob;
    if framed > shared.max_frame as u64 {
        return err(
            corr,
            ErrCode::Wire,
            over_cap("snapshot", framed, shared.max_frame),
        )
        .encode();
    }
    body.reserve_exact(blob as usize);
    if let Err(e) = base.write_to(&mut body) {
        return err(corr, export_code(&e), format!("snapshot: {e}")).encode();
    }
    body
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
        Err((code, e)) => err(corr, code, e),
    }
}

fn state_path(dir: &Path, tenant: &str) -> PathBuf {
    dir.join(format!("{tenant}.state"))
}

/// Persists one tenant if dirty: the base's wire-v2 bytes are streamed
/// into a sparse staging file (`<name>.state.tmp.<pid>`), fsynced,
/// renamed over `<name>.state`, and the directory fsynced
/// ([`SketchFile::write_durably`]), so a completed checkpoint survives a
/// power loss. Returns whether a write happened.
/// A dropped tenant is never written: the caller may hold an `Arc`
/// taken before the `DROP`. A tenant poisoned by a lane overflow is
/// refused with [`ErrCode::Wire`]: its previous file stays as it was and
/// the tenant stays dirty.
fn checkpoint_tenant(t: &mut Tenant, dir: &Path) -> Result<bool, (ErrCode, String)> {
    if !t.dirty || t.dropped {
        return Ok(false);
    }
    let base = t.flushed_base().map_err(|e| (ErrCode::Internal, e))?;
    base.write_durably(&state_path(dir, &t.name))
        .map_err(|e| (export_code(&e), format!("checkpoint: {e}")))?;
    drop(base);
    t.dirty = false;
    Ok(true)
}

/// The code for a failed export of a tenant's state. `write_to` refuses
/// state it cannot encode soundly (a sketch poisoned by a lane overflow)
/// with `InvalidData`, a refusal of the state; any other error is this
/// server's own (its disk, its invariants).
fn export_code(e: &std::io::Error) -> ErrCode {
    match e.kind() {
        std::io::ErrorKind::InvalidData => ErrCode::Wire,
        _ => ErrCode::Internal,
    }
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
            Err((_, e)) => shared.log(format_args!("checkpoint of {} failed: {e}", t.name)),
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
        match load_state_file(&path) {
            Ok(base) => {
                let recovered_so_far = shared.registry_read().len();
                match build_tenant(shared, recovered_so_far, name.to_string(), base) {
                    Ok(mut tenant) => {
                        // `build_tenant` marks fresh tenants dirty; a
                        // recovered tenant is byte-identical to its file
                        // until new ingest.
                        tenant.dirty = false;
                        shared
                            .registry_write()
                            .insert(name.to_string(), Arc::new(Mutex::new(tenant)));
                        shared.log(format_args!("recovered tenant {name}"));
                    }
                    Err(e) => shared.log(format_args!(
                        "tenant {name} not recovered: starting its absorber failed: {e}"
                    )),
                }
            }
            Err(e) => {
                let quarantine = path.with_extension("state.quarantined");
                let _ = std::fs::rename(&path, &quarantine);
                shared.log(format_args!("quarantined state file {fname:?}: {e}"));
            }
        }
    }
}

/// Loads one state file, or says why it cannot become a tenant: an I/O
/// error is `unreadable`, bytes that are not a sound sketch file are
/// `corrupt`.
fn load_state_file(path: &Path) -> Result<SketchFile, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("unreadable: {e}"))?;
    SketchFile::from_bytes(&bytes).map_err(|e| format!("corrupt: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_sketches::api::SketchTask;

    #[test]
    fn state_file_refusals_tell_io_errors_from_corruption() {
        let dir = std::env::temp_dir().join(format!("gs-serve-load-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("dir.state")).unwrap();
        let e = load_state_file(&dir.join("dir.state")).unwrap_err();
        assert!(e.starts_with("unreadable: "), "{e}");
        std::fs::write(dir.join("json.state"), "{\"format\":1}").unwrap();
        let e = load_state_file(&dir.join("json.state")).unwrap_err();
        assert!(e.starts_with("corrupt: not a sketch file"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

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

    /// A dead absorber is an error on every later flush and offer, never
    /// a wait. Here it dies on a self-loop that skipped the admission
    /// check `INGEST` runs.
    #[test]
    fn a_dead_absorber_is_reported_not_waited_on() {
        let spec = SketchSpec::new(SketchTask::Connectivity, 8);
        let base = SketchFile::new(spec, spec.build()).expect("base");
        let base = Arc::new(Mutex::new(base));
        let absorber = Absorber::spawn("dead", base, DecodePlan::sequential()).expect("spawn");
        assert_eq!(absorber.offer(vec![EdgeUpdate::insert(3, 3)]), Ok(true));
        let e = absorber.flush().expect_err("the absorber died");
        assert!(e.contains("exited with 1 update(s) pending"), "{e}");
        assert!(absorber.offer(vec![EdgeUpdate::insert(0, 1)]).is_err());
        assert!(absorber.flush().is_err());
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
