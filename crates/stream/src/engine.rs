//! A resident, sharded ingest engine for linear sketches.
//!
//! [`crate::distributed::sketch_distributed`] realizes §1.1 as a one-shot
//! batch job: split, sketch, merge, done. This module is the long-lived
//! counterpart — the shape a long-running ingest needs when the stream
//! never ends and queries arrive *while* updates keep flowing. It runs
//! the CLI's `--sites` ingest and the experiment runner. Every shard is
//! a whole replica of the sketch, so the resident server does not use
//! it: a `gs-serve` tenant holds one sketch and splits each batch across
//! threads writing disjoint rows of it
//! ([`gs_sketch::LinearSketch::absorb_with`]).
//!
//! * **Sharding.** A [`SketchEngine`] owns `shards` private sketches (all
//!   built from the same factory, hence mutually mergeable). Updates are
//!   routed to a shard — by a seeded edge hash by default, or by any
//!   caller-supplied router ([`SketchEngine::with_router`]) — and absorbed
//!   by one of `workers` background threads. Workers are capped
//!   independently of the shard count, so a 1024-shard topology does not
//!   cost 1024 OS threads; [`default_workers`] follows
//!   `std::thread::available_parallelism`.
//! * **Backpressure.** Each worker is fed through a bounded channel;
//!   [`SketchEngine::ingest`] blocks when a queue is full instead of
//!   buffering without bound.
//! * **Snapshot queries.** [`SketchEngine::snapshot`] reads without
//!   draining and without stopping ingestion: it clones the first active
//!   shard and folds the others into that clone in shard order — one
//!   sketch copy per read. The snapshot is a true linear sketch of a
//!   sub-multiset of the ingested updates (each routed batch is either
//!   fully reflected or not at all, per shard), so it is queryable
//!   mid-stream; after [`SketchEngine::flush`] it equals the central
//!   sketch of everything ingested so far, bit for bit.
//! * **Sealing.** [`SketchEngine::seal`] drains the queues, joins the
//!   workers, and folds the shard sketches **in shard order**, preserving
//!   the deterministic merge order that the E12 bit-identity experiments
//!   rely on. Shards that never received an update are skipped (an
//!   empty-constructed sketch is the zero of the merge group, so skipping
//!   it is exact). `seal` owns its shards, so it folds them through
//!   [`merge_tree`]: a binary tree reduction over scoped threads whose
//!   result is **bit-identical to the in-order sequential fold**, because
//!   every sketch merge is an associative lane-wise sum (integer and
//!   `F_{2^61−1}` addition), at O(log shards) merge depth across
//!   [`default_workers`] threads.
//! * **Delta drains.** [`SketchEngine::delta_snapshot`] flushes, then
//!   swaps every shard for a fresh zero sketch and hands back the drained
//!   shards — each one the exact linear sketch of the updates that shard
//!   absorbed **since the last drain**, idle shards included (a valid
//!   empty delta, so every round ships the same shard count). Summing all
//!   drained rounds reconstructs the central sketch bit for bit; a
//!   coordinator in another process applies them through
//!   `graph_sketches::wire::SketchFile::apply_delta` instead of receiving
//!   whole sketches. Shipping shards out needs owned sketches, so this
//!   path swaps in zero clones.
//! * **Live counters.** [`SketchEngine::stats`] reports updates routed,
//!   in-flight updates, per-worker queue depths, delta drains, and
//!   resident sketch bytes.
//!
//! Linearity does all the heavy lifting: however updates are routed and
//! however shard application interleaves, the shard sketches always sum to
//! the sketch of exactly the updates applied so far.

use gs_field::SplitMix64;
use gs_sketch::par::DecodePlan;
use gs_sketch::{EdgeUpdate, LinearSketch, UpdateError};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A routed unit of work: `(shard index, updates for that shard)` pairs,
/// at most one message per worker per [`SketchEngine::ingest`] call.
type Batch = Vec<(usize, Vec<EdgeUpdate>)>;

/// Routes one update to a shard. Runs on the ingesting thread, so a
/// stateful (sequence-based) router sees updates in ingest order.
pub type Router = Box<dyn FnMut(&EdgeUpdate) -> usize + Send>;

/// The number of workers an [`EngineConfig`] uses by default: the
/// machine's available parallelism (1 if it cannot be queried).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// A process-wide worker-thread budget shared by many ingest paths — the
/// multi-tenant serving shape, where every tenant ingests with threads of
/// its own but the process owns one machine. Each tenant
/// [`WorkerBudget::claim`]s a share when it is built and releases it when
/// the returned [`BudgetClaim`] drops (tenant teardown), so the fleet's
/// total worker count tracks the live tenant set instead of growing
/// per-tenant without bound.
///
/// The budget is advisory-fair rather than strict: a claim is capped by
/// the unclaimed remainder but never goes below one worker, so a tenant
/// created on a fully-subscribed machine still makes progress (bounded
/// oversubscription, at most one thread per such tenant).
#[derive(Debug)]
pub struct WorkerBudget {
    total: usize,
    claimed: AtomicUsize,
}

impl WorkerBudget {
    /// A budget of `total` worker threads (clamped to at least 1),
    /// shareable across engines.
    pub fn new(total: usize) -> Arc<Self> {
        Arc::new(WorkerBudget {
            total: total.max(1),
            claimed: AtomicUsize::new(0),
        })
    }

    /// The budget's size.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Workers currently claimed across all live claims (may exceed
    /// [`WorkerBudget::total`] by the one-worker floor — see the type
    /// docs).
    pub fn claimed(&self) -> usize {
        self.claimed.load(Ordering::SeqCst)
    }

    /// Claims up to `want` workers: the grant is
    /// `min(want, unclaimed remainder)` but at least 1. The claim is
    /// released when the returned [`BudgetClaim`] drops.
    pub fn claim(self: &Arc<Self>, want: usize) -> BudgetClaim {
        let want = want.max(1);
        let mut granted = 1;
        self.claimed
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |claimed| {
                granted = want.min(self.total.saturating_sub(claimed)).max(1);
                Some(claimed + granted)
            })
            .expect("fetch_update closure always returns Some");
        BudgetClaim {
            budget: Arc::clone(self),
            workers: granted,
        }
    }
}

/// A live share of a [`WorkerBudget`]: how many worker threads the
/// holder's engine may run. Dropping the claim returns the share to the
/// budget.
#[derive(Debug)]
pub struct BudgetClaim {
    budget: Arc<WorkerBudget>,
    workers: usize,
}

impl BudgetClaim {
    /// The granted worker count (at least 1).
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl Drop for BudgetClaim {
    fn drop(&mut self) {
        self.budget
            .claimed
            .fetch_sub(self.workers, Ordering::SeqCst);
    }
}

/// Shape of a [`SketchEngine`]: how many shard sketches, how many worker
/// threads apply them, how deep each worker's queue is, and the routing
/// seed.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of shard sketches (logical sites). At least 1.
    pub shards: usize,
    /// Number of worker threads; capped at `shards`. At least 1.
    pub workers: usize,
    /// Bounded queue depth per worker, in batches; `ingest` blocks when a
    /// queue is full (backpressure).
    pub queue_batches: usize,
    /// Seed for the default edge-hash router.
    pub seed: u64,
}

impl EngineConfig {
    /// `shards` shard sketches applied by at most
    /// [`default_workers`] worker threads.
    ///
    /// # Panics
    /// Panics if `shards` is 0.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "an engine needs at least one shard");
        EngineConfig {
            shards,
            workers: shards.min(default_workers()),
            queue_batches: 8,
            seed: 0x0E06_1E5E,
        }
    }

    /// Overrides the worker-thread count (still capped at `shards`).
    ///
    /// # Panics
    /// Panics if `workers` is 0.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "an engine needs at least one worker");
        self.workers = workers.min(self.shards);
        self
    }

    /// Overrides the per-worker bounded queue depth (in batches).
    ///
    /// # Panics
    /// Panics if `queue_batches` is 0.
    pub fn with_queue_batches(mut self, queue_batches: usize) -> Self {
        assert!(queue_batches >= 1, "queues need capacity at least 1");
        self.queue_batches = queue_batches;
        self
    }

    /// Overrides the routing seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A point-in-time reading of the engine's live counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineStats {
    /// Shard sketch count.
    pub shards: usize,
    /// Worker thread count.
    pub workers: usize,
    /// Updates routed into the engine so far.
    pub updates_routed: u64,
    /// Updates enqueued but not yet applied to a shard.
    pub updates_pending: u64,
    /// Batches enqueued so far (one per worker per `ingest` call).
    pub batches_enqueued: u64,
    /// Drains performed so far ([`SketchEngine::delta_snapshot`] calls).
    pub deltas_drained: u64,
    /// Batches refused by [`SketchEngine::offer`] because a worker queue
    /// was full (the caller was told to retry instead of blocking).
    pub offers_refused: u64,
    /// Per-worker queue depth, in batches.
    pub queue_depths: Vec<usize>,
    /// The bounded per-worker queue capacity, in batches
    /// ([`EngineConfig::queue_batches`]): a queue whose depth has reached
    /// this value blocks `ingest` and refuses `offer`.
    pub queue_capacity: usize,
    /// Total shard-sketch size in bytes ([`LinearSketch::space_bytes`]
    /// summed over shards), charged at the format-frozen wire cell.
    pub bytes_resident: usize,
    /// Width-aware lane bytes summed over shards
    /// ([`gs_sketch::CellBanked::resident_bytes`]): the allocated lane
    /// storage after `w`/`s` lane compaction, versus the format-frozen cell
    /// accounting of `bytes_resident`. Both count allocated bytes, not
    /// what the process holds: lanes are lazily zeroed, so the RSS of
    /// shards with few written cells can be far lower.
    pub lane_bytes_resident: usize,
    /// Shards whose sketch carries a sticky lane-overflow mark
    /// ([`gs_sketch::CellBanked::lane_overflow`]): an ingest kernel detected true
    /// counter overflow, so those shards' answers must not be trusted.
    /// The engine keeps running — overflow poisons the measurement, not
    /// the worker.
    pub lane_overflows: usize,
}

/// Why a batch was refused by [`SketchEngine::try_ingest`]: the first
/// invalid update's position in the batch and what is wrong with it.
/// Nothing from the refused batch was enqueued — the engine state is
/// exactly what it was before the call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestError {
    /// Index of the offending update within the submitted batch.
    pub at: usize,
    /// What [`EdgeUpdate::validate`] rejected.
    pub cause: UpdateError,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "update {} of batch: {}", self.at, self.cause)
    }
}

impl std::error::Error for IngestError {}

/// Why a batch was refused by [`SketchEngine::offer`] — the non-blocking
/// ingest path. Either way, nothing from the batch was enqueued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OfferError {
    /// An update failed validation (same as [`SketchEngine::try_ingest`]).
    Invalid(IngestError),
    /// A worker queue the batch would land on is full. Blocking here is
    /// what [`SketchEngine::ingest`] does; `offer` instead hands the
    /// decision back to the caller, which is what lets a server surface
    /// backpressure as protocol-level flow control (a `BUSY` response)
    /// instead of stalling the connection.
    Busy {
        /// The saturated worker.
        worker: usize,
        /// Its queue depth (== the queue capacity).
        depth: usize,
    },
}

impl std::fmt::Display for OfferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OfferError::Invalid(e) => write!(f, "{e}"),
            OfferError::Busy { worker, depth } => write!(
                f,
                "worker {worker} queue is full ({depth} batches pending); retry later"
            ),
        }
    }
}

impl std::error::Error for OfferError {}

/// Counters shared between the ingest side and the workers.
struct Counters {
    /// Updates enqueued but not yet applied.
    pending: AtomicU64,
    /// Per-worker queue depth, in batches.
    depths: Vec<AtomicUsize>,
}

/// A long-lived, sharded ingest engine over any [`LinearSketch`]: updates
/// stream in through [`SketchEngine::ingest`], answers come out of
/// [`SketchEngine::snapshot`] (mid-stream) or [`SketchEngine::seal`]
/// (final). See the module docs for the design.
pub struct SketchEngine<S: LinearSketch + Send + 'static> {
    /// Shard sketches, indexed by shard id; workers hold clones of the
    /// `Arc`s and lock a shard only while absorbing one batch into it.
    shards: Vec<Arc<Mutex<S>>>,
    /// A pristine zero sketch from the same factory as the shards —
    /// cloned into a shard's slot when [`SketchEngine::delta_snapshot`]
    /// drains it, and the fallback read of an all-idle engine.
    zero: S,
    /// The sketches' vertex count, read once from the zero sketch — the
    /// bound [`SketchEngine::try_ingest`] validates updates against.
    n: usize,
    /// One bounded sender per worker; dropping them shuts the workers down.
    senders: Vec<SyncSender<Batch>>,
    /// Worker join handles.
    workers: Vec<JoinHandle<()>>,
    router: Router,
    counters: Arc<Counters>,
    /// Updates routed to each shard so far (ingest-side, no contention).
    routed_per_shard: Vec<u64>,
    /// Per-shard routing buffers, allocated once. Each call ships the
    /// touched buffers to the workers (`mem::take`, leaving empties), so a
    /// call allocates per *touched* shard, never O(total shards).
    route_scratch: Vec<Vec<EdgeUpdate>>,
    /// Shards touched by the current `ingest` call (reused scratch).
    touched: Vec<usize>,
    /// The bounded per-worker queue capacity, in batches.
    queue_capacity: usize,
    updates_routed: u64,
    batches_enqueued: u64,
    deltas_drained: u64,
    offers_refused: u64,
}

impl<S: LinearSketch + Send + 'static> SketchEngine<S> {
    /// An engine routing by a seeded hash of the edge `{u, v}` (every
    /// update of an edge lands on the same shard). `make` is called
    /// `shards + 1` times on the calling thread — once per shard plus
    /// once for the pristine zero reference that delta drains and
    /// all-idle reads hand out — so it must behave as a pure factory:
    /// every call returns the same empty sketch (equal seeds and
    /// parameters), which is also what makes the shards mutually
    /// mergeable.
    pub fn new(config: EngineConfig, make: impl FnMut() -> S) -> Self {
        let (seed, shards) = (config.seed, config.shards);
        let router: Router = Box::new(move |up| edge_shard(seed, shards, up.u, up.v));
        SketchEngine::with_router(config, router, make)
    }

    /// An engine with a caller-supplied router (e.g. the §1.1 site
    /// sequence, round-robin, or a locality-aware scheme). The router runs
    /// on the ingesting thread in ingest order. `make` is called
    /// `shards + 1` times and must be a pure factory — see
    /// [`SketchEngine::new`].
    ///
    /// # Panics
    /// Panics if `config.shards` is 0 (reachable by building the config
    /// literally instead of via [`EngineConfig::new`]) or a worker thread
    /// cannot be spawned.
    pub fn with_router(config: EngineConfig, router: Router, mut make: impl FnMut() -> S) -> Self {
        assert!(config.shards >= 1, "an engine needs at least one shard");
        let workers_n = config.workers.min(config.shards).max(1);
        let shards: Vec<Arc<Mutex<S>>> = (0..config.shards)
            .map(|_| Arc::new(Mutex::new(make())))
            .collect();
        let zero = make();
        let n = zero.n();
        let counters = Arc::new(Counters {
            pending: AtomicU64::new(0),
            depths: (0..workers_n).map(|_| AtomicUsize::new(0)).collect(),
        });
        let mut senders = Vec::with_capacity(workers_n);
        let mut handles = Vec::with_capacity(workers_n);
        for w in 0..workers_n {
            let (tx, rx) = sync_channel::<Batch>(config.queue_batches.max(1));
            let shard_refs = shards.clone();
            let ctr = Arc::clone(&counters);
            let handle = std::thread::Builder::new()
                .name(format!("sketch-shard-{w}"))
                .spawn(move || worker_loop(rx, shard_refs, ctr, w))
                .expect("spawning engine worker");
            senders.push(tx);
            handles.push(handle);
        }
        SketchEngine {
            shards,
            zero,
            n,
            senders,
            workers: handles,
            router,
            counters,
            routed_per_shard: vec![0; config.shards],
            route_scratch: vec![Vec::new(); config.shards],
            touched: Vec::new(),
            queue_capacity: config.queue_batches.max(1),
            updates_routed: 0,
            batches_enqueued: 0,
            deltas_drained: 0,
            offers_refused: 0,
        }
    }

    /// Routes a batch of updates to the shards and enqueues the per-shard
    /// shares onto the worker queues. Blocks when a queue is full
    /// (backpressure); returns as soon as everything is *enqueued* —
    /// application is asynchronous (see [`SketchEngine::flush`]).
    ///
    /// # Panics
    /// Panics if any update fails [`EdgeUpdate::validate`] (self-loop,
    /// out-of-range endpoint, zero delta), if the router returns an
    /// out-of-range shard, or a worker has died. The validation panic
    /// happens **here, on the calling thread, before anything is
    /// enqueued** — a bad update used to reach the sketch's own `assert!`
    /// inside a shard worker, killing the worker and surfacing later as
    /// an unrelated "worker hung up" panic. Untrusted sources should use
    /// [`SketchEngine::try_ingest`] and get a typed error instead.
    pub fn ingest(&mut self, updates: &[EdgeUpdate]) {
        self.try_ingest(updates)
            .unwrap_or_else(|e| panic!("invalid engine ingest: {e}"));
    }

    /// The fallible twin of [`SketchEngine::ingest`] for untrusted update
    /// sources: every update is validated against the sketches' vertex
    /// set **before anything is enqueued**, so a refused batch leaves the
    /// engine exactly as it was (all-or-nothing, like a routed share).
    pub fn try_ingest(&mut self, updates: &[EdgeUpdate]) -> Result<(), IngestError> {
        if updates.is_empty() {
            return Ok(());
        }
        for (at, up) in updates.iter().enumerate() {
            up.validate(self.n)
                .map_err(|cause| IngestError { at, cause })?;
        }
        self.route(updates);
        self.dispatch();
        Ok(())
    }

    /// The non-blocking twin of [`SketchEngine::try_ingest`]: if any
    /// worker queue the routed batch would land on is already full, the
    /// **whole** batch is refused with [`OfferError::Busy`] instead of
    /// blocking — nothing is enqueued, the engine is exactly as it was
    /// (same all-or-nothing contract as a refused invalid batch). A
    /// resident owner converts the refusal into flow control (a
    /// `BUSY(retry-after)` response) rather than letting one firehose
    /// stall its caller.
    ///
    /// The full-queue check is sound, not just heuristic: this engine is
    /// the queues' only sender (`&mut self`), and workers only *shrink*
    /// the depths concurrently, so a queue observed below capacity cannot
    /// block the send that follows (one `offer` enqueues at most one
    /// batch per worker).
    pub fn offer(&mut self, updates: &[EdgeUpdate]) -> Result<(), OfferError> {
        if updates.is_empty() {
            return Ok(());
        }
        for (at, up) in updates.iter().enumerate() {
            up.validate(self.n)
                .map_err(|cause| OfferError::Invalid(IngestError { at, cause }))?;
        }
        self.route(updates);
        let nworkers = self.senders.len();
        for &s in &self.touched {
            let w = s % nworkers;
            let depth = self.counters.depths[w].load(Ordering::SeqCst);
            if depth >= self.queue_capacity {
                // Refuse the whole batch: clear the routing scratch so
                // nothing of it survives into a later call.
                for s in self.touched.drain(..) {
                    self.route_scratch[s].clear();
                }
                self.offers_refused += 1;
                return Err(OfferError::Busy { worker: w, depth });
            }
        }
        self.dispatch();
        Ok(())
    }

    /// Routes validated updates into the per-shard scratch buffers and
    /// records the touched shards. Callers must follow with
    /// [`SketchEngine::dispatch`] (or clear the scratch on refusal).
    fn route(&mut self, updates: &[EdgeUpdate]) {
        let nshards = self.shards.len();
        for &up in updates {
            let s = (self.router)(&up);
            assert!(
                s < nshards,
                "router sent an update to shard {s} of {nshards}"
            );
            if self.route_scratch[s].is_empty() {
                self.touched.push(s);
            }
            self.route_scratch[s].push(up);
        }
        // Visit touched shards in shard order so per-worker messages are
        // deterministic for a given routing.
        self.touched.sort_unstable();
    }

    /// Drains the routed shares onto the worker queues (blocking when a
    /// queue is full) and updates every ingest-side counter.
    fn dispatch(&mut self) {
        let nworkers = self.senders.len();
        let mut per_worker: Vec<Batch> = vec![Vec::new(); nworkers];
        for s in self.touched.drain(..) {
            let share = std::mem::take(&mut self.route_scratch[s]);
            self.routed_per_shard[s] += share.len() as u64;
            per_worker[s % nworkers].push((s, share));
        }
        for (w, batch) in per_worker.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let count: u64 = batch.iter().map(|(_, share)| share.len() as u64).sum();
            self.updates_routed += count;
            self.batches_enqueued += 1;
            self.counters.pending.fetch_add(count, Ordering::SeqCst);
            self.counters.depths[w].fetch_add(1, Ordering::SeqCst);
            self.senders[w].send(batch).expect("engine worker hung up");
        }
    }

    /// Blocks until every enqueued update has been applied to its shard.
    /// After `flush`, a [`SketchEngine::snapshot`] equals the central
    /// sketch of everything ingested so far, bit for bit.
    ///
    /// # Panics
    /// Panics if a worker died with updates still pending.
    pub fn flush(&self) {
        while self.counters.pending.load(Ordering::SeqCst) > 0 {
            if self.workers.iter().any(|h| h.is_finished()) {
                panic!("engine worker exited with updates still pending");
            }
            std::thread::sleep(Duration::from_micros(20));
        }
    }

    /// Reads the live counters. Locks each shard briefly to sum resident
    /// bytes; ingestion keeps running.
    pub fn stats(&self) -> EngineStats {
        let mut bytes_resident = 0;
        let mut lane_bytes_resident = 0;
        let mut lane_overflows = 0;
        for slot in &self.shards {
            let shard = slot.lock().expect("shard mutex poisoned");
            bytes_resident += shard.space_bytes();
            lane_bytes_resident += shard.resident_bytes();
            lane_overflows += shard.lane_overflow().is_some() as usize;
        }
        EngineStats {
            shards: self.shards.len(),
            workers: self.senders.len(),
            updates_routed: self.updates_routed,
            updates_pending: self.counters.pending.load(Ordering::SeqCst),
            batches_enqueued: self.batches_enqueued,
            deltas_drained: self.deltas_drained,
            offers_refused: self.offers_refused,
            queue_depths: self
                .counters
                .depths
                .iter()
                .map(|d| d.load(Ordering::SeqCst))
                .collect(),
            queue_capacity: self.queue_capacity,
            bytes_resident,
            lane_bytes_resident,
            lane_overflows,
        }
    }

    /// Drains the queues, joins the workers, and folds the shard sketches
    /// in shard order into the final sketch through the parallel
    /// [`merge_tree`] (bit-identical to the sequential fold). Shards that
    /// never received an update are skipped (exact — see the module
    /// docs); if *no* shard received one — a fresh engine, or one fully
    /// drained by [`SketchEngine::delta_snapshot`] — the pristine zero
    /// sketch is returned, so the all-idle read is the same valid empty
    /// sketch however the engine got there.
    ///
    /// # Panics
    /// Panics if a worker panicked.
    pub fn seal(mut self) -> S {
        self.senders.clear(); // closes every queue; workers drain and exit
        for handle in std::mem::take(&mut self.workers) {
            handle.join().expect("engine worker panicked");
        }
        let shards = std::mem::take(&mut self.shards);
        let routed = std::mem::take(&mut self.routed_per_shard);
        let mut sketches: Vec<S> = shards
            .into_iter()
            .map(|slot| {
                Arc::try_unwrap(slot)
                    .unwrap_or_else(|_| panic!("a joined worker still holds a shard"))
                    .into_inner()
                    .expect("shard mutex poisoned")
            })
            .collect();
        if routed.iter().all(|&r| r == 0) {
            // All idle: every shard holds the zero sketch (empty-built, or
            // freshly swapped in by a delta drain) — return one of them.
            return sketches.swap_remove(0);
        }
        let active: Vec<S> = sketches
            .into_iter()
            .zip(routed)
            .filter(|(_, routed)| *routed > 0)
            .map(|(sketch, _)| sketch)
            .collect();
        merge_tree(active, default_workers()).expect("some shard was active")
    }
}

impl<S: LinearSketch + Send + Clone + 'static> SketchEngine<S> {
    /// Merges the shard sketches in shard order **without stopping
    /// ingestion** and returns the merged sketch: the first active shard
    /// is cloned and every later active shard folded into the clone, so a
    /// snapshot copies one sketch however many shards are active. Idle
    /// shards are never locked.
    ///
    /// The result is a linear sketch of a sub-multiset of the ingested
    /// updates: each routed share is reflected fully or not at all, per
    /// shard, so mid-stream a snapshot may see a deletion whose insertion
    /// was routed to a not-yet-applied share (the same transient the
    /// per-site streams of §1.1 exhibit). After [`SketchEngine::flush`]
    /// the snapshot equals the central sketch of everything ingested.
    pub fn snapshot(&self) -> S {
        let mut merged: Option<S> = None;
        for (slot, _) in self
            .shards
            .iter()
            .zip(&self.routed_per_shard)
            .filter(|(_, &routed)| routed > 0)
        {
            let shard = slot.lock().expect("shard mutex poisoned");
            match merged.as_mut() {
                Some(acc) => acc.merge(&shard),
                None => merged = Some(shard.clone()),
            }
        }
        merged.unwrap_or_else(|| self.zero.clone())
    }

    /// The engine's read path: a [`SketchEngine::snapshot`] decoded
    /// under the given [`DecodePlan`] — merge-on-read, then a planned
    /// decode, without stopping ingestion. Nothing is memoized: every
    /// call decodes. The answer is bit-identical to
    /// `snapshot().decode()` for every thread count
    /// ([`gs_sketch::LinearSketch::decode_with`]'s contract).
    pub fn answer(&self, plan: &DecodePlan) -> S::Output {
        self.snapshot().decode_with(plan)
    }

    /// Drains the engine's pending delta: flushes the queues, then swaps
    /// **every** shard (idle ones included, so a round always ships the
    /// same shard count) for a fresh zero sketch and returns the drained
    /// shard sketches in shard order. Each returned sketch is the exact
    /// linear sketch of the updates its shard absorbed since the previous
    /// drain — an engine that ingested nothing yields one valid empty
    /// delta per shard, never an inconsistent subset. By linearity,
    /// summing every drained round (plus a final [`SketchEngine::seal`],
    /// which covers updates ingested after the last drain) reconstructs
    /// the central sketch of the whole stream bit for bit.
    pub fn delta_snapshot(&mut self) -> Vec<S> {
        // Flush first: routed-counter resets must not race in-flight
        // batches, or a later merge could skip a shard that still absorbs
        // a pre-drain batch (`ingest` and this method share `&mut self`,
        // so nothing new is routed while the swap runs).
        self.flush();
        let drained = self
            .shards
            .iter()
            .map(|slot| {
                let mut shard = slot.lock().expect("shard mutex poisoned");
                std::mem::replace(&mut *shard, self.zero.clone())
            })
            .collect();
        for routed in &mut self.routed_per_shard {
            *routed = 0;
        }
        self.deltas_drained += 1;
        drained
    }
}

/// Merges the sketches into one as a **binary tree reduction** over
/// scoped threads: the slice is split in half, the halves reduce
/// concurrently (recursively, while thread `budget` remains), and the two
/// results merge. Returns `None` for an empty input.
///
/// Because every sketch merge is an associative lane-wise sum (integer
/// and `F_{2^61−1}` addition), the tree's result is **bit-identical to
/// the in-order sequential fold** — `budget <= 1` *is* that fold, and
/// `tests/integration_delta.rs` pins the equality for every sketch type.
/// Wall-clock merge depth drops from O(n) to O(log n) across `budget`
/// threads, which is what takes the O(shards × state) merge chain off the
/// engine's read path.
pub fn merge_tree<S: gs_sketch::Mergeable + Send>(items: Vec<S>, budget: usize) -> Option<S> {
    fn reduce<S: gs_sketch::Mergeable + Send>(items: &mut [Option<S>], budget: usize) -> S {
        if items.len() == 1 {
            return items[0].take().expect("slots are filled once");
        }
        if budget <= 1 || items.len() == 2 {
            let (first, rest) = items.split_first_mut().expect("non-empty slice");
            let mut acc = first.take().expect("slots are filled once");
            for slot in rest {
                acc.merge(&slot.take().expect("slots are filled once"));
            }
            return acc;
        }
        let mid = items.len() / 2;
        let (left, right) = items.split_at_mut(mid);
        let right_budget = budget - budget / 2;
        let (mut folded, right) = std::thread::scope(|scope| {
            let handle = scope.spawn(move || reduce(right, right_budget));
            let left = reduce(left, budget / 2);
            (left, handle.join().expect("merge thread panicked"))
        });
        folded.merge(&right);
        folded
    }
    if items.is_empty() {
        return None;
    }
    let mut slots: Vec<Option<S>> = items.into_iter().map(Some).collect();
    Some(reduce(&mut slots, budget.max(1)))
}

impl<S: LinearSketch + Send + 'static> Drop for SketchEngine<S> {
    /// Dropping an unsealed engine shuts the workers down cleanly (pending
    /// batches are still applied, then the queues close).
    fn drop(&mut self) {
        self.senders.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Applies routed batches to their shards until the queue closes.
fn worker_loop<S: LinearSketch + Send>(
    rx: Receiver<Batch>,
    shards: Vec<Arc<Mutex<S>>>,
    counters: Arc<Counters>,
    worker: usize,
) {
    while let Ok(batch) = rx.recv() {
        for (s, share) in batch {
            {
                let mut shard = shards[s].lock().expect("shard mutex poisoned");
                shard.absorb(&share);
            }
            // Decrement only after the share is applied and the lock is
            // released: `flush` + the shard mutex then give snapshot
            // readers a happens-before edge to the absorbed state.
            counters
                .pending
                .fetch_sub(share.len() as u64, Ordering::SeqCst);
        }
        counters.depths[worker].fetch_sub(1, Ordering::SeqCst);
    }
}

/// The default router: a seeded hash of the undirected edge `{u, v}`, so
/// every update of an edge lands on the same shard regardless of ingest
/// order or endpoint order.
fn edge_shard(seed: u64, shards: usize, u: usize, v: usize) -> usize {
    let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
    let key = seed
        ^ (lo as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (hi as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    SplitMix64::new(key).next_range(shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_field::M61;
    use gs_sketch::domain::{edge_domain, edge_index};
    use gs_sketch::{CellBank, CellBanked, Mergeable};

    /// Exact edge-vector tally: the simplest possible linear sketch, so
    /// every engine assertion is bit-for-bit by construction.
    #[derive(Clone, Debug, PartialEq)]
    struct TallySketch {
        n: usize,
        cells: Vec<i64>,
    }

    impl TallySketch {
        fn new(n: usize) -> Self {
            TallySketch {
                n,
                cells: vec![0; edge_domain(n) as usize],
            }
        }
    }

    impl Mergeable for TallySketch {
        fn merge(&mut self, other: &Self) {
            assert_eq!(self.n, other.n);
            for (a, b) in self.cells.iter_mut().zip(&other.cells) {
                *a += b;
            }
        }
    }

    /// Bank-less: the tally keeps plain `i64` counters, so its size is
    /// its own `space_bytes`.
    impl CellBanked for TallySketch {
        fn banks(&self) -> Vec<&CellBank> {
            Vec::new()
        }

        fn banks_mut(&mut self) -> Vec<&mut CellBank> {
            Vec::new()
        }

        fn fingerprints(&self) -> Vec<M61> {
            Vec::new()
        }

        fn fingerprints_mut(&mut self) -> Vec<&mut M61> {
            Vec::new()
        }
    }

    impl LinearSketch for TallySketch {
        type Output = Vec<i64>;

        fn n(&self) -> usize {
            self.n
        }

        fn update_edge(&mut self, u: usize, v: usize, delta: i64) {
            self.cells[edge_index(self.n, u, v) as usize] += delta;
        }

        fn absorb_with(&mut self, batch: &[EdgeUpdate], _plan: &DecodePlan) {
            for up in batch {
                self.update_edge(up.u, up.v, up.delta);
            }
        }

        fn space_bytes(&self) -> usize {
            self.cells.len() * 8
        }

        fn decode_with(&self, _plan: &DecodePlan) -> Vec<i64> {
            self.cells.clone()
        }
    }

    fn churn(n: usize, len: usize, seed: u64) -> Vec<EdgeUpdate> {
        let mut rng = SplitMix64::new(seed);
        let mut ups = Vec::with_capacity(len);
        for _ in 0..len {
            let u = rng.next_range(n as u64) as usize;
            let mut v = rng.next_range(n as u64) as usize;
            if u == v {
                v = (v + 1) % n;
            }
            let delta = if rng.next_range(3) == 0 { -1 } else { 1 };
            ups.push(EdgeUpdate { u, v, delta });
        }
        ups
    }

    fn central(n: usize, updates: &[EdgeUpdate]) -> TallySketch {
        let mut s = TallySketch::new(n);
        s.absorb(updates);
        s
    }

    #[test]
    fn sealed_engine_equals_central_across_shapes() {
        let n = 24;
        let updates = churn(n, 700, 1);
        let want = central(n, &updates);
        for (shards, workers) in [(1, 1), (2, 2), (5, 2), (8, 3), (16, 4)] {
            let cfg = EngineConfig::new(shards).with_workers(workers).with_seed(9);
            let mut engine = SketchEngine::new(cfg, || TallySketch::new(n));
            for chunk in updates.chunks(64) {
                engine.ingest(chunk);
            }
            assert_eq!(engine.seal(), want, "shards={shards} workers={workers}");
        }
    }

    #[test]
    fn flushed_snapshot_is_central_prefix_and_engine_keeps_ingesting() {
        let n = 20;
        let updates = churn(n, 600, 2);
        let mid = updates.len() / 2;
        let mut engine =
            SketchEngine::new(EngineConfig::new(4).with_seed(3), || TallySketch::new(n));
        engine.ingest(&updates[..mid]);
        engine.flush();
        assert_eq!(engine.snapshot(), central(n, &updates[..mid]));
        // The snapshot is a clone: the engine keeps ingesting afterwards.
        engine.ingest(&updates[mid..]);
        assert_eq!(engine.seal(), central(n, &updates));
    }

    #[test]
    fn quiesce_free_snapshot_is_a_merge_of_whole_shares() {
        // Without a flush the snapshot still merges without panicking and
        // is a valid tally of a sub-multiset of the routed updates.
        let n = 16;
        let updates = churn(n, 2000, 4);
        let mut engine =
            SketchEngine::new(EngineConfig::new(4).with_seed(5), || TallySketch::new(n));
        for chunk in updates.chunks(32) {
            engine.ingest(chunk);
        }
        let snap = engine.snapshot();
        assert_eq!(snap.n, n);
        let tallied: i64 = snap.cells.iter().map(|c| c.abs()).sum();
        assert!(
            tallied <= updates.len() as i64,
            "a snapshot tallies at most the routed updates"
        );
        assert_eq!(engine.seal(), central(n, &updates));
    }

    #[test]
    fn custom_router_preserves_shard_order_merge() {
        // Round-robin routing: shard s gets updates s, s+3, s+6, … —
        // sealing must equal absorbing the parts per shard and merging in
        // shard order (which, by linearity, equals central).
        let n = 12;
        let updates = churn(n, 300, 6);
        let mut next = 0usize;
        let router: Router = Box::new(move |_| {
            let s = next;
            next = (next + 1) % 3;
            s
        });
        let mut engine =
            SketchEngine::with_router(EngineConfig::new(3), router, || TallySketch::new(n));
        engine.ingest(&updates);
        assert_eq!(engine.seal(), central(n, &updates));
    }

    #[test]
    fn backpressured_queues_still_apply_everything() {
        let n = 16;
        let updates = churn(n, 1500, 7);
        let cfg = EngineConfig::new(4).with_workers(2).with_queue_batches(1);
        let mut engine = SketchEngine::new(cfg, || TallySketch::new(n));
        for chunk in updates.chunks(8) {
            engine.ingest(chunk); // blocks on full queues instead of growing them
        }
        assert_eq!(engine.seal(), central(n, &updates));
    }

    #[test]
    fn stats_track_routing_and_drain_to_zero() {
        let n = 16;
        let updates = churn(n, 400, 8);
        let mut engine =
            SketchEngine::new(EngineConfig::new(4).with_seed(11), || TallySketch::new(n));
        engine.ingest(&updates);
        engine.flush();
        let stats = engine.stats();
        assert_eq!(stats.updates_routed, updates.len() as u64);
        assert_eq!(stats.updates_pending, 0);
        assert!(stats.batches_enqueued >= 1);
        assert_eq!(stats.shards, 4);
        assert!(stats.queue_depths.iter().all(|&d| d == 0));
        assert!(stats.bytes_resident > 0);
        assert_eq!(engine.seal(), central(n, &updates));
    }

    #[test]
    fn empty_engine_seals_to_empty_sketch() {
        let engine = SketchEngine::new(EngineConfig::new(6), || TallySketch::new(8));
        assert_eq!(engine.seal(), TallySketch::new(8));
    }

    #[test]
    fn empty_engine_snapshot_is_empty_sketch() {
        let engine = SketchEngine::new(EngineConfig::new(3), || TallySketch::new(8));
        assert_eq!(engine.snapshot(), TallySketch::new(8));
    }

    #[test]
    fn dropping_an_unsealed_engine_joins_workers() {
        let n = 16;
        let mut engine = SketchEngine::new(EngineConfig::new(4), || TallySketch::new(n));
        engine.ingest(&churn(n, 100, 12));
        drop(engine); // must not hang or leak threads
    }

    #[test]
    fn more_shards_than_workers_than_updates() {
        let updates = vec![
            EdgeUpdate::insert(0, 1),
            EdgeUpdate::insert(1, 2),
            EdgeUpdate::delete(0, 1),
        ];
        let cfg = EngineConfig::new(32).with_workers(4);
        let mut engine = SketchEngine::new(cfg, || TallySketch::new(4));
        engine.ingest(&updates);
        assert_eq!(engine.seal(), central(4, &updates));
    }

    #[test]
    fn merge_tree_equals_sequential_fold_at_every_budget() {
        let n = 10;
        let parts: Vec<TallySketch> = (0..9).map(|i| central(n, &churn(n, 120, 40 + i))).collect();
        // budget = 1 is the sequential fold by construction.
        let sequential = merge_tree(parts.clone(), 1).unwrap();
        let mut manual = parts[0].clone();
        for p in &parts[1..] {
            manual.merge(p);
        }
        assert_eq!(sequential, manual);
        for budget in [2, 3, 4, 8, 64] {
            assert_eq!(
                merge_tree(parts.clone(), budget).unwrap(),
                sequential,
                "budget {budget} drifted from the sequential fold"
            );
        }
        assert!(merge_tree(Vec::<TallySketch>::new(), 4).is_none());
        assert_eq!(merge_tree(vec![parts[0].clone()], 4).unwrap(), parts[0]);
    }

    #[test]
    fn delta_rounds_compose_to_central_under_contention() {
        // The linearity law on the delta path: interleave backpressured
        // ingest with repeated drains; every drained shard plus a final
        // seal must sum to the central sketch bit for bit.
        let n = 16;
        let updates = churn(n, 3000, 31);
        let cfg = EngineConfig::new(8)
            .with_workers(4)
            .with_queue_batches(1)
            .with_seed(17);
        let mut engine = SketchEngine::new(cfg, || TallySketch::new(n));
        let mut sum = TallySketch::new(n);
        for (round, chunk) in updates.chunks(157).enumerate() {
            engine.ingest(chunk);
            if round % 3 == 2 {
                let drained = engine.delta_snapshot();
                assert_eq!(drained.len(), 8, "a drain ships every shard");
                for shard in &drained {
                    sum.merge(shard);
                }
            }
        }
        assert_eq!(engine.stats().deltas_drained, 6);
        // The residual (updates since the last drain) comes out of seal.
        sum.merge(&engine.seal());
        assert_eq!(sum, central(n, &updates));
    }

    #[test]
    fn zero_ingest_delta_snapshot_is_a_full_round_of_valid_empty_deltas() {
        // Regression: an engine that ingested nothing must emit one valid
        // empty delta per shard — the same shard count as any other round,
        // never an inconsistently-skipped subset — and still seal to the
        // empty sketch afterwards.
        let mut engine = SketchEngine::new(EngineConfig::new(5), || TallySketch::new(8));
        let drained = engine.delta_snapshot();
        assert_eq!(drained.len(), 5);
        for shard in &drained {
            assert_eq!(
                *shard,
                TallySketch::new(8),
                "an empty delta is the zero sketch"
            );
        }
        // A second drain is just as consistent, and the engine still
        // ingests and seals correctly afterwards.
        assert_eq!(engine.delta_snapshot().len(), 5);
        assert_eq!(engine.stats().deltas_drained, 2);
        let updates = churn(8, 50, 77);
        engine.ingest(&updates);
        assert_eq!(engine.seal(), central(8, &updates));
    }

    #[test]
    fn drained_engine_snapshot_and_seal_read_zero() {
        // After a drain the engine's own reads see only the residual.
        let n = 12;
        let updates = churn(n, 200, 55);
        let mut engine =
            SketchEngine::new(EngineConfig::new(4).with_seed(3), || TallySketch::new(n));
        engine.ingest(&updates);
        let drained = engine.delta_snapshot();
        assert_eq!(engine.snapshot(), TallySketch::new(n));
        let mut sum = TallySketch::new(n);
        for shard in &drained {
            sum.merge(shard);
        }
        assert_eq!(sum, central(n, &updates));
        assert_eq!(engine.seal(), TallySketch::new(n));
    }

    #[test]
    fn invalid_updates_are_refused_typed_before_any_worker_sees_them() {
        // Pre-validation, a self-loop or out-of-range endpoint reached the
        // sketch's own assert inside a shard worker: the worker died and
        // the failure surfaced later as an unrelated engine panic. Now the
        // whole batch is refused up front with a typed error and the
        // engine keeps working.
        let n = 8;
        let good = churn(n, 60, 91);
        let mut engine =
            SketchEngine::new(EngineConfig::new(4).with_seed(7), || TallySketch::new(n));
        engine.ingest(&good[..30]);
        let bad_batches: Vec<(Vec<EdgeUpdate>, UpdateError)> = vec![
            (
                vec![EdgeUpdate::insert(0, 1), EdgeUpdate::insert(3, 3)],
                UpdateError::SelfLoop { u: 3 },
            ),
            (
                vec![EdgeUpdate::insert(2, n + 5)],
                UpdateError::OutOfRange { u: 2, v: n + 5, n },
            ),
            (
                vec![EdgeUpdate {
                    u: 0,
                    v: 1,
                    delta: 0,
                }],
                UpdateError::ZeroDelta { u: 0, v: 1 },
            ),
        ];
        for (batch, want) in bad_batches {
            let at = batch.len() - 1;
            let err = engine.try_ingest(&batch).unwrap_err();
            assert_eq!(err, IngestError { at, cause: want });
            assert!(!err.to_string().is_empty());
        }
        // All-or-nothing: the valid prefix of a refused batch was NOT
        // enqueued, so the final state covers exactly the good updates.
        engine.ingest(&good[30..]);
        assert_eq!(engine.seal(), central(n, &good));
    }

    #[test]
    #[should_panic(expected = "invalid engine ingest")]
    fn infallible_ingest_panics_on_the_calling_thread_with_context() {
        let mut engine = SketchEngine::new(EngineConfig::new(2), || TallySketch::new(4));
        engine.ingest(&[EdgeUpdate::insert(1, 1)]);
    }

    #[test]
    fn answer_is_a_planned_snapshot_decode() {
        let n = 12;
        let updates = churn(n, 200, 93);
        let mut engine =
            SketchEngine::new(EngineConfig::new(3).with_seed(5), || TallySketch::new(n));
        engine.ingest(&updates);
        engine.flush();
        for threads in [1, 2, 8] {
            assert_eq!(
                engine.answer(&DecodePlan::with_threads(threads)),
                central(n, &updates).decode(),
                "threads = {threads}"
            );
        }
        assert_eq!(engine.seal(), central(n, &updates));
    }

    /// A tally sketch whose updates block on a shared gate — lets a test
    /// hold a worker mid-absorb deterministically.
    #[derive(Clone)]
    struct GatedSketch {
        gate: Arc<Mutex<()>>,
        inner: TallySketch,
    }

    impl Mergeable for GatedSketch {
        fn merge(&mut self, other: &Self) {
            self.inner.merge(&other.inner);
        }
    }

    impl CellBanked for GatedSketch {
        fn banks(&self) -> Vec<&CellBank> {
            Vec::new()
        }

        fn banks_mut(&mut self) -> Vec<&mut CellBank> {
            Vec::new()
        }

        fn fingerprints(&self) -> Vec<M61> {
            Vec::new()
        }

        fn fingerprints_mut(&mut self) -> Vec<&mut M61> {
            Vec::new()
        }
    }

    impl LinearSketch for GatedSketch {
        type Output = Vec<i64>;

        fn n(&self) -> usize {
            self.inner.n()
        }

        fn update_edge(&mut self, u: usize, v: usize, delta: i64) {
            let _held = self.gate.lock().expect("gate poisoned");
            self.inner.update_edge(u, v, delta);
        }

        fn absorb_with(&mut self, batch: &[EdgeUpdate], _plan: &DecodePlan) {
            for up in batch {
                self.update_edge(up.u, up.v, up.delta);
            }
        }

        fn space_bytes(&self) -> usize {
            self.inner.space_bytes()
        }

        fn decode_with(&self, _plan: &DecodePlan) -> Vec<i64> {
            self.inner.decode()
        }
    }

    #[test]
    fn offer_refuses_whole_batch_when_a_queue_is_full() {
        let n = 8;
        let gate = Arc::new(Mutex::new(()));
        let cfg = EngineConfig::new(1).with_workers(1).with_queue_batches(1);
        let mut engine = {
            let gate = Arc::clone(&gate);
            SketchEngine::new(cfg, move || GatedSketch {
                gate: Arc::clone(&gate),
                inner: TallySketch::new(n),
            })
        };
        let b1 = vec![EdgeUpdate::insert(0, 1)];
        let b2 = vec![EdgeUpdate::insert(2, 3)]; // must NOT survive the refusal
        let b3 = vec![EdgeUpdate::insert(4, 5)];
        let held = gate.lock().expect("gate poisoned");
        engine.offer(&b1).expect("empty queue accepts the batch");
        // The worker is blocked on the gate, so the enqueued batch cannot
        // finish: the depth counter (set before the send, cleared only
        // after the batch is fully absorbed) stays at capacity and the
        // second offer must refuse deterministically.
        let err = engine
            .offer(&b2)
            .expect_err("offer accepted a batch with a full queue");
        assert!(matches!(err, OfferError::Busy { worker: 0, .. }));
        assert!(!err.to_string().is_empty());
        drop(held);
        engine.flush();
        // After the drain the engine accepts again (depth decrement can
        // trail the pending counter briefly — retry).
        loop {
            match engine.offer(&b3) {
                Ok(()) => break,
                Err(OfferError::Busy { .. }) => std::thread::yield_now(),
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(engine.stats().offers_refused, 1);
        // The refused b2 left no residue: the final state is b1 + b3 only.
        let accepted: Vec<EdgeUpdate> = b1.into_iter().chain(b3).collect();
        assert_eq!(engine.seal().inner, central(n, &accepted));
    }

    #[test]
    fn offer_validates_before_checking_queues() {
        let mut engine = SketchEngine::new(EngineConfig::new(2), || TallySketch::new(4));
        let err = engine.offer(&[EdgeUpdate::insert(1, 1)]).unwrap_err();
        assert!(matches!(err, OfferError::Invalid(_)));
        assert_eq!(engine.stats().offers_refused, 0);
        assert_eq!(engine.seal(), TallySketch::new(4));
    }

    #[test]
    fn stats_expose_queue_capacity() {
        let engine = SketchEngine::new(EngineConfig::new(2).with_queue_batches(3), || {
            TallySketch::new(4)
        });
        assert_eq!(engine.stats().queue_capacity, 3);
        assert_eq!(engine.stats().offers_refused, 0);
    }

    #[test]
    fn worker_budget_grants_fair_shares_with_a_floor() {
        let budget = WorkerBudget::new(4);
        assert_eq!(budget.total(), 4);
        let a = budget.claim(3);
        assert_eq!(a.workers(), 3);
        let b = budget.claim(3);
        assert_eq!(b.workers(), 1, "only the remainder is granted");
        // Fully subscribed: the floor still grants one worker.
        let c = budget.claim(5);
        assert_eq!(c.workers(), 1);
        assert_eq!(budget.claimed(), 5);
        drop(a);
        assert_eq!(budget.claimed(), 2);
        let d = budget.claim(9);
        assert_eq!(d.workers(), 2, "released workers are claimable again");
        drop((b, c, d));
        assert_eq!(budget.claimed(), 0);
        // A zero-sized budget still runs one worker per claim.
        let tiny = WorkerBudget::new(0);
        assert_eq!(tiny.total(), 1);
        assert_eq!(tiny.claim(8).workers(), 1);
    }

    #[test]
    fn config_caps_workers_at_shards() {
        let cfg = EngineConfig::new(2).with_workers(64);
        assert_eq!(cfg.workers, 2);
        let cfg = EngineConfig::new(3);
        assert!(cfg.workers >= 1 && cfg.workers <= 3);
    }
}
