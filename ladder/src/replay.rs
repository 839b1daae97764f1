//! The outside-in per-layer trace.
//!
//! After a traced served run, the operation log is replayed in order
//! through each layer's public functions, in this process, with the
//! server's own engine configuration: frame decode, engine offer, delta
//! parse and apply, and at query points flush, clone, merge-on-read
//! snapshot, merge, cached decode and answer rendering; at checkpoints
//! drain, v2 encode and the write-then-rename. Each replayed call is a
//! span whose `op` is the served operation it re-enacts, parented to that
//! operation's served span.
//!
//! Spans are `sync` when the served request waits for that work and
//! `async` when it runs off the request's path (engine workers absorb
//! after the ingest is acknowledged). A span's self time is its duration
//! minus its sync children's; a served span's self time is the
//! *unexplained remainder* — socket, scheduling and locking the layers
//! do not account for — so for every workload the layer self times plus
//! the remainder equal the traced end-to-end time exactly.
//!
//! The absorb path (task `absorb`, and inside it the M61 hash schedule
//! and the cell-bank fan of `ForestSketch`) is replayed single-threaded
//! on a prefix of the first tenant's ingests to get per-update costs.

use crate::served::{Kind, OpRec, Phase};
use crate::workloads::{fnv, Prepared, TenantInput};
use graph_sketches::api::{SketchAnswer, SketchSpec};
use graph_sketches::connectivity::ForestParams;
use graph_sketches::frame;
use graph_sketches::incidence::sign_for;
use graph_sketches::wire::SketchDelta;
use graph_sketches::{AnySketch, SketchFile};
use gs_field::{HashBackend, Randomness, M61};
use gs_sketch::bank::{BankGeometry, CellBank};
use gs_sketch::domain::{edge_domain, edge_index};
use gs_sketch::par::DecodePlan;
use gs_sketch::{level_count, DecodeCache, EdgeUpdate, LaneWidth, LinearSketch};
use gs_stream::engine::{BudgetClaim, EngineConfig, OfferError, SketchEngine, WorkerBudget};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub op: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub sync: bool,
    /// `served` spans are timed against the served run's epoch, `replay`
    /// spans against the replay's.
    pub clock: &'static str,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Fresh queries replayed at most (evenly spaced over the run).
const QUERY_SAMPLES: usize = 40;
/// Checkpoints whose encode and write are replayed at most.
const CHECKPOINT_SAMPLES: usize = 4;
/// Updates replayed through the single-threaded absorb path.
const ABSORB_SAMPLE: usize = 200_000;
/// Raw ingests re-encoded as delta records on workloads without deltas.
const DELTA_SAMPLES: usize = 12;

/// A replayed tenant, built as the server builds one.
struct Tenant<'a> {
    input: &'a TenantInput,
    base: SketchFile,
    engine: SketchEngine<AnySketch>,
    cache: DecodeCache<SketchAnswer>,
    /// Acknowledged ingests applied so far (the tenant's prefix).
    applied: usize,
    dirty: bool,
}

/// The replay's result: spans plus the per-layer samples they yield.
pub struct Trace {
    pub spans: Vec<Span>,
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub counts: BTreeMap<&'static str, f64>,
    pub replay_mismatches: usize,
}

struct Replayer<'a> {
    epoch: Instant,
    spans: Vec<Span>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
    tenants: Vec<Tenant<'a>>,
    _claims: Vec<BudgetClaim>,
    scratch: &'a Path,
    mismatches: usize,
}

impl<'a> Replayer<'a> {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as a span named `name` under `parent`, returning its
    /// value and span id.
    fn span<T>(
        &mut self,
        op: u64,
        parent: u64,
        name: &'static str,
        sync: bool,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, u64) {
        let id = self.spans.len() as u64 + ROOT_IDS;
        let start = self.now();
        self.spans.push(Span {
            op,
            id,
            parent: Some(parent),
            name,
            start_ns: start,
            end_ns: start,
            sync,
            clock: "replay",
        });
        let out = f(self);
        let end = self.now();
        let slot = (id - ROOT_IDS) as usize;
        self.spans[slot].end_ns = end;
        self.sample(name, (end - start) as f64);
        (out, id)
    }

    fn sample(&mut self, name: &'static str, ns: f64) {
        self.samples.entry(name).or_default().push(ns);
    }

    fn count(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_default() += by;
    }
}

/// Span ids below this are the served operations' root spans (id = the
/// operation's index in the log); replay spans count up from here.
pub const ROOT_IDS: u64 = 1 << 32;

/// The synthetic root of the final-state checkpoint replay, on workloads
/// that send no checkpoints.
const FINAL_STATE: u64 = u64::MAX;

/// Replays `log` (a traced, parity-checked run of `p`). `scratch` is a
/// directory for the checkpoint writes.
pub fn replay(p: &Prepared, log: &[OpRec], scratch: &Path) -> Trace {
    // Mirror the server's worker budget split (tenants claim an even
    // share in creation order) and its per-tenant engine shape.
    let budget = WorkerBudget::new(gs_stream::engine::default_workers());
    let mut claims = Vec::new();
    let tenants = p
        .tenants
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let claim = budget.claim((budget.total() / (i + 1)).max(1));
            let workers = claim.workers();
            claims.push(claim);
            let spec = input.spec;
            Tenant {
                input,
                base: SketchFile::new(spec, spec.build()).expect("a fresh spec builds a file"),
                engine: server_engine(spec, workers),
                cache: DecodeCache::new(),
                applied: 0,
                dirty: true,
            }
        })
        .collect();
    let mut r = Replayer {
        epoch: Instant::now(),
        spans: Vec::new(),
        samples: BTreeMap::new(),
        counts: BTreeMap::new(),
        tenants,
        _claims: claims,
        scratch,
        mismatches: 0,
    };

    // Per tenant, the acknowledged ingests in unit order: the k-th is
    // what the tenant's prefix k ends with.
    let mut acked: Vec<Vec<usize>> = vec![Vec::new(); p.tenants.len()];
    for (i, op) in log.iter().enumerate() {
        if op.kind == Kind::Ingest && op.error.is_none() {
            acked[op.tenant.expect("ingests name a tenant")].push(i);
        }
    }
    for list in &mut acked {
        list.sort_by_key(|&i| log[i].unit);
    }
    let fresh: Vec<usize> = (0..log.len())
        .filter(|&i| log[i].kind == Kind::Query && log[i].fresh && log[i].phase == Phase::Measure)
        .collect();
    let sampled_queries: Vec<usize> = evenly(&fresh, QUERY_SAMPLES);
    let checkpoints: Vec<usize> = (0..log.len())
        .filter(|&i| log[i].kind == Kind::Checkpoint && log[i].error.is_none())
        .collect();
    let sampled_checkpoints: Vec<usize> = checkpoints
        .iter()
        .copied()
        .take(CHECKPOINT_SAMPLES)
        .collect();

    let mut replayed = vec![false; log.len()];
    for (i, op) in log.iter().enumerate() {
        match op.kind {
            Kind::Ingest if op.error.is_none() => {
                let ti = op.tenant.expect("ingests name a tenant");
                // Already applied out of order for an earlier query.
                if acked[ti][..r.tenants[ti].applied].contains(&i) {
                    continue;
                }
                apply_ingest(&mut r, log, ti, i);
                replayed[i] = true;
            }
            Kind::Query if sampled_queries.binary_search(&i).is_ok() => {
                let ti = op.tenant.expect("queries name a tenant");
                let Some(prefix) = op.prefix else { continue };
                // Bring the tenant to the prefix the answer matched; skip
                // the sample if the replay already ran past it.
                while r.tenants[ti].applied < prefix {
                    let next = acked[ti][r.tenants[ti].applied];
                    apply_ingest(&mut r, log, ti, next);
                    replayed[next] = true;
                }
                if r.tenants[ti].applied == prefix {
                    replay_query(&mut r, op, i as u64, ti);
                    replayed[i] = true;
                }
            }
            Kind::Checkpoint if op.error.is_none() => {
                let timed = sampled_checkpoints.contains(&i);
                let which: Vec<usize> = match op.tenant {
                    Some(ti) => vec![ti],
                    None => (0..r.tenants.len()).collect(),
                };
                for ti in which {
                    replay_checkpoint(&mut r, i as u64, i as u64, ti, timed);
                }
                replayed[i] = timed;
            }
            _ => {}
        }
    }
    let mut final_state = None;
    if sampled_checkpoints.is_empty() {
        // Workloads without checkpoints still get the encode and write
        // costs of their final state, under a synthetic root.
        let start = r.now();
        for ti in 0..r.tenants.len() {
            replay_checkpoint(&mut r, FINAL_STATE, FINAL_STATE, ti, true);
        }
        final_state = Some(Span {
            op: FINAL_STATE,
            id: FINAL_STATE,
            parent: None,
            name: "replay.final_state",
            start_ns: start,
            end_ns: r.now(),
            sync: false,
            clock: "replay",
        });
    }
    if p.tenants.iter().all(|t| t.deltas.is_empty()) {
        replay_deltas(&mut r, log, &acked[0]);
    } else {
        for t in &p.tenants {
            for &ns in &t.delta_encode_ns {
                r.sample("core.wire.delta_encode", ns as f64);
            }
        }
        replay_frames_off_path(&mut r, log, &acked[0]);
    }
    replay_absorb(&mut r, log, &acked[0]);

    let mut spans = served_roots(log, &replayed);
    spans.extend(r.spans);
    spans.extend(final_state);
    Trace {
        spans,
        samples: r.samples,
        counts: r.counts,
        replay_mismatches: r.mismatches,
    }
}

/// A tenant engine shaped as gs-serve shapes one for `workers` claimed
/// workers.
fn server_engine(spec: SketchSpec, workers: usize) -> SketchEngine<AnySketch> {
    let config = EngineConfig::new((workers * 2).max(2))
        .with_workers(workers)
        .with_seed(spec.seed);
    SketchEngine::new(config, || spec.build())
}

/// At most `k` elements of `xs`, evenly spaced, in order.
fn evenly(xs: &[usize], k: usize) -> Vec<usize> {
    if xs.len() <= k {
        return xs.to_vec();
    }
    (0..k).map(|j| xs[j * xs.len() / k]).collect()
}

/// The served operations as root spans. Replayed roots are the ones the
/// layer accounting covers.
fn served_roots(log: &[OpRec], replayed: &[bool]) -> Vec<Span> {
    let mut spans = Vec::new();
    for (i, op) in log.iter().enumerate() {
        spans.push(Span {
            op: i as u64,
            id: i as u64,
            parent: None,
            name: op.kind.name(),
            start_ns: op.sent_ns,
            end_ns: op.done_ns,
            sync: replayed[i],
            clock: "served",
        });
        for &(from, to) in &op.busy_waits {
            spans.push(Span {
                op: i as u64,
                id: ROOT_IDS - 1 - spans.len() as u64,
                parent: Some(i as u64),
                name: "serve.busy_wait",
                start_ns: from,
                end_ns: to,
                sync: true,
                clock: "served",
            });
        }
    }
    spans
}

/// Applies one acknowledged ingest: a delta record into the base, or an
/// update batch through frame decode and the engine's `offer`.
fn apply_ingest(r: &mut Replayer, log: &[OpRec], ti: usize, i: usize) {
    let op = i as u64;
    let unit = log[i].unit;
    let input = r.tenants[ti].input;
    r.tenants[ti].applied += 1;
    r.tenants[ti].dirty = true;
    if let Some(bytes) = input.deltas.get(unit) {
        r.span(op, op, "core.wire.delta_apply", true, |r| {
            let delta = SketchDelta::from_bytes(bytes).expect("a site's own delta parses");
            r.tenants[ti]
                .base
                .apply_delta_parsed(&delta)
                .expect("a site's own delta applies");
        });
        return;
    }
    let ups = input.unit(unit);
    let (bytes, _) = r.span(op, op, "core.frame.encode", true, |_| {
        frame::encode_updates(ups)
    });
    let (decoded, _) = r.span(op, op, "core.frame.decode", true, |_| {
        frame::decode_updates(&bytes).expect("own encoding decodes")
    });
    r.count("frame.updates", decoded.len() as f64);
    r.count("frame.bytes", bytes.len() as f64);
    offer(r, op, ti, &decoded, true);
}

/// Offers a decoded batch to tenant `ti`'s engine until it is accepted.
/// Refusals are waited out in 50 µs steps; the wait is the queue's
/// `stream.ingest_blocked` time. `on_path` marks the accepted offer as
/// part of the served request.
fn offer(r: &mut Replayer, op: u64, ti: usize, batch: &[EdgeUpdate], on_path: bool) {
    let mut blocked_from = None;
    loop {
        let start = r.now();
        let (res, id) = r.span(op, op, "stream.offer", on_path, |r| {
            r.tenants[ti].engine.offer(batch)
        });
        match res {
            Ok(()) => break,
            Err(OfferError::Busy { .. }) => {
                // A refused offer is not what the served request waited
                // on (it was answered BUSY); keep only the accepted one.
                let slot = (id - ROOT_IDS) as usize;
                r.spans[slot].sync = false;
                blocked_from.get_or_insert(start);
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(OfferError::Invalid(e)) => panic!("generated update refused: {e}"),
        }
    }
    let blocked_ns = blocked_from.map_or(0, |from| {
        let until = r.spans.last().map_or(from, |s| s.start_ns);
        let id = r.spans.len() as u64 + ROOT_IDS;
        r.spans.push(Span {
            op,
            id,
            parent: Some(op),
            name: "stream.ingest_blocked",
            start_ns: from,
            end_ns: until,
            sync: false,
            clock: "replay",
        });
        until - from
    });
    r.sample("stream.ingest_blocked", blocked_ns as f64);
}

/// The query read path at a sampled fresh query: flush, clone the base,
/// merge-on-read snapshot, merge, cached decode, answer JSON.
fn replay_query(r: &mut Replayer, q: &OpRec, op: u64, ti: usize) {
    let plan = DecodePlan::sequential();
    r.span(op, op, "stream.flush", true, |r| {
        r.tenants[ti].engine.flush()
    });
    let (mut merged, _) = r.span(op, op, "sketch.clone", true, |r| {
        r.tenants[ti].base.state.clone()
    });
    let (snap, _) = r.span(op, op, "stream.snapshot", true, |r| {
        r.tenants[ti].engine.snapshot()
    });
    r.span(op, op, "sketch.merge", true, |_| {
        merged
            .try_merge(&snap)
            .expect("engine shards merge into the base")
    });
    drop(snap);
    let mut cache = std::mem::take(&mut r.tenants[ti].cache);
    let (reused, recomputed) = (cache.groups_reused(), cache.groups_recomputed());
    let (answer, _) = r.span(op, op, "core.decode_cached", true, |_| {
        merged.decode_cached(&mut cache, &plan)
    });
    r.count(
        "cache.groups_reused",
        (cache.groups_reused() - reused) as f64,
    );
    r.count(
        "cache.groups_recomputed",
        (cache.groups_recomputed() - recomputed) as f64,
    );
    r.tenants[ti].cache = cache;
    let (json, _) = r.span(op, op, "core.answer_json", true, |_| answer.to_json());
    if fnv(json.as_bytes()) != q.answer {
        r.mismatches += 1;
    }
    // The uncached decode is the reference the cache is measured
    // against; the served request never runs it.
    r.span(op, op, "core.decode_fresh", false, |_| {
        black_box(merged.decode_with(&plan))
    });
}

/// A checkpoint: drain the engine into the base, and (when `timed`)
/// encode the base as wire v2 and write-then-rename it.
fn replay_checkpoint(r: &mut Replayer, op: u64, parent: u64, ti: usize, timed: bool) {
    if !r.tenants[ti].dirty {
        return;
    }
    r.tenants[ti].dirty = false;
    r.span(op, parent, "stream.drain", true, |r| {
        let t = &mut r.tenants[ti];
        t.engine.flush();
        for shard in t.engine.delta_snapshot() {
            t.base
                .state
                .try_merge(&shard)
                .expect("engine shards merge into the base");
        }
    });
    if !timed {
        return;
    }
    let (bytes, _) = r.span(op, parent, "core.wire.v2_encode", true, |r| {
        r.tenants[ti].base.to_bytes()
    });
    r.count("v2.bytes", bytes.len() as f64);
    r.count("v2.encodes", 1.0);
    let name = r.tenants[ti].input.name;
    let dir = r.scratch.to_path_buf();
    r.span(op, parent, "serve.checkpoint_io", true, |_| {
        let tmp = dir.join(format!("{name}.state.tmp"));
        std::fs::write(&tmp, &bytes).expect("checkpoint write");
        std::fs::rename(&tmp, dir.join(format!("{name}.state"))).expect("checkpoint rename");
    });
}

/// Delta encode and apply on workloads that ship raw batches: the first
/// ingests of the first tenant, summarized by a site and applied at a
/// coordinator (off the served path).
fn replay_deltas(r: &mut Replayer, log: &[OpRec], acked: &[usize]) {
    let input = r.tenants[0].input;
    let spec = input.spec;
    let mut site = SketchFile::new(spec, spec.build()).expect("a fresh spec builds a file");
    let mut coordinator = site.clone();
    for &i in acked.iter().take(DELTA_SAMPLES) {
        let op = i as u64;
        let ups = input.unit(log[i].unit);
        site.state.absorb(ups);
        let (bytes, _) = r.span(op, op, "core.wire.delta_encode", false, |_| {
            site.delta_bytes()
        });
        r.count("delta.bytes", bytes.len() as f64);
        r.count("delta.updates", ups.len() as f64);
        r.span(op, op, "core.wire.delta_apply", false, |_| {
            let d = SketchDelta::from_bytes(&bytes).expect("own delta parses");
            coordinator
                .apply_delta_parsed(&d)
                .expect("own delta applies");
        });
    }
}

/// On the delta workload the frame codec and the engine are off the
/// path: time encode, decode and offer of each delta's raw updates as a
/// raw client's frames would take them, into a scratch engine shaped
/// like the tenant's (its base, which the deltas fed, is untouched).
fn replay_frames_off_path(r: &mut Replayer, log: &[OpRec], acked: &[usize]) {
    let input = r.tenants[0].input;
    let scratch = server_engine(input.spec, gs_stream::engine::default_workers());
    let served = std::mem::replace(&mut r.tenants[0].engine, scratch);
    for &i in acked {
        let op = i as u64;
        let ups = input.unit(log[i].unit);
        r.count("delta.bytes", log[i].payload_bytes as f64);
        r.count("delta.updates", ups.len() as f64);
        let (bytes, _) = r.span(op, op, "core.frame.encode", false, |_| {
            frame::encode_updates(ups)
        });
        let (decoded, _) = r.span(op, op, "core.frame.decode", false, |_| {
            frame::decode_updates(&bytes).expect("own encoding decodes")
        });
        r.count("frame.updates", decoded.len() as f64);
        r.count("frame.bytes", bytes.len() as f64);
        offer(r, op, 0, &decoded, false);
    }
    r.tenants[0].engine = served;
}

/// Single-threaded absorb of the first tenant's first ingests, split
/// into the `ForestSketch` hash schedule and its cell-bank fan.
fn replay_absorb(r: &mut Replayer, log: &[OpRec], acked: &[usize]) {
    let input = r.tenants[0].input;
    let n = input.spec.n;
    let mut solo = input.spec.build();
    let mut schedule = Schedule::new(n, ForestParams::for_n(n), input.spec.seed);
    let mut done = 0;
    for &i in acked {
        if done >= ABSORB_SAMPLE {
            break;
        }
        let op = i as u64;
        let ups = input.unit(log[i].unit);
        done += ups.len();
        r.count("absorb.updates", ups.len() as f64);
        let (_, absorb) = r.span(op, op, "core.absorb", false, |_| solo.absorb(ups));
        let (plan, _) = r.span(op, absorb, "field.hash", false, |_| schedule.hash(ups));
        let (cells, _) = r.span(op, absorb, "sketch.fan", false, |_| schedule.fan(&plan));
        r.count("fan.cells", cells as f64);
    }
    r.counts
        .insert("hash.calls_per_update", schedule.calls_per_update() as f64);
    black_box(&solo);
}

/// `ForestSketch::absorb_batch` split in two with public pieces. Like the
/// kernel it goes bank by bank, so each pass stays in one bank's cell
/// window: [`Schedule::hash`] computes, per bank and update, one
/// subsampling level per repetition and the fingerprint (`hash_m61`);
/// [`Schedule::fan`] then fans each update triple into both endpoint rows
/// of a bank of the same geometry and lane width. The seed derivation
/// copies `ForestSketch`'s (it is private there); the unit test below pins
/// the result to the kernel's bank, bit for bit.
struct Schedule {
    n: usize,
    reps: usize,
    levels: u32,
    /// Per-(bank, rep) subsampling hashes, bank-major.
    level_hash: Vec<HashBackend>,
    /// Per-bank fingerprint hash.
    finger: Vec<HashBackend>,
    bank: CellBank,
}

/// The hash results of a batch, bank-major: `edges` holds each nonzero
/// update as `(edge index, signed delta, u, v)`; per (bank, edge) `hf` the
/// fingerprint and `lmax` one level per repetition.
struct HashPlan {
    edges: Vec<(u64, i64, usize, usize)>,
    hf: Vec<M61>,
    lmax: Vec<u32>,
}

impl Schedule {
    fn new(n: usize, params: ForestParams, seed: u64) -> Schedule {
        let banks = if params.share_rounds {
            1
        } else {
            params.rounds
        };
        let reps = params.detector_reps;
        let bank_seed =
            |b: usize| seed ^ (0xF0_0000 + b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let levels = level_count(edge_domain(n));
        Schedule {
            n,
            reps,
            levels,
            level_hash: (0..banks)
                .flat_map(|b| {
                    (0..reps)
                        .map(move |rep| params.kind.backend(bank_seed(b), 0x4C30_0100 + rep as u64))
                })
                .collect(),
            finger: (0..banks)
                .map(|b| params.kind.backend(bank_seed(b), 0x4C30_0001))
                .collect(),
            bank: CellBank::with_width(
                BankGeometry::new(banks * n * reps, levels as usize, 1),
                LaneWidth::for_bounds(edge_domain(n).saturating_sub(1), 1),
            ),
        }
    }

    fn banks(&self) -> usize {
        self.finger.len()
    }

    fn calls_per_update(&self) -> usize {
        self.banks() * (self.reps + 1)
    }

    fn hash(&self, ups: &[EdgeUpdate]) -> HashPlan {
        let edges: Vec<(u64, i64, usize, usize)> = ups
            .iter()
            .filter(|up| up.delta != 0)
            .map(|up| {
                let (u, v) = (up.u, up.v);
                (edge_index(self.n, u, v), sign_for(u, v) * up.delta, u, v)
            })
            .collect();
        let mut plan = HashPlan {
            hf: Vec::with_capacity(edges.len() * self.banks()),
            lmax: Vec::with_capacity(edges.len() * self.banks() * self.reps),
            edges,
        };
        for b in 0..self.banks() {
            for &(idx, _, _, _) in &plan.edges {
                for rep in 0..self.reps {
                    plan.lmax.push(
                        self.level_hash[b * self.reps + rep].subsample_level(idx, self.levels - 1),
                    );
                }
                plan.hf.push(self.finger[b].hash_m61(idx));
            }
        }
        plan
    }

    /// Fans every update into its two endpoint rows, bank by bank;
    /// returns cells touched.
    fn fan(&mut self, plan: &HashPlan) -> usize {
        let levels = self.levels as usize;
        let mut cells = 0;
        let mut at = 0;
        for b in 0..self.banks() {
            for (k, &(idx, du, u, v)) in plan.edges.iter().enumerate() {
                let hf = plan.hf[b * plan.edges.len() + k];
                let (dw, ds, df) = CellBank::deltas(idx, du, hf);
                let lmax = &plan.lmax[at..at + self.reps];
                at += self.reps;
                for (node, dw, ds, df) in [(u, dw, ds, df), (v, -dw, -ds, -df)] {
                    let mut base = (b * self.n + node) * self.reps * levels;
                    for &lm in lmax {
                        self.bank.fan(base..base + lm as usize + 1, dw, ds, df);
                        cells += lm as usize + 1;
                        base += levels;
                    }
                }
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_sketches::connectivity::ForestSketch;
    use gs_sketch::CellBanked;
    use gs_workloads::GeneratorSpec;

    /// The replay must do the kernel's work: same geometry, same cells
    /// touched, same final lanes — with and without shared rounds.
    #[test]
    fn schedule_reproduces_forest_sketch_absorb_bit_for_bit() {
        let n = 96;
        let ups = GeneratorSpec::PowerLawChurn {
            n,
            attach: 4,
            churn: 3_000,
            seed: 5,
        }
        .generate()
        .updates;
        for share_rounds in [false, true] {
            let params = ForestParams {
                share_rounds,
                ..ForestParams::for_n(n)
            };
            let mut kernel = ForestSketch::with_bounds(n, params, 0x5EED, 1);
            kernel.absorb_batch(&ups);
            let mut schedule = Schedule::new(n, params, 0x5EED);
            let plan = schedule.hash(&ups);
            schedule.fan(&plan);
            let bank = kernel.banks()[0];
            assert_eq!(schedule.bank.len(), kernel.cell_count(), "{share_rounds}");
            assert_eq!(
                schedule.bank.dirty_count(),
                bank.dirty_count(),
                "{share_rounds}"
            );
            assert!(
                schedule.bank == *bank,
                "lanes differ, share_rounds {share_rounds}"
            );
        }
    }

    /// The tenant the replay runs is what `SketchSpec` builds: the same
    /// single bank as a default-parameter, unit-bound `ForestSketch`.
    #[test]
    fn connectivity_spec_builds_the_replayed_forest() {
        let spec = SketchSpec::new(graph_sketches::api::SketchTask::Connectivity, 64);
        let ups = GeneratorSpec::PowerLawChurn {
            n: 64,
            attach: 3,
            churn: 500,
            seed: 9,
        }
        .generate()
        .updates;
        let mut built = spec.build();
        built.absorb(&ups);
        let mut schedule = Schedule::new(64, ForestParams::for_n(64), spec.seed);
        let plan = schedule.hash(&ups);
        schedule.fan(&plan);
        assert_eq!(built.banks().len(), 1);
        assert!(schedule.bank == *built.banks()[0]);
    }
}
