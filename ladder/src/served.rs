//! The load generator: drives one workload's traffic against the child
//! server and logs every operation with its timings.
//!
//! Closed loops send the next request when the previous one is answered;
//! open loops send on a fixed schedule and time each request from when it
//! was *due*, so a stall also charges the requests queued behind it.

use crate::workloads::{
    Prepared, TenantInput, Workload, DELTA_CHECKPOINT_EVERY, MIX_CHECKPOINT_EVERY, MIX_QUERY_MS,
    POWERLAW_INGEST_SHARE, WINDOW_QUERIES, WINDOW_TICK_MS,
};
use graph_sketches::frame::{self, ServiceStats};
use gs_serve::{Client, ClientError, Outcome};
use serde::{Deserialize, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Ingest,
    Query,
    Checkpoint,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Ingest => "serve.ingest",
            Kind::Query => "serve.query",
            Kind::Checkpoint => "serve.checkpoint",
        }
    }
}

/// Which part of a run an operation belongs to. Only `Measure`
/// operations feed the metrics; every acknowledged ingest feeds the
/// parity check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Preload after set-up.
    Warmup,
    Measure,
    /// `ingest-powerlaw`'s read phase ingests, which exist to make the
    /// next query fresh and are kept out of the ingest metrics.
    Feed,
}

/// One logged operation. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct OpRec {
    pub kind: Kind,
    pub phase: Phase,
    /// Index into `Prepared::tenants`; `None` for an all-tenant
    /// checkpoint.
    pub tenant: Option<usize>,
    /// Ingest: which unit of the tenant's input this frame carried.
    pub unit: usize,
    /// Raw updates the frame stands for (a delta counts its unit's).
    pub updates: usize,
    /// Bytes of the request payload.
    pub payload_bytes: usize,
    pub open_loop: bool,
    /// When the operation was due: its schedule slot (open loop) or the
    /// completion of the client's previous operation (closed loop).
    pub due_ns: u64,
    pub sent_ns: u64,
    /// Send time of the attempt the server accepted (after any `BUSY`).
    pub ok_sent_ns: u64,
    pub done_ns: u64,
    pub busy: u32,
    /// Time from each `BUSY` to the next attempt.
    pub busy_wait_ns: u64,
    /// Those waits as `(start, end)`; recorded only in traced runs.
    pub busy_waits: Vec<(u64, u64)>,
    /// FNV-1a of a query's answer JSON.
    pub answer: u64,
    pub error: Option<String>,
    /// Set by the parity check: the tenant's acknowledged-ingest prefix
    /// the answer matched.
    pub prefix: Option<usize>,
    /// A query the server answered without its answer cache: the
    /// tenant's `decode_cache_hits` in `STATS` did not move across it.
    pub fresh: bool,
}

impl OpRec {
    /// Latency as a client sees it: from due time for open loops, from
    /// the first send for closed loops.
    pub fn latency_ns(&self) -> u64 {
        let from = if self.open_loop {
            self.due_ns
        } else {
            self.sent_ns
        };
        self.done_ns.saturating_sub(from)
    }
}

/// An ingest refused with `BUSY`, waiting to be sent again.
pub struct Pending {
    rec: OpRec,
    payload: Vec<u8>,
    /// When the last `BUSY` arrived and when the server said to retry,
    /// nanoseconds since the epoch.
    busy_at: u64,
    retry_at: u64,
}

/// Longest a frame keeps retrying `BUSY` before it counts as failed.
const BUSY_DEADLINE: Duration = Duration::from_secs(10);

/// One connection's request loop and its log.
pub struct Driver {
    client: Client,
    epoch: Instant,
    traced: bool,
    last_done: u64,
    /// Per tenant, `decode_cache_hits` after this connection's last query
    /// of it. Every workload queries a tenant from one connection only,
    /// so a query moved the counter iff the server answered it from its
    /// cache.
    cache_hits: BTreeMap<usize, u64>,
    pub log: Vec<OpRec>,
}

impl Driver {
    pub fn new(client: Client, epoch: Instant, traced: bool) -> Driver {
        Driver {
            client,
            epoch,
            traced,
            last_done: 0,
            cache_hits: BTreeMap::new(),
            log: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, due_ns: u64) {
        let now = self.now();
        if due_ns > now {
            std::thread::sleep(Duration::from_nanos(due_ns - now));
        }
    }

    fn start(
        &mut self,
        kind: Kind,
        phase: Phase,
        tenant: Option<usize>,
        due: Option<u64>,
    ) -> OpRec {
        if let Some(due) = due {
            self.wait_until(due);
        }
        let sent = self.now();
        OpRec {
            kind,
            phase,
            tenant,
            unit: 0,
            updates: 0,
            payload_bytes: 0,
            open_loop: due.is_some(),
            due_ns: due.unwrap_or(self.last_done.min(sent)),
            sent_ns: sent,
            ok_sent_ns: sent,
            done_ns: sent,
            busy: 0,
            busy_wait_ns: 0,
            busy_waits: Vec::new(),
            answer: 0,
            error: None,
            prefix: None,
            fresh: false,
        }
    }

    /// Records the outcome. Server refusals fail the operation; a broken
    /// transport ends the run.
    fn finish<T>(
        &mut self,
        mut rec: OpRec,
        r: Result<T, ClientError>,
    ) -> Result<Option<T>, String> {
        rec.done_ns = self.now();
        self.last_done = rec.done_ns;
        let out = match r {
            Ok(v) => Some(v),
            Err(e @ (ClientError::Server { .. } | ClientError::Saturated { .. })) => {
                rec.error = Some(e.to_string());
                None
            }
            Err(e) => {
                return Err(format!(
                    "{} on tenant {:?}: {e}",
                    rec.kind.name(),
                    rec.tenant
                ))
            }
        };
        self.log.push(rec);
        Ok(out)
    }

    /// Starts an `INGEST` of unit `unit` of tenant `ti`; send it with
    /// [`Driver::attempt`].
    pub fn begin_ingest(
        &mut self,
        t: &TenantInput,
        ti: usize,
        unit: usize,
        phase: Phase,
        due: Option<u64>,
    ) -> Pending {
        let mut rec = self.start(Kind::Ingest, phase, Some(ti), due);
        let payload = match t.deltas.get(unit) {
            Some(delta) => delta.clone(),
            None => frame::encode_updates(t.unit(unit)),
        };
        rec.unit = unit;
        rec.updates = t.units[unit].len();
        rec.payload_bytes = payload.len();
        Pending {
            rec,
            payload,
            busy_at: 0,
            retry_at: 0,
        }
    }

    /// Sends one attempt of a pending ingest. `Some` hands the frame back
    /// after a `BUSY`, due again at its `retry_at`; `None` means it was
    /// answered and logged.
    pub fn attempt(&mut self, t: &TenantInput, mut p: Pending) -> Result<Option<Pending>, String> {
        p.rec.ok_sent_ns = self.now();
        if p.rec.busy > 0 {
            // The wait since the last BUSY, slept or spent on other
            // tenants' frames.
            p.rec.busy_wait_ns += p.rec.ok_sent_ns - p.busy_at;
            if self.traced {
                p.rec.busy_waits.push((p.busy_at, p.rec.ok_sent_ns));
            }
        }
        let r = match self.client.ingest_bytes(t.name, p.payload.clone()) {
            Ok(Outcome::Ok(_)) => Ok(()),
            Ok(Outcome::Busy { retry_after_ms }) => {
                p.rec.busy += 1;
                let now = self.now();
                let waited = Duration::from_nanos(now - p.rec.sent_ns);
                if waited < BUSY_DEADLINE {
                    p.busy_at = now;
                    p.retry_at = now + retry_after_ms.clamp(1, 1000) as u64 * 1_000_000;
                    return Ok(Some(p));
                }
                Err(ClientError::Saturated {
                    waited_ms: waited.as_millis() as u64,
                })
            }
            Err(e) => Err(e),
        };
        self.finish(p.rec, r).map(|_| None)
    }

    /// `INGEST` of unit `unit` of tenant `ti`, sleeping out each `BUSY`
    /// for the server's suggested delay (the policy of
    /// `Client::ingest_retry`).
    pub fn ingest(
        &mut self,
        t: &TenantInput,
        ti: usize,
        unit: usize,
        phase: Phase,
        due: Option<u64>,
    ) -> Result<(), String> {
        let mut p = self.begin_ingest(t, ti, unit, phase, due);
        while let Some(next) = self.attempt(t, p)? {
            self.wait_until(next.retry_at);
            p = next;
        }
        Ok(())
    }

    /// `QUERY` of tenant `ti` (sequential server-side decode), then,
    /// outside its timing, the tenant's `STATS` to classify it fresh or
    /// cached.
    pub fn query(
        &mut self,
        t: &TenantInput,
        ti: usize,
        phase: Phase,
        due: Option<u64>,
    ) -> Result<(), String> {
        let mut rec = self.start(Kind::Query, phase, Some(ti), due);
        let r = self.client.query(t.name, 0);
        if let Ok(answer) = &r {
            rec.answer = crate::workloads::fnv(answer.as_bytes());
        }
        if self.finish(rec, r)?.is_some() {
            let hits = self.tenant_cache_hits(t.name)?;
            let before = self.cache_hits.insert(ti, hits).unwrap_or(0);
            if let Some(op) = self.log.last_mut() {
                op.fresh = hits == before;
            }
        }
        Ok(())
    }

    fn tenant_cache_hits(&mut self, name: &str) -> Result<u64, String> {
        let text = self
            .client
            .stats(name)
            .map_err(|e| format!("STATS {name}: {e}"))?;
        Value::from_json(&text)
            .and_then(|v| ServiceStats::from_value(&v))
            .map_err(|e| format!("STATS {name} payload: {e}"))?
            .per_tenant
            .first()
            .map(|s| s.decode_cache_hits)
            .ok_or_else(|| format!("STATS {name} has no tenant"))
    }

    /// `CHECKPOINT` of one tenant, or of every dirty tenant (`None`).
    pub fn checkpoint(
        &mut self,
        tenant: Option<(&TenantInput, usize)>,
        phase: Phase,
        due: Option<u64>,
    ) -> Result<(), String> {
        let rec = self.start(Kind::Checkpoint, phase, tenant.map(|(_, i)| i), due);
        let r = self.client.checkpoint(tenant.map_or("", |(t, _)| t.name));
        self.finish(rec, r).map(|_| ())
    }

    pub fn into_parts(self) -> (Client, Vec<OpRec>) {
        (self.client, self.log)
    }
}

/// What one served run produced.
pub struct Served {
    pub log: Vec<OpRec>,
    /// Wall time of the window the ingest metrics cover, nanoseconds.
    pub ingest_wall_ns: u64,
}

/// Drives `p`'s traffic for `seconds` over `clients` (tenant-mix uses
/// two connections, every other workload one). Hands back the first
/// client, still connected, for post-run STATS and probes.
pub fn run(
    p: &Prepared,
    mut clients: Vec<Client>,
    seconds: f64,
    traced: bool,
) -> Result<(Served, Client), String> {
    let epoch = Instant::now();
    let budget = (seconds * 1e9) as u64;
    let main = clients.remove(0);
    let mut d = Driver::new(main, epoch, traced);
    let ingest_wall_ns = match p.workload {
        Workload::IngestPowerlaw => ingest_powerlaw(&mut d, p, budget)?,
        Workload::QueryWindow => query_window(&mut d, p, budget)?,
        Workload::DeltaSyncMst => delta_sync(&mut d, p, budget)?,
        Workload::TenantMix => {
            let reader = clients
                .pop()
                .ok_or("tenant-mix needs a second connection")?;
            let mut r = Driver::new(reader, epoch, traced);
            let wall = tenant_mix(&mut d, &mut r, p, budget)?;
            let (_, reads) = r.into_parts();
            d.log.extend(reads);
            wall
        }
    };
    let (client, mut log) = d.into_parts();
    log.sort_by_key(|op| op.sent_ns);
    Ok((
        Served {
            log,
            ingest_wall_ns,
        },
        client,
    ))
}

/// Closed-loop 1024-update frames for most of the run, then
/// one-ingest-one-query steps so every query is fresh.
fn ingest_powerlaw(d: &mut Driver, p: &Prepared, budget: u64) -> Result<u64, String> {
    let t = &p.tenants[0];
    let start = d.now();
    let ingest_end = start + (budget as f64 * POWERLAW_INGEST_SHARE) as u64;
    // Units kept back so the read phase has fresh data to query.
    let reserve = (t.units.len() / 4).min(200);
    let mut unit = 0;
    while d.now() < ingest_end && unit + reserve < t.units.len() {
        d.ingest(t, 0, unit, Phase::Measure, None)?;
        unit += 1;
    }
    let wall = d.now() - start;
    while d.now() < start + budget && unit < t.units.len() {
        d.ingest(t, 0, unit, Phase::Feed, None)?;
        unit += 1;
        d.query(t, 0, Phase::Measure, None)?;
    }
    Ok(wall)
}

/// Open loop: every tick one slice ingest, then 16 evenly spaced queries
/// (the first fresh, the rest cache hits).
fn query_window(d: &mut Driver, p: &Prepared, budget: u64) -> Result<u64, String> {
    let t = &p.tenants[0];
    let mut unit = 0;
    while unit < p.workload.preload(p.scale) {
        d.ingest(t, 0, unit, Phase::Warmup, None)?;
        unit += 1;
    }
    let start = d.now() + 1_000_000;
    let tick_ns = WINDOW_TICK_MS * 1_000_000;
    let mut tick = 0;
    while tick * tick_ns < budget && unit < t.units.len() {
        let due = start + tick * tick_ns;
        d.ingest(t, 0, unit, Phase::Measure, Some(due))?;
        unit += 1;
        for q in 0..WINDOW_QUERIES {
            d.query(
                t,
                0,
                Phase::Measure,
                Some(due + q * tick_ns / WINDOW_QUERIES),
            )?;
        }
        tick += 1;
    }
    Ok(d.now() - start)
}

/// Closed loop of rounds: both sites' deltas, a query, and every fifth
/// round a checkpoint.
fn delta_sync(d: &mut Driver, p: &Prepared, budget: u64) -> Result<u64, String> {
    let t = &p.tenants[0];
    let start = d.now();
    let mut round = 0;
    while d.now() < start + budget && 2 * round + 1 < t.units.len() {
        d.ingest(t, 0, 2 * round, Phase::Measure, None)?;
        d.ingest(t, 0, 2 * round + 1, Phase::Measure, None)?;
        d.query(t, 0, Phase::Measure, None)?;
        if round % DELTA_CHECKPOINT_EVERY == DELTA_CHECKPOINT_EVERY - 1 {
            d.checkpoint(Some((t, 0)), Phase::Measure, None)?;
        }
        round += 1;
    }
    Ok(d.now() - start)
}

/// Writer and reader on two connections. The writer is a closed loop of
/// 256-update frames round-robin over the tenants: it sends the next
/// frame as soon as the last is answered, and a tenant whose frame was
/// refused is skipped until its retry delay has passed, so one busy
/// tenant does not stall the others. The reader is an open loop that
/// queries one tenant per slot in rotation and checkpoints every tenant
/// every 20th slot.
fn tenant_mix(w: &mut Driver, r: &mut Driver, p: &Prepared, budget: u64) -> Result<u64, String> {
    let start = w.now();
    let end = start + budget;
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| -> Result<(), String> {
            let period = MIX_QUERY_MS * 1_000_000;
            let mut slot = 0;
            while slot * period < budget {
                let due = start + slot * period;
                let ti = slot as usize % p.tenants.len();
                r.query(&p.tenants[ti], ti, Phase::Measure, Some(due))?;
                if slot % MIX_CHECKPOINT_EVERY == MIX_CHECKPOINT_EVERY - 1 {
                    r.checkpoint(None, Phase::Measure, Some(due))?;
                }
                slot += 1;
            }
            Ok(())
        });
        let tenants = p.tenants.len();
        let mut next = vec![0usize; tenants];
        let mut pending: Vec<Option<Pending>> = (0..tenants).map(|_| None).collect();
        let mut turn = 0;
        loop {
            let now = w.now();
            if now >= end {
                break;
            }
            let ready = (0..tenants)
                .map(|k| (turn + k) % tenants)
                .find(|&c| match &pending[c] {
                    Some(f) => f.retry_at <= now,
                    None => next[c] < p.tenants[c].units.len(),
                });
            let Some(c) = ready else {
                match pending.iter().flatten().map(|f| f.retry_at).min() {
                    Some(retry) => {
                        w.wait_until(retry.min(end));
                        continue;
                    }
                    None => return Err("tenant-mix ran out of input".to_string()),
                }
            };
            turn = c + 1;
            let t = &p.tenants[c];
            let frame = match pending[c].take() {
                Some(f) => f,
                None => {
                    next[c] += 1;
                    w.begin_ingest(t, c, next[c] - 1, Phase::Measure, None)
                }
            };
            pending[c] = w.attempt(t, frame)?;
        }
        reader
            .join()
            .map_err(|_| "reader thread panicked".to_string())?
    })?;
    Ok(w.now() - start)
}
