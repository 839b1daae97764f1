//! The correctness gate: every served answer must equal an offline
//! decode of exactly the updates the server had acknowledged.
//!
//! With one connection the acknowledged prefix at a query is known. With
//! a writer and a reader on two connections (tenant-mix) an ingest whose
//! round trip overlaps the query may or may not precede it on the server,
//! so the answer must equal the decode of *some* prefix between the
//! ingests acknowledged before the query was sent and those sent before
//! it was answered.

use crate::served::{Kind, OpRec};
use crate::workloads::{fnv, Prepared, TenantInput};
use graph_sketches::AnySketch;
use gs_sketch::par::DecodePlan;
use gs_sketch::{EdgeUpdate, LinearSketch, Mergeable};

/// Outcome of the gate.
pub struct Parity {
    /// Queries checked.
    pub checked: usize,
    /// Queries whose answer matched no admissible prefix.
    pub mismatched: usize,
}

/// Checks every answered query in `log` (and marks each with the prefix
/// it matched). `corrupt` drops one update from the offline reference,
/// which must make the gate fail.
pub fn check(p: &Prepared, log: &mut [OpRec], corrupt: bool) -> Parity {
    let groups: Vec<Vec<usize>> = (0..2)
        .map(|g| (0..p.tenants.len()).filter(|t| t % 2 == g).collect())
        .collect();
    let results: Vec<Vec<(usize, Option<usize>)>> = std::thread::scope(|scope| {
        let log = &*log;
        let handles: Vec<_> = groups
            .iter()
            .map(|tenants| {
                scope.spawn(move || {
                    tenants
                        .iter()
                        .flat_map(|&ti| check_tenant(&p.tenants[ti], ti, log, corrupt))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parity thread"))
            .collect()
    });
    let mut parity = Parity {
        checked: 0,
        mismatched: 0,
    };
    for (i, prefix) in results.into_iter().flatten() {
        parity.checked += 1;
        log[i].prefix = prefix;
        if prefix.is_none() {
            parity.mismatched += 1;
            log[i].error = Some("answer differs from the offline decode".into());
        }
    }
    parity
}

/// `(log index, matched prefix)` for each answered query of one tenant.
fn check_tenant(
    t: &TenantInput,
    ti: usize,
    log: &[OpRec],
    corrupt: bool,
) -> Vec<(usize, Option<usize>)> {
    // Acknowledged ingests in the order the tenant's units were applied.
    let mut acked: Vec<&OpRec> = log
        .iter()
        .filter(|op| op.kind == Kind::Ingest && op.tenant == Some(ti) && op.error.is_none())
        .collect();
    acked.sort_by_key(|op| op.unit);
    let mut reference = Reference::new(t, acked.iter().map(|op| op.unit).collect(), corrupt);
    let mut out = Vec::new();
    for (i, q) in log.iter().enumerate() {
        if q.kind != Kind::Query || q.tenant != Some(ti) || q.error.is_some() {
            continue;
        }
        let lo = acked.iter().filter(|op| op.done_ns < q.sent_ns).count();
        let hi = acked
            .iter()
            .filter(|op| op.ok_sent_ns < q.done_ns)
            .count()
            .max(lo);
        let matched = (lo..=hi).find(|&k| reference.answer_at(k) == q.answer);
        out.push((i, matched));
    }
    out
}

/// An offline sketch advanced along the acknowledged units, remembering
/// the answer hash of the last prefix it decoded.
struct Reference<'a> {
    t: &'a TenantInput,
    units: Vec<usize>,
    corrupt: bool,
    sketch: AnySketch,
    at: usize,
    decoded: Option<(usize, u64)>,
}

/// Above this many updates a prefix gap is sketched on two threads and
/// merged in (linearity makes the result identical).
const PARALLEL_GAP: usize = 50_000;

impl<'a> Reference<'a> {
    fn new(t: &'a TenantInput, units: Vec<usize>, corrupt: bool) -> Self {
        Reference {
            t,
            units,
            corrupt,
            sketch: t.spec.build(),
            at: 0,
            decoded: None,
        }
    }

    fn updates(&self, from: usize, to: usize) -> Vec<EdgeUpdate> {
        let mut ups: Vec<EdgeUpdate> = self.units[from..to]
            .iter()
            .flat_map(|&u| self.t.unit(u).iter().copied())
            .collect();
        if self.corrupt && from == 0 && !ups.is_empty() {
            ups.remove(0);
        }
        ups
    }

    /// FNV-1a of the answer JSON after the first `k` acknowledged units.
    fn answer_at(&mut self, k: usize) -> u64 {
        if let Some((at, h)) = self.decoded {
            if at == k {
                return h;
            }
        }
        let h = if k < self.at {
            // Only reachable when an earlier query matched a longer
            // prefix than this one admits; rebuild from scratch.
            let mut s = self.t.spec.build();
            s.absorb(&self.updates(0, k));
            answer_hash(&s)
        } else {
            let ups = self.updates(self.at, k);
            if ups.len() > PARALLEL_GAP {
                let spec = self.t.spec;
                let part: AnySketch =
                    gs_stream::distributed::sketch_distributed(&ups, 2, 0x1ADD, || spec.build());
                self.sketch.merge(&part);
            } else {
                self.sketch.absorb(&ups);
            }
            self.at = k;
            answer_hash(&self.sketch)
        };
        self.decoded = Some((k, h));
        h
    }
}

fn answer_hash(s: &AnySketch) -> u64 {
    fnv(s
        .decode_with(&DecodePlan::sequential())
        .to_json()
        .as_bytes())
}
