//! The four served workloads and their seeded inputs.
//!
//! Every input is generated from `--seed` by a `gs-workloads`
//! [`GeneratorSpec`]; the server only ever receives the generated bytes.
//! Inputs are cut into *units* — the payload of one `INGEST` frame — so
//! the driver, the parity check and the trace replay all agree on what
//! the k-th ingest of a tenant carried.

use graph_sketches::api::{SketchSpec, SketchTask};
use graph_sketches::SketchFile;
use gs_sketch::{EdgeUpdate, LinearSketch};
use gs_workloads::GeneratorSpec;
use std::ops::Range;
use std::time::Instant;

/// One named traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    IngestPowerlaw,
    QueryWindow,
    DeltaSyncMst,
    TenantMix,
}

/// Input size: `Full` is the benchmark, `Smoke` a seconds-long shrink of
/// the same shapes for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// One tenant's inputs: its spec, its update stream, and how the stream
/// is cut into `INGEST` units. A delta tenant also carries one encoded
/// delta record per unit (the unit's updates, summarized by a site).
pub struct TenantInput {
    pub name: &'static str,
    pub spec: SketchSpec,
    pub updates: Vec<EdgeUpdate>,
    pub units: Vec<Range<usize>>,
    pub deltas: Vec<Vec<u8>>,
    /// Site-side `delta_bytes()` time per unit, nanoseconds.
    pub delta_encode_ns: Vec<u64>,
}

impl TenantInput {
    pub fn unit(&self, k: usize) -> &[EdgeUpdate] {
        &self.updates[self.units[k].clone()]
    }
}

/// A workload's generated inputs.
pub struct Prepared {
    pub workload: Workload,
    pub scale: Scale,
    pub tenants: Vec<TenantInput>,
    /// FNV-1a over every generated byte the server will be sent.
    pub digest: u64,
}

/// Open-loop period of `query-window` (one slice ingest + 16 queries).
pub const WINDOW_TICK_MS: u64 = 300;
/// Queries per `query-window` tick.
pub const WINDOW_QUERIES: u64 = 16;
/// Open-loop period of `tenant-mix`'s query thread.
pub const MIX_QUERY_MS: u64 = 250;
/// `tenant-mix` checkpoints all tenants every this many query slots (5 s).
pub const MIX_CHECKPOINT_EVERY: u64 = 20;
/// `delta-sync-mst` checkpoints every this many rounds.
pub const DELTA_CHECKPOINT_EVERY: usize = 5;
/// Share of `ingest-powerlaw`'s run spent in the closed ingest loop; the
/// rest alternates one ingest with one fresh query.
pub const POWERLAW_INGEST_SHARE: f64 = 0.7;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::IngestPowerlaw,
        Workload::QueryWindow,
        Workload::DeltaSyncMst,
        Workload::TenantMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestPowerlaw => "ingest-powerlaw",
            Workload::QueryWindow => "query-window",
            Workload::DeltaSyncMst => "delta-sync-mst",
            Workload::TenantMix => "tenant-mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Preloaded units per tenant, ingested after set-up and before the
    /// measured phase.
    pub fn preload(self, scale: Scale) -> usize {
        match (self, scale) {
            (Workload::QueryWindow, Scale::Full) => 64,
            (Workload::QueryWindow, Scale::Smoke) => 8,
            _ => 0,
        }
    }

    /// Generates the inputs for `seconds` of traffic from `seed`.
    pub fn prepare(self, seed: u64, scale: Scale, seconds: f64) -> Prepared {
        let smoke = scale == Scale::Smoke;
        let tenants = match self {
            Workload::IngestPowerlaw => {
                let (n, churn) = if smoke {
                    (256, 4_000)
                } else {
                    (4096, 2_500_000)
                };
                let gen = GeneratorSpec::PowerLawChurn {
                    n,
                    attach: 4,
                    churn,
                    seed,
                };
                vec![raw_tenant(
                    "plaw",
                    SketchSpec::new(SketchTask::Connectivity, n),
                    gen,
                    1024,
                )]
            }
            Workload::QueryWindow => {
                let (n, window, rate) = if smoke { (256, 8, 16) } else { (2048, 64, 64) };
                let ticks = (seconds * 1000.0 / WINDOW_TICK_MS as f64).ceil() as usize + 2;
                let gen = GeneratorSpec::SlidingWindow {
                    n,
                    window,
                    batches: self.preload(scale) + ticks,
                    rate,
                    seed,
                };
                let mut t = raw_tenant(
                    "window",
                    SketchSpec::new(SketchTask::Connectivity, n),
                    gen,
                    1,
                );
                t.units = window_slices(t.updates.len(), window, rate);
                vec![t]
            }
            Workload::DeltaSyncMst => {
                let (n, rounds) = if smoke {
                    (48, 12)
                } else {
                    (512, (seconds * 12.0).ceil() as usize)
                };
                vec![delta_tenant(n, rounds, seed)]
            }
            Workload::TenantMix => mix_tenants(seed, smoke, seconds),
        };
        let digest = digest(&tenants);
        Prepared {
            workload: self,
            scale,
            tenants,
            digest,
        }
    }
}

/// A tenant fed raw update batches of `unit` updates.
fn raw_tenant(
    name: &'static str,
    spec: SketchSpec,
    gen: GeneratorSpec,
    unit: usize,
) -> TenantInput {
    let updates = gen.generate().updates;
    let units = (0..updates.len())
        .step_by(unit)
        .map(|s| s..(s + unit).min(updates.len()))
        .collect();
    TenantInput {
        name,
        spec,
        updates,
        units,
        deltas: Vec::new(),
        delta_encode_ns: Vec::new(),
    }
}

/// Per-tick slices of a `SlidingWindow` trace: each tick inserts `rate`
/// edges, and from tick `window` on first deletes the batch that expired.
fn window_slices(len: usize, window: usize, rate: usize) -> Vec<Range<usize>> {
    let mut units = Vec::new();
    let mut at = 0;
    let mut tick = 0;
    while at < len {
        let size = if tick >= window { 2 * rate } else { rate };
        units.push(at..(at + size).min(len));
        at += size;
        tick += 1;
    }
    units
}

/// The `delta-sync-mst` tenant: a weight-churn trace split into `rounds`
/// rounds of two sites each. Each site keeps one resident sketch file
/// and emits `delta_bytes()` per round, so unit `2r + s` is site `s`'s
/// delta for round `r`.
fn delta_tenant(n: usize, rounds: usize, seed: u64) -> TenantInput {
    let spec = SketchSpec::new(SketchTask::Mst, n).with_max_weight(64);
    // Churn sized so each site-round carries about 250 updates next to
    // the G(n, 0.05) base edges.
    let base = (n * (n - 1) / 2) as f64 * 0.05;
    let churn = ((rounds * 500) as f64 - base).max(rounds as f64) as usize / 2;
    let gen = GeneratorSpec::WeightChurn {
        n,
        p: 0.05,
        max_weight: 64,
        churn,
        seed,
    };
    let updates = gen.generate().updates;
    let per_unit = updates.len().div_ceil(2 * rounds);
    let units: Vec<Range<usize>> = (0..2 * rounds)
        .map(|k| (k * per_unit).min(updates.len())..((k + 1) * per_unit).min(updates.len()))
        .collect();
    // The two sites run side by side; each emits its deltas in round
    // order (a delta drains what it shipped).
    let site = |s: usize| -> Vec<(usize, Vec<u8>, u64)> {
        let mut file = SketchFile::new(spec, spec.build()).expect("a fresh spec builds a file");
        (s..units.len())
            .step_by(2)
            .map(|k| {
                file.state.absorb(&updates[units[k].clone()]);
                let t = Instant::now();
                let bytes = file.delta_bytes();
                (k, bytes, t.elapsed().as_nanos() as u64)
            })
            .collect()
    };
    let mut all = std::thread::scope(|scope| {
        let other = scope.spawn(|| site(1));
        let mut mine = site(0);
        mine.extend(other.join().expect("site thread"));
        mine
    });
    all.sort_by_key(|(k, _, _)| *k);
    let delta_encode_ns = all.iter().map(|(_, _, ns)| *ns).collect();
    let deltas = all.into_iter().map(|(_, bytes, _)| bytes).collect();
    TenantInput {
        name: "mst",
        spec,
        updates,
        units,
        deltas,
        delta_encode_ns,
    }
}

/// The `tenant-mix` tenants, each long enough for `seconds` of the
/// round-robin ingest loop.
fn mix_tenants(seed: u64, smoke: bool, seconds: f64) -> Vec<TenantInput> {
    // Updates per tenant: comfortably more than the closed ingest loop
    // reaches (about 60k per tenant and second on a 2-vCPU host); running
    // out fails the run.
    let per = (seconds * 100_000.0) as usize;
    let unit = 256;
    let s = |t: u64| seed.wrapping_mul(4).wrapping_add(t);
    let (big, mid, small) = if smoke {
        (128, 64, 32)
    } else {
        (1024, 512, 256)
    };
    vec![
        raw_tenant(
            "cc",
            SketchSpec::new(SketchTask::Connectivity, big),
            GeneratorSpec::PowerLawChurn {
                n: big,
                attach: 4,
                churn: per / 2,
                seed: s(0),
            },
            unit,
        ),
        raw_tenant(
            "bip",
            SketchSpec::new(SketchTask::Bipartite, big),
            GeneratorSpec::SlidingWindow {
                n: big,
                window: 64,
                batches: per / 128 + 1,
                rate: 64,
                seed: s(1),
            },
            unit,
        ),
        raw_tenant(
            "kc",
            SketchSpec::new(SketchTask::KConnect, mid).with_k(2),
            GeneratorSpec::MinCutAdversary {
                half: mid / 2,
                bridge: 4,
                churn: per / 2,
                seed: s(2),
            },
            unit,
        ),
        raw_tenant(
            "wmst",
            SketchSpec::new(SketchTask::Mst, small).with_max_weight(64),
            GeneratorSpec::WeightChurn {
                n: small,
                p: 0.05,
                max_weight: 64,
                churn: per / 2,
                seed: s(3),
            },
            unit,
        ),
    ]
}

/// 64-bit FNV-1a.
pub fn fnv(bytes: &[u8]) -> u64 {
    fnv_extend(0xcbf2_9ce4_8422_2325, bytes)
}

fn fnv_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(tenants: &[TenantInput]) -> u64 {
    let mut h = fnv(b"gs-ladder inputs");
    for t in tenants {
        h = fnv_extend(h, t.spec.to_json().as_bytes());
        for up in &t.updates {
            h = fnv_extend(h, &(up.u as u64).to_le_bytes());
            h = fnv_extend(h, &(up.v as u64).to_le_bytes());
            h = fnv_extend(h, &up.delta.to_le_bytes());
        }
        for r in &t.units {
            h = fnv_extend(h, &(r.len() as u64).to_le_bytes());
        }
        for d in &t.deltas {
            h = fnv_extend(h, d);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_slices_follow_the_generator_ticks() {
        // window 2, rate 3, 5 ticks: 3 + 3 + 6 + 6 + 6 updates.
        let units = window_slices(24, 2, 3);
        let sizes: Vec<usize> = units.iter().map(|r| r.len()).collect();
        assert_eq!(sizes, vec![3, 3, 6, 6, 6]);
        let spec = GeneratorSpec::SlidingWindow {
            n: 20,
            window: 2,
            batches: 5,
            rate: 3,
            seed: 1,
        };
        assert_eq!(spec.generate().updates.len(), 24);
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            let a = w.prepare(7, Scale::Smoke, 1.0).digest;
            assert_eq!(a, w.prepare(7, Scale::Smoke, 1.0).digest, "{}", w.name());
            assert_ne!(a, w.prepare(8, Scale::Smoke, 1.0).digest, "{}", w.name());
        }
    }
}
