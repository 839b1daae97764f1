//! Regression: adversarial counter overflow inside a shard sketch must
//! poison the *measurement* (sticky mark, reported via
//! [`EngineStats::lane_overflows`]) — not kill the worker thread.
//! Before lane-overflow tracking, a wrapping `i64` add on the ingest
//! path was an `assert!`/panic deep inside a worker, which surfaced
//! later as an unrelated "worker hung up" panic on the ingest thread.
//!
//! The engine is generic, so the shard here is a minimal bank-backed
//! sketch — one narrow [`CellBank`] row — rather than a full
//! `graph-sketches` type (the stream crate sits below the sketch-type
//! crate in the dependency order).

use gs_field::M61;
use gs_sketch::bank::{BankGeometry, CellBank, CellBanked};
use gs_sketch::lane::{IntWidth, LaneWidth};
use gs_sketch::par::DecodePlan;
use gs_sketch::{EdgeUpdate, LinearSketch, Mergeable};
use gs_stream::engine::{EngineConfig, SketchEngine};

const CELLS: usize = 8;

/// One narrow bank of `CELLS` cells; every update lands in cell
/// `(u + v) % CELLS` with `Δw = delta`.
#[derive(Clone)]
struct ToySketch {
    n: usize,
    bank: CellBank,
}

impl ToySketch {
    fn new(n: usize) -> Self {
        ToySketch {
            n,
            bank: CellBank::with_width(
                BankGeometry::new(1, 1, CELLS),
                LaneWidth {
                    w: IntWidth::I64,
                    s: IntWidth::I64,
                },
            ),
        }
    }
}

impl Mergeable for ToySketch {
    fn merge(&mut self, other: &Self) {
        self.bank.add(&other.bank);
    }
}

impl CellBanked for ToySketch {
    fn banks(&self) -> Vec<&CellBank> {
        vec![&self.bank]
    }

    fn banks_mut(&mut self) -> Vec<&mut CellBank> {
        vec![&mut self.bank]
    }

    fn fingerprints(&self) -> Vec<M61> {
        Vec::new()
    }

    fn fingerprints_mut(&mut self) -> Vec<&mut M61> {
        Vec::new()
    }
}

impl LinearSketch for ToySketch {
    type Output = ();

    fn n(&self) -> usize {
        self.n
    }

    fn update_edge(&mut self, u: usize, v: usize, delta: i64) {
        let i = (u + v) % CELLS;
        self.bank.apply(i, delta, delta as i128, M61::new(1));
    }

    fn absorb_with(&mut self, batch: &[EdgeUpdate], _plan: &DecodePlan) {
        for up in batch {
            self.update_edge(up.u, up.v, up.delta);
        }
    }

    fn decode_with(&self, _plan: &DecodePlan) {}
}

#[test]
fn shard_overflow_poisons_stats_instead_of_killing_the_worker() {
    let mut engine = SketchEngine::new(EngineConfig::new(2).with_workers(2), || ToySketch::new(16));

    // Benign traffic first.
    engine.ingest(&[EdgeUpdate::insert(0, 1), EdgeUpdate::insert(2, 3)]);
    engine.flush();
    let stats = engine.stats();
    assert_eq!(stats.lane_overflows, 0);
    // Narrow lanes: the width-aware accounting is strictly below the
    // format-frozen 32-byte-cell figure.
    assert!(stats.lane_bytes_resident < stats.bytes_resident);

    // Adversarial: two max-magnitude deltas on the same cell wrap the
    // i64 `w` counter — true overflow, whatever the lane width.
    let hot = EdgeUpdate {
        u: 4,
        v: 5,
        delta: i64::MAX,
    };
    engine.ingest(&[hot, hot]);
    engine.flush();
    let stats = engine.stats();
    assert!(
        stats.lane_overflows >= 1,
        "true overflow must surface in engine stats"
    );

    // The worker survived: further ingest is accepted and applied, and
    // the poison mark stays sticky.
    engine.ingest(&[EdgeUpdate::insert(6, 7)]);
    engine.flush();
    let stats = engine.stats();
    assert!(stats.lane_overflows >= 1, "poison is sticky");
    assert_eq!(stats.updates_pending, 0, "engine still drains its queues");

    // Sealing still works — the poisoned shard is handed back with its
    // mark intact rather than panicking on the way out.
    let merged = engine.seal();
    assert!(CellBanked::lane_overflow(&merged).is_some());
}
