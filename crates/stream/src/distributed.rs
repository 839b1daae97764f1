//! Distributed streams (§1.1): per-site sketches merged at a coordinator.
//!
//! > *"…by adding together the sketches of the partial streams, we get the
//! > sketch of the entire stream. More generally, sketches can be applied
//! > in any situation where the data is partitioned between different
//! > locations, e.g., data partitioned between reducer nodes in a
//! > MapReduce job or between different data centers."*
//!
//! [`sketch_distributed`] drives any [`LinearSketch`] directly: the update
//! batch is hash-partitioned across `sites` and absorbed into one private
//! sketch per site, after which the coordinator folds the site sketches
//! with [`gs_sketch::Mergeable::merge`] **in site order**. Since PR 2 it is
//! a thin wrapper over the resident [`crate::engine::SketchEngine`]: sites
//! become engine *shards* routed by the shared [`crate::stream::site_of`]
//! sequence, and real parallelism is capped at
//! [`crate::engine::default_workers`] worker threads — 1024 sites no
//! longer cost 1024 OS threads. Because every sketch in this workspace is
//! a linear projection, the folded sketch is **bit-for-bit identical** to
//! a single-site sketch of the whole stream — [`linearity_holds`] asserts
//! exactly that (for the batch path *and* the engine path, snapshots
//! included), and experiment E12 measures it.

use crate::engine::{EngineConfig, Router, SketchEngine};
use crate::stream::GraphStream;
use gs_sketch::{EdgeUpdate, LinearSketch};

/// Partitions `updates` across `sites`, the §1.1 setting: every update
/// goes to exactly one (seeded-pseudorandom) site; concatenating the parts
/// in site order is a reordering of the original stream (which linear
/// sketches are insensitive to). Sites beyond the stream length simply
/// receive empty shares. Shares [`crate::stream::site_of`] with
/// [`GraphStream::split`] so both splits realize the same partition.
pub fn split_updates(updates: &[EdgeUpdate], sites: usize, seed: u64) -> Vec<Vec<EdgeUpdate>> {
    assert!(sites >= 1);
    let mut site = crate::stream::site_of(sites, seed);
    let mut parts: Vec<Vec<EdgeUpdate>> = (0..sites).map(|_| Vec::new()).collect();
    for &up in updates {
        parts[site()].push(up);
    }
    parts
}

/// Builds a sketch of `updates` as if they were observed at `sites`
/// distinct locations. `make()` constructs an empty sketch (all sites must
/// use the same seed/parameters — that is what makes the measurements
/// compatible). Sites are engine shards: site shares are absorbed by at
/// most [`crate::engine::default_workers`] worker threads, and the site
/// sketches are merged in site order at the end.
///
/// Degenerate cases are explicit: with more sites than updates the surplus
/// sites contribute nothing (an empty-constructed sketch is the zero of the
/// merge group, so skipping it is exact), and an empty stream returns the
/// empty-constructed sketch itself.
pub fn sketch_distributed<S, F>(updates: &[EdgeUpdate], sites: usize, split_seed: u64, make: F) -> S
where
    S: LinearSketch + Send + 'static,
    F: Fn() -> S + Sync,
{
    assert!(sites >= 1);
    // Route by the shared §1.1 site sequence so the shard contents are
    // exactly the `split_updates` partition of this (sites, seed) pair.
    let mut site = crate::stream::site_of(sites, split_seed);
    let router: Router = Box::new(move |_| site());
    let mut engine = SketchEngine::with_router(EngineConfig::new(sites), router, &make);
    engine.ingest(updates);
    engine.seal()
}

/// Single-site reference: sketches the whole update batch sequentially.
pub fn sketch_central<S: LinearSketch>(updates: &[EdgeUpdate], make: impl FnOnce() -> S) -> S {
    let mut sk = make();
    sk.absorb(updates);
    sk
}

/// The linearity law every [`LinearSketch`] must satisfy, as a reusable
/// property-test harness. For each site count it checks the law **bit for
/// bit** (structural equality of the sketch state, not merely of the
/// decoded answer) along both ingest paths:
///
/// 1. **Batch**: hash-splitting the stream, sketching the parts
///    independently, and merging equals the central sketch
///    ([`sketch_distributed`]).
/// 2. **Engine**: streaming the updates through a sharded
///    [`SketchEngine`] in chunks — with a flushed mid-stream
///    [`SketchEngine::snapshot`] that must equal the central sketch of the
///    prefix — and sealing equals the central sketch of the whole stream.
///
/// # Panics
/// Panics (via `assert_eq!`) if any site count violates the law on either
/// path.
pub fn linearity_holds<S, F>(updates: &[EdgeUpdate], site_counts: &[usize], make: F)
where
    S: LinearSketch + Send + Clone + PartialEq + std::fmt::Debug + 'static,
    F: Fn() -> S + Sync,
{
    let central = sketch_central(updates, &make);
    for &sites in site_counts {
        let dist = sketch_distributed(updates, sites, 0x5EED ^ sites as u64, &make);
        assert_eq!(dist, central, "merge-of-{sites}-sites != central sketch");

        let config = EngineConfig::new(sites).with_seed(0xE21 ^ sites as u64);
        let mut engine = SketchEngine::new(config, &make);
        let mid = updates.len() / 2;
        engine.ingest(&updates[..mid]);
        engine.flush();
        assert_eq!(
            engine.snapshot(),
            sketch_central(&updates[..mid], &make),
            "flushed {sites}-shard snapshot != central sketch of the prefix"
        );
        for chunk in updates[mid..].chunks(97) {
            engine.ingest(chunk);
        }
        assert_eq!(
            engine.seal(),
            central,
            "sealed {sites}-shard engine != central sketch"
        );
    }
}

impl GraphStream {
    /// The stream as a value-carrying [`EdgeUpdate`] batch — the form
    /// [`LinearSketch::absorb`] and [`sketch_distributed`] ingest.
    pub fn edge_updates(&self) -> Vec<EdgeUpdate> {
        self.updates()
            .iter()
            .map(|up| EdgeUpdate {
                u: up.u,
                v: up.v,
                delta: up.delta as i64,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_graph::gen;
    use gs_sketch::domain::{edge_domain, edge_index};
    use gs_sketch::{Mergeable, SparseRecovery};

    /// Minimal LinearSketch used to test the distributed plumbing without
    /// depending on the algorithm crate: exact recovery of the net edge
    /// vector.
    #[derive(Clone, Debug, PartialEq)]
    struct EdgeVectorSketch {
        n: usize,
        inner: SparseRecovery,
    }

    impl EdgeVectorSketch {
        fn new(n: usize, k: usize, seed: u64) -> Self {
            EdgeVectorSketch {
                n,
                inner: SparseRecovery::new(edge_domain(n), k, seed),
            }
        }
    }

    impl Mergeable for EdgeVectorSketch {
        fn merge(&mut self, other: &Self) {
            assert_eq!(self.n, other.n);
            self.inner.merge(&other.inner);
        }
    }

    impl LinearSketch for EdgeVectorSketch {
        type Output = Option<Vec<(u64, i64)>>;

        fn n(&self) -> usize {
            self.n
        }

        fn update_edge(&mut self, u: usize, v: usize, delta: i64) {
            self.inner.update(edge_index(self.n, u, v), delta);
        }

        fn space_bytes(&self) -> usize {
            self.inner.cell_count() * gs_sketch::CELL_BYTES
        }

        fn decode(&self) -> Self::Output {
            self.inner.decode()
        }
    }

    #[test]
    fn distributed_equals_central_bit_for_bit() {
        let g = gen::gnp(30, 0.05, 3);
        let stream = GraphStream::with_churn(&g, 300, 4);
        let updates = stream.edge_updates();
        linearity_holds(&updates, &[1, 2, 5, 16], || {
            EdgeVectorSketch::new(30, 32, 0xD15C)
        });
    }

    #[test]
    fn decoded_answers_agree_too() {
        let g = gen::gnp(30, 0.05, 3);
        let stream = GraphStream::with_churn(&g, 300, 4);
        let updates = stream.edge_updates();
        let make = || EdgeVectorSketch::new(30, 32, 0xD15C);
        let central = sketch_central(&updates, make);
        for sites in [1, 2, 5, 16] {
            let dist = sketch_distributed(&updates, sites, 7, make);
            assert_eq!(dist.decode(), central.decode(), "sites = {sites}");
        }
    }

    #[test]
    fn cross_site_cancellation() {
        // An insertion at site A and its deletion at site B must cancel in
        // the merged sketch even though neither site saw both.
        let updates = vec![
            EdgeUpdate::insert(0, 1),
            EdgeUpdate::insert(2, 3),
            EdgeUpdate::delete(0, 1),
        ];
        let n = 4;
        for seed in 0..5 {
            let merged = sketch_distributed(&updates, 3, seed, || EdgeVectorSketch::new(n, 4, 0xA));
            let got = merged.decode().expect("recovers");
            assert_eq!(got, vec![(edge_index(n, 2, 3), 1)]);
        }
    }

    #[test]
    fn more_sites_than_updates_is_exact() {
        // 3 updates over 16 sites: most sites are empty; the fold must
        // still produce the central sketch, not panic.
        let updates = vec![
            EdgeUpdate::insert(0, 1),
            EdgeUpdate::insert(1, 2),
            EdgeUpdate::delete(0, 1),
        ];
        let make = || EdgeVectorSketch::new(4, 4, 0xB);
        let central = sketch_central(&updates, make);
        for sites in [4, 16, 64] {
            let dist = sketch_distributed(&updates, sites, 11, make);
            assert_eq!(dist, central, "sites = {sites}");
        }
    }

    #[test]
    fn empty_stream_returns_empty_constructed_sketch() {
        let updates: Vec<EdgeUpdate> = Vec::new();
        let make = || EdgeVectorSketch::new(4, 4, 0xC);
        let dist = sketch_distributed(&updates, 8, 13, make);
        assert_eq!(dist, make());
        assert_eq!(dist.decode(), Some(vec![]));
    }

    #[test]
    fn split_updates_agrees_with_stream_split() {
        // Both §1.1 splits share site_of: equal (sites, seed) must yield
        // the same partition of the same stream.
        let g = gen::gnp(12, 0.4, 8);
        let stream = GraphStream::with_churn(&g, 80, 9);
        let by_stream = stream.split(5, 42);
        let by_updates = split_updates(&stream.edge_updates(), 5, 42);
        for (a, b) in by_stream.iter().zip(&by_updates) {
            assert_eq!(&a.edge_updates(), b);
        }
    }

    #[test]
    fn split_partitions_every_update_once() {
        let g = gen::gnp(20, 0.4, 5);
        let stream = GraphStream::with_churn(&g, 100, 6);
        let updates = stream.edge_updates();
        let parts = split_updates(&updates, 4, 7);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), updates.len());
    }

    #[test]
    fn absorb_equals_per_update_feed() {
        let g = gen::gnp(16, 0.3, 9);
        let updates = GraphStream::inserts_of(&g).edge_updates();
        let mut a = EdgeVectorSketch::new(16, 64, 0xD);
        a.absorb(&updates);
        let mut b = EdgeVectorSketch::new(16, 64, 0xD);
        for up in &updates {
            b.update_edge(up.u, up.v, up.delta);
        }
        assert_eq!(a, b);
    }
}
