//! Linear sketch primitives for dynamic graph streams.
//!
//! This crate implements the algorithmic preliminaries of §2.3 of
//! Ahn–Guha–McGregor (PODS 2012), the toolbox every graph algorithm in the
//! paper is assembled from:
//!
//! * [`one_sparse::OneSparseCell`] — the constant-size cell that recovers a
//!   vector containing exactly one non-zero entry (sum / index-sum /
//!   fingerprint).
//! * [`sparse_recovery::SparseRecovery`] — `k-RECOVERY` (Theorem 2.2):
//!   exact recovery of any vector with at most `k` non-zeros, `FAIL`
//!   otherwise, via bucketed 1-sparse cells with peeling decode.
//! * [`l0`] — ℓ0-sampling (Theorem 2.1): [`l0::L0Sampler`] returns a
//!   (near-)uniform element of the support of a dynamic vector;
//!   [`l0::L0Detector`] is the cheaper variant that returns *some* support
//!   element, sufficient for Boruvka-style decoding.
//! * [`bank`] — the shared struct-of-arrays cell store
//!   ([`bank::CellBank`]): every structure above keeps its cells in one
//!   contiguous bank (batched hash-once updates, lane-wise merges, raw
//!   wire dumps via the [`bank::CellBanked`] visitor).
//! * [`domain`] — index-space bijections: triangular ranking of edges
//!   `(u,v) ↦ [0, C(n,2))` and combinatorial ranking of `k`-subsets for the
//!   `squash` encoding of Fig. 4, plus the pair-slot arithmetic of the
//!   subgraph sketch.
//!
//! Everything here is a **linear** function of the input vector: all
//! structures expose `update(index, ±δ)` and [`Mergeable::merge`], and
//! merging the sketches of two streams yields bit-for-bit the sketch of
//! their concatenation. That linearity is what makes the downstream graph
//! algorithms work on dynamic streams (deletions cancel insertions) and on
//! distributed streams (site sketches add up), per §1.1 of the paper.

#![forbid(unsafe_code)]

pub mod bank;
pub mod cache;
pub mod domain;
pub mod env;
pub mod l0;
pub mod lane;
pub mod linear;
pub mod one_sparse;
pub mod par;
pub mod sparse_recovery;

pub use bank::{BankGeometry, CellBank, CellBanked};
pub use cache::DecodeCache;
pub use l0::{level_count, DetectorPlan, L0Detector, L0Result, L0Sampler};
pub use lane::{IntLane, IntWidth, LaneOverflow, LaneWidth};
pub use linear::{EdgeUpdate, LinearSketch, UpdateError, CELL_BYTES};
pub use one_sparse::{OneSparseCell, OneSparseState};
pub use par::{par_map, par_map_with, DecodePlan};
pub use sparse_recovery::{RecoveryPlan, SparseRecovery};

/// Sketches of partial streams can be added to form the sketch of the whole
/// stream (§1.1: distributed streams, MapReduce partitioning).
pub trait Mergeable {
    /// Adds `other` into `self`.
    ///
    /// # Panics
    /// Panics if the two sketches were built with different parameters or
    /// seeds (they would not be measurements of the same linear projection).
    fn merge(&mut self, other: &Self);
}
