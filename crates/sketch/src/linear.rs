//! The unified sketch interface: every AGM algorithm is a [`LinearSketch`].
//!
//! Every algorithm in the paper has the same shape — a linear projection of
//! the graph's edge space fed `(u, v, ±δ)` updates, mergeable across
//! distributed sites (§1.1), then decoded into an answer. This module names
//! that shape once, so scaling machinery (distributed ingest, batching,
//! sharding, serving) can be written a single time against the trait
//! instead of once per sketch type.
//!
//! It is also the one place a task's ingest, decode and size are written:
//! four required methods, the rest provided, and size and overflow
//! questions answered by the [`CellBanked`] supertrait from the task's
//! banks (see [`LinearSketch`]).
//!
//! ## The value-carrying update convention
//!
//! [`LinearSketch::update_edge`] takes a single signed `delta`:
//!
//! * **Unit sketches** (connectivity, min cut, subgraphs, …) read it as a
//!   multiplicity change: `delta = ±m` adds/removes `m` parallel copies of
//!   the edge.
//! * **Weighted sketches** (§3.5 sparsification, MSF) read it as a
//!   value-carrying update: `delta = sign · w` inserts (`sign = +1`) or
//!   deletes (`sign = −1`) the edge *as one object of weight `w`* — the
//!   sketched coordinate holds `±w`.
//!
//! Both readings are the same arithmetic on the underlying vector, which is
//! exactly why one trait suffices. [`EdgeUpdate`] packages an update in
//! this convention; [`LinearSketch::absorb`] ingests a batch of them.

use crate::bank::CellBanked;
use crate::par::DecodePlan;
use crate::Mergeable;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Bytes per 1-sparse cell (`w: i64`, `s: i128`, `f: u64`) — the unit in
/// which sketch sizes are accounted by [`LinearSketch::space_bytes`].
pub const CELL_BYTES: usize = 32;

/// One stream update in the value-carrying convention: `|delta|` is the
/// multiplicity (unit sketches) or weight (weighted sketches), the sign
/// distinguishes insertion from deletion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeUpdate {
    /// First endpoint.
    pub u: usize,
    /// Second endpoint.
    pub v: usize,
    /// Signed value: `±multiplicity` or `±weight`, never 0.
    pub delta: i64,
}

impl EdgeUpdate {
    /// A unit insertion of edge `{u,v}`.
    pub fn insert(u: usize, v: usize) -> Self {
        EdgeUpdate { u, v, delta: 1 }
    }

    /// A unit deletion of edge `{u,v}`.
    pub fn delete(u: usize, v: usize) -> Self {
        EdgeUpdate { u, v, delta: -1 }
    }

    /// A weighted insertion (`sign = +1`) or deletion (`sign = −1`) of an
    /// edge of weight `w`.
    ///
    /// # Panics
    /// Panics if `w ∉ [1, i64::MAX]` (the weight must fit the signed
    /// delta) or `sign ∉ {−1, +1}`.
    pub fn weighted(u: usize, v: usize, w: u64, sign: i64) -> Self {
        assert!(w >= 1, "weights must be >= 1");
        assert!(w <= i64::MAX as u64, "weight {w} exceeds i64::MAX");
        assert!(sign == 1 || sign == -1, "sign must be +-1");
        EdgeUpdate {
            u,
            v,
            delta: sign * w as i64,
        }
    }

    /// The carried weight/multiplicity `|delta|`.
    pub fn weight(&self) -> u64 {
        self.delta.unsigned_abs()
    }

    /// `+1` for insertions, `−1` for deletions.
    pub fn sign(&self) -> i64 {
        self.delta.signum()
    }

    /// Checks the update against Definition 1 on vertex set `[0, n)`: no
    /// self-loops, both endpoints in range, a non-zero delta. This is the
    /// typed boundary for untrusted update sources — the sketches
    /// themselves `assert!` the same invariants, so an update that skips
    /// this check panics deep inside an ingest worker instead of failing
    /// where the bad input can still be reported.
    pub fn validate(&self, n: usize) -> Result<(), UpdateError> {
        if self.u == self.v {
            return Err(UpdateError::SelfLoop { u: self.u });
        }
        if self.u >= n || self.v >= n {
            return Err(UpdateError::OutOfRange {
                u: self.u,
                v: self.v,
                n,
            });
        }
        if self.delta == 0 {
            return Err(UpdateError::ZeroDelta {
                u: self.u,
                v: self.v,
            });
        }
        Ok(())
    }
}

/// Why an [`EdgeUpdate`] was refused by [`EdgeUpdate::validate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateError {
    /// Both endpoints are the same vertex (Definition 1 excludes loops).
    SelfLoop {
        /// The repeated endpoint.
        u: usize,
    },
    /// An endpoint is outside the sketch's vertex set `[0, n)`.
    OutOfRange {
        /// First endpoint.
        u: usize,
        /// Second endpoint.
        v: usize,
        /// The sketch's vertex count.
        n: usize,
    },
    /// The delta is zero (the value-carrying convention forbids it: a
    /// zero-weight object is indistinguishable from no object).
    ZeroDelta {
        /// First endpoint.
        u: usize,
        /// Second endpoint.
        v: usize,
    },
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::SelfLoop { u } => write!(f, "self-loop ({u},{u}) not allowed"),
            UpdateError::OutOfRange { u, v, n } => {
                write!(f, "endpoint out of range: ({u},{v}) vs n = {n}")
            }
            UpdateError::ZeroDelta { u, v } => {
                write!(f, "zero-delta update of edge ({u},{v})")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// A linear sketch of a dynamic graph stream on vertex set `[n]`.
///
/// Implementors are linear projections of the stream's edge vector: feeding
/// the concatenation of two streams equals feeding them into two sketches
/// (built with the same seed/parameters) and [`Mergeable::merge`]-ing the
/// results — bit for bit. That single property powers everything in §1.1:
/// deletions cancel insertions, site sketches add up at a coordinator, and
/// update order is irrelevant.
///
/// A task writes four methods: [`LinearSketch::n`],
/// [`LinearSketch::update_edge`], [`LinearSketch::absorb_with`] and
/// [`LinearSketch::decode_with`]. The one-thread cases
/// ([`LinearSketch::absorb`], [`LinearSketch::decode`]) and the size
/// ([`LinearSketch::space_bytes`]) are provided; lane overflow and
/// resident bytes come from the [`CellBanked`] supertrait.
pub trait LinearSketch: Mergeable + CellBanked {
    /// What decoding yields (a forest, a sparsifier, an estimate, …).
    type Output;

    /// Vertex count `n` of the sketched graph.
    fn n(&self) -> usize;

    /// Applies one stream update in the value-carrying convention (see the
    /// module docs): `delta = ±m` for unit sketches, `±w` for weighted.
    fn update_edge(&mut self, u: usize, v: usize, delta: i64);

    /// Batched ingestion under a [`DecodePlan`]: one batch absorbed by up
    /// to `plan.threads()` threads that write disjoint parts of this one
    /// sketch (a forest sketch's independent rounds and nodes, a
    /// composite's sub-sketches), in a single scoped fork-join clamped to
    /// the machine's parallelism. **Bit-identical** at every thread count
    /// to its one-thread case [`LinearSketch::absorb`] — lanes,
    /// fingerprints, dirty bitmaps and the poison mark — because every
    /// cell sees the same adds in the same order. By linearity the sketch
    /// equals the one looping [`LinearSketch::update_edge`] builds.
    fn absorb_with(&mut self, batch: &[EdgeUpdate], plan: &DecodePlan);

    /// [`LinearSketch::absorb_with`] on the calling thread.
    fn absorb(&mut self, batch: &[EdgeUpdate]) {
        self.absorb_with(batch, &DecodePlan::sequential());
    }

    /// Size of the linear measurement state in bytes, charged at the
    /// format-frozen [`CELL_BYTES`] per cell whatever the lane width
    /// (constant-size seeds and parameters are not counted).
    /// [`CellBanked::resident_bytes`] is the width-aware footprint.
    fn space_bytes(&self) -> usize {
        self.cell_count() * CELL_BYTES
    }

    /// Decodes under a [`DecodePlan`]. Decoding is read-only: the sketch
    /// can keep ingesting afterwards. The answer is **bit-identical** for
    /// every thread count — decode loops fan independent work (groups
    /// within a Boruvka round, subsampling levels, Gomory–Hu cuts) over
    /// scoped threads and consume the results in the sequential order
    /// (see [`crate::par`]).
    fn decode_with(&self, plan: &DecodePlan) -> Self::Output;

    /// [`LinearSketch::decode_with`] on the calling thread.
    fn decode(&self) -> Self::Output {
        self.decode_with(&DecodePlan::sequential())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_update_constructors() {
        assert_eq!(EdgeUpdate::insert(1, 2).delta, 1);
        assert_eq!(EdgeUpdate::delete(1, 2).delta, -1);
        let w = EdgeUpdate::weighted(0, 3, 7, -1);
        assert_eq!((w.weight(), w.sign()), (7, -1));
    }

    #[test]
    #[should_panic]
    fn weighted_rejects_zero_weight() {
        let _ = EdgeUpdate::weighted(0, 1, 0, 1);
    }

    #[test]
    #[should_panic]
    fn weighted_rejects_unrepresentable_weight() {
        // i64::MAX + 1 would wrap the signed delta.
        let _ = EdgeUpdate::weighted(0, 1, 1 << 63, 1);
    }

    #[test]
    #[should_panic]
    fn weighted_rejects_bad_sign() {
        let _ = EdgeUpdate::weighted(0, 1, 2, 3);
    }
}
