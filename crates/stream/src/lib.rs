//! Dynamic graph streams (Definition 1) at scale: the distributed setting
//! of §1.1 and the resident ingest engine.
//!
//! > *"A stream S = <a_1, ..., a_t> where a_k in `[n] x [n] x {-1, 1}` defines
//! > a multi-graph G = (V, E) ... We assume that the edge multiplicity is
//! > non-negative and that the graph has no self-loops."*
//!
//! A stream here is a slice of [`gs_sketch::EdgeUpdate`]s in the
//! value-carrying convention (`delta = ±w`, §3.5); the seeded stream
//! generators live in [`gs_graph::gen`].
//!
//! * [`distributed`] — the distributed-stream setting of §1.1: a stream
//!   partitioned across sites, each site sketching its share, sketches
//!   merged at a coordinator (a thin wrapper over [`engine`]).
//! * [`engine`] — the resident ingest engine: [`engine::SketchEngine`]
//!   shards a live stream over worker threads behind bounded queues and
//!   answers snapshot queries mid-stream (merge-on-read).

#![forbid(unsafe_code)]

pub mod distributed;
pub mod engine;
