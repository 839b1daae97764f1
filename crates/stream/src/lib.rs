//! The dynamic graph stream model (Definition 1) and its variants.
//!
//! > *"A stream S = <a_1, ..., a_t> where a_k in `[n] x [n] x {-1, 1}` defines
//! > a multi-graph G = (V, E) ... We assume that the edge multiplicity is
//! > non-negative and that the graph has no self-loops."*
//!
//! * [`stream`] — [`stream::GraphStream`]: finite update sequences with
//!   generators for insert-only streams, churn streams (edges inserted and
//!   later deleted), adversarial orderings, and materialization back to a
//!   [`gs_graph::Graph`].
//! * [`distributed`] — the distributed-stream setting of §1.1: a stream
//!   partitioned across sites, each site sketching its share, sketches
//!   merged at a coordinator (a thin wrapper over [`engine`]).
//! * [`engine`] — the resident ingest engine: [`engine::SketchEngine`]
//!   shards a live stream over worker threads behind bounded queues and
//!   answers snapshot queries mid-stream (merge-on-read).
//! * [`passes`] — pass accounting for the r-adaptive sketches of §5
//!   (Definition 2): a replay meter that counts how many passes an
//!   algorithm takes over the stream.

#![forbid(unsafe_code)]

pub mod distributed;
pub mod engine;
pub mod passes;
pub mod stream;

pub use stream::{GraphStream, Update};
