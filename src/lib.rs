//! Workspace facade: re-exports every crate of the graph-sketches
//! workspace so the root package can host cross-crate integration tests
//! (`tests/`) and examples (`examples/`).
//!
//! See `crates/core` (`graph_sketches`) for the algorithm library and
//! DESIGN.md for the layering.

#![forbid(unsafe_code)]

pub use graph_sketches;
pub use gs_field;
pub use gs_graph;
pub use gs_sketch;
pub use gs_stream;
