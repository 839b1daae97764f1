//! # graph-sketches
//!
//! A Rust implementation of **"Graph Sketches: Sparsification, Spanners,
//! and Subgraphs"** (Ahn, Guha, McGregor — PODS 2012): linear sketches of
//! dynamic graph streams supporting edge insertions *and* deletions, with
//! single-pass cut sparsification, small-subgraph counting, and adaptive
//! (multi-pass) spanner construction.
//!
//! ## Map from paper to modules
//!
//! | Paper | Module |
//! |---|---|
//! | Eq. 1 node incidence vectors `x^u` | [`incidence`] |
//! | AGM spanning-forest / connectivity sketch (substrate from \[4\]) | [`connectivity`] |
//! | Theorem 2.3 `k-EDGECONNECT` | [`kedge`] |
//! | Fig. 1 `MINCUT` (Thm 3.2 / 3.6) | [`mincut`] |
//! | Fig. 2 `SIMPLE-SPARSIFICATION` (Thm 3.3) | [`simple_sparsify`] |
//! | Fig. 3 `SPARSIFICATION` (Thm 3.4 / 3.7) | [`sparsify`] |
//! | §3.5 weighted graphs (Thm 3.8) | [`weighted`] |
//! | §4 subgraph fractions γ_H (Thm 4.1, Fig. 4) | [`subgraphs`] |
//! | §5 Baswana–Sen emulation, (2k−1)-spanner in k passes | [`spanner::baswana_sen`](mod@spanner::baswana_sen) |
//! | §5.1 `RECURSECONNECT`, (k^{log₂5}−1)-spanner in ⌈log k⌉+1 passes (Thm 5.1) | [`spanner::recurse`] |
//!
//! ## Quick start
//!
//! Every sketch speaks the unified [`gs_sketch::LinearSketch`] interface;
//! the [`api`] module adds runtime dispatch over all of them:
//!
//! ```
//! use graph_sketches::api::{SketchAnswer, SketchSpec, SketchTask};
//! use gs_graph::gen;
//! use gs_sketch::LinearSketch;
//!
//! let g = gen::connected_gnp(40, 0.2, 7);
//! // A dynamic stream with insertions and deletions that nets out to `g`.
//! let updates = gen::churn_stream(&g, 200, 1);
//! let mut sketch = SketchSpec::new(SketchTask::Connectivity, 40)
//!     .with_seed(0xC0FFEE)
//!     .build();
//! sketch.absorb(&updates);
//! match sketch.decode() {
//!     SketchAnswer::Connectivity { components, forest_edges, .. } => {
//!         assert_eq!(components, 1);
//!         assert_eq!(forest_edges.len(), 39);
//!     }
//!     other => panic!("unexpected {other:?}"),
//! }
//! ```
//!
//! Static dispatch works identically — [`ForestSketch::new`],
//! [`MinCutSketch::new`], … all implement [`gs_sketch::LinearSketch`]
//! directly.
//!
//! All sketches are linear: they can be [`gs_sketch::Mergeable::merge`]d
//! across distributed sites (§1.1) and deletions cancel insertions —
//! `gs_stream::distributed::sketch_distributed` drives any of them one
//! thread per site and folds the results. Every structure takes explicit
//! parameter structs whose defaults are *scaled-down* versions of the
//! paper's constants (the paper's own constants are available via the
//! `paper_*` constructors); see DESIGN.md.

#![forbid(unsafe_code)]

mod absorb;
pub mod api;
pub mod connectivity;
pub mod extras;
pub mod frame;
pub mod incidence;
pub mod kedge;
pub mod mincut;
pub mod mst;
mod reader;
pub mod simple_sparsify;
pub mod spanner;
pub mod sparsify;
pub mod subgraphs;
pub mod weighted;
pub mod wire;

pub use api::{AnySketch, MergeError, SketchAnswer, SketchSpec, SketchTask};
pub use connectivity::ForestSketch;
pub use kedge::KEdgeConnectSketch;
pub use mincut::MinCutSketch;
pub use simple_sparsify::SimpleSparsifySketch;
pub use sparsify::SparsifySketch;
pub use subgraphs::SubgraphSketch;
pub use weighted::WeightedSparsifySketch;
pub use wire::{SketchFile, WireError};
