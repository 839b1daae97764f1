//! Graph substrate for the graph-sketches workspace.
//!
//! The paper's sketch algorithms are *evaluated against* exact combinatorial
//! algorithms and *post-processed with* classical data structures. This
//! crate provides all of them, from scratch:
//!
//! * [`graph`] — weighted undirected (multi)graphs with cut evaluation.
//! * [`unionfind`] — disjoint sets with union by rank + path compression.
//! * [`gen`] — seeded workload generators: `G(n,p)`, planted partitions,
//!   barbells with planted cuts, grids, cycles, cliques, preferential
//!   attachment, and weighted variants.
//! * [`paths`] — BFS distances / APSP / diameter (spanner stretch audits).
//! * [`maxflow`] — Dinic's algorithm with integer capacities.
//! * [`gomory_hu`] — the true Gomory–Hu cut tree (Definition 6) built with
//!   vertex contraction, used by `SPARSIFICATION` (Fig. 3) and for exact
//!   edge-connectivity values λ_e.
//! * [`stoer_wagner`] — exact global minimum cut (baseline for Fig. 1).
//! * [`subgraph`] — exact induced-pattern counting and isomorphism-class
//!   tables `A_H` (baseline for §4).
//! * [`offline_sparsify`] — the offline sampling sparsifiers the paper's
//!   analysis builds on: Karger's uniform sampling (Lemma 3.1) and
//!   Fung et al.'s connectivity-based sampling (Theorem 3.1).
//! * [`cuts`] — cut enumeration (tiny graphs) and randomized cut audits.

#![forbid(unsafe_code)]

pub mod cuts;
pub mod gen;
pub mod gomory_hu;
pub mod graph;
pub mod maxflow;
pub mod offline_sparsify;
pub mod paths;
pub mod stoer_wagner;
pub mod subgraph;
pub mod unionfind;

pub use gomory_hu::GomoryHuTree;
pub use graph::Graph;
pub use unionfind::UnionFind;
