//! # gs-serve
//!
//! The resident multi-tenant sketch service: a daemon that keeps many
//! named AGM sketches hot and speaks the length-prefixed frame protocol
//! of [`graph_sketches::frame`] over TCP and Unix-domain sockets.
//!
//! The one-shot CLI pipeline (`sketch | merge | sync | decode`) pays
//! process startup, file I/O, and a full state reload for every round.
//! This crate turns the same building blocks — the split absorb kernel
//! ([`gs_sketch::LinearSketch::absorb_with`]), wire-v2 checksummed
//! snapshots and delta records, parallel [`gs_sketch::par::DecodePlan`]
//! decodes — into a server that ingests continuously and answers
//! queries in place:
//!
//! - **[`server`]** — [`Server`](server::Server): listeners, the tenant
//!   registry, the checkpoint thread, and crash recovery. std-only,
//!   thread-per-connection with a bounded accept pool; no async runtime.
//! - **[`client`]** — [`Client`](client::Client): a blocking one-frame-
//!   at-a-time client used by the CLI `client` verb, the tests, and the
//!   benches.
//!
//! Each tenant holds exactly one sketch, its checkpoint base. Raw update
//! batches are queued for the tenant's absorber thread, which absorbs
//! each one with several threads writing disjoint rows of that sketch;
//! delta records fold into it directly (linearity makes the order
//! irrelevant); and a query waits for the queue to empty and decodes the
//! sketch in place, bit-identical to a single-process run over the same
//! update multiset.
//! The protocol grammar, error taxonomy, and crash-recovery invariants
//! are specified in DESIGN.md §1.9.

#![forbid(unsafe_code)]

pub mod client;
pub mod server;

pub use client::{Client, ClientError, Outcome};
pub use server::{ServeConfig, Server};
