//! Adversarial workloads and the experiment runner.
//!
//! The paper motivates graph sketching with hostile, heavy-tailed
//! real-world streams — web graphs, IP flows, friendship graphs (§1) —
//! but a test suite's inputs are test-shaped. This crate turns "handles
//! many scenarios" into a measured surface:
//!
//! * [`generate::GeneratorSpec`] — seeded, replayable adversarial trace
//!   generators: power-law/preferential-attachment churn, temporal
//!   sliding-window insert/delete storms, near-threshold min-cut
//!   adversaries, planted sparsifier adversaries, and multigraph weight
//!   churn. Identical spec + seed ⇒ byte-identical trace, always.
//! * [`trace::Trace`] — the versioned trace format those generators
//!   emit: a binary layout (`AGMSKT1\n`, FNV-checksummed like the wire
//!   formats), a JSONL text form, and the CLI's `+ u v [w]` stream
//!   form, all replayable through [`gs_stream::engine::SketchEngine`]
//!   offline or a live `gs-serve` server via [`gs_serve::Client`].
//! * [`runner`] — an AgentLab-style experiment matrix: a `tasks.jsonl`
//!   of (task × generator × eps sweep × repeats) executed through the
//!   engine (or a live server), scoring every run against the exact
//!   in-memory baselines and emitting per-run JSONL rows plus
//!   accuracy-vs-space-vs-time frontier tables, with each task's
//!   (eps, delta) guarantee enforced as a hard gate.

#![forbid(unsafe_code)]

pub mod generate;
pub mod runner;
pub mod trace;

pub use generate::GeneratorSpec;
pub use runner::{run_experiment, ExperimentReport, RunnerOpts, ServerTarget, TaskRow};
pub use trace::{Trace, TraceError, UpdateKind};
