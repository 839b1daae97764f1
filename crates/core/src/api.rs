//! Runtime dispatch over every sketch in the crate: one config struct in,
//! one answer enum out.
//!
//! The static side of the unified interface is [`gs_sketch::LinearSketch`];
//! this module adds the dynamic side for callers (the CLI, services,
//! coordinators) that pick the algorithm at runtime:
//!
//! * [`SketchSpec`] — a serializable description of *which* sketch to run
//!   (task, `n`, `ε`, `k`, max weight, seed). [`SketchSpec::build`]
//!   constructs the sketch; two sites with equal specs build mergeable
//!   sketches.
//! * [`AnySketch`] — an enum over every sketch type, itself a
//!   [`LinearSketch`] (feed it, merge it, ship it through
//!   [`gs_stream::distributed::sketch_distributed`] like any other sketch).
//! * [`SketchAnswer`] — the decoded result, serializable and renderable as
//!   plain text lines.
//!
//! ```
//! use graph_sketches::api::{SketchAnswer, SketchSpec, SketchTask};
//! use gs_sketch::{EdgeUpdate, LinearSketch};
//!
//! let spec = SketchSpec::new(SketchTask::Connectivity, 4).with_seed(7);
//! let mut sketch = spec.build();
//! sketch.absorb(&[
//!     EdgeUpdate::insert(0, 1),
//!     EdgeUpdate::insert(1, 2),
//!     EdgeUpdate::insert(2, 3),
//!     EdgeUpdate::delete(1, 2),
//! ]);
//! match sketch.decode() {
//!     SketchAnswer::Connectivity { components, .. } => assert_eq!(components, 2),
//!     other => panic!("unexpected {other:?}"),
//! }
//! ```

use crate::absorb::{absorb_planned, AbsorbWork, SplitAbsorb};
use crate::connectivity::ForestParams;
use crate::extras::{BipartitenessSketch, KConnectivitySketch};
use crate::kedge::SubtractMode;
use crate::mincut::MinCutParams;
use crate::mst::{MstParams, MstSketch};
use crate::simple_sparsify::SimpleSparsifyParams;
use crate::sparsify::SparsifyParams;
use crate::subgraphs::SubgraphParams;
use crate::weighted::WeightedParams;
use crate::{
    ForestSketch, KEdgeConnectSketch, MinCutSketch, SimpleSparsifySketch, SparsifySketch,
    SubgraphSketch, WeightedSparsifySketch,
};
use gs_field::M61;
use gs_graph::subgraph::Pattern;
use gs_sketch::bank::{CellBank, CellBanked};
use gs_sketch::lane::LaneOverflow;
use gs_sketch::par::DecodePlan;
use gs_sketch::{DecodeCache, EdgeUpdate, LinearSketch, Mergeable};
use gs_stream::distributed::{sketch_central, sketch_distributed};
use serde::{Deserialize, Serialize, Value};

/// Which structural question a sketch answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SketchTask {
    /// Components + spanning forest (AGM substrate).
    Connectivity,
    /// Bipartiteness via the double cover.
    Bipartite,
    /// (1+ε)-approximate minimum cut (Fig. 1).
    MinCut,
    /// ε-cut-sparsifier, Fig. 2 flavor.
    SimpleSparsify,
    /// ε-cut-sparsifier, Fig. 3 flavor (the paper's main result).
    Sparsify,
    /// ε-cut-sparsifier for weighted streams (§3.5).
    WeightedSparsify,
    /// Order-k subgraph fractions γ_H (§4).
    Subgraphs,
    /// (1+ε)-approximate minimum spanning forest.
    Mst,
    /// k-edge-connectivity test.
    KConnect,
    /// The k-EDGECONNECT witness subgraph itself (Theorem 2.3).
    KEdgeWitness,
}

impl SketchTask {
    /// Every task, in CLI listing order.
    pub const ALL: [SketchTask; 10] = [
        SketchTask::Connectivity,
        SketchTask::Bipartite,
        SketchTask::MinCut,
        SketchTask::SimpleSparsify,
        SketchTask::Sparsify,
        SketchTask::WeightedSparsify,
        SketchTask::Subgraphs,
        SketchTask::Mst,
        SketchTask::KConnect,
        SketchTask::KEdgeWitness,
    ];

    /// The CLI command name.
    pub fn command(&self) -> &'static str {
        match self {
            SketchTask::Connectivity => "connectivity",
            SketchTask::Bipartite => "bipartite",
            SketchTask::MinCut => "mincut",
            SketchTask::SimpleSparsify => "simple-sparsify",
            SketchTask::Sparsify => "sparsify",
            SketchTask::WeightedSparsify => "weighted-sparsify",
            SketchTask::Subgraphs => "triangles",
            SketchTask::Mst => "mst",
            SketchTask::KConnect => "kconnected",
            SketchTask::KEdgeWitness => "kedge",
        }
    }

    /// Parses a CLI command name.
    pub fn from_command(cmd: &str) -> Option<SketchTask> {
        SketchTask::ALL.into_iter().find(|t| t.command() == cmd)
    }
}

/// A serializable recipe for constructing a sketch: everything two
/// distributed sites must agree on for their sketches to be mergeable
/// measurements of the same linear projection.
///
/// Fields not meaningful for a task (e.g. `max_weight` for connectivity)
/// are simply unused by [`SketchSpec::build`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SketchSpec {
    /// The structural question.
    pub task: SketchTask,
    /// Vertex count `n` (vertices are `0..n`).
    pub n: usize,
    /// Accuracy target ε (approximation tasks).
    pub eps: f64,
    /// Connectivity threshold (`KConnect` / `KEdgeWitness`) or pattern
    /// order (`Subgraphs`).
    pub k: usize,
    /// Maximum edge weight (`WeightedSparsify` / `Mst`).
    pub max_weight: u64,
    /// Master seed: equal specs ⇒ mergeable sketches.
    pub seed: u64,
}

impl SketchSpec {
    /// A spec with the scaled-down default parameters (see DESIGN.md §3).
    pub fn new(task: SketchTask, n: usize) -> Self {
        SketchSpec {
            task,
            n,
            eps: 0.5,
            k: match task {
                SketchTask::Subgraphs => 3,
                _ => 2,
            },
            max_weight: 1024,
            seed: 0xC0FFEE,
        }
    }

    /// Sets the accuracy target ε.
    pub fn with_eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Sets `k` (connectivity threshold or pattern order).
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the maximum edge weight.
    pub fn with_max_weight(mut self, max_weight: u64) -> Self {
        self.max_weight = max_weight;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Checks every field against the constructor invariants of the
    /// spec's task — the typed boundary for untrusted specs (CLI `--spec`
    /// arguments, wire-file headers). [`SketchSpec::build`] `assert!`s
    /// the same invariants, so a degenerate spec that skips this check
    /// panics (or, for `ε → 0`, saturates a derived size into an
    /// allocation-exhausting huge number) instead of failing with an
    /// error the caller can report.
    ///
    /// Beyond the hard constructor requirements, two plausibility floors
    /// bound what a hostile spec can make the constructors allocate:
    /// `ε ≥ 1e-3` (derived sparsities scale as `ε⁻²`) and
    /// `k ≤ 4096` (a `k-EDGECONNECT` stack is `k` forest sketches).
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.n < 2 {
            return Err(SpecError::TooFewVertices { n: self.n });
        }
        let uses_eps = matches!(
            self.task,
            SketchTask::MinCut
                | SketchTask::SimpleSparsify
                | SketchTask::Sparsify
                | SketchTask::WeightedSparsify
                | SketchTask::Subgraphs
                | SketchTask::Mst
        );
        if uses_eps {
            let hi = if self.task == SketchTask::Subgraphs {
                // SubgraphParams::for_eps requires ε ≤ 1 (a fraction).
                1.0
            } else {
                1e3
            };
            if !self.eps.is_finite() || self.eps < 1e-3 || self.eps > hi {
                return Err(SpecError::BadEps {
                    task: self.task,
                    eps: self.eps,
                    max: hi,
                });
            }
        }
        let k_ok = match self.task {
            SketchTask::KConnect | SketchTask::KEdgeWitness => (1..=4096).contains(&self.k),
            // Pattern order: the squash encoding supports 2..=6, and the
            // graph must hold at least one order-k subset.
            SketchTask::Subgraphs => (2..=6).contains(&self.k) && self.n >= self.k,
            _ => true,
        };
        if !k_ok {
            return Err(SpecError::BadK {
                task: self.task,
                k: self.k,
                n: self.n,
            });
        }
        if matches!(self.task, SketchTask::Mst | SketchTask::WeightedSparsify)
            && !(1..=1 << 40).contains(&self.max_weight)
        {
            return Err(SpecError::BadMaxWeight {
                task: self.task,
                max_weight: self.max_weight,
            });
        }
        Ok(())
    }

    /// Checks one update against everything this spec's sketch asserts
    /// on ingest: Definition 1 ([`EdgeUpdate::validate`]: no self-loop,
    /// both endpoints in `0..n`, a nonzero delta) plus the task's own
    /// bounds — a weight of at most `max_weight` for `mst` and
    /// `weighted-sparsify`, unit weights for `subgraphs`. The typed
    /// boundary for untrusted update sources (CLI input lines, served
    /// `INGEST` batches): an update that passes is absorbed without
    /// panicking and encoded as the task defines.
    pub fn check_update(&self, up: &EdgeUpdate) -> Result<(), String> {
        up.validate(self.n).map_err(|e| e.to_string())?;
        let w = up.weight();
        match self.task {
            SketchTask::Mst | SketchTask::WeightedSparsify if w > self.max_weight => Err(format!(
                "update ({}, {}) carries weight {w} > max weight {}",
                up.u, up.v, self.max_weight
            )),
            // The Fig. 4 squash encoding needs unit multiplicities (a
            // weight-w update would set the wrong bitmask bit).
            SketchTask::Subgraphs if w != 1 => Err(format!(
                "update ({}, {}) carries weight {w}; the {} sketch requires a \
                 simple graph (unit weights only)",
                up.u,
                up.v,
                self.task.command()
            )),
            _ => Ok(()),
        }
    }

    /// Validates, then builds: the fallible counterpart of
    /// [`SketchSpec::build`] for specs from untrusted sources. A
    /// degenerate spec returns a typed [`SpecError`] naming the offending
    /// field instead of panicking inside a constructor.
    pub fn try_build(&self) -> Result<AnySketch, SpecError> {
        self.validate()?;
        Ok(self.build())
    }

    /// Constructs the empty sketch this spec describes.
    ///
    /// Each task is built through its bounded constructor, which derives
    /// the bank lane widths from the spec (`LaneWidth::for_bounds`):
    /// Definition-1 tasks declare the unit insert/delete bound, the
    /// weighted tasks their weight-class encodings, the subgraph task its
    /// squash-encoding scale. The declared bound is a derivation hint
    /// only — feeding larger deltas still computes correctly unless a
    /// lane truly overflows at runtime, which poisons the bank and is
    /// reported through [`LinearSketch::lane_overflow`] instead of
    /// silently wrapping. Two sites with equal specs derive equal widths,
    /// so mergeability and the wire formats are unaffected.
    ///
    /// # Panics
    /// Panics if the spec is degenerate (the constructors assert their
    /// invariants). Untrusted callers should use [`SketchSpec::try_build`].
    pub fn build(&self) -> AnySketch {
        // Definition 1 streams carry unit insert/delete updates.
        const UNIT: u64 = 1;
        match self.task {
            SketchTask::Connectivity => AnySketch::Forest(ForestSketch::with_bounds(
                self.n,
                ForestParams::for_n(self.n),
                self.seed,
                UNIT,
            )),
            SketchTask::Bipartite => AnySketch::Bipartite(BipartitenessSketch::with_bounds(
                self.n,
                ForestParams::for_n(2 * self.n),
                self.seed,
                UNIT,
            )),
            SketchTask::MinCut => AnySketch::MinCut(MinCutSketch::with_bounds(
                self.n,
                MinCutParams::scaled(self.n, self.eps),
                self.seed,
                UNIT,
            )),
            SketchTask::SimpleSparsify => {
                AnySketch::SimpleSparsify(SimpleSparsifySketch::with_bounds(
                    self.n,
                    SimpleSparsifyParams::scaled(self.n, self.eps),
                    self.seed,
                    UNIT,
                ))
            }
            SketchTask::Sparsify => AnySketch::Sparsify(SparsifySketch::with_bounds(
                self.n,
                SparsifyParams::scaled(self.n, self.eps),
                self.seed,
                UNIT,
            )),
            SketchTask::WeightedSparsify => {
                // Per-class bounds (class c carries ±w, w < 2^{c+1}) are
                // derived inside the constructor.
                AnySketch::WeightedSparsify(WeightedSparsifySketch::with_bounds(
                    self.n,
                    WeightedParams::scaled(self.n, self.eps, self.max_weight),
                    self.seed,
                ))
            }
            SketchTask::Subgraphs => AnySketch::Subgraph(SubgraphSketch::with_bounds(
                self.n,
                self.k,
                SubgraphParams::for_eps(self.eps),
                self.seed,
                UNIT,
            )),
            SketchTask::Mst => AnySketch::Mst(MstSketch::with_bounds(
                self.n,
                MstParams {
                    eps: self.eps,
                    max_weight: self.max_weight,
                    forest: ForestParams::for_n(self.n),
                },
                self.seed,
                UNIT,
            )),
            SketchTask::KConnect => AnySketch::KConnect(KConnectivitySketch::with_bounds(
                self.n, self.k, self.seed, UNIT,
            )),
            SketchTask::KEdgeWitness => AnySketch::KEdgeWitness(KEdgeConnectSketch::with_bounds(
                self.n,
                self.k,
                ForestParams::for_n(self.n),
                SubtractMode::Unit,
                self.seed,
                UNIT,
            )),
        }
    }

    /// Builds, feeds, and decodes in one call. With `sites > 1` the batch
    /// is hash-partitioned and sketched one thread per site (§1.1); the
    /// answer is identical to `sites = 1` because the sketches are linear.
    pub fn run(&self, updates: &[EdgeUpdate], sites: usize) -> SketchAnswer {
        let sketch = if sites <= 1 {
            sketch_central(updates, || self.build())
        } else {
            sketch_distributed(updates, sites, self.seed ^ 0x517E5, || self.build())
        };
        sketch.decode()
    }

    /// Serializes the spec as JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Parses a spec from JSON.
    pub fn from_json(text: &str) -> Result<Self, serde::Error> {
        SketchSpec::from_value(&Value::from_json(text)?)
    }
}

/// Why a [`SketchSpec`] was refused by [`SketchSpec::validate`]: the
/// field that violates its task's constructor invariants (or the
/// documented plausibility floors bounding what a hostile spec can make
/// the constructors allocate).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SpecError {
    /// Every task needs at least two vertices.
    TooFewVertices {
        /// The declared vertex count.
        n: usize,
    },
    /// The accuracy target is unusable: not finite, below the `1e-3`
    /// floor (derived sparsities scale as `ε⁻²`), or above the task's
    /// ceiling.
    BadEps {
        /// The task whose constructor would reject it.
        task: SketchTask,
        /// The declared ε.
        eps: f64,
        /// The task's ceiling (1 for subgraph fractions, 1e3 otherwise).
        max: f64,
    },
    /// `k` violates the task's range: connectivity thresholds need
    /// `1 ≤ k ≤ 4096`, pattern orders need `2 ≤ k ≤ 6` with `n ≥ k`.
    BadK {
        /// The task whose constructor would reject it.
        task: SketchTask,
        /// The declared `k`.
        k: usize,
        /// The declared vertex count (pattern orders must not exceed it).
        n: usize,
    },
    /// The maximum weight is outside `[1, 2^40]` for a weighted task.
    BadMaxWeight {
        /// The task whose constructor would reject it.
        task: SketchTask,
        /// The declared maximum weight.
        max_weight: u64,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::TooFewVertices { n } => {
                write!(f, "spec declares n = {n}; every sketch needs n >= 2")
            }
            SpecError::BadEps { task, eps, max } => write!(
                f,
                "spec declares eps = {eps} for {task:?}; eps must be a finite value in \
                 [0.001, {max}]"
            ),
            SpecError::BadK { task, k, n } => match task {
                SketchTask::Subgraphs => write!(
                    f,
                    "spec declares pattern order k = {k} for {task:?} over n = {n}; the \
                     squash encoding supports 2 <= k <= 6 with n >= k"
                ),
                _ => write!(
                    f,
                    "spec declares k = {k} for {task:?}; the connectivity threshold must \
                     be in [1, 4096]"
                ),
            },
            SpecError::BadMaxWeight { task, max_weight } => write!(
                f,
                "spec declares max_weight = {max_weight} for {task:?}; weights must be in \
                 [1, 2^40]"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// Any sketch in the crate, behind one type: the runtime-dispatch
/// counterpart of [`LinearSketch`]. Feed it, merge it (same-task,
/// same-spec sketches only), decode it into a [`SketchAnswer`].
// Variant sizes differ (each holds its own banks/params inline), but
// every instance is long-lived and heap dominates — boxing would just
// add an indirection to every dispatch.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum AnySketch {
    /// Spanning forest / connectivity.
    Forest(ForestSketch),
    /// Bipartiteness (double cover).
    Bipartite(BipartitenessSketch),
    /// Minimum cut (Fig. 1).
    MinCut(MinCutSketch),
    /// Sparsifier, Fig. 2.
    SimpleSparsify(SimpleSparsifySketch),
    /// Sparsifier, Fig. 3.
    Sparsify(SparsifySketch),
    /// Weighted sparsifier (§3.5).
    WeightedSparsify(WeightedSparsifySketch),
    /// Subgraph fractions (§4).
    Subgraph(SubgraphSketch),
    /// Approximate minimum spanning forest.
    Mst(MstSketch),
    /// k-edge-connectivity test.
    KConnect(KConnectivitySketch),
    /// k-EDGECONNECT witness.
    KEdgeWitness(KEdgeConnectSketch),
}

/// Why two [`AnySketch`]es refused to merge. Returned by
/// [`AnySketch::try_merge`] — the fallible coordinator-path counterpart of
/// the panicking [`Mergeable::merge`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeError {
    /// The sketches answer different tasks.
    TaskMismatch {
        /// Task of the sketch merged into.
        left: SketchTask,
        /// Task of the sketch merged from.
        right: SketchTask,
    },
    /// The sketches cover different vertex counts.
    SizeMismatch {
        /// `n` of the sketch merged into.
        left: usize,
        /// `n` of the sketch merged from.
        right: usize,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::TaskMismatch { left, right } => {
                write!(f, "cannot merge a {right:?} sketch into a {left:?} sketch")
            }
            MergeError::SizeMismatch { left, right } => write!(
                f,
                "cannot merge a sketch over {right} vertices into one over {left}"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

impl AnySketch {
    /// Fallible merge for coordinator paths (the CLI `merge` verb, wire
    /// imports): same-task, same-`n` sketches merge; mismatches return a
    /// [`MergeError`] instead of aborting the process.
    ///
    /// Seed/parameter compatibility *within* a task is not re-derivable
    /// from the sketch state alone; coordinator paths that accept foreign
    /// sketches should compare full [`SketchSpec`]s first
    /// ([`crate::wire::SketchFile::try_merge`] does), after which this
    /// merge cannot panic.
    pub fn try_merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.task() != other.task() {
            return Err(MergeError::TaskMismatch {
                left: self.task(),
                right: other.task(),
            });
        }
        if LinearSketch::n(self) != LinearSketch::n(other) {
            return Err(MergeError::SizeMismatch {
                left: LinearSketch::n(self),
                right: LinearSketch::n(other),
            });
        }
        self.merge(other);
        Ok(())
    }

    /// The task this sketch answers.
    pub fn task(&self) -> SketchTask {
        match self {
            AnySketch::Forest(_) => SketchTask::Connectivity,
            AnySketch::Bipartite(_) => SketchTask::Bipartite,
            AnySketch::MinCut(_) => SketchTask::MinCut,
            AnySketch::SimpleSparsify(_) => SketchTask::SimpleSparsify,
            AnySketch::Sparsify(_) => SketchTask::Sparsify,
            AnySketch::WeightedSparsify(_) => SketchTask::WeightedSparsify,
            AnySketch::Subgraph(_) => SketchTask::Subgraphs,
            AnySketch::Mst(_) => SketchTask::Mst,
            AnySketch::KConnect(_) => SketchTask::KConnect,
            AnySketch::KEdgeWitness(_) => SketchTask::KEdgeWitness,
        }
    }
}

impl Mergeable for AnySketch {
    /// # Panics
    /// Panics if the two sketches answer different tasks (in addition to
    /// the per-sketch seed/parameter compatibility checks).
    fn merge(&mut self, other: &Self) {
        match (self, other) {
            (AnySketch::Forest(a), AnySketch::Forest(b)) => a.merge(b),
            (AnySketch::Bipartite(a), AnySketch::Bipartite(b)) => a.merge(b),
            (AnySketch::MinCut(a), AnySketch::MinCut(b)) => a.merge(b),
            (AnySketch::SimpleSparsify(a), AnySketch::SimpleSparsify(b)) => a.merge(b),
            (AnySketch::Sparsify(a), AnySketch::Sparsify(b)) => a.merge(b),
            (AnySketch::WeightedSparsify(a), AnySketch::WeightedSparsify(b)) => a.merge(b),
            (AnySketch::Subgraph(a), AnySketch::Subgraph(b)) => a.merge(b),
            (AnySketch::Mst(a), AnySketch::Mst(b)) => a.merge(b),
            (AnySketch::KConnect(a), AnySketch::KConnect(b)) => a.merge(b),
            (AnySketch::KEdgeWitness(a), AnySketch::KEdgeWitness(b)) => a.merge(b),
            (a, b) => panic!(
                "cannot merge a {:?} sketch into a {:?} sketch",
                b.task(),
                a.task()
            ),
        }
    }
}

impl SplitAbsorb for AnySketch {
    fn absorb_work<'a>(
        &'a mut self,
        batch: &[EdgeUpdate],
        parts: usize,
        work: &mut AbsorbWork<'a>,
    ) {
        match self {
            AnySketch::Forest(s) => s.absorb_work(batch, parts, work),
            AnySketch::Bipartite(s) => s.absorb_work(batch, parts, work),
            AnySketch::MinCut(s) => s.absorb_work(batch, parts, work),
            AnySketch::SimpleSparsify(s) => s.absorb_work(batch, parts, work),
            AnySketch::Sparsify(s) => s.absorb_work(batch, parts, work),
            AnySketch::WeightedSparsify(s) => s.absorb_work(batch, parts, work),
            AnySketch::Subgraph(s) => s.absorb_work(batch, parts, work),
            AnySketch::Mst(s) => s.absorb_work(batch, parts, work),
            AnySketch::KConnect(s) => s.absorb_work(batch, parts, work),
            AnySketch::KEdgeWitness(s) => s.absorb_work(batch, parts, work),
        }
    }
}

impl LinearSketch for AnySketch {
    type Output = SketchAnswer;

    fn n(&self) -> usize {
        match self {
            AnySketch::Forest(s) => s.n(),
            AnySketch::Bipartite(s) => s.n(),
            AnySketch::MinCut(s) => s.n(),
            AnySketch::SimpleSparsify(s) => s.n(),
            AnySketch::Sparsify(s) => s.n(),
            AnySketch::WeightedSparsify(s) => s.n(),
            AnySketch::Subgraph(s) => s.n(),
            AnySketch::Mst(s) => LinearSketch::n(s),
            AnySketch::KConnect(s) => s.n(),
            AnySketch::KEdgeWitness(s) => s.n(),
        }
    }

    fn update_edge(&mut self, u: usize, v: usize, delta: i64) {
        match self {
            AnySketch::Forest(s) => s.update_edge(u, v, delta),
            AnySketch::Bipartite(s) => s.update_edge(u, v, delta),
            AnySketch::MinCut(s) => s.update_edge(u, v, delta),
            AnySketch::SimpleSparsify(s) => s.update_edge(u, v, delta),
            AnySketch::Sparsify(s) => s.update_edge(u, v, delta),
            AnySketch::WeightedSparsify(s) => LinearSketch::update_edge(s, u, v, delta),
            AnySketch::Subgraph(s) => s.update_edge(u, v, delta),
            AnySketch::Mst(s) => LinearSketch::update_edge(s, u, v, delta),
            AnySketch::KConnect(s) => s.update_edge(u, v, delta),
            AnySketch::KEdgeWitness(s) => s.update_edge(u, v, delta),
        }
    }

    /// Batched ingestion: dispatches **once per batch** to the concrete
    /// sketch's bank-backed kernel (the path the engine's shard workers
    /// and every `absorb` caller take), instead of once per update.
    fn absorb(&mut self, batch: &[EdgeUpdate]) {
        absorb_planned(self, batch, &DecodePlan::sequential());
    }

    /// The split absorb of the concrete sketch, in one fork-join.
    fn absorb_with(&mut self, batch: &[EdgeUpdate], plan: &DecodePlan) {
        absorb_planned(self, batch, plan);
    }

    /// First poisoned bank across the whole sketch, if any (a lane truly
    /// overflowed at runtime — the sketch's remaining content is
    /// unspecified and its answers must not be trusted).
    fn lane_overflow(&self) -> Option<LaneOverflow> {
        CellBanked::lane_overflow(self)
    }

    fn resident_lane_bytes(&self) -> usize {
        CellBanked::resident_bytes(self)
    }

    fn space_bytes(&self) -> usize {
        match self {
            AnySketch::Forest(s) => s.space_bytes(),
            AnySketch::Bipartite(s) => s.space_bytes(),
            AnySketch::MinCut(s) => s.space_bytes(),
            AnySketch::SimpleSparsify(s) => s.space_bytes(),
            AnySketch::Sparsify(s) => s.space_bytes(),
            AnySketch::WeightedSparsify(s) => s.space_bytes(),
            AnySketch::Subgraph(s) => s.space_bytes(),
            AnySketch::Mst(s) => s.space_bytes(),
            AnySketch::KConnect(s) => s.space_bytes(),
            AnySketch::KEdgeWitness(s) => s.space_bytes(),
        }
    }

    fn decode(&self) -> SketchAnswer {
        self.decode_with(&DecodePlan::sequential())
    }

    /// Planned decode — the same dispatch, with the [`DecodePlan`]
    /// threaded into every task's decoder. Bit-identical to
    /// [`LinearSketch::decode`] for every thread count (the decode-parity
    /// suite pins it per task).
    fn decode_with(&self, plan: &DecodePlan) -> SketchAnswer {
        match self {
            AnySketch::Forest(s) => {
                let f = s.decode_with(plan);
                SketchAnswer::Connectivity {
                    components: f.component_count(),
                    connected: f.is_spanning_tree(),
                    forest_edges: f.edges.iter().map(|&(u, v, _)| (u, v)).collect(),
                }
            }
            AnySketch::Bipartite(s) => SketchAnswer::Bipartite {
                bipartite: s.is_bipartite_with(plan),
            },
            AnySketch::MinCut(s) => match s.decode_planned(plan) {
                Some(est) => SketchAnswer::MinCut {
                    resolved: true,
                    value: est.value,
                    level: est.level,
                    side: (0..est.side.len()).filter(|&v| est.side[v]).collect(),
                },
                None => SketchAnswer::MinCut {
                    resolved: false,
                    value: 0,
                    level: 0,
                    side: Vec::new(),
                },
            },
            AnySketch::SimpleSparsify(s) => Self::sparsifier_answer(s.decode_planned(plan)),
            AnySketch::Sparsify(s) => Self::sparsifier_answer(s.decode_planned(plan)),
            AnySketch::WeightedSparsify(s) => Self::sparsifier_answer(s.decode_planned(plan)),
            AnySketch::Subgraph(s) => {
                // Built-in pattern tables exist for orders 3 and 4; other
                // orders report raw samples only (render_lines says so).
                let patterns: Vec<(&str, Pattern)> = match s.k() {
                    3 => vec![
                        ("triangle", Pattern::triangle()),
                        ("path3", Pattern::path3()),
                        ("edge+isolated", Pattern::edge_plus_isolated()),
                    ],
                    4 => vec![("k4", Pattern::k4()), ("c4", Pattern::c4())],
                    _ => Vec::new(),
                };
                // One sample draw serves the count and every pattern
                // estimate (querying the samplers is the expensive part).
                let samples = s.raw_samples_with(plan);
                let gammas = patterns
                    .iter()
                    .map(|(name, p)| {
                        let est = if samples.is_empty() {
                            None
                        } else {
                            let class = p.iso_class();
                            let hits = samples.iter().filter(|m| class.contains(m)).count();
                            Some(hits as f64 / samples.len() as f64)
                        };
                        (name.to_string(), est)
                    })
                    .collect();
                SketchAnswer::Subgraphs {
                    order: s.k(),
                    samples: samples.len(),
                    gammas,
                }
            }
            AnySketch::Mst(s) => {
                let f = s.decode_planned(plan);
                SketchAnswer::Msf {
                    total_weight: f.total_weight(),
                    edges: f.edges().to_vec(),
                }
            }
            AnySketch::KConnect(s) => SketchAnswer::KConnected {
                k: s.k(),
                connected: s.is_k_connected_with(plan),
            },
            AnySketch::KEdgeWitness(s) => {
                let h = s.decode_witness_with(plan);
                SketchAnswer::Witness {
                    edges: h.edges().to_vec(),
                }
            }
        }
    }
}

impl CellBanked for AnySketch {
    fn banks(&self) -> Vec<&CellBank> {
        match self {
            AnySketch::Forest(s) => s.banks(),
            AnySketch::Bipartite(s) => s.banks(),
            AnySketch::MinCut(s) => s.banks(),
            AnySketch::SimpleSparsify(s) => s.banks(),
            AnySketch::Sparsify(s) => s.banks(),
            AnySketch::WeightedSparsify(s) => s.banks(),
            AnySketch::Subgraph(s) => s.banks(),
            AnySketch::Mst(s) => s.banks(),
            AnySketch::KConnect(s) => s.banks(),
            AnySketch::KEdgeWitness(s) => s.banks(),
        }
    }

    fn banks_mut(&mut self) -> Vec<&mut CellBank> {
        match self {
            AnySketch::Forest(s) => s.banks_mut(),
            AnySketch::Bipartite(s) => s.banks_mut(),
            AnySketch::MinCut(s) => s.banks_mut(),
            AnySketch::SimpleSparsify(s) => s.banks_mut(),
            AnySketch::Sparsify(s) => s.banks_mut(),
            AnySketch::WeightedSparsify(s) => s.banks_mut(),
            AnySketch::Subgraph(s) => s.banks_mut(),
            AnySketch::Mst(s) => s.banks_mut(),
            AnySketch::KConnect(s) => s.banks_mut(),
            AnySketch::KEdgeWitness(s) => s.banks_mut(),
        }
    }

    fn fingerprints(&self) -> Vec<M61> {
        match self {
            AnySketch::Forest(s) => s.fingerprints(),
            AnySketch::Bipartite(s) => s.fingerprints(),
            AnySketch::MinCut(s) => s.fingerprints(),
            AnySketch::SimpleSparsify(s) => s.fingerprints(),
            AnySketch::Sparsify(s) => s.fingerprints(),
            AnySketch::WeightedSparsify(s) => s.fingerprints(),
            AnySketch::Subgraph(s) => s.fingerprints(),
            AnySketch::Mst(s) => s.fingerprints(),
            AnySketch::KConnect(s) => s.fingerprints(),
            AnySketch::KEdgeWitness(s) => s.fingerprints(),
        }
    }

    fn fingerprints_mut(&mut self) -> Vec<&mut M61> {
        match self {
            AnySketch::Forest(s) => s.fingerprints_mut(),
            AnySketch::Bipartite(s) => s.fingerprints_mut(),
            AnySketch::MinCut(s) => s.fingerprints_mut(),
            AnySketch::SimpleSparsify(s) => s.fingerprints_mut(),
            AnySketch::Sparsify(s) => s.fingerprints_mut(),
            AnySketch::WeightedSparsify(s) => s.fingerprints_mut(),
            AnySketch::Subgraph(s) => s.fingerprints_mut(),
            AnySketch::Mst(s) => s.fingerprints_mut(),
            AnySketch::KConnect(s) => s.fingerprints_mut(),
            AnySketch::KEdgeWitness(s) => s.fingerprints_mut(),
        }
    }
}

impl AnySketch {
    /// [`LinearSketch::decode_with`] under the name the serving ladder's
    /// replay still calls; see [`DecodeCache`], which it ignores.
    pub fn decode_cached(
        &self,
        _cache: &mut DecodeCache<SketchAnswer>,
        plan: &DecodePlan,
    ) -> SketchAnswer {
        self.decode_with(plan)
    }

    fn sparsifier_answer(h: gs_graph::Graph) -> SketchAnswer {
        SketchAnswer::Sparsifier {
            total_weight: h.total_weight(),
            edges: h.edges().to_vec(),
        }
    }
}

/// A decoded sketch answer: serializable (for `--json` / wire transport)
/// and renderable as plain text lines (for the CLI).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SketchAnswer {
    /// Components and a spanning forest.
    Connectivity {
        /// Number of connected components.
        components: usize,
        /// `true` iff one component spans all vertices.
        connected: bool,
        /// The decoded spanning-forest edges.
        forest_edges: Vec<(usize, usize)>,
    },
    /// Bipartiteness verdict.
    Bipartite {
        /// `true` iff the streamed graph is bipartite (w.h.p.).
        bipartite: bool,
    },
    /// Minimum-cut estimate (Fig. 1 step 3).
    MinCut {
        /// `false` iff every level stayed ≥ k-connected (parameters too
        /// small for this input).
        resolved: bool,
        /// The estimate `2^j · λ(H_j)`.
        value: u64,
        /// The level `j` that resolved.
        level: usize,
        /// Vertices on the witness side of the cut.
        side: Vec<usize>,
    },
    /// A weighted ε-sparsifier.
    Sparsifier {
        /// Total sparsifier weight.
        total_weight: u64,
        /// Weighted sparsifier edges `(u, v, w)`.
        edges: Vec<(usize, usize, u64)>,
    },
    /// Subgraph-fraction estimates (§4).
    Subgraphs {
        /// Pattern order `k`.
        order: usize,
        /// Number of successful ℓ0 samples backing the estimates.
        samples: usize,
        /// `(pattern name, γ_H estimate)`; `None` when no sampler
        /// produced a sample.
        gammas: Vec<(String, Option<f64>)>,
    },
    /// An approximate minimum spanning forest.
    Msf {
        /// Total forest weight (threshold-charged).
        total_weight: u64,
        /// Forest edges `(u, v, w)`.
        edges: Vec<(usize, usize, u64)>,
    },
    /// k-edge-connectivity verdict.
    KConnected {
        /// The threshold tested.
        k: usize,
        /// `true` iff every cut has ≥ k edges (w.h.p.).
        connected: bool,
    },
    /// The k-EDGECONNECT witness subgraph.
    Witness {
        /// Witness edges `(u, v, multiplicity)`.
        edges: Vec<(usize, usize, u64)>,
    },
}

impl SketchAnswer {
    /// Renders the answer as the CLI's human-readable lines.
    pub fn render_lines(&self) -> Vec<String> {
        match self {
            SketchAnswer::Connectivity {
                components,
                connected,
                forest_edges,
            } => vec![
                format!("components: {components}"),
                format!("forest edges: {}", forest_edges.len()),
                format!("connected: {connected}"),
            ],
            SketchAnswer::Bipartite { bipartite } => vec![format!("bipartite: {bipartite}")],
            SketchAnswer::MinCut {
                resolved,
                value,
                level,
                side,
            } => {
                if *resolved {
                    vec![
                        format!("min cut estimate: {value}"),
                        format!("resolved at level: {level}"),
                        format!("witness side ({} vertices): {side:?}", side.len()),
                    ]
                } else {
                    vec!["unresolved: increase levels/k for this input".to_string()]
                }
            }
            SketchAnswer::Sparsifier {
                total_weight,
                edges,
            } => {
                let mut lines = vec![format!(
                    "# eps-sparsifier: {} weighted edges, total weight {total_weight}",
                    edges.len()
                )];
                lines.extend(edges.iter().map(|(u, v, w)| format!("{u} {v} {w}")));
                lines
            }
            SketchAnswer::Subgraphs {
                order,
                samples,
                gammas,
            } => {
                let mut lines = vec![format!("# order-{order} samples: {samples}")];
                if gammas.is_empty() {
                    lines.push(format!(
                        "no built-in pattern table for order {order} (orders 3 and 4 \
                         have one); raw samples only"
                    ));
                }
                lines.extend(gammas.iter().map(|(name, est)| match est {
                    Some(v) => format!("gamma[{name}]: {v:.4}"),
                    None => format!("gamma[{name}]: no non-empty samples"),
                }));
                lines
            }
            SketchAnswer::Msf {
                total_weight,
                edges,
            } => {
                let mut lines = vec![format!(
                    "# approx MSF: {} edges, total weight {total_weight}",
                    edges.len()
                )];
                lines.extend(edges.iter().map(|(u, v, w)| format!("{u} {v} {w}")));
                lines
            }
            SketchAnswer::KConnected { k, connected } => {
                vec![format!("{k}-edge-connected: {connected}")]
            }
            SketchAnswer::Witness { edges } => {
                let mut lines = vec![format!("# k-EDGECONNECT witness: {} edges", edges.len())];
                lines.extend(edges.iter().map(|(u, v, w)| format!("{u} {v} {w}")));
                lines
            }
        }
    }

    /// Serializes the answer as JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_graph::gen;
    use gs_stream::GraphStream;

    fn churn_updates(n: usize, p: f64, seed: u64) -> Vec<EdgeUpdate> {
        let g = gen::gnp(n, p, seed);
        GraphStream::with_churn(&g, 200, seed ^ 0xD1).edge_updates()
    }

    #[test]
    fn every_task_builds_feeds_and_decodes() {
        let updates = churn_updates(12, 0.3, 1);
        for task in SketchTask::ALL {
            let spec = SketchSpec::new(task, 12).with_eps(0.75);
            let mut sketch = spec.build();
            assert_eq!(sketch.task(), task);
            assert_eq!(LinearSketch::n(&sketch), 12);
            assert!(sketch.space_bytes() > 0, "{task:?} reports no space");
            sketch.absorb(&updates);
            let answer = sketch.decode();
            assert!(
                !answer.render_lines().is_empty(),
                "{task:?} renders nothing"
            );
            // The JSON body must parse back as a value.
            let v = Value::from_json(&answer.to_json()).expect("valid JSON");
            assert!(v.as_map().is_some());
        }
    }

    #[test]
    fn distributed_run_equals_central_run() {
        let updates = churn_updates(14, 0.3, 2);
        for task in SketchTask::ALL {
            let spec = SketchSpec::new(task, 14).with_eps(0.75).with_seed(0xFEED);
            let central = spec.run(&updates, 1);
            for sites in [2, 4, 9] {
                assert_eq!(
                    spec.run(&updates, sites),
                    central,
                    "{task:?} @ {sites} sites"
                );
            }
        }
    }

    #[test]
    fn batched_absorb_is_bit_identical_for_every_task() {
        // Every absorb override (forest plan-sharing, per-level /
        // per-threshold / per-class batch partitioning, recovery plan
        // reuse) must equal the per-update path bit for bit — this is the
        // law that lets the engine's shard workers take the batched
        // kernel without changing any answer.
        for task in SketchTask::ALL {
            let spec = SketchSpec::new(task, 12).with_eps(0.75).with_max_weight(64);
            let updates: Vec<EdgeUpdate> = match task {
                SketchTask::Mst | SketchTask::WeightedSparsify => (0..40)
                    .flat_map(|i| {
                        let (u, v, w) = (i % 12, (i + 1 + i % 11) % 12, 1 + (i * 7) % 64);
                        let ins = EdgeUpdate::weighted(u, v, w as u64, 1);
                        // Delete every third edge again (same weight).
                        (u != v).then_some(ins).into_iter().chain(
                            (u != v && i % 3 == 0)
                                .then_some(EdgeUpdate::weighted(u, v, w as u64, -1)),
                        )
                    })
                    .collect(),
                _ => churn_updates(12, 0.4, 7 + task as u64),
            };
            let mut batched = spec.build();
            batched.absorb(&updates);
            let mut looped = spec.build();
            for up in &updates {
                looped.update_edge(up.u, up.v, up.delta);
            }
            assert_eq!(batched, looped, "{task:?}: batched != looped");
        }
    }

    #[test]
    fn degenerate_n_is_refused_for_every_task() {
        for task in SketchTask::ALL {
            for n in [0, 1] {
                let spec = SketchSpec::new(task, n);
                assert_eq!(
                    spec.try_build().err(),
                    Some(SpecError::TooFewVertices { n }),
                    "{task:?} accepted n = {n}"
                );
            }
        }
    }

    #[test]
    fn degenerate_parameters_are_refused_with_typed_errors() {
        // k = 0 connectivity threshold (panicked pre-validation).
        for task in [SketchTask::KConnect, SketchTask::KEdgeWitness] {
            assert!(matches!(
                SketchSpec::new(task, 8).with_k(0).try_build(),
                Err(SpecError::BadK { .. })
            ));
            assert!(matches!(
                SketchSpec::new(task, 8).with_k(1 << 20).try_build(),
                Err(SpecError::BadK { .. })
            ));
        }
        // Pattern orders outside the squash encoding, or above n.
        for k in [0, 1, 7] {
            assert!(matches!(
                SketchSpec::new(SketchTask::Subgraphs, 8)
                    .with_k(k)
                    .try_build(),
                Err(SpecError::BadK { .. })
            ));
        }
        assert!(matches!(
            SketchSpec::new(SketchTask::Subgraphs, 3)
                .with_k(4)
                .try_build(),
            Err(SpecError::BadK { .. })
        ));
        // Degenerate eps: zero (saturated derived sizes to usize::MAX
        // pre-validation), negative, NaN, and absurd extremes.
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e-9, 1e9] {
            for task in [SketchTask::MinCut, SketchTask::Sparsify, SketchTask::Mst] {
                assert!(
                    matches!(
                        SketchSpec::new(task, 8).with_eps(eps).try_build(),
                        Err(SpecError::BadEps { .. })
                    ),
                    "{task:?} accepted eps = {eps}"
                );
            }
        }
        // Subgraph fractions additionally require eps <= 1.
        assert!(matches!(
            SketchSpec::new(SketchTask::Subgraphs, 8)
                .with_eps(2.0)
                .try_build(),
            Err(SpecError::BadEps { .. })
        ));
        // Weighted tasks: zero max weight (panicked pre-validation) and
        // weights past the 2^40 plausibility bound.
        for task in [SketchTask::Mst, SketchTask::WeightedSparsify] {
            for w in [0u64, 1 << 50] {
                assert!(
                    matches!(
                        SketchSpec::new(task, 8).with_max_weight(w).try_build(),
                        Err(SpecError::BadMaxWeight { .. })
                    ),
                    "{task:?} accepted max_weight = {w}"
                );
            }
        }
        // Errors render a human-readable field diagnosis.
        let e = SketchSpec::new(SketchTask::Mst, 8)
            .with_max_weight(0)
            .validate()
            .unwrap_err();
        assert!(e.to_string().contains("max_weight"), "message: {e}");
    }

    #[test]
    fn default_specs_validate_for_every_task() {
        for task in SketchTask::ALL {
            let spec = SketchSpec::new(task, 12);
            assert_eq!(spec.validate(), Ok(()), "{task:?} default spec refused");
            assert!(spec.try_build().is_ok());
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = SketchSpec::new(SketchTask::MinCut, 64)
            .with_eps(0.25)
            .with_k(5)
            .with_max_weight(128)
            .with_seed(42);
        let text = spec.to_json();
        assert_eq!(SketchSpec::from_json(&text).unwrap(), spec);
    }

    #[test]
    fn command_names_round_trip() {
        for task in SketchTask::ALL {
            assert_eq!(SketchTask::from_command(task.command()), Some(task));
        }
        assert_eq!(SketchTask::from_command("nope"), None);
    }

    #[test]
    #[should_panic]
    fn cross_task_merge_refused() {
        let mut a = SketchSpec::new(SketchTask::Connectivity, 8).build();
        let b = SketchSpec::new(SketchTask::Bipartite, 8).build();
        a.merge(&b);
    }

    #[test]
    fn weighted_tasks_take_value_carrying_updates() {
        let updates = vec![
            EdgeUpdate::weighted(0, 1, 5, 1),
            EdgeUpdate::weighted(1, 2, 17, 1),
            EdgeUpdate::weighted(2, 3, 3, 1),
            EdgeUpdate::weighted(0, 1, 5, -1),
        ];
        let spec = SketchSpec::new(SketchTask::WeightedSparsify, 4).with_max_weight(32);
        let mut sketch = spec.build();
        sketch.absorb(&updates);
        match sketch.decode() {
            SketchAnswer::Sparsifier { edges, .. } => {
                // (0,1) cancelled; the two surviving low-connectivity edges
                // freeze at level 0 with exact weights.
                assert_eq!(edges, vec![(1, 2, 17), (2, 3, 3)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
