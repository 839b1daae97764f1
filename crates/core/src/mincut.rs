//! `MINCUT` (Fig. 1, Theorems 3.2 / 3.6): single-pass (1+ε)-approximate
//! minimum cut on dynamic graph streams.
//!
//! ```text
//! 1. For i ∈ {1,…,2 log n}, let h_i : E → {0,1} be uniform hashes.
//! 2. For i ∈ {0,1,…,2 log n}:
//!    (a) G_i = subgraph with edges e s.t. Π_{j≤i} h_j(e) = 1
//!    (b) H_i = k-EDGECONNECT(G_i),  k = O(ε⁻² log n)
//! 3. Return 2^j λ(H_j) where j = min{ i : λ(H_i) < k }.
//! ```
//!
//! The nested subsampling `Π_{j≤i} h_j(e) = 1` is realized by one hashed
//! word per edge (its leading-zero count is the deepest surviving level —
//! see [`gs_field::Randomness::subsample_level`]). Post-processing (step 3)
//! computes `λ(H_i)` exactly with Stoer–Wagner on the witnesses, per the
//! proof of Theorem 3.2 ("if G_i is not k-edge-connected, we can correctly
//! find a minimum cut in G_i using the corresponding witness").

use crate::absorb::{absorb_planned, AbsorbWork, SplitAbsorb};
use crate::connectivity::ForestParams;
use crate::kedge::{KEdgeConnectSketch, SubtractMode};
use gs_field::{BackendKind, HashBackend, Randomness, M61};
use gs_graph::{stoer_wagner, Graph};
use gs_sketch::bank::{CellBank, CellBanked};
use gs_sketch::domain::edge_index;
use gs_sketch::par::{par_map, DecodePlan};
use gs_sketch::{EdgeUpdate, LinearSketch, Mergeable, CELL_BYTES};

/// Parameters for [`MinCutSketch`] (and, with a different `k`, the
/// sparsifiers built on the same level machinery).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MinCutParams {
    /// Levels `i = 0, …, levels−1`. The paper uses `1 + 2 log₂ n`; fewer
    /// levels suffice whenever `2^levels ≥ m/k` (deeper levels are empty).
    pub levels: usize,
    /// Witness connectivity `k = c·ε⁻²·log₂ n`.
    pub k: usize,
    /// Forest parameters shared by every `k-EDGECONNECT` layer.
    pub forest: ForestParams,
    /// Randomness regime.
    pub kind: BackendKind,
    /// Removal semantics inside `k-EDGECONNECT` (Unit for multigraph
    /// streams, Full for value-carrying weighted streams, §3.5).
    pub subtract: SubtractMode,
}

impl MinCutParams {
    /// Scaled defaults: `k = max(4, ⌈c ε⁻² log₂ n⌉)` with `c = 1` and
    /// `levels = 1 + ⌈log₂ n⌉` (enough for simple graphs where
    /// `m ≤ n²`, since levels beyond `log₂(m/k)` are dead weight).
    pub fn scaled(n: usize, eps: f64) -> Self {
        let log2n = (usize::BITS - n.max(2).leading_zeros()) as usize;
        let mut forest = ForestParams::for_n(n);
        // Deep k-EDGECONNECT stacks peel k forests in sequence; a partial
        // forest (detector failure) deflates the witness min cut, so buy
        // one extra repetition here.
        forest.detector_reps = 3;
        MinCutParams {
            levels: 1 + log2n,
            k: ((log2n as f64) / (eps * eps)).ceil().max(4.0) as usize,
            forest,
            kind: BackendKind::Oracle,
            subtract: SubtractMode::Unit,
        }
    }

    /// The paper's constants: `k = 6 ε⁻² log₂ n` (Lemma 3.1's constant)
    /// and `levels = 1 + 2 log₂ n`. Space-hungry; for experiments only.
    pub fn paper(n: usize, eps: f64) -> Self {
        let log2n = (usize::BITS - n.max(2).leading_zeros()) as usize;
        MinCutParams {
            levels: 1 + 2 * log2n,
            k: (6.0 * (log2n as f64) / (eps * eps)).ceil() as usize,
            forest: ForestParams::for_n(n),
            kind: BackendKind::Oracle,
            subtract: SubtractMode::Unit,
        }
    }
}

/// Sketch state of Fig. 1.
///
/// ```
/// use graph_sketches::MinCutSketch;
/// use gs_graph::gen;
/// let g = gen::barbell(8, 2); // planted minimum cut of 2
/// let mut s = MinCutSketch::new(g.n(), 0.5, 1);
/// for &(u, v, w) in g.edges() { s.update_edge(u, v, w as i64); }
/// assert_eq!(s.decode().unwrap().value, 2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct MinCutSketch {
    n: usize,
    params: MinCutParams,
    seed: u64,
    /// One `k-EDGECONNECT` per level `G_0 ⊇ G_1 ⊇ …`.
    levels: Vec<KEdgeConnectSketch>,
    /// The shared subsampling hash realizing `h_1, …, h_{2 log n}`.
    level_hash: HashBackend,
}

/// Decoded result of MINCUT.
#[derive(Clone, Debug, PartialEq)]
pub struct MinCutEstimate {
    /// The estimate `2^j · λ(H_j)`.
    pub value: u64,
    /// The level `j` that resolved.
    pub level: usize,
    /// The witness cut side (from `H_j`, valid for `G` w.h.p.).
    pub side: Vec<bool>,
}

impl MinCutSketch {
    /// A MINCUT sketch with [`MinCutParams::scaled`] parameters.
    pub fn new(n: usize, eps: f64, seed: u64) -> Self {
        Self::with_params(n, MinCutParams::scaled(n, eps), seed)
    }

    /// Full-control constructor.
    pub fn with_params(n: usize, params: MinCutParams, seed: u64) -> Self {
        Self::build(n, params, seed, None)
    }

    /// As [`MinCutSketch::with_params`], deriving every level's lane
    /// widths from the caller's bound on `|delta|` per update (see
    /// `LaneWidth::for_bounds`).
    pub fn with_bounds(n: usize, params: MinCutParams, seed: u64, max_abs_delta: u64) -> Self {
        Self::build(n, params, seed, Some(max_abs_delta))
    }

    fn build(n: usize, params: MinCutParams, seed: u64, bound: Option<u64>) -> Self {
        assert!(n >= 2 && params.levels >= 1 && params.k >= 1);
        let levels = (0..params.levels)
            .map(|i| {
                let lseed = seed ^ (0x3C_0000 + i as u64).wrapping_mul(0xA076_1D64_78BD_642F);
                match bound {
                    Some(d) => KEdgeConnectSketch::with_bounds(
                        n,
                        params.k,
                        params.forest,
                        params.subtract,
                        lseed,
                        d,
                    ),
                    None => KEdgeConnectSketch::with_mode(
                        n,
                        params.k,
                        params.forest,
                        params.subtract,
                        lseed,
                    ),
                }
            })
            .collect();
        MinCutSketch {
            n,
            params,
            seed,
            levels,
            level_hash: params.kind.backend(seed, 0x3C_FFFF),
        }
    }

    /// Vertex count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The witness threshold `k`.
    pub fn k(&self) -> usize {
        self.params.k
    }

    /// Applies a stream update. The edge belongs to levels `0..=ℓ(e)`
    /// where `ℓ(e)` is its hashed leading-zero count — the consistent
    /// nested sampling that survives deletions.
    pub fn update_edge(&mut self, u: usize, v: usize, delta: i64) {
        let idx = edge_index(self.n, u, v);
        let lmax = self
            .level_hash
            .subsample_level(idx, self.params.levels as u32 - 1);
        for i in 0..=lmax as usize {
            self.levels[i].update_edge(u, v, delta);
        }
    }

    /// Sketch size in 1-sparse cells (`O(ε⁻² n log⁴ n)` per Thm 3.2).
    pub fn cell_count(&self) -> usize {
        self.levels.iter().map(|l| l.cell_count()).sum()
    }

    /// The per-level witnesses `H_0, H_1, …` (step 2b), exposed for the
    /// sparsifier of Fig. 2 which shares this machinery.
    pub fn decode_witnesses(&self) -> Vec<Graph> {
        self.decode_witnesses_with(&DecodePlan::sequential())
    }

    /// [`MinCutSketch::decode_witnesses`] under a [`DecodePlan`]: the
    /// subsampling levels are independent witness decodes, so they fan
    /// out across the plan's threads, and any surplus budget (fewer
    /// levels than threads) splits down into each level's own Boruvka
    /// fan-out; results come back in level order, bit-identical to the
    /// sequential loop.
    pub fn decode_witnesses_with(&self, plan: &DecodePlan) -> Vec<Graph> {
        let inner = plan.split(self.levels.len());
        par_map(&self.levels, plan.threads(), |_, l| {
            l.decode_witness_with(&inner)
        })
    }

    /// Per-level detailed witnesses `(u, v, removed_amount)` — the
    /// value-carrying form used by the weighted wrapper (§3.5).
    pub fn decode_witness_edges_per_level(&self) -> Vec<Vec<(usize, usize, i64)>> {
        self.decode_witness_edges_per_level_with(&DecodePlan::sequential())
    }

    /// [`MinCutSketch::decode_witness_edges_per_level`] under a
    /// [`DecodePlan`], one level per thread (level order preserved).
    pub fn decode_witness_edges_per_level_with(
        &self,
        plan: &DecodePlan,
    ) -> Vec<Vec<(usize, usize, i64)>> {
        let inner = plan.split(self.levels.len());
        par_map(&self.levels, plan.threads(), |_, l| {
            l.decode_witness_edges_with(&inner)
        })
    }

    /// Step 3: find `j = min{i : λ(H_i) < k}` and return `2^j λ(H_j)`.
    ///
    /// Returns `None` if every level is still ≥ k-connected (the paper's
    /// parameterization makes this a w.h.p.-impossible event; it signals
    /// that `levels`/`k` were chosen too small for this input).
    pub fn decode(&self) -> Option<MinCutEstimate> {
        self.decode_planned(&DecodePlan::sequential())
    }

    /// [`MinCutSketch::decode`] under a [`DecodePlan`]. The level scan
    /// stays sequential (it early-exits at the first resolving level, so
    /// decoding deeper levels would be wasted work), but each level's
    /// witness decode fans its Boruvka group queries across the plan's
    /// threads.
    pub fn decode_planned(&self, plan: &DecodePlan) -> Option<MinCutEstimate> {
        for (i, level) in self.levels.iter().enumerate() {
            let h = level.decode_witness_with(plan);
            let (lam, side) = if h.m() == 0 {
                (0, {
                    let mut side = vec![false; self.n];
                    side[0] = true;
                    side
                })
            } else {
                stoer_wagner::min_cut(&h)
            };
            if lam < self.params.k as u64 {
                return Some(MinCutEstimate {
                    value: (1u64 << i) * lam,
                    level: i,
                    side,
                });
            }
        }
        None
    }
}

impl Mergeable for MinCutSketch {
    fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.seed, other.seed,
            "merging MINCUT sketches with different seeds"
        );
        assert_eq!(self.n, other.n);
        assert_eq!(self.params.levels, other.params.levels);
        assert_eq!(self.params.k, other.params.k);
        for (a, b) in self.levels.iter_mut().zip(&other.levels) {
            a.merge(b);
        }
    }
}

impl CellBanked for MinCutSketch {
    fn banks(&self) -> Vec<&CellBank> {
        self.levels.iter().flat_map(|l| l.banks()).collect()
    }

    fn banks_mut(&mut self) -> Vec<&mut CellBank> {
        self.levels.iter_mut().flat_map(|l| l.banks_mut()).collect()
    }

    fn fingerprints(&self) -> Vec<M61> {
        Vec::new()
    }

    fn fingerprints_mut(&mut self) -> Vec<&mut M61> {
        Vec::new()
    }
}

impl SplitAbsorb for MinCutSketch {
    /// Each update's subsampling level is hashed once, the batch is
    /// partitioned into the nested per-level sub-batches (level `i` sees
    /// every update with `ℓ(e) ≥ i`), and each `k-EDGECONNECT` level
    /// absorbs its share.
    fn absorb_work<'a>(
        &'a mut self,
        batch: &[EdgeUpdate],
        parts: usize,
        work: &mut AbsorbWork<'a>,
    ) {
        let mut per_level: Vec<Vec<EdgeUpdate>> = vec![Vec::new(); self.params.levels];
        for &up in batch {
            let idx = edge_index(self.n, up.u, up.v);
            let lmax = self
                .level_hash
                .subsample_level(idx, self.params.levels as u32 - 1);
            for level in per_level.iter_mut().take(lmax as usize + 1) {
                level.push(up);
            }
        }
        let each = parts.div_ceil(per_level.iter().filter(|s| !s.is_empty()).count().max(1));
        for (level, share) in self.levels.iter_mut().zip(&per_level) {
            if !share.is_empty() {
                level.absorb_work(share, each, work);
            }
        }
    }
}

impl LinearSketch for MinCutSketch {
    type Output = Option<MinCutEstimate>;

    fn n(&self) -> usize {
        self.n
    }

    fn update_edge(&mut self, u: usize, v: usize, delta: i64) {
        MinCutSketch::update_edge(self, u, v, delta);
    }

    fn absorb(&mut self, batch: &[EdgeUpdate]) {
        absorb_planned(self, batch, &DecodePlan::sequential());
    }

    fn absorb_with(&mut self, batch: &[EdgeUpdate], plan: &DecodePlan) {
        absorb_planned(self, batch, plan);
    }

    fn lane_overflow(&self) -> Option<gs_sketch::lane::LaneOverflow> {
        CellBanked::lane_overflow(self)
    }

    fn resident_lane_bytes(&self) -> usize {
        CellBanked::resident_bytes(self)
    }

    fn space_bytes(&self) -> usize {
        self.cell_count() * CELL_BYTES
    }

    fn decode(&self) -> Option<MinCutEstimate> {
        MinCutSketch::decode(self)
    }

    fn decode_with(&self, plan: &DecodePlan) -> Option<MinCutEstimate> {
        self.decode_planned(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_graph::gen;
    use gs_stream::distributed::split_updates;

    fn sketch_of(g: &Graph, eps: f64, seed: u64) -> MinCutSketch {
        let mut s = MinCutSketch::new(g.n(), eps, seed);
        for &(u, v, w) in g.edges() {
            s.update_edge(u, v, w as i64);
        }
        s
    }

    #[test]
    fn small_cut_resolved_exactly_at_level_zero() {
        // λ = 2 < k: level 0's witness already determines the cut exactly.
        let g = gen::barbell(8, 2);
        let est = sketch_of(&g, 0.5, 1).decode().expect("resolves");
        assert_eq!(est.level, 0);
        assert_eq!(est.value, 2);
        assert_eq!(g.cut_value(&est.side), 2);
    }

    #[test]
    fn exact_below_k_on_various_graphs() {
        for (g, lam) in [
            (gen::cycle(16), 2u64),
            (gen::barbell(6, 3), 3),
            (gen::grid(4, 5), 2),
        ] {
            let est = sketch_of(&g, 0.5, 7).decode().expect("resolves");
            assert_eq!(est.value, lam, "graph with λ={lam}");
        }
    }

    #[test]
    fn disconnected_graph_reports_zero() {
        let g = Graph::from_edges(10, [(0, 1), (1, 2), (5, 6)]);
        let est = sketch_of(&g, 0.5, 3).decode().expect("resolves");
        assert_eq!(est.value, 0);
    }

    #[test]
    fn large_cut_approximated_within_eps() {
        // K_24: λ = 23 ≥ k at ε = 0.5 (k = 20) → needs subsampled levels.
        let g = gen::complete(24);
        let exact = 23.0;
        let mut ok = 0;
        let trials = 10;
        for seed in 0..trials {
            let est = sketch_of(&g, 0.5, 100 + seed).decode().expect("resolves");
            let ratio = est.value as f64 / exact;
            if (0.4..=1.8).contains(&ratio) {
                ok += 1;
            }
        }
        // Sampling noise at these small n is real; demand a clear majority
        // within a generous band (the bench measures the tight band).
        assert!(ok >= 7, "only {ok}/{trials} within band");
    }

    #[test]
    fn churn_stream_matches_insert_only() {
        let g = gen::barbell(6, 2);
        let insert_only = gen::insert_stream(&g);
        let churn = gen::churn_stream(&g, 200, 5);
        let mut a = MinCutSketch::new(g.n(), 0.5, 42);
        a.absorb(&insert_only);
        let mut b = MinCutSketch::new(g.n(), 0.5, 42);
        b.absorb(&churn);
        // Same seed, same final graph ⇒ identical sketch ⇒ identical decode.
        assert_eq!(a.decode(), b.decode());
        assert_eq!(a.decode().unwrap().value, 2);
    }

    #[test]
    fn merge_is_linear() {
        let g = gen::cycle(12);
        let stream = gen::insert_stream(&g);
        let parts = split_updates(&stream, 2, 9);
        let mut a = MinCutSketch::new(12, 0.5, 11);
        a.absorb(&parts[0]);
        let mut b = MinCutSketch::new(12, 0.5, 11);
        b.absorb(&parts[1]);
        a.merge(&b);
        assert_eq!(a.decode().unwrap().value, 2);
    }

    #[test]
    fn per_level_witnesses_equal_clone_then_subtract() {
        // Each level's peeled witness, at every thread count, equals the
        // clone-then-subtract decode of the same level, edge for edge.
        let unit = gen::churn_stream(&gen::barbell(10, 3), 150, 31);
        let weighted = gen::churn_stream(&gen::gnp_weighted(18, 0.4, 5, 33), 90, 35);
        for (label, n, stream, subtract) in [
            ("unit barbell", 20, &unit, SubtractMode::Unit),
            ("weighted G(n,p)", 18, &weighted, SubtractMode::Full),
        ] {
            let mut params = MinCutParams::scaled(n, 0.75);
            params.subtract = subtract;
            let mut s = MinCutSketch::with_params(n, params, 37);
            s.absorb(stream);
            let reference: Vec<_> = s
                .levels
                .iter()
                .map(|l| l.decode_witness_edges_reference(&DecodePlan::sequential()))
                .collect();
            assert!(reference[0].len() > n, "{label}: level 0 never peeled");
            for threads in [1, 2, 8] {
                let plan = DecodePlan::with_threads(threads);
                assert_eq!(
                    s.decode_witness_edges_per_level_with(&plan),
                    reference,
                    "{label}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn paper_params_are_larger() {
        let s = MinCutParams::scaled(64, 0.5);
        let p = MinCutParams::paper(64, 0.5);
        assert!(p.k >= 6 * s.k / 2);
        assert!(p.levels > s.levels);
    }
}
