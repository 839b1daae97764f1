//! `SPARSIFICATION` (Fig. 3, Theorems 3.4 / 3.7): the paper's main result.
//!
//! ```text
//! 1. Using SIMPLE-SPARSIFICATION, construct a (1 ± 1/2)-sparsification H.
//! 2.–3. For levels i and every u ∈ V, keep k-RECOVERY(x^{u,i}),
//!       k = O(ε⁻² log² n).
//! 4. Post-process: T = Gomory–Hu tree of H. For each tree edge e:
//!    (a) C = the cut induced by e, w(e) its weight;
//!    (b) j = ⌊log(max{w(e)·ε²/log n, 1})⌋;
//!    (c) k-RECOVERY(Σ_{u∈A} x^{u,j}) returns the edges of G_j across C;
//!    (d) a returned edge (u,v) is kept — with weight 2^j — iff the
//!        minimum edge f on the u-v path of T induces C.
//! ```
//!
//! The efficiency win over Fig. 2: instead of `O(log n)` full
//! `k-EDGECONNECT` structures, the final sparsifier is read out of plain
//! sparse-recovery sketches, composed linearly per cut
//! (`Σ_u k-RECOVERY(x^u) = k-RECOVERY(Σ_u x^u)`, §3.3). Step 4d assigns
//! every edge to exactly one Gomory–Hu cut, so no edge is double-counted.

use crate::absorb::{absorb_planned, AbsorbWork, SplitAbsorb};
use crate::incidence::{sign_for, update_both_endpoints};
use crate::simple_sparsify::{SimpleSparsifyParams, SimpleSparsifySketch};
use gs_field::{BackendKind, HashBackend, Randomness, M61};
use gs_graph::{GomoryHuTree, Graph};
use gs_sketch::bank::{CellBank, CellBanked};
use gs_sketch::domain::{edge_domain, edge_index, edge_unindex};
use gs_sketch::par::{par_map, DecodePlan};
use gs_sketch::{EdgeUpdate, LinearSketch, Mergeable, RecoveryPlan, SparseRecovery};
use std::sync::Arc;

/// Parameters for [`SparsifySketch`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SparsifyParams {
    /// Target accuracy ε of the final sparsifier.
    pub eps: f64,
    /// Subsampling levels for the `G_i` (and hence recovery banks).
    pub levels: usize,
    /// Per-node per-level recovery sparsity `k = O(ε⁻² log² n)`.
    pub recovery_k: usize,
    /// Parameters of the rough (1 ± 1/2) sparsifier of step 1.
    pub rough: SimpleSparsifyParams,
    /// Randomness regime.
    pub kind: BackendKind,
}

impl SparsifyParams {
    /// Scaled defaults (see DESIGN.md §4.4): recovery
    /// `k = max(16, ⌈ε⁻² log₂² n / 2⌉)`, rough sparsifier at ε = 1/2.
    pub fn scaled(n: usize, eps: f64) -> Self {
        let log2n = (usize::BITS - n.max(2).leading_zeros()) as f64;
        SparsifyParams {
            eps,
            levels: 1 + log2n as usize,
            recovery_k: (0.5 * log2n * log2n / (eps * eps)).ceil().max(16.0) as usize,
            rough: SimpleSparsifyParams::scaled(n, 0.5),
            kind: BackendKind::Oracle,
        }
    }

    /// The paper's constants (space-hungry; experiments only).
    pub fn paper(n: usize, eps: f64) -> Self {
        let log2n = (usize::BITS - n.max(2).leading_zeros()) as f64;
        SparsifyParams {
            eps,
            levels: 1 + 2 * log2n as usize,
            recovery_k: (253.0 * log2n * log2n / (eps * eps)).ceil() as usize,
            rough: SimpleSparsifyParams::paper(n, 0.5),
            kind: BackendKind::Oracle,
        }
    }
}

/// Sketch state of Fig. 3.
#[derive(Clone, Debug, PartialEq)]
pub struct SparsifySketch {
    n: usize,
    params: SparsifyParams,
    seed: u64,
    rough: SimpleSparsifySketch,
    /// `levels × n` recoveries of the `x^{u,i}`, level-major. All nodes in
    /// a level share the projection (they must be summable).
    recoveries: Vec<SparseRecovery>,
    /// Fresh subsampling hash for the recovery levels (step 2's `h_i`).
    level_hash: HashBackend,
}

impl SparsifySketch {
    /// A sparsification sketch with scaled default parameters.
    pub fn new(n: usize, eps: f64, seed: u64) -> Self {
        Self::with_params(n, SparsifyParams::scaled(n, eps), seed)
    }

    /// Full-control constructor.
    pub fn with_params(n: usize, params: SparsifyParams, seed: u64) -> Self {
        Self::build(n, params, seed, None)
    }

    /// As [`SparsifySketch::with_params`], deriving the recovery and
    /// rough-sparsifier lane widths from the caller's bound on
    /// `|delta|` per update (see `LaneWidth::for_bounds`).
    pub fn with_bounds(n: usize, params: SparsifyParams, seed: u64, max_abs_delta: u64) -> Self {
        Self::build(n, params, seed, Some(max_abs_delta))
    }

    fn build(n: usize, params: SparsifyParams, seed: u64, bound: Option<u64>) -> Self {
        assert!(n >= 2 && params.levels >= 1);
        let domain = edge_domain(n);
        let recoveries = (0..params.levels * n)
            .map(|i| {
                let level = i / n;
                let lseed = seed ^ (0x5A_0000 + level as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
                match bound {
                    Some(d) => SparseRecovery::with_bounds(
                        domain,
                        params.recovery_k,
                        lseed,
                        params.kind,
                        d,
                    ),
                    None => {
                        SparseRecovery::with_kind(domain, params.recovery_k, lseed, params.kind)
                    }
                }
            })
            .collect();
        let rough_seed = seed ^ 0x4F75_6768;
        SparsifySketch {
            n,
            params,
            seed,
            rough: match bound {
                Some(d) => SimpleSparsifySketch::with_bounds(n, params.rough, rough_seed, d),
                None => SimpleSparsifySketch::with_params(n, params.rough, rough_seed),
            },
            recoveries,
            level_hash: params.kind.backend(seed, 0x5A_FFFF),
        }
    }
}

impl Mergeable for SparsifySketch {
    fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.seed, other.seed,
            "merging sparsifiers with different seeds"
        );
        assert_eq!(self.n, other.n);
        assert_eq!(self.params.levels, other.params.levels);
        self.rough.merge(&other.rough);
        for (a, b) in self.recoveries.iter_mut().zip(&other.recoveries) {
            a.merge(b);
        }
    }
}

impl CellBanked for SparsifySketch {
    fn banks(&self) -> Vec<&CellBank> {
        let mut banks = self.rough.banks();
        banks.extend(self.recoveries.iter().flat_map(|r| r.banks()));
        banks
    }

    fn banks_mut(&mut self) -> Vec<&mut CellBank> {
        let mut banks = self.rough.banks_mut();
        banks.extend(self.recoveries.iter_mut().flat_map(|r| r.banks_mut()));
        banks
    }

    fn fingerprints(&self) -> Vec<M61> {
        let mut fps = self.rough.fingerprints();
        fps.extend(self.recoveries.iter().flat_map(|r| r.fingerprints()));
        fps
    }

    fn fingerprints_mut(&mut self) -> Vec<&mut M61> {
        let mut fps = self.rough.fingerprints_mut();
        fps.extend(
            self.recoveries
                .iter_mut()
                .flat_map(|r| r.fingerprints_mut()),
        );
        fps
    }
}

impl SplitAbsorb for SparsifySketch {
    /// The rough sparsifier's split absorb, plus one job per recovery
    /// level. All `n` node recoveries of a level share one projection, so
    /// a level's job computes each update's recovery hashes **once** and
    /// applies them to both endpoints; an update's subsampling level is
    /// hashed once, here.
    fn absorb_work<'a>(
        &'a mut self,
        batch: &[EdgeUpdate],
        parts: usize,
        work: &mut AbsorbWork<'a>,
    ) {
        let top = self.params.levels as u32 - 1;
        // (edge index, signed delta, u, v, subsampling level) per update.
        let prepared: Vec<_> = batch
            .iter()
            .filter(|up| up.delta != 0)
            .map(|up| {
                let idx = edge_index(self.n, up.u, up.v);
                let lmax = self.level_hash.subsample_level(idx, top);
                (idx, sign_for(up.u, up.v) * up.delta, up.u, up.v, lmax)
            })
            .collect();
        let prepared = Arc::new(prepared);
        let SparsifySketch {
            n,
            rough,
            recoveries,
            ..
        } = self;
        rough.absorb_work(batch, parts, work);
        for (level, nodes) in recoveries.chunks_mut(*n).enumerate() {
            let prepared = Arc::clone(&prepared);
            work.job(Box::new(move || {
                let mut plan = RecoveryPlan::default();
                for &(idx, du, u, v, lmax) in prepared.iter() {
                    if level <= lmax as usize {
                        nodes[u].plan_update(idx, &mut plan);
                        nodes[u].apply_planned(idx, du, &plan);
                        nodes[v].apply_planned(idx, -du, &plan);
                    }
                }
            }));
        }
    }
}

impl LinearSketch for SparsifySketch {
    type Output = Graph;

    fn n(&self) -> usize {
        self.n
    }

    /// Applies a stream update (Definition 1).
    fn update_edge(&mut self, u: usize, v: usize, delta: i64) {
        self.rough.update_edge(u, v, delta);
        let idx = edge_index(self.n, u, v);
        let lmax = self
            .level_hash
            .subsample_level(idx, self.params.levels as u32 - 1);
        for i in 0..=lmax as usize {
            let base = i * self.n;
            update_both_endpoints(u, v, delta, |node, d| {
                self.recoveries[base + node].update(idx, d);
            });
        }
    }

    fn absorb_with(&mut self, batch: &[EdgeUpdate], plan: &DecodePlan) {
        absorb_planned(self, batch, plan);
    }

    /// Step 4: decode the ε-sparsifier. Each Gomory–Hu tree edge induces
    /// an independent cut query (lane-sum the A-side's recoveries with
    /// the bank kernel, peel, keep the step-4d survivors), so the cuts
    /// fan out across the plan's threads and their kept edges are
    /// concatenated in tree-edge order — bit-identical to the sequential
    /// loop.
    fn decode_with(&self, plan: &DecodePlan) -> Graph {
        let rough = self.rough.decode_with(plan);
        if rough.m() == 0 {
            return Graph::new(self.n);
        }
        let tree = GomoryHuTree::build(&rough);
        let log2n = (usize::BITS - self.n.leading_zeros()) as f64;
        let eps2 = self.params.eps * self.params.eps;

        let cuts: Vec<(usize, u64, Vec<bool>)> = tree.induced_cuts().collect();
        let per_cut: Vec<Vec<(usize, usize, u64)>> =
            par_map(&cuts, plan.threads(), |_, (ei, w_cut, side)| {
                // Step 4b with the rough cut weight standing in for w(e).
                let j_raw = ((*w_cut as f64 * eps2 / log2n).max(1.0)).log2().floor() as usize;
                let j = j_raw.min(self.params.levels - 1);

                // Step 4c: linear composition over the A-side of the cut —
                // the bank-kernel recovery sum, no per-cut clones.
                let base = j * self.n;
                let members = (0..self.n).filter(|&v| side[v]);
                let Some(items) =
                    SparseRecovery::decode_sum(members.map(|u| &self.recoveries[base + u]))
                else {
                    // Recovery failed: more than k edges of G_j cross this
                    // cut (w.h.p. impossible at the chosen j; skipping
                    // keeps the output sound, the audit measures the
                    // effect).
                    return Vec::new();
                };
                // Step 4d.
                let mut kept = Vec::new();
                for (idx, val) in items {
                    let (u, v) = edge_unindex(idx);
                    if u >= self.n || v >= self.n || val == 0 {
                        continue;
                    }
                    if tree.path_min_edge(u, v) == *ei {
                        kept.push((u, v, (val.unsigned_abs()) << j));
                    }
                }
                kept
            });
        let out: Vec<(usize, usize, u64)> = per_cut.into_iter().flatten().collect();
        Graph::from_weighted_edges(self.n, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_graph::cuts::{cut_family_audit, enumerate_cuts, random_cut_audit};
    use gs_graph::{gen, stoer_wagner};
    use gs_stream::distributed::split_updates;

    fn sparsify(g: &Graph, eps: f64, seed: u64) -> Graph {
        let mut s = SparsifySketch::new(g.n(), eps, seed);
        for &(u, v, w) in g.edges() {
            s.update_edge(u, v, w as i64);
        }
        s.decode()
    }

    #[test]
    fn edges_are_real() {
        let g = gen::gnp(20, 0.5, 1);
        let h = sparsify(&g, 0.5, 2);
        for &(u, v, _) in h.edges() {
            assert!(g.has_edge(u, v), "phantom edge ({u},{v})");
        }
    }

    #[test]
    fn sparse_graph_reproduced_exactly() {
        // Cycle: every GH cut has weight 2 ⇒ j = 0 ⇒ full recovery at
        // level 0 reproduces the graph with weight 1.
        let g = gen::cycle(16);
        let h = sparsify(&g, 0.5, 3);
        assert_eq!(h.edges(), g.edges());
    }

    #[test]
    fn all_cuts_within_eps_small_graph() {
        let g = gen::complete(10);
        let eps = 0.75;
        let h = sparsify(&g, eps, 5);
        let err = cut_family_audit(&g, &h, enumerate_cuts(10));
        assert!(err <= eps, "worst enumerated-cut error {err}");
    }

    #[test]
    fn random_cuts_within_eps() {
        let g = gen::gnp(36, 0.4, 7);
        let eps = 0.75;
        let h = sparsify(&g, eps, 9);
        let err = random_cut_audit(&g, &h, 300, 11);
        assert!(err <= eps, "random-cut error {err}");
    }

    #[test]
    fn min_cut_preserved() {
        let g = gen::barbell(8, 2);
        let h = sparsify(&g, 0.5, 13);
        assert_eq!(stoer_wagner::min_cut_value(&h), 2);
    }

    #[test]
    fn churn_equals_insert_only() {
        let g = gen::gnp(18, 0.4, 15);
        let mk = |stream: &[EdgeUpdate]| {
            let mut s = SparsifySketch::new(18, 0.5, 17);
            s.absorb(stream);
            s.decode()
        };
        let a = mk(&gen::insert_stream(&g));
        let b = mk(&gen::churn_stream(&g, 250, 19));
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn merge_is_linear() {
        let g = gen::gnp(16, 0.5, 21);
        let stream = gen::insert_stream(&g);
        let parts = split_updates(&stream, 3, 23);
        let mut acc: Option<SparsifySketch> = None;
        for p in &parts {
            let mut s = SparsifySketch::new(16, 0.5, 25);
            s.absorb(p);
            match &mut acc {
                None => acc = Some(s),
                Some(a) => a.merge(&s),
            }
        }
        let mut central = SparsifySketch::new(16, 0.5, 25);
        central.absorb(&stream);
        assert_eq!(acc.unwrap().decode().edges(), central.decode().edges());
    }

    #[test]
    fn empty_graph_decodes_empty() {
        let s = SparsifySketch::new(8, 0.5, 1);
        assert_eq!(s.decode().m(), 0);
    }

    #[test]
    fn gomory_hu_cut_family_within_eps() {
        // Audit specifically the min-cut family (the cuts the paper's
        // guarantee is hardest for): every GH cut of G itself.
        let g = gen::planted_partition(24, 2, 0.8, 0.1, 27);
        let eps = 0.75;
        let h = sparsify(&g, eps, 29);
        let tree = GomoryHuTree::build(&g);
        let cuts: Vec<Vec<bool>> = tree.induced_cuts().map(|(_, _, s)| s).collect();
        let err = cut_family_audit(&g, &h, cuts);
        assert!(err <= eps, "GH-cut error {err}");
    }
}
