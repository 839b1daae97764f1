//! `SIMPLE-SPARSIFICATION` (Fig. 2, Theorem 3.3): single-pass
//! ε-sparsification of dynamic graph streams.
//!
//! ```text
//! 1.–2. As MINCUT but with k = O(ε⁻² log² n).
//! 3. For each edge e = (u,v), find j = min{ i : λ_e(H_i) < k }.
//!    If e ∈ H_j, add e to the sparsifier with weight 2^j.
//! ```
//!
//! The decoding realizes the freeze-and-double sampling process analyzed
//! by Lemma 3.5: an edge's weight is frozen at the first level where its
//! witness connectivity drops below `k`; surviving to level `j` happens
//! with probability `2^{−j}` and the compensating weight is `2^j`.
//! `λ_e(H_i)` is answered for **all** edges with one Gomory–Hu tree per
//! level.

use crate::absorb::{absorb_planned, AbsorbWork, SplitAbsorb};
use crate::mincut::{MinCutParams, MinCutSketch};
use gs_field::{BackendKind, M61};
use gs_graph::{GomoryHuTree, Graph};
use gs_sketch::bank::{CellBank, CellBanked};
use gs_sketch::par::{par_map, DecodePlan};
use gs_sketch::{EdgeUpdate, LinearSketch, Mergeable};

/// Parameters: the Fig. 2 instantiation of the level machinery.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimpleSparsifyParams(pub MinCutParams);

impl SimpleSparsifyParams {
    /// Scaled defaults: `k = max(8, ⌈c·ε⁻²·log₂²n⌉)` with `c = 1/4`.
    ///
    /// (The paper's constant — via Theorem 3.1 — is 253; E5 measures how
    /// far below it one can go before cut errors exceed ε.)
    pub fn scaled(n: usize, eps: f64) -> Self {
        let log2n = (usize::BITS - n.max(2).leading_zeros()) as f64;
        let mut p = MinCutParams::scaled(n, eps);
        p.k = (0.25 * log2n * log2n / (eps * eps)).ceil().max(8.0) as usize;
        SimpleSparsifyParams(p)
    }

    /// The paper's constants: `k = 253 ε⁻² log₂² n` (Theorem 3.1) and
    /// `1 + 2 log₂ n` levels.
    pub fn paper(n: usize, eps: f64) -> Self {
        let log2n = (usize::BITS - n.max(2).leading_zeros()) as f64;
        let mut p = MinCutParams::paper(n, eps);
        p.k = (253.0 * log2n * log2n / (eps * eps)).ceil() as usize;
        SimpleSparsifyParams(p)
    }

    /// Override the randomness regime.
    pub fn with_kind(mut self, kind: BackendKind) -> Self {
        self.0.kind = kind;
        self.0.forest.kind = kind;
        self
    }
}

/// Sketch state of Fig. 2 (shares the MINCUT level machinery).
#[derive(Clone, Debug, PartialEq)]
pub struct SimpleSparsifySketch {
    inner: MinCutSketch,
}

impl SimpleSparsifySketch {
    /// A sparsification sketch with scaled default parameters.
    pub fn new(n: usize, eps: f64, seed: u64) -> Self {
        Self::with_params(n, SimpleSparsifyParams::scaled(n, eps), seed)
    }

    /// Full-control constructor.
    pub fn with_params(n: usize, params: SimpleSparsifyParams, seed: u64) -> Self {
        SimpleSparsifySketch {
            inner: MinCutSketch::with_params(n, params.0, seed),
        }
    }

    /// As [`SimpleSparsifySketch::with_params`], deriving the level
    /// machinery's lane widths from the caller's bound on `|delta|`
    /// per update (see `LaneWidth::for_bounds`).
    pub fn with_bounds(
        n: usize,
        params: SimpleSparsifyParams,
        seed: u64,
        max_abs_delta: u64,
    ) -> Self {
        SimpleSparsifySketch {
            inner: MinCutSketch::with_bounds(n, params.0, seed, max_abs_delta),
        }
    }

    /// The witness threshold `k`.
    pub fn k(&self) -> usize {
        self.inner.k()
    }

    /// Weighted decode (§3.5) under a [`DecodePlan`]: witnesses are built
    /// from value-carrying updates (`delta = ±w`,
    /// [`crate::kedge::SubtractMode::Full`]); the freeze test runs on
    /// *unit* connectivity (every weighted edge counts once — the
    /// factor-L slack of Lemma 3.6 absorbs the within-class spread),
    /// while the output weight is `w · 2^j`. Levels and their Gomory–Hu
    /// trees build in parallel; the freeze pass stays sequential.
    pub fn decode_weighted_planned(&self, plan: &DecodePlan) -> Graph {
        let detailed = self.inner.decode_witness_edges_per_level_with(plan);
        let n = self.n();
        let k = self.k() as u64;
        let unit_witnesses: Vec<Graph> = detailed
            .iter()
            .map(|edges| Graph::from_edges(n, edges.iter().map(|&(u, v, _)| (u, v))))
            .collect();
        let trees: Vec<Option<gs_graph::GomoryHuTree>> =
            par_map(&unit_witnesses, plan.threads(), |_, h| {
                (h.m() > 0).then(|| gs_graph::GomoryHuTree::build(h))
            });
        let mut out: Vec<(usize, usize, u64)> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for edges in &detailed {
            for &(u, v, _) in edges {
                seen.insert((u, v));
            }
        }
        for (u, v) in seen {
            let mut freeze = None;
            for (i, tree) in trees.iter().enumerate() {
                let lam = match tree {
                    Some(t) => t.min_cut_value(u, v),
                    None => 0,
                };
                if lam < k {
                    freeze = Some(i);
                    break;
                }
            }
            let Some(j) = freeze else { continue };
            // Weight from the level-j witness (0 if the edge was sampled
            // out before level j).
            let w: u64 = detailed[j]
                .iter()
                .filter(|&&(a, b, _)| (a, b) == (u, v))
                .map(|&(_, _, amt)| amt.unsigned_abs())
                .sum();
            if w > 0 {
                out.push((u, v, w << j));
            }
        }
        Graph::from_weighted_edges(n, out)
    }
}

/// Fig. 2 step 3, shared with the weighted wrapper of §3.5: given the
/// level witnesses `H_0, H_1, …`, freeze every edge at
/// `j = min{i : λ_e(H_i) < k}` and keep it iff `e ∈ H_j`, with weight
/// `2^j · multiplicity`. The per-level Gomory–Hu trees build in parallel
/// under the [`DecodePlan`] (they only read their own witness); the
/// freeze pass over candidate edges stays sequential.
pub fn decode_from_witnesses_with(
    n: usize,
    k: u64,
    witnesses: &[Graph],
    plan: &DecodePlan,
) -> Graph {
    // Gomory–Hu tree per (non-trivial) level answers λ_e(H_i) for all e.
    let trees: Vec<Option<GomoryHuTree>> = par_map(witnesses, plan.threads(), |_, h| {
        (h.m() > 0).then(|| GomoryHuTree::build(h))
    });
    let mut out: Vec<(usize, usize, u64)> = Vec::new();
    // Candidate edges: anything appearing in any witness. An edge of G
    // absent from every witness is, in particular, absent from H at its
    // freeze level, so it would get weight 0 anyway.
    let mut seen = std::collections::BTreeSet::new();
    for h in witnesses {
        for &(u, v, _) in h.edges() {
            seen.insert((u, v));
        }
    }
    for (u, v) in seen {
        // Freeze level: first i with λ_e(H_i) < k.
        let mut j = None;
        for (i, tree) in trees.iter().enumerate() {
            let lam = match tree {
                Some(t) => t.min_cut_value(u, v),
                None => 0,
            };
            if lam < k {
                j = Some(i);
                break;
            }
        }
        let Some(j) = j else { continue };
        let mult = witnesses[j].edge_weight(u, v);
        if mult > 0 {
            out.push((u, v, mult << j));
        }
    }
    Graph::from_weighted_edges(n, out)
}

impl Mergeable for SimpleSparsifySketch {
    fn merge(&mut self, other: &Self) {
        self.inner.merge(&other.inner);
    }
}

impl SplitAbsorb for SimpleSparsifySketch {
    /// The level machinery's split absorb.
    fn absorb_work<'a>(
        &'a mut self,
        batch: &[EdgeUpdate],
        parts: usize,
        work: &mut AbsorbWork<'a>,
    ) {
        self.inner.absorb_work(batch, parts, work);
    }
}

impl LinearSketch for SimpleSparsifySketch {
    type Output = Graph;

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn update_edge(&mut self, u: usize, v: usize, delta: i64) {
        self.inner.update_edge(u, v, delta);
    }

    fn absorb_with(&mut self, batch: &[EdgeUpdate], plan: &DecodePlan) {
        absorb_planned(self, batch, plan);
    }

    /// Step 3: the weighted ε-sparsifier. An edge appearing in witness
    /// `H_j` at its freeze level `j` enters with weight `2^j` (times its
    /// multiplicity in `H_j` for multigraphs). The per-level witness
    /// decodes and their Gomory–Hu trees fan out across the plan's
    /// threads (levels are independent); the freeze pass stays
    /// sequential.
    fn decode_with(&self, plan: &DecodePlan) -> Graph {
        let witnesses = self.inner.decode_witnesses_with(plan);
        decode_from_witnesses_with(self.n(), self.k() as u64, &witnesses, plan)
    }
}

impl CellBanked for SimpleSparsifySketch {
    fn banks(&self) -> Vec<&CellBank> {
        self.inner.banks()
    }

    fn banks_mut(&mut self) -> Vec<&mut CellBank> {
        self.inner.banks_mut()
    }

    fn fingerprints(&self) -> Vec<M61> {
        self.inner.fingerprints()
    }

    fn fingerprints_mut(&mut self) -> Vec<&mut M61> {
        self.inner.fingerprints_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_graph::cuts::{cut_family_audit, enumerate_cuts, random_cut_audit};
    use gs_graph::{gen, stoer_wagner};

    fn sparsify(g: &Graph, eps: f64, seed: u64) -> Graph {
        let mut s = SimpleSparsifySketch::new(g.n(), eps, seed);
        for &(u, v, w) in g.edges() {
            s.update_edge(u, v, w as i64);
        }
        s.decode()
    }

    #[test]
    fn sparsifier_edges_are_real_edges() {
        let g = gen::gnp(24, 0.5, 1);
        let h = sparsify(&g, 0.5, 2);
        for &(u, v, _) in h.edges() {
            assert!(g.has_edge(u, v), "phantom edge ({u},{v})");
        }
    }

    #[test]
    fn low_connectivity_graph_reproduced_exactly() {
        // Every edge of a cycle has λ_e = 2 < k ⇒ freeze level 0 ⇒ the
        // sparsifier is the graph itself, weight 2^0 = 1.
        let g = gen::cycle(20);
        let h = sparsify(&g, 0.5, 3);
        assert_eq!(h.edges(), g.edges());
    }

    #[test]
    fn grid_reproduced_exactly() {
        let g = gen::grid(5, 5);
        let h = sparsify(&g, 0.5, 5);
        assert_eq!(h.edges(), g.edges());
    }

    #[test]
    fn all_cuts_of_small_graph_within_eps() {
        // Exhaustive Definition-4 audit on a small dense graph.
        let g = gen::complete(12);
        let eps = 0.75;
        let h = sparsify(&g, eps, 7);
        let err = cut_family_audit(&g, &h, enumerate_cuts(12));
        assert!(err <= eps, "worst cut error {err} > ε = {eps}");
    }

    #[test]
    fn random_cuts_of_larger_graph_within_eps() {
        let g = gen::gnp(40, 0.4, 9);
        let eps = 0.75;
        let h = sparsify(&g, eps, 11);
        let err = random_cut_audit(&g, &h, 400, 13);
        assert!(err <= eps, "random-cut error {err} > ε = {eps}");
    }

    #[test]
    fn min_cut_preserved() {
        let g = gen::barbell(8, 2);
        let h = sparsify(&g, 0.5, 15);
        assert_eq!(stoer_wagner::min_cut_value(&h), 2);
    }

    #[test]
    fn planted_partition_cut_preserved() {
        let g = gen::planted_partition(30, 2, 0.8, 0.1, 17);
        let h = sparsify(&g, 0.75, 19);
        let side: Vec<bool> = (0..30).map(|v| v < 15).collect();
        let (gv, hv) = (g.cut_value(&side), h.cut_value(&side));
        assert!(gv > 0);
        let err = (hv as f64 / gv as f64 - 1.0).abs();
        assert!(err <= 0.75, "planted cut error {err}");
    }

    #[test]
    fn churn_equals_insert_only() {
        let g = gen::gnp(20, 0.4, 21);
        let a = {
            let mut s = SimpleSparsifySketch::new(20, 0.5, 23);
            s.absorb(&gen::insert_stream(&g));
            s.decode()
        };
        let b = {
            let mut s = SimpleSparsifySketch::new(20, 0.5, 23);
            s.absorb(&gen::churn_stream(&g, 300, 25));
            s.decode()
        };
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn dense_graph_actually_sparsifies() {
        // K_48 has m = 1128; with ε = 1 the sparsifier should drop edges
        // (high-connectivity edges get subsampled).
        let g = gen::complete(48);
        let h = sparsify(&g, 1.0, 27);
        assert!(h.m() < g.m(), "no sparsification: {} vs {}", h.m(), g.m());
    }

    #[test]
    fn empty_sketch_decodes_empty() {
        let s = SimpleSparsifySketch::new(8, 0.5, 1);
        assert_eq!(s.decode().m(), 0);
    }
}
