//! Small-subgraph estimation (§4, Theorem 4.1, Fig. 4).
//!
//! The sketch is an ℓ0-sampling structure over `squash(X_G)`:
//! the columns of `X_G` are the `C(n,k)` order-`k` vertex subsets, the
//! rows the `C(k,2)` vertex pairs inside a subset, and
//! *"adding 1 to the (i,j)-th entry of X corresponds to adding 2^i to the
//! j-th entry of squash(X)"*. An ℓ0-sample of `squash(X_G)` is therefore a
//! uniformly random **non-empty induced order-k subgraph**, delivered as
//! its edge bitmask; `γ_H(G)` is estimated as the fraction of samples
//! whose bitmask falls in the isomorphism class `A_H`. By Chernoff,
//! `O(ε⁻² log δ⁻¹)` samples give an additive-ε estimate (Theorem 4.1).
//!
//! Cost model: one edge update touches `C(n−2, k−2)` columns (every subset
//! containing both endpoints), i.e. `O(n^{k−2})` sampler updates — the
//! price of maintaining a linear measurement of an `O(n^k)`-dimensional
//! object. The space, however, is only `O(ε⁻² polylog)` — the paper's
//! point.
//!
//! Multiplicities must stay 0/1 (simple graphs): the squash encoding is a
//! *sum*, so a multiplicity-2 edge in row 0 is indistinguishable from a
//! multiplicity-1 edge in row 1. Dynamic streams are fine as long as the
//! *net* graph stays simple, which is Definition 1's regime for γ_H.

use crate::absorb::{absorb_planned, AbsorbWork, SplitAbsorb};
use gs_field::{BackendKind, M61};
use gs_graph::subgraph::Pattern;
use gs_sketch::bank::{CellBank, CellBanked};
use gs_sketch::domain::{pair_slot, subset_domain, subset_rank};
use gs_sketch::par::{par_map, DecodePlan};
use gs_sketch::{EdgeUpdate, L0Result, L0Sampler, LinearSketch, Mergeable, CELL_BYTES};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Parameters for [`SubgraphSketch`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SubgraphParams {
    /// Number of independent ℓ0 samplers `s = O(ε⁻² log δ⁻¹)`.
    pub samples: usize,
    /// Per-level recovery size inside each sampler.
    pub sampler_sparsity: usize,
    /// Randomness regime.
    pub kind: BackendKind,
}

impl SubgraphParams {
    /// `s = ⌈c/ε²⌉` samplers with `c = 1` (Theorem 4.1's `O(ε⁻²)`,
    /// δ fixed at a constant; multiply `samples` by `log δ⁻¹` for smaller
    /// error probabilities).
    pub fn for_eps(eps: f64) -> Self {
        assert!(eps > 0.0 && eps <= 1.0);
        SubgraphParams {
            samples: (1.0 / (eps * eps)).ceil() as usize,
            sampler_sparsity: 8,
            kind: BackendKind::Oracle,
        }
    }
}

/// Linear sketch for estimating γ_H over order-`k` patterns.
///
/// ```
/// use graph_sketches::SubgraphSketch;
/// use gs_graph::{gen, subgraph::Pattern};
/// let g = gen::complete(8); // all order-3 subgraphs are triangles
/// let mut s = SubgraphSketch::new(8, 3, 0.25, 1);
/// for &(u, v, _) in g.edges() { s.update_edge(u, v, 1); }
/// assert_eq!(s.estimate_gamma(&Pattern::triangle()), Some(1.0));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SubgraphSketch {
    n: usize,
    k: usize,
    params: SubgraphParams,
    seed: u64,
    samplers: Vec<L0Sampler>,
}

impl SubgraphSketch {
    /// A sketch for order-`k` subgraphs of `n`-vertex graphs with accuracy
    /// target ε.
    pub fn new(n: usize, k: usize, eps: f64, seed: u64) -> Self {
        Self::with_params(n, k, SubgraphParams::for_eps(eps), seed)
    }

    /// Full-control constructor.
    pub fn with_params(n: usize, k: usize, params: SubgraphParams, seed: u64) -> Self {
        Self::build(n, k, params, seed, None)
    }

    /// As [`SubgraphSketch::with_params`], deriving the samplers' lane
    /// widths from the caller's bound on `|delta|` per stream update. The
    /// squash encoding scales a stream delta by up to `2^{C(k,2)−1}` (one
    /// bit per possible pattern edge), so the coordinate-level bound is
    /// `max_abs_delta · 2^{C(k,2)−1}` (see `LaneWidth::for_bounds`).
    pub fn with_bounds(
        n: usize,
        k: usize,
        params: SubgraphParams,
        seed: u64,
        max_abs_delta: u64,
    ) -> Self {
        let slots = (k * (k - 1) / 2) as u32;
        let coord_bound = max_abs_delta.saturating_mul(1u64 << (slots - 1).min(62));
        Self::build(n, k, params, seed, Some(coord_bound))
    }

    fn build(n: usize, k: usize, params: SubgraphParams, seed: u64, bound: Option<u64>) -> Self {
        assert!((2..=6).contains(&k), "pattern order {k} unsupported");
        assert!(n >= k, "graph smaller than pattern order");
        assert!(params.samples >= 1);
        let domain = subset_domain(n, k);
        let samplers = (0..params.samples)
            .map(|i| {
                let sseed = seed ^ (0x4B_0000 + i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                match bound {
                    Some(d) => L0Sampler::with_bounds(
                        domain,
                        params.sampler_sparsity,
                        sseed,
                        params.kind,
                        d,
                    ),
                    None => {
                        L0Sampler::with_params(domain, params.sampler_sparsity, sseed, params.kind)
                    }
                }
            })
            .collect();
        SubgraphSketch {
            n,
            k,
            params,
            seed,
            samplers,
        }
    }

    /// Vertex count `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Pattern order `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of samplers.
    pub fn sample_count(&self) -> usize {
        self.samplers.len()
    }

    /// Sketch size in 1-sparse cells across all samplers.
    pub fn cell_count(&self) -> usize {
        self.samplers.iter().map(|s| s.cell_count()).sum()
    }

    /// Applies a stream update of edge `{u,v}` to every column containing
    /// both endpoints (Fig. 4's linear encoding).
    pub fn update_edge(&mut self, u: usize, v: usize, delta: i64) {
        assert!(u != v && u < self.n && v < self.n);
        if delta == 0 {
            return;
        }
        let samplers = &mut self.samplers;
        for_each_column(self.n, self.k, u, v, &mut |col, slot| {
            for s in samplers.iter_mut() {
                s.update(col, delta * (1i64 << slot));
            }
        });
    }

    /// Draws the available column samples: `(bitmask, sampler index)` per
    /// successful sampler. Failed samplers are skipped (Theorem 2.1's δ).
    pub fn raw_samples(&self) -> Vec<u64> {
        self.raw_samples_with(&DecodePlan::sequential())
    }

    /// [`SubgraphSketch::raw_samples`] under a [`DecodePlan`]: the
    /// samplers are independent ℓ0 queries, so they fan out across the
    /// plan's threads; successful samples come back in sampler order,
    /// bit-identical to the sequential draw.
    pub fn raw_samples_with(&self, plan: &DecodePlan) -> Vec<u64> {
        par_map(&self.samplers, plan.threads(), |_, s| match s.query() {
            L0Result::Sample(_, val) if val > 0 => Some(val as u64),
            _ => None,
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Estimates `γ_H(G)` for a pattern of order `k`: the fraction of
    /// non-empty induced order-k subgraphs isomorphic to `H`, within ±ε
    /// with constant probability (Theorem 4.1). Returns `None` when no
    /// sampler produced a sample (empty graph or total sampler failure).
    pub fn estimate_gamma(&self, pattern: &Pattern) -> Option<f64> {
        assert_eq!(pattern.order(), self.k, "pattern order mismatch");
        let class = pattern.iso_class();
        self.estimate_class_fraction(&class)
    }

    /// Estimates the fraction of samples whose bitmask lies in an explicit
    /// value class `A_H` (§4: "estimating γ_H(G) is equivalent to
    /// estimating the fraction of non-zero entries that are in A_H").
    pub fn estimate_class_fraction(&self, class: &BTreeSet<u64>) -> Option<f64> {
        let samples = self.raw_samples();
        if samples.is_empty() {
            return None;
        }
        let hits = samples.iter().filter(|m| class.contains(m)).count();
        Some(hits as f64 / samples.len() as f64)
    }

    /// Estimates several patterns from the *same* samples (they share the
    /// sampling noise, which is what the paper's single-structure design
    /// gives you for free).
    pub fn estimate_many(&self, patterns: &[Pattern]) -> Vec<Option<f64>> {
        let samples = self.raw_samples();
        patterns
            .iter()
            .map(|p| {
                assert_eq!(p.order(), self.k);
                if samples.is_empty() {
                    return None;
                }
                let class = p.iso_class();
                let hits = samples.iter().filter(|m| class.contains(m)).count();
                Some(hits as f64 / samples.len() as f64)
            })
            .collect()
    }
}

/// Calls `f(column, slot)` for each of the `C(n−2, k−2)` order-`k`
/// vertex subsets containing both `u` and `v`: the subset's rank and the
/// pair slot of `{u, v}` inside it, in ascending order of the other
/// members.
fn for_each_column(n: usize, k: usize, u: usize, v: usize, f: &mut impl FnMut(u64, u32)) {
    fn walk(
        (n, k, lo, hi): (usize, usize, usize, usize),
        start: usize,
        others: &mut Vec<usize>,
        f: &mut impl FnMut(u64, u32),
    ) {
        if others.len() == k - 2 {
            // Assemble the sorted subset and locate the (lo, hi) pair.
            let mut subset: Vec<usize> = others.clone();
            subset.push(lo);
            subset.push(hi);
            subset.sort_unstable();
            let pa = subset.iter().position(|&x| x == lo).expect("lo present");
            let pb = subset.iter().position(|&x| x == hi).expect("hi present");
            f(subset_rank(&subset), pair_slot(pa, pb, k));
            return;
        }
        for w in start..n {
            if w == lo || w == hi {
                continue;
            }
            others.push(w);
            walk((n, k, lo, hi), w + 1, others, f);
            others.pop();
        }
    }
    let (lo, hi) = if u < v { (u, v) } else { (v, u) };
    walk((n, k, lo, hi), 0, &mut Vec::with_capacity(k - 2), f);
}

impl SplitAbsorb for SubgraphSketch {
    /// The samplers split into `parts` groups, one job each; a job walks
    /// the batch and its columns and updates only its own samplers.
    fn absorb_work<'a>(
        &'a mut self,
        batch: &[EdgeUpdate],
        parts: usize,
        work: &mut AbsorbWork<'a>,
    ) {
        let (n, k) = (self.n, self.k);
        for up in batch {
            assert!(up.u != up.v && up.u < n && up.v < n);
        }
        let batch: Arc<Vec<EdgeUpdate>> =
            Arc::new(batch.iter().filter(|up| up.delta != 0).copied().collect());
        let per = self.samplers.len().div_ceil(parts.max(1));
        for group in self.samplers.chunks_mut(per) {
            let batch = Arc::clone(&batch);
            work.job(Box::new(move || {
                for up in batch.iter() {
                    for_each_column(n, k, up.u, up.v, &mut |col, slot| {
                        for s in group.iter_mut() {
                            s.update(col, up.delta * (1i64 << slot));
                        }
                    });
                }
            }));
        }
    }
}

impl Mergeable for SubgraphSketch {
    fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.seed, other.seed,
            "merging subgraph sketches with different seeds"
        );
        assert_eq!(self.n, other.n);
        assert_eq!(self.k, other.k);
        for (a, b) in self.samplers.iter_mut().zip(&other.samplers) {
            a.merge(b);
        }
    }
}

impl CellBanked for SubgraphSketch {
    fn banks(&self) -> Vec<&CellBank> {
        self.samplers.iter().flat_map(|s| s.banks()).collect()
    }

    fn banks_mut(&mut self) -> Vec<&mut CellBank> {
        self.samplers
            .iter_mut()
            .flat_map(|s| s.banks_mut())
            .collect()
    }

    fn fingerprints(&self) -> Vec<M61> {
        self.samplers
            .iter()
            .flat_map(|s| s.fingerprints())
            .collect()
    }

    fn fingerprints_mut(&mut self) -> Vec<&mut M61> {
        self.samplers
            .iter_mut()
            .flat_map(|s| s.fingerprints_mut())
            .collect()
    }
}

impl LinearSketch for SubgraphSketch {
    type Output = Vec<u64>;

    fn n(&self) -> usize {
        self.n
    }

    fn update_edge(&mut self, u: usize, v: usize, delta: i64) {
        SubgraphSketch::update_edge(self, u, v, delta);
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

    /// Decodes the raw column samples (induced-subgraph bitmasks); feed
    /// them to [`SubgraphSketch::estimate_gamma`] /
    /// [`SubgraphSketch::estimate_class_fraction`] for pattern fractions.
    fn decode(&self) -> Vec<u64> {
        self.raw_samples()
    }

    fn decode_with(&self, plan: &DecodePlan) -> Vec<u64> {
        self.raw_samples_with(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_graph::subgraph::{exact_counts, gamma};
    use gs_graph::{gen, Graph};
    use gs_stream::GraphStream;

    fn sketch_of(g: &Graph, k: usize, eps: f64, seed: u64) -> SubgraphSketch {
        let mut s = SubgraphSketch::new(g.n(), k, eps, seed);
        for &(u, v, _) in g.edges() {
            s.update_edge(u, v, 1);
        }
        s
    }

    #[test]
    fn complete_graph_is_all_triangles() {
        let g = gen::complete(10);
        let s = sketch_of(&g, 3, 0.25, 1);
        let est = s.estimate_gamma(&Pattern::triangle()).expect("samples");
        assert_eq!(est, 1.0, "every sample of K_10 must be a triangle");
    }

    #[test]
    fn triangle_free_graph_estimates_zero() {
        let g = gen::cycle(12);
        let s = sketch_of(&g, 3, 0.25, 2);
        let est = s.estimate_gamma(&Pattern::triangle()).expect("samples");
        assert_eq!(est, 0.0);
    }

    #[test]
    fn empty_graph_has_no_samples() {
        let s = SubgraphSketch::new(8, 3, 0.5, 3);
        assert!(s.estimate_gamma(&Pattern::triangle()).is_none());
    }

    #[test]
    fn gamma_estimate_within_additive_eps() {
        let g = gen::gnp(18, 0.45, 5);
        let eps = 0.2;
        // Average several seeds: Theorem 4.1 is a constant-probability
        // guarantee per sketch.
        let mut errs = Vec::new();
        for seed in 0..5 {
            let s = sketch_of(&g, 3, eps, 100 + seed);
            let est = s.estimate_gamma(&Pattern::triangle()).expect("samples");
            errs.push((est - gamma(&g, &Pattern::triangle())).abs());
        }
        errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = errs[errs.len() / 2];
        assert!(median <= eps, "median additive error {median} > ε = {eps}");
    }

    #[test]
    fn class_fractions_sum_to_one() {
        // The three order-3 classes partition every sample.
        let g = gen::gnp(16, 0.4, 7);
        let s = sketch_of(&g, 3, 0.25, 9);
        let ests = s.estimate_many(&[
            Pattern::triangle(),
            Pattern::path3(),
            Pattern::edge_plus_isolated(),
        ]);
        let total: f64 = ests.iter().map(|e| e.expect("samples")).sum();
        assert!((total - 1.0).abs() < 1e-9, "fractions sum to {total}");
    }

    #[test]
    fn deletions_cancel_in_squash_space() {
        // Insert a dense graph, delete everything except one triangle.
        let n = 10;
        let full = gen::complete(n);
        let mut s = SubgraphSketch::new(n, 3, 0.5, 11);
        for &(u, v, _) in full.edges() {
            s.update_edge(u, v, 1);
        }
        for &(u, v, _) in full.edges() {
            let keep = u < 3 && v < 3;
            if !keep {
                s.update_edge(u, v, -1);
            }
        }
        let est = s.estimate_gamma(&Pattern::triangle()).expect("samples");
        // Exactly one triangle on {0,1,2}: γ = 1/7 (see gs-graph tests).
        let exact = 1.0 / 7.0;
        assert!(
            (est - exact).abs() <= 0.35,
            "estimate {est} too far from {exact}"
        );
    }

    #[test]
    fn order4_patterns() {
        let g = gen::complete(8);
        let s = sketch_of(&g, 4, 0.34, 13);
        assert_eq!(s.estimate_gamma(&Pattern::k4()).expect("samples"), 1.0);
        assert_eq!(s.estimate_gamma(&Pattern::c4()).expect("samples"), 0.0);
    }

    #[test]
    fn churn_stream_equivalent_to_inserts() {
        let g = gen::gnp(12, 0.4, 15);
        let mk = |stream: &GraphStream| {
            let mut s = SubgraphSketch::new(12, 3, 0.34, 17);
            stream.replay(|u, v, d| s.update_edge(u, v, d));
            s.raw_samples()
        };
        let a = mk(&GraphStream::inserts_of(&g));
        let b = mk(&GraphStream::with_churn(&g, 150, 19));
        assert_eq!(a, b, "sketch state must be order/churn independent");
    }

    #[test]
    fn merge_is_linear() {
        let g = gen::gnp(12, 0.5, 21);
        let mut a = SubgraphSketch::new(12, 3, 0.34, 23);
        let mut b = SubgraphSketch::new(12, 3, 0.34, 23);
        let mut central = SubgraphSketch::new(12, 3, 0.34, 23);
        for (i, &(u, v, _)) in g.edges().iter().enumerate() {
            if i % 2 == 0 {
                a.update_edge(u, v, 1);
            } else {
                b.update_edge(u, v, 1);
            }
            central.update_edge(u, v, 1);
        }
        a.merge(&b);
        assert_eq!(a.raw_samples(), central.raw_samples());
    }

    #[test]
    fn exact_counts_agree_with_brute_force_denominator() {
        // Sanity-link between sketch estimates and the §4 definition: the
        // fraction estimated is (matches / non-empty), both enumerable.
        let g = gen::gnp(14, 0.3, 25);
        let (matches, non_empty) = exact_counts(&g, &Pattern::path3());
        assert!(non_empty > 0);
        let s = sketch_of(&g, 3, 0.2, 27);
        let est = s.estimate_gamma(&Pattern::path3()).expect("samples");
        let exact = matches as f64 / non_empty as f64;
        assert!((est - exact).abs() < 0.45, "est {est} vs exact {exact}");
    }
}
