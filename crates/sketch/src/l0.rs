//! ℓ0-sampling (Theorem 2.1) in two flavors.
//!
//! > *"A δ-error ℓ0-sampler for x ≠ 0 returns FAIL with probability at most
//! > δ and otherwise returns (i, x_i) where i is drawn uniformly at random
//! > from support(x)."* — §2.3, citing Jowhari–Saglam–Tardos.
//!
//! Both structures use the standard level machinery: level `ℓ` summarizes
//! the restriction of `x` to the indices whose hashed value has `≥ ℓ`
//! leading zeros (so level ℓ keeps a `2^−ℓ` subsample of the support, and
//! the levels are nested). Some level contains `Θ(1)` surviving support
//! elements, where recovery succeeds.
//!
//! * [`L0Detector`] — one [`OneSparseCell`] per level per repetition.
//!   Returns *some* support element w.h.p.; makes no uniformity claim.
//!   This is all that Boruvka-style spanning-forest decoding needs (any
//!   outgoing edge works), and it is ~30× smaller than the uniform
//!   sampler — the k-EDGECONNECT structures of §3 instantiate `O(kn log n)`
//!   of these.
//! * [`L0Sampler`] — a [`SparseRecovery`] of size `s` per level plus
//!   min-priority tie-breaking (the JST construction). At the first level
//!   whose recovery succeeds, the recovered set is *exactly* the level's
//!   subsample of the support, and the element of minimum priority hash is
//!   a uniform draw by symmetry. Used where uniformity matters: the
//!   subgraph-fraction estimator of §4.

use crate::bank::{BankGeometry, CellBank, CellBanked};
use crate::lane::LaneWidth;
use crate::one_sparse::{OneSparseCell, OneSparseState};
use crate::sparse_recovery::SparseRecovery;
use crate::Mergeable;
use gs_field::{BackendKind, HashBackend, Randomness, M61};

/// Number of levels needed for a domain: `⌊log2 N⌋ + 1` capped to 64.
///
/// Edge cases (pinned by tests below): `domain = 1` still gets one level
/// (the full-vector cell); an exact power of two `2^k` needs only `k`
/// levels because the deepest index is `2^k − 1`; `u64::MAX` saturates at
/// the full 64.
pub fn level_count(domain: u64) -> u32 {
    debug_assert!(domain >= 1, "a sketch domain must hold at least one index");
    let levels = 64 - domain.saturating_sub(1).leading_zeros().min(63);
    debug_assert!((1..=64).contains(&levels));
    levels
}

/// Outcome of an ℓ0 query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L0Result {
    /// The vector is certified (w.h.p.) identically zero.
    Empty,
    /// A support element and its value.
    Sample(u64, i64),
    /// The sampler failed (probability ≤ δ by Theorem 2.1).
    Fail,
}

impl L0Result {
    /// The sample, if any.
    pub fn sample(self) -> Option<(u64, i64)> {
        match self {
            L0Result::Sample(i, v) => Some((i, v)),
            _ => None,
        }
    }
}

/// Cheap support detector: returns *some* non-zero coordinate w.h.p.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct L0Detector {
    domain: u64,
    levels: u32,
    reps: usize,
    seed: u64,
    kind: BackendKind,
    /// `reps × levels × 1` cell bank, rep-major.
    cells: CellBank,
    level_hash: Vec<HashBackend>,
    finger: HashBackend,
}

/// The hash work of one detector update, computed once per index and
/// reusable by **every detector built from the same seed** (the node
/// sketches of a `ForestSketch` bank all share one seed — that is what
/// makes them summable — so one plan serves both endpoints of an edge
/// update across all `n` node detectors).
#[derive(Clone, Debug, Default)]
pub struct DetectorPlan {
    /// Fingerprint hash value `h_f(index)`.
    hf: M61,
    /// Per-repetition deepest subsampling level of the index.
    lmax: Vec<u32>,
}

/// Detector repetitions: each rep independently succeeds with constant
/// probability on any non-empty support, so 3 reps fail together with
/// probability far below the Boruvka-round slack that consumes them.
const DETECTOR_REPS: usize = 3;

impl L0Detector {
    /// A detector over `[0, domain)` with the default repetition count.
    pub fn new(domain: u64, seed: u64) -> Self {
        Self::with_params(domain, DETECTOR_REPS, seed, BackendKind::Oracle)
    }

    /// Full-control constructor (wide lanes — no delta bound declared).
    pub fn with_params(domain: u64, reps: usize, seed: u64, kind: BackendKind) -> Self {
        Self::with_width(domain, reps, seed, kind, LaneWidth::WIDE)
    }

    /// As [`L0Detector::with_params`], deriving the lane widths from the
    /// caller's bound on `|delta|` per update and the stream length budget
    /// (see [`LaneWidth::for_bounds`]; indices are `< domain`).
    pub fn with_bounds(
        domain: u64,
        reps: usize,
        seed: u64,
        kind: BackendKind,
        max_abs_delta: u64,
    ) -> Self {
        let width = LaneWidth::for_bounds(domain - 1, max_abs_delta);
        Self::with_width(domain, reps, seed, kind, width)
    }

    fn with_width(
        domain: u64,
        reps: usize,
        seed: u64,
        kind: BackendKind,
        width: LaneWidth,
    ) -> Self {
        assert!(domain >= 1 && reps >= 1);
        let levels = level_count(domain);
        let level_hash = (0..reps)
            .map(|r| kind.backend(seed, 0x4C30_0100 + r as u64))
            .collect();
        let finger = kind.backend(seed, 0x4C30_0001);
        L0Detector {
            domain,
            levels,
            reps,
            seed,
            kind,
            cells: CellBank::with_width(BankGeometry::new(reps, levels as usize, 1), width),
            level_hash,
            finger,
        }
    }

    /// The index-space size.
    pub fn domain(&self) -> u64 {
        self.domain
    }

    /// Sketch size in cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Applies `x[index] += delta`: hash once (fingerprint + one
    /// subsampling level per repetition), then fan the precomputed triple
    /// into the contiguous level prefix of each repetition row.
    pub fn update(&mut self, index: u64, delta: i64) {
        debug_assert!(
            index < self.domain,
            "index {index} out of domain {}",
            self.domain
        );
        if delta == 0 {
            return;
        }
        let (dw, ds, df) = CellBank::deltas(index, delta, self.finger.hash_m61(index));
        for r in 0..self.reps {
            let lmax = self.level_hash[r].subsample_level(index, self.levels - 1);
            let base = r * self.levels as usize;
            self.cells.fan(base..base + lmax as usize + 1, dw, ds, df);
        }
    }

    /// Computes the hash work of an update of `index` into `plan`,
    /// reusable by [`L0Detector::apply_planned`] on **any detector built
    /// from the same seed** (including this one). The plan's buffers are
    /// recycled across calls — hold one plan per batch loop.
    pub fn plan_update(&self, index: u64, plan: &mut DetectorPlan) {
        plan.hf = self.finger.hash_m61(index);
        plan.lmax.clear();
        plan.lmax.extend(
            self.level_hash
                .iter()
                .map(|h| h.subsample_level(index, self.levels - 1)),
        );
    }

    /// Applies `x[index] += delta` using hashes precomputed by
    /// [`L0Detector::plan_update`] on a same-seed detector. Bit-identical
    /// to [`L0Detector::update`].
    pub fn apply_planned(&mut self, index: u64, delta: i64, plan: &DetectorPlan) {
        debug_assert!(index < self.domain && delta != 0);
        debug_assert_eq!(plan.lmax.len(), self.reps, "plan from a different shape");
        let (dw, ds, df) = CellBank::deltas(index, delta, plan.hf);
        for (r, &lmax) in plan.lmax.iter().enumerate() {
            let base = r * self.levels as usize;
            self.cells.fan(base..base + lmax as usize + 1, dw, ds, df);
        }
    }

    /// `true` iff the full-vector cells certify the zero vector.
    pub fn is_zero(&self) -> bool {
        (0..self.reps).all(|r| self.cells.cell_is_zero(r * self.levels as usize))
    }

    /// Returns some support element, `Empty`, or `Fail`.
    pub fn query(&self) -> L0Result {
        if self.is_zero() {
            return L0Result::Empty;
        }
        let levels = self.levels as usize;
        for r in 0..self.reps {
            let base = r * levels;
            for l in 0..levels {
                if let OneSparseState::One(idx, v) =
                    self.cells.decode_cell(base + l, self.domain, &self.finger)
                {
                    return L0Result::Sample(idx, v);
                }
            }
        }
        L0Result::Fail
    }

    /// [`L0Detector::query`] over externally-held measurement lanes — the
    /// decode half of the bank-level batched group query. Callers that
    /// sum whole detector rows with [`crate::bank::CellBank::accumulate`]
    /// (Σ_{u∈A} sketch(x^u) in Boruvka decoding) hand the accumulators
    /// straight to this method instead of copying them into a detector
    /// clone first. Bit-identical to overlaying the lanes onto this
    /// detector's bank and calling [`L0Detector::query`]: same cells,
    /// same hashes, same scan order.
    ///
    /// The lanes must be `reps × levels` long, rep-major — the shape of
    /// this detector's own bank.
    pub fn query_lanes(&self, w: &[i64], s: &[i128], f: &[M61]) -> L0Result {
        let levels = self.levels as usize;
        debug_assert!(
            w.len() == self.reps * levels && s.len() == w.len() && f.len() == w.len(),
            "lanes disagree with the detector shape"
        );
        let zero = (0..self.reps).all(|r| {
            let i = r * levels;
            w[i] == 0 && s[i] == 0 && f[i].is_zero()
        });
        if zero {
            return L0Result::Empty;
        }
        for r in 0..self.reps {
            let base = r * levels;
            for l in 0..levels {
                let i = base + l;
                if let OneSparseState::One(idx, v) =
                    OneSparseCell::from_parts(w[i], s[i], f[i]).decode(self.domain, &self.finger)
                {
                    return L0Result::Sample(idx, v);
                }
            }
        }
        L0Result::Fail
    }
}

impl Mergeable for L0Detector {
    fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.seed, other.seed,
            "merging detectors with different seeds"
        );
        assert_eq!(self.kind, other.kind);
        assert_eq!(self.domain, other.domain);
        assert_eq!(self.reps, other.reps);
        self.cells.add(&other.cells);
    }
}

impl CellBanked for L0Detector {
    fn banks(&self) -> Vec<&CellBank> {
        vec![&self.cells]
    }

    fn banks_mut(&mut self) -> Vec<&mut CellBank> {
        vec![&mut self.cells]
    }

    fn fingerprints(&self) -> Vec<M61> {
        Vec::new()
    }

    fn fingerprints_mut(&mut self) -> Vec<&mut M61> {
        Vec::new()
    }
}

/// Uniform ℓ0-sampler (Theorem 2.1).
///
/// ```
/// use gs_sketch::{L0Sampler, L0Result};
/// let mut s = L0Sampler::new(1 << 20, 7);
/// for i in 0..100u64 { s.update(i * 37, 1); }
/// match s.query() {
///     L0Result::Sample(i, v) => assert!(i % 37 == 0 && v == 1),
///     other => panic!("{other:?}"),
/// }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct L0Sampler {
    domain: u64,
    levels: u32,
    /// Per-level recovery sparsity `s`.
    s: usize,
    seed: u64,
    kind: BackendKind,
    level_sketch: Vec<SparseRecovery>,
    level_hash: HashBackend,
    priority: HashBackend,
}

/// Default per-level recovery size. At the level where the support
/// subsample has expected size `s/2`, recovery succeeds except with
/// probability exponentially small in `s`.
const SAMPLER_SPARSITY: usize = 8;

impl L0Sampler {
    /// A uniform sampler over `[0, domain)`.
    pub fn new(domain: u64, seed: u64) -> Self {
        Self::with_params(domain, SAMPLER_SPARSITY, seed, BackendKind::Oracle)
    }

    /// Full-control constructor (wide lanes — no delta bound declared).
    pub fn with_params(domain: u64, s: usize, seed: u64, kind: BackendKind) -> Self {
        Self::with_width(domain, s, seed, kind, None)
    }

    /// As [`L0Sampler::with_params`], deriving each level recovery's
    /// lane widths from the caller's bound on `|delta|` per update (see
    /// [`LaneWidth::for_bounds`]; indices are `< domain`).
    pub fn with_bounds(
        domain: u64,
        s: usize,
        seed: u64,
        kind: BackendKind,
        max_abs_delta: u64,
    ) -> Self {
        Self::with_width(domain, s, seed, kind, Some(max_abs_delta))
    }

    fn with_width(
        domain: u64,
        s: usize,
        seed: u64,
        kind: BackendKind,
        max_abs_delta: Option<u64>,
    ) -> Self {
        assert!(domain >= 1 && s >= 1);
        let levels = level_count(domain);
        let level_sketch = (0..levels)
            .map(|l| {
                let lseed = seed ^ (0x4C31_0000 + l as u64);
                match max_abs_delta {
                    Some(d) => SparseRecovery::with_bounds(domain, s, lseed, kind, d),
                    None => SparseRecovery::with_kind(domain, s, lseed, kind),
                }
            })
            .collect();
        L0Sampler {
            domain,
            levels,
            s,
            seed,
            kind,
            level_sketch,
            level_hash: kind.backend(seed, 0x4C31_AAAA),
            priority: kind.backend(seed, 0x4C31_BBBB),
        }
    }

    /// The index-space size.
    pub fn domain(&self) -> u64 {
        self.domain
    }

    /// Sketch size in 1-sparse cells (across all level recoveries).
    pub fn cell_count(&self) -> usize {
        self.level_sketch.iter().map(|s| s.cell_count()).sum()
    }

    /// Applies `x[index] += delta`.
    pub fn update(&mut self, index: u64, delta: i64) {
        debug_assert!(index < self.domain);
        if delta == 0 {
            return;
        }
        let lmax = self.level_hash.subsample_level(index, self.levels - 1);
        for l in 0..=lmax {
            self.level_sketch[l as usize].update(index, delta);
        }
    }

    /// Draws a (near-)uniform support sample.
    ///
    /// Walks levels from the full vector downward; at the first level whose
    /// recovery succeeds the recovered set equals the level's subsample of
    /// the support, and the minimum-priority element is returned.
    pub fn query(&self) -> L0Result {
        for l in 0..self.levels as usize {
            match self.level_sketch[l].decode() {
                Some(items) if items.is_empty() => {
                    return if l == 0 {
                        L0Result::Empty
                    } else {
                        L0Result::Fail
                    };
                }
                Some(items) => {
                    let (&(i, v), _) = items
                        .iter()
                        .map(|e| (e, self.priority.hash64(e.0)))
                        .min_by_key(|&(_, p)| p)
                        .expect("non-empty");
                    return L0Result::Sample(i, v);
                }
                None => continue, // level still too dense; descend
            }
        }
        L0Result::Fail
    }
}

impl Mergeable for L0Sampler {
    fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.seed, other.seed,
            "merging samplers with different seeds"
        );
        assert_eq!(self.kind, other.kind);
        assert_eq!(self.domain, other.domain);
        assert_eq!(self.s, other.s);
        for (a, b) in self.level_sketch.iter_mut().zip(&other.level_sketch) {
            a.merge(b);
        }
    }
}

impl CellBanked for L0Sampler {
    fn banks(&self) -> Vec<&CellBank> {
        self.level_sketch.iter().flat_map(|s| s.banks()).collect()
    }

    fn banks_mut(&mut self) -> Vec<&mut CellBank> {
        self.level_sketch
            .iter_mut()
            .flat_map(|s| s.banks_mut())
            .collect()
    }

    fn fingerprints(&self) -> Vec<M61> {
        self.level_sketch
            .iter()
            .flat_map(|s| s.fingerprints())
            .collect()
    }

    fn fingerprints_mut(&mut self) -> Vec<&mut M61> {
        self.level_sketch
            .iter_mut()
            .flat_map(|s| s.fingerprints_mut())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_field::SplitMix64;
    use std::collections::{BTreeMap, HashSet};

    #[test]
    fn level_count_boundaries() {
        assert_eq!(level_count(1), 1);
        assert_eq!(level_count(2), 1);
        assert_eq!(level_count(3), 2);
        assert_eq!(level_count(4), 2);
        assert_eq!(level_count(5), 3);
        assert_eq!(level_count(1 << 20), 20);
        assert_eq!(level_count((1 << 20) + 1), 21);
        assert_eq!(level_count(u64::MAX), 64);
    }

    #[test]
    fn level_count_exact_powers_of_two() {
        // An exact power 2^k needs only k levels: the deepest index is
        // 2^k − 1. One past the power needs k + 1.
        for k in 1..=63u32 {
            let domain = 1u64 << k;
            assert_eq!(level_count(domain), k, "domain 2^{k}");
            if k < 63 {
                assert_eq!(level_count(domain + 1), k + 1, "domain 2^{k}+1");
            }
        }
    }

    #[test]
    fn level_count_extremes() {
        // domain = 1: the zero index still needs its full-vector cell.
        assert_eq!(level_count(1), 1);
        // The top of the u64 range saturates at 64 levels.
        assert_eq!(level_count(1 << 63), 63);
        assert_eq!(level_count((1 << 63) + 1), 64);
        assert_eq!(level_count(u64::MAX - 1), 64);
        assert_eq!(level_count(u64::MAX), 64);
    }

    #[test]
    fn detector_on_singleton_domain() {
        // domain = 1 is the degenerate one-level sketch: only index 0.
        let mut d = L0Detector::new(1, 5);
        assert_eq!(d.query(), L0Result::Empty);
        d.update(0, 4);
        assert_eq!(d.query(), L0Result::Sample(0, 4));
        d.update(0, -4);
        assert_eq!(d.query(), L0Result::Empty);
    }

    #[test]
    fn planned_updates_match_direct_updates() {
        // plan_update + apply_planned on same-seed detectors must be
        // bit-identical to per-detector update calls.
        let mut direct_a = L0Detector::new(1 << 16, 9);
        let mut direct_b = L0Detector::new(1 << 16, 9);
        let mut planned_a = L0Detector::new(1 << 16, 9);
        let mut planned_b = L0Detector::new(1 << 16, 9);
        let mut plan = DetectorPlan::default();
        for i in 0..200u64 {
            let idx = i * 131 % (1 << 16);
            let d = if i % 3 == 0 { -2 } else { 5 };
            direct_a.update(idx, d);
            direct_b.update(idx, -d);
            planned_a.plan_update(idx, &mut plan);
            planned_a.apply_planned(idx, d, &plan);
            planned_b.apply_planned(idx, -d, &plan);
        }
        assert_eq!(planned_a, direct_a);
        assert_eq!(planned_b, direct_b);
    }

    #[test]
    fn query_lanes_matches_query_on_summed_rows() {
        // The bank-level group query: summing two same-seed detectors'
        // lanes and decoding via query_lanes must equal merging the
        // detectors and querying — for empty, singleton, and dense sums.
        for (fill_a, fill_b) in [(0u64, 0u64), (1, 0), (120, 80)] {
            let mut a = L0Detector::new(1 << 14, 33);
            let mut b = L0Detector::new(1 << 14, 33);
            for i in 0..fill_a {
                a.update(i * 37 % (1 << 14), 2);
            }
            for i in 0..fill_b {
                b.update(i * 37 % (1 << 14), -2);
            }
            let len = a.cell_count();
            let mut w = vec![0i64; len];
            let mut s = vec![0i128; len];
            let mut f = vec![M61::ZERO; len];
            for d in [&a, &b] {
                d.banks()[0].accumulate(0..len, &mut w, &mut s, &mut f);
            }
            let mut merged = a.clone();
            merged.merge(&b);
            assert_eq!(
                a.query_lanes(&w, &s, &f),
                merged.query(),
                "fills ({fill_a},{fill_b})"
            );
        }
    }

    #[test]
    fn detector_empty_vector() {
        let d = L0Detector::new(1000, 1);
        assert_eq!(d.query(), L0Result::Empty);
        assert!(d.is_zero());
    }

    #[test]
    fn detector_finds_singleton() {
        let mut d = L0Detector::new(1000, 2);
        d.update(77, 3);
        assert_eq!(d.query(), L0Result::Sample(77, 3));
    }

    #[test]
    fn detector_cancellation_yields_empty() {
        let mut d = L0Detector::new(1 << 16, 3);
        for i in 0..500u64 {
            d.update(i * 3, 2);
        }
        for i in 0..500u64 {
            d.update(i * 3, -2);
        }
        assert_eq!(d.query(), L0Result::Empty);
    }

    #[test]
    fn detector_returns_true_support_members() {
        let mut rng = SplitMix64::new(7);
        let mut failures = 0;
        for trial in 0..300u64 {
            let mut d = L0Detector::new(1 << 20, trial);
            let support: HashSet<u64> = (0..1 + rng.next_range(200))
                .map(|_| rng.next_range(1 << 20))
                .collect();
            let mut truth: BTreeMap<u64, i64> = BTreeMap::new();
            for &i in &support {
                let v = 1 + rng.next_range(5) as i64;
                truth.insert(i, v);
                d.update(i, v);
            }
            match d.query() {
                L0Result::Sample(i, v) => {
                    assert_eq!(truth.get(&i), Some(&v), "returned non-member {i}");
                }
                L0Result::Fail => failures += 1,
                L0Result::Empty => panic!("non-empty vector reported Empty"),
            }
        }
        assert!(failures <= 18, "detector failed {failures}/300 times");
    }

    #[test]
    fn detector_merge_matches_whole_stream() {
        let mut a = L0Detector::new(4096, 9);
        let mut b = L0Detector::new(4096, 9);
        let mut whole = L0Detector::new(4096, 9);
        for i in 0..100u64 {
            a.update(i, 1);
            whole.update(i, 1);
        }
        for i in 0..99u64 {
            b.update(i, -1);
            whole.update(i, -1);
        }
        a.merge(&b);
        assert_eq!(a.query(), whole.query());
        assert_eq!(a.query(), L0Result::Sample(99, 1));
    }

    #[test]
    fn sampler_empty_vs_fail_distinction() {
        let s = L0Sampler::new(1 << 12, 4);
        assert_eq!(s.query(), L0Result::Empty);
    }

    #[test]
    fn sampler_small_support_recovered_exactly() {
        let mut s = L0Sampler::new(1 << 12, 5);
        s.update(100, 2);
        s.update(200, -3);
        // With support ≤ s the level-0 recovery is exact; the sample must
        // be one of the two true entries.
        match s.query() {
            L0Result::Sample(100, 2) | L0Result::Sample(200, -3) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sampler_rarely_fails_on_dense_support() {
        let mut failures = 0;
        for trial in 0..100u64 {
            let mut s = L0Sampler::new(1 << 16, trial * 31 + 1);
            for i in 0..3000u64 {
                s.update((i * 17) % (1 << 16), 1);
            }
            if matches!(s.query(), L0Result::Fail) {
                failures += 1;
            }
        }
        assert!(failures <= 5, "sampler failed {failures}/100 times");
    }

    #[test]
    fn sampler_uniformity_chi_square() {
        // Theorem 2.1's uniformity: sample from a fixed 16-element support
        // across many independent samplers; each element should appear with
        // frequency ≈ 1/16.
        let support: Vec<u64> = (0..16u64).map(|i| i * 137 + 11).collect();
        let mut counts: BTreeMap<u64, usize> = support.iter().map(|&i| (i, 0)).collect();
        let trials = 4000u64;
        let mut fails = 0;
        for t in 0..trials {
            let mut s = L0Sampler::new(1 << 12, t);
            for &i in &support {
                s.update(i, 1);
            }
            match s.query() {
                L0Result::Sample(i, 1) => *counts.get_mut(&i).expect("member") += 1,
                L0Result::Fail => fails += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(fails < trials as usize / 50);
        let expected = (trials as f64 - fails as f64) / 16.0;
        let chi2: f64 = counts
            .values()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // 15 degrees of freedom: P[chi2 > 37.7] < 0.001; allow margin.
        assert!(chi2 < 45.0, "chi-square {chi2:.1}, counts {counts:?}");
    }

    #[test]
    fn sampler_values_are_exact() {
        // Whatever index is sampled, the reported value must be the true
        // coordinate value (sampling is of (i, x_i) pairs, Theorem 2.1).
        let mut rng = SplitMix64::new(3);
        for trial in 0..200u64 {
            let mut s = L0Sampler::new(1 << 14, trial);
            let mut truth: BTreeMap<u64, i64> = BTreeMap::new();
            for _ in 0..50 {
                let i = rng.next_range(1 << 14);
                let v = rng.next_range(9) as i64 - 4;
                if v != 0 {
                    *truth.entry(i).or_insert(0) += v;
                    s.update(i, v);
                }
            }
            truth.retain(|_, v| *v != 0);
            if let L0Result::Sample(i, v) = s.query() {
                assert_eq!(truth.get(&i), Some(&v));
            }
        }
    }

    #[test]
    fn sampler_merge_compatible() {
        let mut a = L0Sampler::new(1024, 5);
        let mut b = L0Sampler::new(1024, 5);
        a.update(3, 1);
        b.update(3, -1);
        b.update(8, 4);
        a.merge(&b);
        assert_eq!(a.query(), L0Result::Sample(8, 4));
    }

    #[test]
    #[should_panic]
    fn sampler_merge_rejects_mismatched_domain() {
        let mut a = L0Sampler::new(1024, 5);
        let b = L0Sampler::new(2048, 5);
        a.merge(&b);
    }

    #[test]
    fn detector_memory_is_small() {
        // The detector must stay ~32 bytes per cell: reps × levels cells.
        let d = L0Detector::new(1 << 20, 1);
        assert_eq!(d.cell_count(), DETECTOR_REPS * 20);
    }
}
