//! `k-RECOVERY` — exact sparse recovery (Theorem 2.2).
//!
//! > *"There exists a sketch-based algorithm, k-RECOVERY, that recovers `x`
//! > exactly with high probability if `x` has at most `k` non-zero entries
//! > and outputs FAIL otherwise. The algorithm uses O(k log n) space."*
//!
//! Construction: `rows` independent hash partitions of the index space into
//! `2k` buckets, each bucket a [`OneSparseCell`], decoded by *peeling*
//! (recover a certified singleton, subtract it everywhere — the sketch is
//! linear so subtraction is exact — and repeat). A global verification
//! fingerprint `Σ x_i·g(i)` over `F_{2^61−1}` certifies complete recovery:
//! decode succeeds only if the residual sketch is identically zero, so a
//! hash false positive during peeling yields `FAIL`, never a wrong answer
//! (with probability ≥ 1 − O(k)/p).
//!
//! This structure plays two roles in the paper: recovering the edges that
//! cross a Gomory–Hu cut in the `SPARSIFICATION` algorithm (Fig. 3, step
//! 4c), and recovering all incident edges of low-degree vertices in the
//! `RECURSECONNECT` spanner (§5.1, step 2).

use crate::bank::{BankGeometry, CellBank, CellBanked};
use crate::lane::LaneWidth;
use crate::one_sparse::{OneSparseCell, OneSparseState};
use crate::Mergeable;
use gs_field::{BackendKind, HashBackend, Randomness, M61};

/// Sketch-side state of `k-RECOVERY`.
///
/// ```
/// use gs_sketch::SparseRecovery;
/// let mut s = SparseRecovery::new(1_000_000, 4, 42);
/// s.update(17, 5);
/// s.update(999_999, -2);
/// s.update(17, -5); // cancels the first update
/// assert_eq!(s.decode(), Some(vec![(999_999, -2)]));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparseRecovery {
    domain: u64,
    k: usize,
    rows: usize,
    buckets: usize,
    seed: u64,
    kind: BackendKind,
    /// `rows × 1 × buckets` cell bank, row-major.
    cells: CellBank,
    /// Residual verification fingerprint Σ x_i·g(i).
    fp: M61,
    /// Shared fingerprint hash `h` for the 1-sparse cells.
    finger: HashBackend,
    /// Verification hash `g` (independent of `h`).
    verify: HashBackend,
    /// Bucket-assignment hash per row.
    row_hash: Vec<HashBackend>,
}

/// Number of peeling rows. Peeling stalls only if some subset of entries
/// collides within a bucket in *every* row; with `B = max(2k, 8)` buckets
/// the dominant term is a single pair colliding everywhere, probability
/// `≤ C(k,2)·B^{−rows}` — below 10⁻³ for all k at four rows. Callers that
/// need smaller failure probabilities repeat the whole sketch (as the
/// paper's `O(log n)` factors do).
const DEFAULT_ROWS: usize = 4;

/// The hash work of one recovery update, computed once per index and
/// reusable by [`SparseRecovery::apply_planned`] on **any recovery built
/// from the same seed** (the per-level node recoveries of Fig. 3 all share
/// one seed per level — they must, to be summable per cut).
#[derive(Clone, Debug, Default)]
pub struct RecoveryPlan {
    /// Cell fingerprint hash value `h(index)`.
    hf: M61,
    /// Verification hash value `g(index)`.
    hv: M61,
    /// Bucket of the index in each row.
    buckets: Vec<u32>,
}

impl SparseRecovery {
    /// A `k-RECOVERY` sketch over indices `[0, domain)` under the oracle
    /// backend.
    pub fn new(domain: u64, k: usize, seed: u64) -> Self {
        Self::with_kind(domain, k, seed, BackendKind::Oracle)
    }

    /// As [`SparseRecovery::new`] with an explicit randomness regime
    /// (wide lanes — no delta bound declared).
    pub fn with_kind(domain: u64, k: usize, seed: u64, kind: BackendKind) -> Self {
        Self::with_width(domain, k, seed, kind, LaneWidth::WIDE)
    }

    /// As [`SparseRecovery::with_kind`], deriving the lane widths from
    /// the caller's bound on `|delta|` per update (see
    /// [`LaneWidth::for_bounds`]; indices are `< domain`).
    pub fn with_bounds(
        domain: u64,
        k: usize,
        seed: u64,
        kind: BackendKind,
        max_abs_delta: u64,
    ) -> Self {
        let width = LaneWidth::for_bounds(domain.saturating_sub(1), max_abs_delta);
        Self::with_width(domain, k, seed, kind, width)
    }

    fn with_width(domain: u64, k: usize, seed: u64, kind: BackendKind, width: LaneWidth) -> Self {
        assert!(k >= 1, "sparsity must be at least 1");
        let rows = DEFAULT_ROWS;
        let buckets = (2 * k).max(8);
        let finger = kind.backend(seed, 0x5253_0001);
        let verify = kind.backend(seed, 0x5253_0002);
        let row_hash = (0..rows)
            .map(|r| kind.backend(seed, 0x5253_0100 + r as u64))
            .collect();
        SparseRecovery {
            domain,
            k,
            rows,
            buckets,
            seed,
            kind,
            cells: CellBank::with_width(BankGeometry::new(rows, 1, buckets), width),
            fp: M61::ZERO,
            finger,
            verify,
            row_hash,
        }
    }

    /// The index-space size this sketch measures.
    pub fn domain(&self) -> u64 {
        self.domain
    }

    /// The sparsity bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Applies `x[index] += delta`: the fingerprint and verification
    /// hashes are computed once and fanned into one bucket per row.
    ///
    /// # Panics
    /// Panics if `index ≥ domain`.
    pub fn update(&mut self, index: u64, delta: i64) {
        assert!(
            index < self.domain,
            "index {index} out of domain {}",
            self.domain
        );
        if delta == 0 {
            return;
        }
        self.fp += M61::from_i64(delta) * self.verify.hash_m61(index);
        let (dw, ds, df) = CellBank::deltas(index, delta, self.finger.hash_m61(index));
        for r in 0..self.rows {
            let b = self.row_hash[r].hash_range(index, self.buckets as u64) as usize;
            self.cells.apply(r * self.buckets + b, dw, ds, df);
        }
    }

    /// Computes the hash work of an update of `index` into `plan`,
    /// reusable by [`SparseRecovery::apply_planned`] on **any recovery
    /// built from the same seed**. The plan's buffers are recycled across
    /// calls — hold one plan per batch loop.
    pub fn plan_update(&self, index: u64, plan: &mut RecoveryPlan) {
        plan.hf = self.finger.hash_m61(index);
        plan.hv = self.verify.hash_m61(index);
        plan.buckets.clear();
        plan.buckets.extend(
            self.row_hash
                .iter()
                .map(|h| h.hash_range(index, self.buckets as u64) as u32),
        );
    }

    /// Applies `x[index] += delta` using hashes precomputed by
    /// [`SparseRecovery::plan_update`] on a same-seed recovery.
    /// Bit-identical to [`SparseRecovery::update`].
    pub fn apply_planned(&mut self, index: u64, delta: i64, plan: &RecoveryPlan) {
        debug_assert!(index < self.domain && delta != 0);
        debug_assert_eq!(plan.buckets.len(), self.rows, "plan from a different shape");
        self.fp += M61::from_i64(delta) * plan.hv;
        let (dw, ds, df) = CellBank::deltas(index, delta, plan.hf);
        for (r, &b) in plan.buckets.iter().enumerate() {
            self.cells.apply(r * self.buckets + b as usize, dw, ds, df);
        }
    }

    /// `true` iff the sketch certifies the all-zero vector.
    pub fn is_zero(&self) -> bool {
        self.fp.is_zero() && self.cells.is_zero()
    }

    /// Attempts exact recovery. Returns the non-zero entries (sorted by
    /// index) if the summarized vector is `≤ k`-sparse — in fact peeling
    /// often succeeds somewhat beyond `k` — or `None` (`FAIL`) otherwise.
    pub fn decode(&self) -> Option<Vec<(u64, i64)>> {
        Self::decode_sum([self])
    }

    /// The peeling decoder over bare measurement lanes — the decode half
    /// of the bank-level batched group query. Callers sum whole recovery
    /// banks with [`CellBank::accumulate`] and peel the accumulators
    /// directly, instead of cloning and merging whole `SparseRecovery`
    /// structures per query. Bit-identical to overlaying the lanes onto a
    /// same-seed recovery and calling [`SparseRecovery::decode`].
    fn peel_lanes(
        &self,
        mut w: Vec<i64>,
        mut s: Vec<i128>,
        mut f: Vec<M61>,
        mut fp: M61,
    ) -> Option<Vec<(u64, i64)>> {
        debug_assert!(w.len() == self.cells.len() && s.len() == w.len() && f.len() == w.len());
        let mut out: Vec<(u64, i64)> = Vec::new();
        // Each successful peel strictly reduces the support; cap defensively.
        let max_iters = 2 * self.buckets + 8;
        for _ in 0..max_iters {
            let residual_zero = fp.is_zero()
                && w.iter().all(|&x| x == 0)
                && s.iter().all(|&x| x == 0)
                && f.iter().all(|x| x.is_zero());
            if residual_zero {
                out.sort_unstable_by_key(|&(i, _)| i);
                return Some(out);
            }
            let mut progress = false;
            'scan: for idx in 0..w.len() {
                if let OneSparseState::One(i, v) = OneSparseCell::from_parts(w[idx], s[idx], f[idx])
                    .decode(self.domain, &self.finger)
                {
                    // Subtract the recovered entry from every row and from
                    // the verification fingerprint, hashing `i` once.
                    fp -= M61::from_i64(v) * self.verify.hash_m61(i);
                    let (dw, ds, df) = CellBank::deltas(i, -v, self.finger.hash_m61(i));
                    for r in 0..self.rows {
                        let b = self.row_hash[r].hash_range(i, self.buckets as u64) as usize;
                        let cell = r * self.buckets + b;
                        w[cell] += dw;
                        s[cell] += ds;
                        f[cell] += df;
                    }
                    out.push((i, v));
                    progress = true;
                    break 'scan;
                }
            }
            if !progress {
                return None; // FAIL: stuck with non-zero residual.
            }
        }
        None
    }

    /// Decodes the *sum* of several compatible sketches without mutating
    /// them — the linear-composition step of Fig. 3:
    /// `Σ_{u∈A} k-RECOVERY(x^u) = k-RECOVERY(Σ_{u∈A} x^u)`.
    ///
    /// The lanes are summed with the [`CellBank::accumulate`] kernel and
    /// peeled in place — no whole-structure clones or merges per query,
    /// which is what keeps the per-cut recovery sums of Fig. 3 step 4c
    /// cheap enough to fan out across decode threads.
    ///
    /// # Panics
    /// Panics if the sketches were built with different seeds, backends,
    /// domains, or sparsity (they would not sum to a measurement of one
    /// projection).
    pub fn decode_sum<'a>(
        sketches: impl IntoIterator<Item = &'a SparseRecovery>,
    ) -> Option<Vec<(u64, i64)>> {
        let mut iter = sketches.into_iter();
        let first = iter.next()?;
        let len = first.cells.len();
        let mut w = vec![0i64; len];
        let mut s = vec![0i128; len];
        let mut f = vec![M61::ZERO; len];
        let mut fp = M61::ZERO;
        for sk in std::iter::once(first).chain(iter) {
            assert_eq!(first.seed, sk.seed, "summing sketches with different seeds");
            assert_eq!(
                first.kind, sk.kind,
                "summing sketches with different backends"
            );
            assert_eq!(
                first.domain, sk.domain,
                "summing sketches with different domains"
            );
            assert_eq!(first.k, sk.k, "summing sketches with different sparsity");
            sk.cells.accumulate(0..len, &mut w, &mut s, &mut f);
            fp += sk.fp;
        }
        first.peel_lanes(w, s, f, fp)
    }
}

impl Mergeable for SparseRecovery {
    fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.seed, other.seed,
            "merging sketches with different seeds"
        );
        assert_eq!(
            self.kind, other.kind,
            "merging sketches with different backends"
        );
        assert_eq!(
            self.domain, other.domain,
            "merging sketches with different domains"
        );
        assert_eq!(self.k, other.k, "merging sketches with different sparsity");
        self.cells.add(&other.cells);
        self.fp += other.fp;
    }
}

impl CellBanked for SparseRecovery {
    fn banks(&self) -> Vec<&CellBank> {
        vec![&self.cells]
    }

    fn banks_mut(&mut self) -> Vec<&mut CellBank> {
        vec![&mut self.cells]
    }

    fn fingerprints(&self) -> Vec<M61> {
        vec![self.fp]
    }

    fn fingerprints_mut(&mut self) -> Vec<&mut M61> {
        vec![&mut self.fp]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_field::SplitMix64;
    use std::collections::BTreeMap;

    fn recover_exact(domain: u64, k: usize, entries: &[(u64, i64)]) -> Option<Vec<(u64, i64)>> {
        let mut s = SparseRecovery::new(domain, k, 0xabcd);
        for &(i, v) in entries {
            s.update(i, v);
        }
        s.decode()
    }

    #[test]
    fn empty_vector_recovers_empty() {
        assert_eq!(recover_exact(1000, 4, &[]), Some(vec![]));
    }

    #[test]
    fn singleton_recovers() {
        assert_eq!(recover_exact(1000, 4, &[(17, 5)]), Some(vec![(17, 5)]));
    }

    #[test]
    fn k_entries_recover_sorted() {
        let got = recover_exact(1000, 4, &[(900, -2), (3, 7), (501, 1), (77, 4)]);
        assert_eq!(got, Some(vec![(3, 7), (77, 4), (501, 1), (900, -2)]));
    }

    #[test]
    fn deletions_cancel() {
        let got = recover_exact(
            1000,
            3,
            &[(1, 5), (2, 3), (1, -5), (9, 1), (2, -3), (9, -1), (4, 2)],
        );
        assert_eq!(got, Some(vec![(4, 2)]));
    }

    #[test]
    fn overfull_vector_fails() {
        // 40 entries into a k = 4 sketch must FAIL, not fabricate.
        let entries: Vec<(u64, i64)> = (0..40).map(|i| (i * 7 + 1, 1)).collect();
        assert_eq!(recover_exact(1000, 4, &entries), None);
    }

    #[test]
    fn repeated_updates_to_same_index_accumulate() {
        let got = recover_exact(100, 2, &[(5, 1), (5, 1), (5, 1)]);
        assert_eq!(got, Some(vec![(5, 3)]));
    }

    #[test]
    #[should_panic]
    fn out_of_domain_update_panics() {
        let mut s = SparseRecovery::new(10, 2, 1);
        s.update(10, 1);
    }

    #[test]
    fn is_zero_tracks_cancellation() {
        let mut s = SparseRecovery::new(100, 2, 7);
        assert!(s.is_zero());
        s.update(3, 4);
        assert!(!s.is_zero());
        s.update(3, -4);
        assert!(s.is_zero());
    }

    #[test]
    fn merge_equals_concatenated_stream() {
        let mut a = SparseRecovery::new(500, 5, 42);
        let mut b = SparseRecovery::new(500, 5, 42);
        let mut whole = SparseRecovery::new(500, 5, 42);
        let updates_a = [(4u64, 2i64), (99, -1), (250, 6)];
        let updates_b = [(99u64, 1i64), (4, -2), (301, 3)];
        for &(i, v) in &updates_a {
            a.update(i, v);
            whole.update(i, v);
        }
        for &(i, v) in &updates_b {
            b.update(i, v);
            whole.update(i, v);
        }
        a.merge(&b);
        assert_eq!(a.decode(), whole.decode());
        assert_eq!(a.decode(), Some(vec![(250, 6), (301, 3)]));
    }

    #[test]
    #[should_panic]
    fn merge_rejects_different_seeds() {
        let mut a = SparseRecovery::new(100, 2, 1);
        let b = SparseRecovery::new(100, 2, 2);
        a.merge(&b);
    }

    #[test]
    fn decode_sum_matches_pairwise_merge() {
        let mk = |entries: &[(u64, i64)]| {
            let mut s = SparseRecovery::new(200, 6, 9);
            for &(i, v) in entries {
                s.update(i, v);
            }
            s
        };
        let s1 = mk(&[(1, 1), (2, 1)]);
        let s2 = mk(&[(2, -1), (3, 5)]);
        let s3 = mk(&[(1, -1), (7, 2)]);
        let got = SparseRecovery::decode_sum([&s1, &s2, &s3]).unwrap();
        assert_eq!(got, vec![(3, 5), (7, 2)]);
    }

    #[test]
    fn random_battery_exact_or_fail() {
        // Recovery must never return a wrong vector: either the exact
        // truth or FAIL, across random supports straddling k.
        let mut rng = SplitMix64::new(0x5eed);
        let mut successes_within_k = 0;
        let mut trials_within_k = 0;
        for trial in 0..400u64 {
            let k = 1 + (trial % 8) as usize;
            let support = 1 + rng.next_range(2 * k as u64) as usize;
            let domain = 10_000u64;
            let mut s = SparseRecovery::new(domain, k, trial);
            let mut truth: BTreeMap<u64, i64> = BTreeMap::new();
            for _ in 0..support {
                let i = rng.next_range(domain);
                let v = rng.next_range(19) as i64 - 9;
                if v != 0 {
                    *truth.entry(i).or_insert(0) += v;
                    s.update(i, v);
                }
            }
            truth.retain(|_, v| *v != 0);
            let expected: Vec<(u64, i64)> = truth.into_iter().collect();
            if let Some(got) = s.decode() {
                assert_eq!(got, expected, "trial {trial}")
            }
            if expected.len() <= k {
                trials_within_k += 1;
                if s.decode().is_some() {
                    successes_within_k += 1;
                }
            }
        }
        // Theorem 2.2: recovery succeeds w.h.p. when the vector is
        // k-sparse. With four rows the per-trial failure probability is
        // ≲ 10⁻³; allow a small number of FAILs but never a wrong answer.
        assert!(
            trials_within_k - successes_within_k <= 3,
            "{} FAILs in {} within-k trials",
            trials_within_k - successes_within_k,
            trials_within_k
        );
    }

    #[test]
    fn nisan_backend_behaves_like_oracle() {
        for kind in [BackendKind::Oracle, BackendKind::Nisan] {
            let mut s = SparseRecovery::with_kind(1000, 3, 5, kind);
            s.update(10, 1);
            s.update(20, 2);
            s.update(30, -3);
            assert_eq!(s.decode(), Some(vec![(10, 1), (20, 2), (30, -3)]));
        }
    }

    #[test]
    fn planned_updates_match_direct_updates() {
        // plan_update + apply_planned on same-seed recoveries must be
        // bit-identical to per-recovery update calls (the Fig. 3 shape:
        // many node recoveries sharing one projection).
        let mut direct_a = SparseRecovery::new(5000, 4, 77);
        let mut direct_b = SparseRecovery::new(5000, 4, 77);
        let mut planned_a = SparseRecovery::new(5000, 4, 77);
        let mut planned_b = SparseRecovery::new(5000, 4, 77);
        let mut plan = RecoveryPlan::default();
        for i in 0..100u64 {
            let idx = (i * 97) % 5000;
            let d = if i % 4 == 0 { -3 } else { 2 };
            direct_a.update(idx, d);
            direct_b.update(idx, -d);
            planned_a.plan_update(idx, &mut plan);
            planned_a.apply_planned(idx, d, &plan);
            planned_b.apply_planned(idx, -d, &plan);
        }
        assert_eq!(planned_a, direct_a);
        assert_eq!(planned_b, direct_b);
        assert_eq!(planned_a.decode(), direct_a.decode());
    }

    #[test]
    fn clone_is_independent() {
        let mut s = SparseRecovery::new(300, 3, 11);
        s.update(42, -7);
        let snapshot = s.clone();
        s.update(128, 2);
        assert_eq!(snapshot.decode(), Some(vec![(42, -7)]));
        assert_eq!(s.decode(), Some(vec![(42, -7), (128, 2)]));
    }
}
