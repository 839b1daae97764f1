//! 1-sparse recovery: the constant-size cell all larger sketches bucket
//! into.
//!
//! A cell summarizes a dynamic vector `x ∈ Z^N` with three linear
//! measurements:
//!
//! ```text
//! w = Σ_i x_i            (total weight)
//! s = Σ_i i · x_i        (index-weighted sum)
//! f = Σ_i x_i · h(i)     (fingerprint over F_{2^61−1})
//! ```
//!
//! If `x` has exactly one non-zero entry `x_j = v`, then `w = v`,
//! `s = j·v`, `f = v·h(j)`, so the cell *decodes* `(j, v) = (s/w, w)` and
//! the fingerprint check `f = w·h(s/w)` certifies the decode. A vector with
//! ≥ 2 non-zeros passes the check with probability ≤ 2/p under the oracle
//! assumption on `h` (a false positive requires `Σ x_i h(i) = w·h(j*)` for
//! the forged index `j*`, a single linear constraint on the hash values).
//!
//! The classical fingerprint `Σ x_i r^i` costs `O(log i)` field
//! multiplications per update; using a keyed hash `h(i)` instead is `O(1)`
//! per update with the same failure bound (documented substitution, see
//! DESIGN.md §4.2).

use gs_field::{Randomness, M61};

/// Decode outcome of a [`OneSparseCell`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OneSparseState {
    /// The summarized vector is (certified) identically zero.
    Zero,
    /// The vector has exactly one non-zero entry `(index, value)`.
    One(u64, i64),
    /// The vector has ≥ 2 non-zero entries (or a hash false positive).
    Many,
}

/// A constant-size linear summary that recovers 1-sparse vectors.
///
/// The fingerprint hash is *shared* by all cells of an enclosing structure
/// and passed to [`update`](OneSparseCell::update) /
/// [`decode`](OneSparseCell::decode) by reference, keeping the cell at 32
/// bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OneSparseCell {
    /// Σ x_i. Fits i64: graph streams never exceed |multiplicity| ≤ 2^40.
    w: i64,
    /// Σ i·x_i. i128 because indices range up to C(n,k) ≈ 2^64.
    s: i128,
    /// Σ x_i·h(i) over F_{2^61−1}.
    f: M61,
}

impl OneSparseCell {
    /// A fresh cell summarizing the zero vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reassembles a cell from its three measurements (the bank's
    /// struct-of-arrays view, see [`crate::bank::CellBank`]).
    #[inline]
    pub fn from_parts(w: i64, s: i128, f: M61) -> Self {
        OneSparseCell { w, s, f }
    }

    /// The three measurements `(w, s, f)`.
    #[inline]
    pub fn parts(&self) -> (i64, i128, M61) {
        (self.w, self.s, self.f)
    }

    /// Applies `x[index] += delta`.
    ///
    /// The `s` accumulator is `i128` because indices range up to
    /// `C(n,2) ≈ 2^64`: a single term `index · delta` is bounded by
    /// `2^64 · 2^63 < 2^127`, so one update can never overflow, and the
    /// running sum is overflow-checked in debug builds (reaching 2^127
    /// would take ≈ 2^63 same-sign maximal updates).
    #[inline]
    pub fn update(&mut self, index: u64, delta: i64, h: &impl Randomness) {
        self.w += delta;
        let ds = index as i128 * delta as i128;
        #[cfg(debug_assertions)]
        {
            self.s = self
                .s
                .checked_add(ds)
                .expect("1-sparse index-sum overflowed i128");
        }
        #[cfg(not(debug_assertions))]
        {
            self.s += ds;
        }
        self.f += M61::from_i64(delta) * h.hash_m61(index);
    }

    /// `true` iff all three measurements are zero. For a non-adversarial
    /// stream this certifies the zero vector (a non-zero vector collides to
    /// all-zero with probability ≤ 1/p).
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.w == 0 && self.s == 0 && self.f.is_zero()
    }

    /// Attempts 1-sparse decoding; `domain` bounds valid indices.
    pub fn decode(&self, domain: u64, h: &impl Randomness) -> OneSparseState {
        if self.is_zero() {
            return OneSparseState::Zero;
        }
        if self.w == 0 {
            return OneSparseState::Many;
        }
        // One division instead of a `%` + `/` pair, in i64 whenever `s`
        // fits (every edge-domain workload; i128 division is a libcall
        // and this runs once per scanned cell on the decode hot path).
        // `q·w = s − s%w` never exceeds `|s|`, so the product is safe.
        // The one i64 quotient that overflows — `i64::MIN / −1`, which a
        // hostile wire lane can place here — takes the i128 branch.
        let idx: i128 = match i64::try_from(self.s) {
            Ok(s64) if !(self.w == -1 && s64 == i64::MIN) => {
                let q = s64 / self.w;
                if q * self.w != s64 {
                    return OneSparseState::Many;
                }
                q as i128
            }
            _ => {
                let w = self.w as i128;
                let q = self.s / w;
                if q * w != self.s {
                    return OneSparseState::Many;
                }
                q
            }
        };
        if idx < 0 || idx >= domain as i128 {
            return OneSparseState::Many;
        }
        let idx = idx as u64;
        if self.f == M61::from_i64(self.w) * h.hash_m61(idx) {
            OneSparseState::One(idx, self.w)
        } else {
            OneSparseState::Many
        }
    }

    /// Linear combination: adds another cell's measurements.
    #[inline]
    pub fn add(&mut self, other: &OneSparseCell) {
        self.w += other.w;
        self.s += other.s;
        self.f += other.f;
    }

    /// The total-weight measurement Σ x_i (useful as a free ℓ1 probe).
    pub fn weight(&self) -> i64 {
        self.w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_field::OracleHash;

    fn h() -> OracleHash {
        OracleHash::new(0xfeed, 1)
    }

    #[test]
    fn hostile_extreme_measurements_decode_many_without_panicking() {
        // w = −1 with s = i64::MIN is the one operand pair whose i64
        // quotient overflows (i64::MIN / −1); a wire lane is raw bytes,
        // so a hostile file can place exactly these values in a cell.
        // Decode must answer Many (the fingerprint can't certify it),
        // never panic — regression for the fast-path division.
        let hostile = OneSparseCell::from_parts(-1, i128::from(i64::MIN), M61::new(7));
        assert_eq!(hostile.decode(1 << 20, &h()), OneSparseState::Many);
        // Same pair one step away stays on the fast path and is Many too.
        let near = OneSparseCell::from_parts(-1, i128::from(i64::MIN + 1), M61::new(7));
        assert_eq!(near.decode(1 << 20, &h()), OneSparseState::Many);
        // And an honest negative singleton still decodes on both paths.
        let mut cell = OneSparseCell::new();
        cell.update(42, -3, &h());
        assert_eq!(cell.decode(1 << 20, &h()), OneSparseState::One(42, -3));
    }

    #[test]
    fn zero_vector_decodes_zero() {
        let c = OneSparseCell::new();
        assert_eq!(c.decode(100, &h()), OneSparseState::Zero);
        assert!(c.is_zero());
    }

    #[test]
    fn singleton_decodes() {
        let h = h();
        let mut c = OneSparseCell::new();
        c.update(42, 7, &h);
        assert_eq!(c.decode(100, &h), OneSparseState::One(42, 7));
    }

    #[test]
    fn singleton_with_negative_value_decodes() {
        let h = h();
        let mut c = OneSparseCell::new();
        c.update(13, -3, &h);
        assert_eq!(c.decode(100, &h), OneSparseState::One(13, -3));
    }

    #[test]
    fn index_zero_is_representable() {
        let h = h();
        let mut c = OneSparseCell::new();
        c.update(0, 5, &h);
        assert_eq!(c.decode(100, &h), OneSparseState::One(0, 5));
    }

    #[test]
    fn cancellation_returns_to_zero() {
        let h = h();
        let mut c = OneSparseCell::new();
        for i in 0..50u64 {
            c.update(i, 3, &h);
        }
        for i in 0..50u64 {
            c.update(i, -3, &h);
        }
        assert_eq!(c.decode(100, &h), OneSparseState::Zero);
    }

    #[test]
    fn partial_cancellation_leaves_singleton() {
        let h = h();
        let mut c = OneSparseCell::new();
        c.update(10, 4, &h);
        c.update(20, 9, &h);
        c.update(10, -4, &h);
        assert_eq!(c.decode(100, &h), OneSparseState::One(20, 9));
    }

    #[test]
    fn two_sparse_detected_as_many() {
        let h = h();
        let mut c = OneSparseCell::new();
        c.update(10, 1, &h);
        c.update(20, 1, &h);
        assert_eq!(c.decode(100, &h), OneSparseState::Many);
    }

    #[test]
    fn many_with_zero_weight_detected() {
        // w = 0 but vector non-zero: the classic trap for sum-only schemes.
        let h = h();
        let mut c = OneSparseCell::new();
        c.update(10, 5, &h);
        c.update(20, -5, &h);
        assert_eq!(c.decode(100, &h), OneSparseState::Many);
    }

    #[test]
    fn aligned_two_sparse_rejected_by_fingerprint() {
        // x[10] = 1, x[30] = 1 → w = 2, s = 40, s/w = 20: a well-formed
        // forged index. Only the fingerprint catches this.
        let h = h();
        let mut c = OneSparseCell::new();
        c.update(10, 1, &h);
        c.update(30, 1, &h);
        assert_eq!(c.decode(100, &h), OneSparseState::Many);
    }

    #[test]
    fn out_of_domain_index_rejected() {
        let h = h();
        let mut c = OneSparseCell::new();
        c.update(99, 2, &h);
        assert_eq!(c.decode(50, &h), OneSparseState::Many);
        assert_eq!(c.decode(100, &h), OneSparseState::One(99, 2));
    }

    #[test]
    fn add_is_stream_concatenation() {
        let h = h();
        let mut a = OneSparseCell::new();
        let mut b = OneSparseCell::new();
        let mut whole = OneSparseCell::new();
        for (i, d) in [(3u64, 5i64), (9, -2), (3, -5), (7, 1)] {
            whole.update(i, d, &h);
        }
        a.update(3, 5, &h);
        a.update(9, -2, &h);
        b.update(3, -5, &h);
        b.update(7, 1, &h);
        a.add(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn random_battery_never_misdecodes() {
        // Across many random multi-sparse vectors, decode must never return
        // One with a wrong (index, value).
        use gs_field::SplitMix64;
        let h = h();
        let mut rng = SplitMix64::new(99);
        for trial in 0..2000 {
            let support = 1 + (trial % 5);
            let mut c = OneSparseCell::new();
            let mut truth = std::collections::BTreeMap::new();
            for _ in 0..support {
                let i = rng.next_range(1000);
                let v = rng.next_range(9) as i64 - 4;
                if v != 0 {
                    *truth.entry(i).or_insert(0i64) += v;
                    c.update(i, v, &h);
                }
            }
            truth.retain(|_, v| *v != 0);
            match c.decode(1000, &h) {
                OneSparseState::Zero => assert!(truth.is_empty()),
                OneSparseState::One(i, v) => {
                    assert_eq!(truth.len(), 1);
                    let (&ti, &tv) = truth.iter().next().unwrap();
                    assert_eq!((i, v), (ti, tv));
                }
                OneSparseState::Many => assert!(truth.len() >= 2),
            }
        }
    }

    #[test]
    fn large_indices_do_not_overflow() {
        let h = h();
        let mut c = OneSparseCell::new();
        let big = u64::MAX - 1;
        c.update(big, 1 << 40, &h);
        assert_eq!(c.decode(u64::MAX, &h), OneSparseState::One(big, 1 << 40));
    }

    #[test]
    fn i128_accumulation_near_index_ceiling() {
        // Repeated maximal-magnitude updates at an index near the C(n,2)
        // ceiling (≈ 2^64) must accumulate in i128 without overflow and
        // still cancel exactly. Each term is ≈ 2^64 · 2^40 = 2^104; fifty
        // same-sign terms stay far below 2^127.
        let h = h();
        let mut c = OneSparseCell::new();
        let idx = u64::MAX - 3;
        for _ in 0..50 {
            c.update(idx, 1 << 40, &h);
        }
        assert_eq!(c.decode(u64::MAX, &h), OneSparseState::One(idx, 50 << 40));
        for _ in 0..50 {
            c.update(idx, -(1 << 40), &h);
        }
        assert_eq!(c.decode(u64::MAX, &h), OneSparseState::Zero);
        assert!(c.is_zero());
    }

    #[test]
    fn i128_mixed_sign_terms_at_the_ceiling() {
        // Alternating extreme terms exercise both signs of the i128
        // accumulator near its maximal per-update magnitude.
        let h = h();
        let mut c = OneSparseCell::new();
        let (a, b) = (u64::MAX - 1, u64::MAX / 2);
        c.update(a, i64::MAX / 2, &h);
        c.update(b, -(i64::MAX / 2), &h);
        assert_eq!(c.decode(u64::MAX, &h), OneSparseState::Many);
        c.update(a, -(i64::MAX / 2), &h);
        assert_eq!(
            c.decode(u64::MAX, &h),
            OneSparseState::One(b, -(i64::MAX / 2))
        );
    }

    #[test]
    fn parts_round_trip() {
        let h = h();
        let mut c = OneSparseCell::new();
        c.update(19, -4, &h);
        let (w, s, f) = c.parts();
        assert_eq!(OneSparseCell::from_parts(w, s, f), c);
    }
}
