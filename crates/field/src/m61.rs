//! Arithmetic in the Mersenne-prime field `F_p`, `p = 2^61 − 1`.
//!
//! This field backs every fingerprint in the sketch layer: 1-sparse
//! verification (Theorem 2.2's `k-RECOVERY` uses it per bucket), the global
//! residual fingerprints of sparse recovery, and the polynomial hash
//! families of [`crate::kwise`]. The Mersenne structure allows reduction
//! without division.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// The field modulus `2^61 − 1` (a Mersenne prime).
pub const P: u64 = (1u64 << 61) - 1;

/// An element of `F_{2^61−1}`, kept reduced to `[0, P)`.
///
/// `repr(transparent)`: an `M61` is exactly one `u64` in memory, so a
/// zeroed `u64` allocation can become a lane of field elements in place
/// ([`M61::zeroed_vec`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(transparent)]
pub struct M61(u64);

impl M61 {
    /// The additive identity.
    pub const ZERO: M61 = M61(0);
    /// The multiplicative identity.
    pub const ONE: M61 = M61(1);

    /// Builds a field element, reducing `x` modulo `P`.
    ///
    /// Division-free: `2^61 ≡ 1 (mod P)` folds the top three bits back
    /// into the low word (`x = hi·2^61 + lo ≡ hi + lo`), and one
    /// conditional subtract canonicalizes (`hi + lo ≤ P + 7 < 2P`). Equal
    /// to `x % P` for every `u64`.
    #[inline]
    pub fn new(x: u64) -> Self {
        let mut s = (x & P) + (x >> 61);
        if s >= P {
            s -= P;
        }
        M61(s)
    }

    /// Builds a field element from a signed integer (e.g. a sketch counter
    /// that may have gone negative through deletions).
    ///
    /// Hot-path note: sketch update deltas are overwhelmingly small, so
    /// the in-range cases avoid `rem_euclid`'s hardware division.
    #[inline]
    pub fn from_i64(x: i64) -> Self {
        const P_I64: i64 = P as i64;
        if x > -P_I64 && x < P_I64 {
            // Branch-free sign fix-up: adds P exactly when x is negative.
            M61((x + ((x >> 63) & P_I64)) as u64)
        } else {
            M61(x.rem_euclid(P_I64) as u64)
        }
    }

    /// Builds a field element from a 128-bit value.
    #[inline]
    pub fn from_u128(x: u128) -> Self {
        M61((x % P as u128) as u64)
    }

    /// The canonical representative in `[0, P)`.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }

    /// `true` iff this is the additive identity.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Fast reduction of a 128-bit product into `[0, P)` using the Mersenne
    /// identity `2^61 ≡ 1 (mod P)`.
    #[inline]
    fn reduce128(x: u128) -> u64 {
        // x = hi·2^61 + lo  ⇒  x ≡ hi + lo (mod P)
        let lo = (x as u64) & P;
        let hi = (x >> 61) as u64;
        let mut s = lo + hi;
        if s >= P {
            s -= P;
        }
        s
    }

    /// Modular exponentiation.
    pub fn pow(self, mut e: u64) -> Self {
        let mut base = self;
        let mut acc = M61::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc *= base;
            }
            base *= base;
            e >>= 1;
        }
        acc
    }

    /// Multiplicative inverse via Fermat's little theorem.
    ///
    /// # Panics
    /// Panics on zero.
    pub fn inv(self) -> Self {
        assert!(!self.is_zero(), "inverse of zero in F_{{2^61-1}}");
        self.pow(P - 2)
    }

    /// `len` zeros, allocated as `vec![0u64; len]` and cast in place.
    /// std builds a zero-filled `Vec` of a primitive through the
    /// allocator's zeroed path (`calloc`), which leaves a large buffer's
    /// pages unwritten until first use; `vec![M61::ZERO; len]` would write
    /// every element, because that path does not cover user types.
    #[allow(unsafe_code)]
    pub fn zeroed_vec(len: usize) -> Vec<M61> {
        let mut words = std::mem::ManuallyDrop::new(vec![0u64; len]);
        let (ptr, len, cap) = (words.as_mut_ptr(), words.len(), words.capacity());
        // SAFETY: M61 is repr(transparent) over u64 (identical size and
        // alignment), so the allocation's layout is unchanged and it is
        // later freed with the layout it was allocated with; the
        // ManuallyDrop wrapper gives up the original Vec's ownership, so
        // the buffer has exactly one owner; every word is 0, which is
        // M61::ZERO, a canonical element.
        unsafe { Vec::from_raw_parts(ptr as *mut M61, len, cap) }
    }
}

impl Add for M61 {
    type Output = M61;
    #[inline]
    fn add(self, rhs: M61) -> M61 {
        let mut s = self.0 + rhs.0;
        if s >= P {
            s -= P;
        }
        M61(s)
    }
}

impl AddAssign for M61 {
    #[inline]
    fn add_assign(&mut self, rhs: M61) {
        *self = *self + rhs;
    }
}

impl Sub for M61 {
    type Output = M61;
    #[inline]
    fn sub(self, rhs: M61) -> M61 {
        let s = if self.0 >= rhs.0 {
            self.0 - rhs.0
        } else {
            self.0 + P - rhs.0
        };
        M61(s)
    }
}

impl SubAssign for M61 {
    #[inline]
    fn sub_assign(&mut self, rhs: M61) {
        *self = *self - rhs;
    }
}

impl Neg for M61 {
    type Output = M61;
    #[inline]
    fn neg(self) -> M61 {
        if self.0 == 0 {
            self
        } else {
            M61(P - self.0)
        }
    }
}

impl Mul for M61 {
    type Output = M61;
    #[inline]
    fn mul(self, rhs: M61) -> M61 {
        M61(Self::reduce128(self.0 as u128 * rhs.0 as u128))
    }
}

impl MulAssign for M61 {
    #[inline]
    fn mul_assign(&mut self, rhs: M61) {
        *self = *self * rhs;
    }
}

impl fmt::Debug for M61 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M61({})", self.0)
    }
}

impl fmt::Display for M61 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for M61 {
    fn from(x: u64) -> Self {
        M61::new(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let a = M61::new(123456789);
        let b = M61::new(P - 5);
        assert_eq!(a + b - b, a);
        assert_eq!(a - a, M61::ZERO);
    }

    #[test]
    fn zeroed_vec_is_an_owned_vec_of_zeros() {
        for len in [0usize, 1, 5, 1 << 16] {
            let mut v = M61::zeroed_vec(len);
            assert_eq!(v.len(), len);
            assert!(v.iter().all(|x| x.is_zero()));
            v.push(M61::ONE);
            assert_eq!(v[len], M61::ONE);
        }
    }

    #[test]
    fn neg_is_additive_inverse() {
        for x in [0u64, 1, 5, P - 1, 1 << 60] {
            let a = M61::new(x);
            assert_eq!(a + (-a), M61::ZERO);
        }
    }

    #[test]
    fn reduction_handles_extremes() {
        let big = M61::new(P - 1);
        assert_eq!((big * big * big).value(), (big.pow(3)).value());
        assert_eq!(M61::new(P), M61::ZERO);
        assert_eq!(M61::new(P + 7), M61::new(7));
    }

    #[test]
    fn from_i64_handles_negatives() {
        assert_eq!(M61::from_i64(-1), -M61::ONE);
        assert_eq!(M61::from_i64(-(P as i64)), M61::ZERO);
        assert_eq!(M61::from_i64(5), M61::new(5));
        assert_eq!(
            M61::from_i64(i64::MIN) + M61::from_i64(i64::MIN).neg().neg().neg(),
            M61::ZERO
        );
    }

    #[test]
    fn from_u128_reduces() {
        assert_eq!(M61::from_u128(P as u128 * 3 + 9), M61::new(9));
        assert!(M61::from_u128(u128::MAX).value() < P);
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let a = M61::new(987654321);
        let mut acc = M61::ONE;
        for e in 0..50u64 {
            assert_eq!(a.pow(e), acc);
            acc *= a;
        }
    }

    #[test]
    fn inv_is_multiplicative_inverse() {
        for x in [1u64, 2, 3, 1 << 35, P - 1, 999999937] {
            let a = M61::new(x);
            assert_eq!(a * a.inv(), M61::ONE);
        }
    }

    #[test]
    #[should_panic]
    fn inv_of_zero_panics() {
        let _ = M61::ZERO.inv();
    }

    #[test]
    fn fermat_little_theorem() {
        for x in [2u64, 10, 123456] {
            assert_eq!(M61::new(x).pow(P - 1), M61::ONE);
        }
    }

    #[test]
    fn mul_is_commutative_and_associative_spot() {
        let a = M61::new(0x1234_5678_9abc);
        let b = M61::new(P - 12345);
        let c = M61::new(1 << 59);
        assert_eq!(a * b, b * a);
        assert_eq!((a * b) * c, a * (b * c));
        assert_eq!(a * (b + c), a * b + a * c);
    }
}
