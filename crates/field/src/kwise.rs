//! k-wise independent hash families over `F_{2^61−1}`.
//!
//! The classical construction: a uniformly random polynomial of degree
//! `k − 1` over a prime field is a k-wise independent function. The ℓ0
//! sampler analysis of Jowhari–Saglam–Tardos (Theorem 2.1's citation \[31\])
//! only needs limited independence at the subsampling layer, and the
//! pairwise-independent functions inside Nisan's generator (§3.4) are the
//! `k = 2` special case of this family.

use crate::m61::{M61, P};
use crate::oracle::SplitMix64;
use crate::Randomness;

/// A hash function drawn from a k-wise independent family
/// `h(x) = Σ_{i<k} a_i x^i mod (2^61 − 1)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KWiseHash {
    coeffs: Vec<M61>,
}

impl KWiseHash {
    /// Draws a function from the k-wise independent family using `seed`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k > 0, "independence parameter must be positive");
        let mut sm = SplitMix64::new(seed);
        let coeffs = (0..k)
            .map(|_| {
                // Rejection sampling for an exactly uniform field element.
                loop {
                    let x = sm.next_u64() & ((1 << 61) - 1);
                    if x < P {
                        return M61::new(x);
                    }
                }
            })
            .collect();
        KWiseHash { coeffs }
    }

    /// A pairwise independent function (degree-1 polynomial).
    pub fn pairwise(seed: u64) -> Self {
        KWiseHash::new(2, seed)
    }

    /// The independence parameter `k` of the family.
    pub fn independence(&self) -> usize {
        self.coeffs.len()
    }

    /// Evaluates the polynomial at `x` (reduced into the field first).
    #[inline]
    pub fn eval(&self, x: u64) -> M61 {
        let x = M61::new(x);
        let mut acc = M61::ZERO;
        // Horner's rule, highest coefficient first.
        for &c in self.coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }
}

impl Randomness for KWiseHash {
    /// Uses the field output as a 61-bit word. This is sufficient for all
    /// range reductions in the workspace (ranges are ≪ 2^61); the top three
    /// bits are filled from a second evaluation to give a full 64-bit word.
    fn hash64(&self, x: u64) -> u64 {
        let lo = self.eval(x).value();
        let hi = self.eval(x ^ 0xA5A5_A5A5_A5A5_A5A5).value();
        lo | (hi << 61)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = KWiseHash::new(4, 11);
        let b = KWiseHash::new(4, 11);
        let c = KWiseHash::new(4, 12);
        assert_eq!(a.eval(999), b.eval(999));
        assert_ne!(a.eval(999), c.eval(999));
    }

    #[test]
    #[should_panic]
    fn zero_independence_rejected() {
        let _ = KWiseHash::new(0, 1);
    }

    #[test]
    fn degree_one_is_affine() {
        // h(x) = a0 + a1 x  ⇒  h(x+1) − h(x) is constant.
        let h = KWiseHash::pairwise(77);
        let d0 = h.eval(1) - h.eval(0);
        for x in 1..200u64 {
            assert_eq!(h.eval(x + 1) - h.eval(x), d0);
        }
    }

    #[test]
    fn pairwise_collision_probability() {
        // Over many draws of the function, P[h(x)=h(y) mod B] ≈ 1/B.
        let bucket = 64u64;
        let mut collisions = 0usize;
        let trials = 20_000;
        for seed in 0..trials {
            let h = KWiseHash::pairwise(seed as u64);
            if h.eval(3).value() % bucket == h.eval(8).value() % bucket {
                collisions += 1;
            }
        }
        let rate = collisions as f64 / trials as f64;
        let expect = 1.0 / bucket as f64;
        assert!(
            (rate - expect).abs() < 4.0 * (expect / trials as f64).sqrt() + 0.002,
            "collision rate {rate} vs {expect}"
        );
    }

    #[test]
    fn four_wise_balances_parity_tuples() {
        // For a 4-wise family, the parities of h at 4 fixed points are
        // independent fair bits; check the joint distribution roughly.
        let pts = [1u64, 5, 9, 13];
        let mut counts = [0usize; 16];
        let trials = 8192;
        for seed in 0..trials {
            let h = KWiseHash::new(4, seed as u64);
            let mut idx = 0usize;
            for (b, &p) in pts.iter().enumerate() {
                idx |= (((h.eval(p).value()) & 1) as usize) << b;
            }
            counts[idx] += 1;
        }
        let expected = trials as f64 / 16.0;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < 6.0 * expected.sqrt(),
                "tuple {i}: {c} vs {expected}"
            );
        }
    }

    #[test]
    fn hash64_covers_high_bits() {
        let h = KWiseHash::new(3, 5);
        let mut hi_seen = false;
        for x in 0..1000 {
            if h.hash64(x) >> 61 != 0 {
                hi_seen = true;
            }
        }
        assert!(hi_seen, "top bits never set");
    }
}
