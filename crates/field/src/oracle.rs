//! The "random oracle" backend: a seeded, stateless 64-bit mixer.
//!
//! §2.3 of the paper states its algorithms "assuming access to a fully
//! independent random hash function" and defers the removal of that
//! assumption to §3.4 (Nisan's PRG, see [`crate::nisan`]). This module is
//! the practical stand-in for the assumption: a double-round SplitMix64
//! finalizer keyed by a 64-bit seed, which passes standard avalanche tests
//! and is the conventional empirical substitute for a random oracle.

use crate::Randomness;

/// SplitMix64: a tiny, high-quality, seedable PRNG used for seed derivation
/// throughout the workspace (it is the generator recommended for seeding
/// other generators).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// A value in `[0, bound)` via multiply-shift.
    pub fn next_range(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The 64-bit finalizer from SplitMix64 (Stafford's Mix13 variant).
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stateless keyed hash `x ↦ mix(mix(x ⊕ k1) ⊕ k2)` standing in for a
/// fully independent random function `[2^64] → [2^64]`.
///
/// Two mixing rounds with independent keys are used so that distinct
/// `OracleHash` instances derived from nearby seeds behave as independent
/// functions — the sketches instantiate thousands of these (one per
/// repetition per level per node).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleHash {
    k1: u64,
    k2: u64,
}

impl OracleHash {
    /// Derives an oracle from a master `seed` and a `stream` identifier
    /// (e.g. "node 17's round-3 sampler"). Distinct `(seed, stream)` pairs
    /// yield (empirically) independent functions.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut sm = SplitMix64::new(seed ^ mix64(stream).rotate_left(17));
        OracleHash {
            k1: sm.next_u64(),
            k2: sm.next_u64(),
        }
    }

    /// Derives a child oracle, for hierarchical seed trees.
    pub fn child(&self, stream: u64) -> Self {
        OracleHash::new(self.k1 ^ mix64(self.k2 ^ stream), stream)
    }
}

impl Randomness for OracleHash {
    #[inline]
    fn hash64(&self, x: u64) -> u64 {
        mix64(mix64(x ^ self.k1) ^ self.k2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_range_and_f64_bounds() {
        let mut g = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(g.next_range(17) < 17);
            let f = g.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn oracle_is_deterministic_and_seed_sensitive() {
        let a = OracleHash::new(1, 2);
        let b = OracleHash::new(1, 2);
        let c = OracleHash::new(1, 3);
        assert_eq!(a.hash64(77), b.hash64(77));
        assert_ne!(a.hash64(77), c.hash64(77));
    }

    #[test]
    fn oracle_avalanche() {
        // Flipping one input bit should flip ~32 output bits on average.
        let h = OracleHash::new(0xDEAD_BEEF, 0);
        let mut total = 0u32;
        let trials = 4096u64;
        for x in 0..trials {
            let base = h.hash64(x);
            let flipped = h.hash64(x ^ 1);
            total += (base ^ flipped).count_ones();
        }
        let avg = total as f64 / trials as f64;
        assert!((avg - 32.0).abs() < 1.5, "avalanche average {avg}");
    }

    #[test]
    fn nearby_streams_look_independent() {
        // Streams 0 and 1 from the same seed must not be correlated.
        let a = OracleHash::new(5, 0);
        let b = OracleHash::new(5, 1);
        let mut agree = 0usize;
        let trials = 1 << 14;
        for x in 0..trials as u64 {
            if (a.hash64(x) & 1) == (b.hash64(x) & 1) {
                agree += 1;
            }
        }
        let frac = agree as f64 / trials as f64;
        assert!((frac - 0.5).abs() < 0.03, "agreement fraction {frac}");
    }

    #[test]
    fn child_differs_from_parent() {
        let p = OracleHash::new(9, 9);
        let c = p.child(0);
        assert_ne!(p.hash64(123), c.hash64(123));
    }
}
