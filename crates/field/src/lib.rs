//! Field arithmetic, hash families, and pseudorandomness for graph sketches.
//!
//! Every sketch in this workspace is built from three sources of
//! (pseudo)randomness, all provided here:
//!
//! * [`m61`] — arithmetic in the prime field `F_p` with `p = 2^61 - 1`
//!   (a Mersenne prime), used for sketch fingerprints.
//! * [`kwise`] — *k*-wise independent polynomial hash families over `F_p`,
//!   the classical construction used by ℓ0-samplers (Theorem 2.1 of the
//!   paper cites Jowhari et al., whose analysis only needs limited
//!   independence at this layer).
//! * [`oracle`] — a seeded "random oracle" mixer standing in for the fully
//!   independent hash functions assumed in §2.3 of the paper, plus
//!   [`nisan`], a faithful implementation of Nisan's pseudorandom generator
//!   used to remove that assumption in §3.4 (Theorem 3.5).
//!
//! The [`Randomness`] trait abstracts over the oracle and Nisan backends so
//! that every algorithm in the workspace can be run under either; experiment
//! E9 verifies their behavioral equivalence.

#![deny(unsafe_code)]

pub mod kwise;
pub mod m61;
pub mod nisan;
pub mod oracle;

pub use kwise::KWiseHash;
pub use m61::M61;
pub use nisan::{NisanGenerator, NisanHash};
pub use oracle::{OracleHash, SplitMix64};

/// A runtime-selectable randomness backend.
///
/// Sketch structures hold one of these per hash role, so an entire
/// algorithm can be switched between the random-oracle assumption of §2.3
/// and the Nisan-derandomized regime of §3.4 (experiment E9).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HashBackend {
    /// Seeded mixer standing in for a fully independent random function.
    Oracle(OracleHash),
    /// Bits drawn from Nisan's pseudorandom generator.
    Nisan(NisanHash),
}

impl HashBackend {
    /// Default Nisan depth used when deriving Nisan children: supports
    /// 2^39 distinct keys per function.
    const NISAN_DEPTH: u32 = 40;

    /// An oracle-backed function for `(seed, stream)`.
    pub fn oracle(seed: u64, stream: u64) -> Self {
        HashBackend::Oracle(OracleHash::new(seed, stream))
    }

    /// A Nisan-backed function for `(seed, stream)`.
    pub fn nisan(seed: u64, stream: u64) -> Self {
        HashBackend::Nisan(NisanHash::new(
            Self::NISAN_DEPTH,
            seed ^ oracle::mix64(stream).rotate_left(23),
        ))
    }

    /// Derives an independent child function of the same kind.
    pub fn child(&self, stream: u64) -> Self {
        match self {
            HashBackend::Oracle(h) => HashBackend::Oracle(h.child(stream)),
            HashBackend::Nisan(h) => {
                // 427aa96d156 in hex spells nothing: plain role constant.
                let seed = h.hash64(426_624_662_628) ^ oracle::mix64(stream);
                HashBackend::Nisan(NisanHash::new(Self::NISAN_DEPTH, seed))
            }
        }
    }

    /// `true` for the Nisan-derandomized variant.
    pub fn is_nisan(&self) -> bool {
        matches!(self, HashBackend::Nisan(_))
    }
}

impl Randomness for HashBackend {
    #[inline]
    fn hash64(&self, x: u64) -> u64 {
        match self {
            HashBackend::Oracle(h) => h.hash64(x),
            HashBackend::Nisan(h) => h.hash64(x),
        }
    }
}

/// Which randomness regime a sketch is built under (§2.3 oracle assumption
/// vs §3.4 Nisan derandomization). Stored alongside seeds in every sketch
/// so that merges can verify the two sides measure the same projection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Fully-independent-hash stand-in (default).
    #[default]
    Oracle,
    /// Nisan's pseudorandom generator.
    Nisan,
}

impl BackendKind {
    /// Instantiates a hash function of this kind for `(seed, stream)`.
    pub fn backend(self, seed: u64, stream: u64) -> HashBackend {
        match self {
            BackendKind::Oracle => HashBackend::oracle(seed, stream),
            BackendKind::Nisan => HashBackend::nisan(seed, stream),
        }
    }
}

/// A source of hashed randomness keyed by 64-bit inputs.
///
/// The paper's algorithms are stated assuming "access to a fully independent
/// random hash function" (§2.3), an assumption removed in §3.4 via Nisan's
/// PRG. Implementations: [`OracleHash`] (default, seeded mixer) and
/// [`nisan::NisanHash`] (derandomized backend).
pub trait Randomness {
    /// A pseudorandom 64-bit word determined by `(self, x)`.
    fn hash64(&self, x: u64) -> u64;

    /// A pseudorandom field element in `[0, 2^61 - 1)`.
    fn hash_m61(&self, x: u64) -> M61 {
        // Rejection-free reduction: the bias of `mod p` on a uniform u64 is
        // ≤ 2^-51, far below every failure probability we reason about.
        // `M61::new` reduces with the division-free Mersenne fold.
        M61::new(self.hash64(x))
    }

    /// A pseudorandom value in `[0, bound)` (requires `bound > 0`).
    ///
    /// Uses Lemire's multiply-shift reduction, whose bias for
    /// `bound ≤ 2^32` is ≤ 2^-32.
    fn hash_range(&self, x: u64, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.hash64(x) as u128 * bound as u128) >> 64) as u64
    }

    /// An unbiased coin determined by `(self, x)`: `true` with probability
    /// 1/2.
    fn coin(&self, x: u64) -> bool {
        self.hash64(x) & 1 == 1
    }

    /// `true` with probability `2^-i` (`i ≤ 64`), determined by `(self, x)`.
    ///
    /// This realizes the nested subsampling `∏_{j≤i} h_j(e) = 1` of
    /// Figures 1–3: the events for increasing `i` are nested because they
    /// test a prefix of the same hashed word.
    fn subsample(&self, x: u64, i: u32) -> bool {
        debug_assert!(i <= 64);
        if i == 0 {
            return true;
        }
        let h = self.hash64(x);
        if i == 64 {
            h == 0
        } else {
            h >> (64 - i) == 0
        }
    }

    /// The deepest subsampling level that still contains `x`, i.e. the
    /// largest `i` with [`Randomness::subsample`]`(x, i)` true (capped at
    /// `max_level`).
    fn subsample_level(&self, x: u64, max_level: u32) -> u32 {
        let h = self.hash64(x);
        (h.leading_zeros()).min(max_level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsample_levels_are_nested() {
        let h = OracleHash::new(7, 99);
        for x in 0..2000u64 {
            let mut prev = true;
            for i in 0..=64u32 {
                let cur = h.subsample(x, i);
                assert!(
                    prev || !cur,
                    "x={x} level {i} sampled but level {} was not",
                    i - 1
                );
                prev = cur;
            }
        }
    }

    #[test]
    fn subsample_level_consistent_with_subsample() {
        let h = OracleHash::new(3, 4);
        for x in 0..2000u64 {
            let lvl = h.subsample_level(x, 64);
            assert!(h.subsample(x, lvl));
            if lvl < 64 {
                assert!(!h.subsample(x, lvl + 1));
            }
        }
    }

    #[test]
    fn subsample_halves_population() {
        let h = OracleHash::new(123, 0);
        let n = 1u64 << 16;
        let mut counts = [0usize; 6];
        for x in 0..n {
            for (i, c) in counts.iter_mut().enumerate() {
                if h.subsample(x, i as u32) {
                    *c += 1;
                }
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let expected = (n >> i) as f64;
            let got = c as f64;
            assert!(
                (got - expected).abs() < 6.0 * expected.sqrt() + 1.0,
                "level {i}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn hash_range_within_bound() {
        let h = OracleHash::new(5, 5);
        for x in 0..5000u64 {
            for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
                assert!(h.hash_range(x, bound) < bound);
            }
        }
    }

    #[test]
    fn hash_range_roughly_uniform() {
        let h = OracleHash::new(999, 1);
        let bound = 10u64;
        let trials = 100_000u64;
        let mut counts = vec![0usize; bound as usize];
        for x in 0..trials {
            counts[h.hash_range(x, bound) as usize] += 1;
        }
        let expected = trials as f64 / bound as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < 6.0 * expected.sqrt(),
                "bucket {i}: {c} vs {expected}"
            );
        }
    }
}
