//! Nisan's pseudorandom generator for space-bounded computation.
//!
//! §3.4 of the paper removes the fully-independent-hash assumption by
//! feeding the sketch algorithms random bits from Nisan's generator
//! (Theorem 3.5, citing Nisan '92): any algorithm running in space `S` with
//! one-way access to `R` random bits can instead use `O(S log R)` truly
//! random bits. The paper's argument first *rearranges* the stream so all
//! updates to an edge are consecutive (each edge's random bits are then
//! read once), and then uses the linearity of the sketches to conclude the
//! answer is order-independent.
//!
//! The construction is the classical recursion
//!
//! ```text
//! G_0(x)            = x
//! G_i(x, h_1..h_i)  = G_{i-1}(x, h_1..h_{i-1}) ∘ G_{i-1}(h_i(x), h_1..h_{i-1})
//! ```
//!
//! with `h_j` drawn from a pairwise-independent family. The output of
//! `G_k` is `2^k` blocks; block `j` is computed lazily in `O(k)` field
//! operations by walking the recursion tree along the bits of `j`, so the
//! generator occupies only the seed: one block plus `k` pairwise functions
//! — the promised `O(S log R)` bits.
//!
//! [`NisanHash`] adapts the generator to the [`Randomness`] interface used
//! by every sketch: the "random bits for key x" are the Nisan output blocks
//! at positions `2x` and `2x+1`, exactly the per-edge bit assignment of the
//! rearrangement argument. Experiment E9 runs the full MINCUT/ℓ0 batteries
//! under this backend and the oracle backend and compares success rates.

use crate::kwise::KWiseHash;
use crate::m61::M61;
use crate::oracle::SplitMix64;
use crate::Randomness;

/// Nisan's generator with lazily evaluated output blocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NisanGenerator {
    /// The truly random start block `x`.
    x0: M61,
    /// Pairwise-independent functions `h_1, …, h_k` (index 0 = `h_1`).
    hs: Vec<KWiseHash>,
}

impl NisanGenerator {
    /// Builds a generator of depth `k` (output length `2^k` blocks of
    /// 61 bits) from a master seed. Seed size is `1 + 2k` field elements —
    /// `O(S log R)` for block size `S = 61` and `R = 61·2^k` output bits.
    ///
    /// # Panics
    /// Panics if `k == 0` or `k > 62`.
    pub fn new(k: u32, seed: u64) -> Self {
        assert!(k > 0 && k <= 62, "depth {k} out of range");
        let mut sm = SplitMix64::new(seed ^ 0x4E49_5341_4E00_0000); // "NISAN"
        let x0 = M61::new(sm.next_u64());
        let hs = (0..k).map(|_| KWiseHash::pairwise(sm.next_u64())).collect();
        NisanGenerator { x0, hs }
    }

    /// Depth `k` of the recursion (output has `2^k` blocks).
    pub fn depth(&self) -> u32 {
        self.hs.len() as u32
    }

    /// Number of truly random bits in the seed.
    pub fn seed_bits(&self) -> usize {
        // x0 plus two coefficients per pairwise function, 61 bits each.
        61 * (1 + 2 * self.hs.len())
    }

    /// The `j`-th output block of `G_k` (61 bits), computed in `O(k)` time.
    ///
    /// Walking from the root: the left subtree of `G_i` expands `x`, the
    /// right subtree expands `h_i(x)`. Bit `i−1` of `j` (counting from the
    /// most significant of the `k` index bits) selects the branch at
    /// recursion level `i`.
    pub fn block(&self, j: u64) -> u64 {
        let k = self.hs.len() as u32;
        debug_assert!(k == 62 || j < (1u64 << k), "block index out of range");
        let mut x = self.x0;
        // Level i uses h_i; the top level (i = k) is decided by the MSB.
        for i in (0..k).rev() {
            if (j >> i) & 1 == 1 {
                // h functions are indexed h_1..h_k; level with 2^(i+1)
                // leaves below it uses h_{i+1} = hs[i].
                x = self.hs[i as usize].eval(x.value());
            }
        }
        x.value()
    }
}

/// A [`Randomness`] backend whose bits come from Nisan's generator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NisanHash {
    gen: NisanGenerator,
    mask: u64,
}

impl NisanHash {
    /// Builds a backend addressing up to `2^(depth−1)` distinct keys.
    /// `depth = 41` (the default used by experiment E9) supports `2^40`
    /// keys from a seed of `61·83` ≈ 5 Kbits.
    pub fn new(depth: u32, seed: u64) -> Self {
        let gen = NisanGenerator::new(depth, seed);
        let mask = if depth >= 64 {
            u64::MAX
        } else {
            (1u64 << depth) - 1
        };
        NisanHash { gen, mask }
    }

    /// The underlying generator.
    pub fn generator(&self) -> &NisanGenerator {
        &self.gen
    }
}

impl Randomness for NisanHash {
    fn hash64(&self, x: u64) -> u64 {
        // Each key consumes two consecutive output blocks — the per-edge
        // bit assignment of the §3.4 rearrangement argument. Blocks are
        // 61-bit; splice two to produce a full 64-bit word.
        let j = x.wrapping_mul(2) & self.mask;
        let a = self.gen.block(j);
        let b = self.gen.block(j | 1);
        a ^ (b << 32) ^ (b >> 29)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = NisanGenerator::new(10, 3);
        let b = NisanGenerator::new(10, 3);
        for j in 0..1024 {
            assert_eq!(a.block(j), b.block(j));
        }
    }

    #[test]
    fn block_zero_is_seed_block() {
        let g = NisanGenerator::new(8, 5);
        assert_eq!(g.block(0), {
            // Leftmost leaf never applies any h.
            g.x0.value()
        });
    }

    #[test]
    fn recursion_structure_left_half_repeats_smaller_generator() {
        // The first 2^(k-1) blocks of G_k equal the blocks of G_{k-1} built
        // from the same x0 and h_1..h_{k-1}.
        let big = NisanGenerator::new(6, 42);
        let small = NisanGenerator {
            x0: big.x0,
            hs: big.hs[..5].to_vec(),
        };
        for j in 0..32u64 {
            assert_eq!(big.block(j), small.block(j));
        }
    }

    #[test]
    fn seed_is_logarithmic_in_output() {
        let g = NisanGenerator::new(40, 1);
        // 2^40 output blocks ≈ 6.7e13 bits from a ~5 Kbit seed.
        assert!(g.seed_bits() < 6000);
        assert_eq!(g.depth(), 40);
    }

    #[test]
    fn output_looks_balanced() {
        // Not a cryptographic claim — just that the generator is not
        // degenerate: bit 0 of the blocks should be roughly fair.
        let g = NisanGenerator::new(16, 9);
        let n = 1u64 << 14;
        let ones: u64 = (0..n).map(|j| g.block(j) & 1).sum();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "bit balance {frac}");
    }

    #[test]
    fn nisan_hash_supports_sketch_interface() {
        let h = NisanHash::new(20, 77);
        // Determinism and range behavior.
        assert_eq!(h.hash64(5), h.hash64(5));
        for x in 0..2000 {
            assert!(h.hash_range(x, 13) < 13);
        }
        // Subsampling halves roughly.
        let n = 1u64 << 14;
        let kept = (0..n).filter(|&x| h.subsample(x, 1)).count();
        let frac = kept as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "subsample fraction {frac}");
    }

    #[test]
    #[should_panic]
    fn zero_depth_rejected() {
        let _ = NisanGenerator::new(0, 1);
    }
}
