//! Vectorized lane kernels (`core::arch`, x86_64 AVX2) with scalar
//! bit-identity oracles.
//!
//! Every kernel here exists in two forms: a `*_scalar` reference loop —
//! the exact arithmetic the pre-SIMD bank ran, preserved as the oracle the
//! gauntlet tests compare against (the same discipline the bank's
//! `OneSparseCell` oracle test applies to the bank itself) — and a
//! dispatching entry point that takes the AVX2 path when the CPU
//! supports it at run time. The two paths are **bit-identical by
//! construction**:
//!
//! * `i64` adds are two's-complement wrapping in both paths, with signed
//!   overflow detected by the same sign-bit formula
//!   `(~(a ⊕ b)) ∧ (a ⊕ sum)` the scalar `overflowing_add` reports.
//! * `M61` modular adds exploit that reduced elements are `< 2^61`:
//!   `a + b < 2^62` never wraps `u64` and keeps the sign bit clear, so the
//!   vector compare `sum > P − 1` (signed) agrees with the scalar
//!   `sum ≥ P` (unsigned) and one masked subtract canonicalizes.
//!
//! Dispatch is runtime-only (no compile-time feature gates): AVX2 is
//! detected once via `is_x86_feature_detected!`, the `GS_NO_SIMD`
//! environment variable force-disables it for scalar-fallback CI runs, and
//! [`force_scalar`] lets tests flip paths mid-process.

use gs_field::m61::P;
use gs_field::M61;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Test hook: when `true`, every dispatching kernel takes the scalar path
/// regardless of CPU support. Checked per call (atomic), so the gauntlet
/// can run both paths in one process.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Forces (or un-forces) the scalar path for all subsequent kernel calls.
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::SeqCst);
}

/// `true` iff the vector path exists on this CPU and was not disabled via
/// the `GS_NO_SIMD` environment variable (any value but `0` disables).
/// Computed once per process.
pub fn simd_available() -> bool {
    static AVAIL: OnceLock<bool> = OnceLock::new();
    *AVAIL.get_or_init(|| {
        if crate::env::no_simd() {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// `true` iff the next kernel call will take the vector path.
#[inline]
pub fn simd_enabled() -> bool {
    simd_available() && !FORCE_SCALAR.load(Ordering::Relaxed)
}

/// Slices shorter than this stay on the scalar path even when AVX2 is
/// available: the vector bodies are outlined (`#[target_feature]` blocks
/// inlining into non-AVX2 callers), so a call that would process one or
/// two elements pays more in dispatch than the lanes save. Ingest fans
/// over `O(log n)`-cell level rows are the hot case. Both paths are
/// bit-identical, so the cutoff is purely a performance knob.
const SIMD_MIN_LEN: usize = 8;

// ---------------------------------------------------------------- i64 add

/// Scalar oracle: `dst[i] = dst[i] + src[i]` (wrapping), returning whether
/// any element overflowed i64.
pub fn add_i64_scalar(dst: &mut [i64], src: &[i64]) -> bool {
    debug_assert_eq!(dst.len(), src.len());
    let mut ovf = false;
    for (a, &b) in dst.iter_mut().zip(src) {
        let (s, o) = a.overflowing_add(b);
        *a = s;
        ovf |= o;
    }
    ovf
}

/// Lane-wise `i64` slice add (merge kernel): wrapping sum plus an overflow
/// report, vectorized when available.
#[inline]
pub fn add_i64(dst: &mut [i64], src: &[i64]) -> bool {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    if dst.len() >= SIMD_MIN_LEN && simd_enabled() {
        // SAFETY: simd_enabled() verified AVX2 at run time, satisfying the
        // target_feature contract; dst/src borrow live slices whose equal
        // length the kernel's own loop bound respects.
        return unsafe { add_i64_avx2(dst, src) };
    }
    add_i64_scalar(dst, src)
}

/// Scalar oracle: broadcast-add `c` into every element of `dst`
/// (wrapping), returning whether any element overflowed.
pub fn fan_i64_scalar(dst: &mut [i64], c: i64) -> bool {
    let mut ovf = false;
    for a in dst.iter_mut() {
        let (s, o) = a.overflowing_add(c);
        *a = s;
        ovf |= o;
    }
    ovf
}

/// Broadcast `i64` add (fan kernel), vectorized when available.
#[inline]
pub fn fan_i64(dst: &mut [i64], c: i64) -> bool {
    #[cfg(target_arch = "x86_64")]
    if dst.len() >= SIMD_MIN_LEN && simd_enabled() {
        // SAFETY: simd_enabled() verified AVX2 at run time, satisfying the
        // target_feature contract; dst borrows a live slice and the kernel
        // never reads or writes past dst.len().
        return unsafe { fan_i64_avx2(dst, c) };
    }
    fan_i64_scalar(dst, c)
}

// ---------------------------------------------------------------- M61 add

/// Scalar oracle: lane-wise modular add over `F_{2^61−1}` — exactly
/// `M61::add` per element.
pub fn add_m61_scalar(dst: &mut [M61], src: &[M61]) {
    debug_assert_eq!(dst.len(), src.len());
    for (a, &b) in dst.iter_mut().zip(src) {
        *a += b;
    }
}

/// Lane-wise `M61` slice add (merge kernel), vectorized when available.
#[inline]
pub fn add_m61(dst: &mut [M61], src: &[M61]) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    if dst.len() >= SIMD_MIN_LEN && simd_enabled() {
        // SAFETY: simd_enabled() verified AVX2 at run time; slice_as_words
        // reinterprets M61 (repr(transparent) over u64) with identical
        // length and alignment, so the kernel sees the same memory extent.
        unsafe {
            add_m61_avx2(M61::slice_as_words_mut(dst), M61::slice_as_words(src));
        }
        return;
    }
    add_m61_scalar(dst, src)
}

/// Scalar oracle: broadcast modular add of `c` into every element.
pub fn fan_m61_scalar(dst: &mut [M61], c: M61) {
    for a in dst.iter_mut() {
        *a += c;
    }
}

/// Broadcast `M61` add (fan kernel), vectorized when available.
#[inline]
pub fn fan_m61(dst: &mut [M61], c: M61) {
    #[cfg(target_arch = "x86_64")]
    if dst.len() >= SIMD_MIN_LEN && simd_enabled() {
        // SAFETY: simd_enabled() verified AVX2 at run time; slice_as_words_mut
        // reinterprets M61 (repr(transparent) over u64) with identical length
        // and alignment, and c.value() is a canonical (< P) residue.
        unsafe {
            fan_m61_avx2(M61::slice_as_words_mut(dst), c.value());
        }
        return;
    }
    fan_m61_scalar(dst, c)
}

// ------------------------------------------------------------ AVX2 bodies

// SAFETY: callers must have verified AVX2 support (the dispatchers gate on
// simd_enabled()). All loads/stores are the unaligned variants (loadu/storeu),
// so slice alignment is irrelevant; the vector loop covers len/4 full blocks
// of 4 i64 lanes and the tail loop finishes in scalar, so no access passes
// dst.len() == src.len() (debug-asserted by the dispatcher).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_i64_avx2(dst: &mut [i64], src: &[i64]) -> bool {
    use std::arch::x86_64::*;
    let len = dst.len();
    let d = dst.as_mut_ptr();
    let s = src.as_ptr();
    let mut ovf = _mm256_setzero_si256();
    let mut i = 0;
    while i + 4 <= len {
        let a = _mm256_loadu_si256(d.add(i) as *const __m256i);
        let b = _mm256_loadu_si256(s.add(i) as *const __m256i);
        let sum = _mm256_add_epi64(a, b);
        // Signed overflow iff sign(a) == sign(b) != sign(sum):
        // (~(a ^ b)) & (a ^ sum) has the sign bit set exactly then.
        let o = _mm256_andnot_si256(_mm256_xor_si256(a, b), _mm256_xor_si256(a, sum));
        ovf = _mm256_or_si256(ovf, o);
        _mm256_storeu_si256(d.add(i) as *mut __m256i, sum);
        i += 4;
    }
    let mut any = _mm256_movemask_pd(_mm256_castsi256_pd(ovf)) != 0;
    while i < len {
        let (v, o) = (*d.add(i)).overflowing_add(*s.add(i));
        *d.add(i) = v;
        any |= o;
        i += 1;
    }
    any
}

// SAFETY: callers must have verified AVX2 support (the dispatchers gate on
// simd_enabled()). Unaligned loadu/storeu throughout, so alignment is
// irrelevant; the vector loop covers len/4 full blocks and the tail loop
// finishes in scalar, so no access passes dst.len().
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fan_i64_avx2(dst: &mut [i64], c: i64) -> bool {
    use std::arch::x86_64::*;
    let len = dst.len();
    let d = dst.as_mut_ptr();
    let b = _mm256_set1_epi64x(c);
    let mut ovf = _mm256_setzero_si256();
    let mut i = 0;
    while i + 4 <= len {
        let a = _mm256_loadu_si256(d.add(i) as *const __m256i);
        let sum = _mm256_add_epi64(a, b);
        let o = _mm256_andnot_si256(_mm256_xor_si256(a, b), _mm256_xor_si256(a, sum));
        ovf = _mm256_or_si256(ovf, o);
        _mm256_storeu_si256(d.add(i) as *mut __m256i, sum);
        i += 4;
    }
    let mut any = _mm256_movemask_pd(_mm256_castsi256_pd(ovf)) != 0;
    while i < len {
        let (v, o) = (*d.add(i)).overflowing_add(c);
        *d.add(i) = v;
        any |= o;
        i += 1;
    }
    any
}

/// Reduced field elements are `< 2^61`, so `a + b < 2^62`: the u64 sum
/// never wraps and its sign bit stays clear, making the *signed* vector
/// compare against `P − 1` agree with the scalar unsigned `sum ≥ P`.
// SAFETY: callers must have verified AVX2 support (the dispatchers gate on
// simd_enabled()). Unaligned loadu/storeu throughout; the vector loop covers
// len/4 full blocks and the tail finishes in scalar, so no access passes
// dst.len() == src.len(). Inputs are canonical (< P) residues, so the
// add-then-conditional-subtract never wraps u64.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_m61_avx2(dst: &mut [u64], src: &[u64]) {
    use std::arch::x86_64::*;
    let len = dst.len();
    let d = dst.as_mut_ptr();
    let s = src.as_ptr();
    let p = _mm256_set1_epi64x(P as i64);
    let pm1 = _mm256_set1_epi64x((P - 1) as i64);
    let mut i = 0;
    while i + 4 <= len {
        let a = _mm256_loadu_si256(d.add(i) as *const __m256i);
        let b = _mm256_loadu_si256(s.add(i) as *const __m256i);
        let sum = _mm256_add_epi64(a, b);
        let ge = _mm256_cmpgt_epi64(sum, pm1);
        let red = _mm256_sub_epi64(sum, _mm256_and_si256(ge, p));
        _mm256_storeu_si256(d.add(i) as *mut __m256i, red);
        i += 4;
    }
    while i < len {
        let mut v = *d.add(i) + *s.add(i);
        if v >= P {
            v -= P;
        }
        *d.add(i) = v;
        i += 1;
    }
}

// SAFETY: callers must have verified AVX2 support (the dispatchers gate on
// simd_enabled()). Unaligned loadu/storeu throughout; the vector loop covers
// len/4 full blocks and the tail finishes in scalar, so no access passes
// dst.len(). `c` and every lane are canonical (< P) residues, so the
// add-then-conditional-subtract never wraps u64.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fan_m61_avx2(dst: &mut [u64], c: u64) {
    use std::arch::x86_64::*;
    let len = dst.len();
    let d = dst.as_mut_ptr();
    let b = _mm256_set1_epi64x(c as i64);
    let p = _mm256_set1_epi64x(P as i64);
    let pm1 = _mm256_set1_epi64x((P - 1) as i64);
    let mut i = 0;
    while i + 4 <= len {
        let a = _mm256_loadu_si256(d.add(i) as *const __m256i);
        let sum = _mm256_add_epi64(a, b);
        let ge = _mm256_cmpgt_epi64(sum, pm1);
        let red = _mm256_sub_epi64(sum, _mm256_and_si256(ge, p));
        _mm256_storeu_si256(d.add(i) as *mut __m256i, red);
        i += 4;
    }
    while i < len {
        let mut v = *d.add(i) + c;
        if v >= P {
            v -= P;
        }
        *d.add(i) = v;
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_field::SplitMix64;

    /// Runs `f` once on the live dispatch path and once forced scalar,
    /// comparing results — the per-kernel bit-identity harness.
    fn both_paths<T: PartialEq + std::fmt::Debug>(mut f: impl FnMut() -> T) {
        let vector = f();
        force_scalar(true);
        let scalar = f();
        force_scalar(false);
        assert_eq!(vector, scalar, "vector path drifted from scalar oracle");
    }

    fn rand_i64s(rng: &mut SplitMix64, len: usize, extreme: bool) -> Vec<i64> {
        (0..len)
            .map(|_| {
                if extreme && rng.next_range(4) == 0 {
                    // Values near the rails exercise the overflow mask.
                    let base = if rng.next_range(2) == 0 {
                        i64::MAX
                    } else {
                        i64::MIN
                    };
                    base.wrapping_add(rng.next_range(5) as i64)
                } else {
                    rng.next_range(u64::MAX) as i64
                }
            })
            .collect()
    }

    #[test]
    fn add_i64_matches_scalar_including_overflow_flag() {
        let mut rng = SplitMix64::new(0x51D0);
        for len in [0usize, 1, 3, 4, 7, 64, 257] {
            for extreme in [false, true] {
                let a0 = rand_i64s(&mut rng, len, extreme);
                let b = rand_i64s(&mut rng, len, extreme);
                both_paths(|| {
                    let mut a = a0.clone();
                    let o = add_i64(&mut a, &b);
                    (a, o)
                });
            }
        }
    }

    #[test]
    fn fan_i64_matches_scalar_including_overflow_flag() {
        let mut rng = SplitMix64::new(0x51D1);
        for len in [0usize, 1, 5, 8, 100] {
            for c in [0i64, 1, -7, i64::MAX, i64::MIN, i64::MAX - 2] {
                let a0 = rand_i64s(&mut rng, len, true);
                both_paths(|| {
                    let mut a = a0.clone();
                    let o = fan_i64(&mut a, c);
                    (a, o)
                });
            }
        }
    }

    #[test]
    fn m61_kernels_match_scalar_and_stay_reduced() {
        let mut rng = SplitMix64::new(0x51D2);
        for len in [0usize, 1, 3, 4, 9, 128] {
            let a0: Vec<M61> = (0..len)
                .map(|_| M61::new(rng.next_range(u64::MAX)))
                .collect();
            let b: Vec<M61> = (0..len)
                .map(|i| {
                    // Mix extremes (P−1, 0) with random elements.
                    match i % 3 {
                        0 => M61::new(P - 1),
                        1 => M61::ZERO,
                        _ => M61::new(rng.next_range(u64::MAX)),
                    }
                })
                .collect();
            both_paths(|| {
                let mut a = a0.clone();
                add_m61(&mut a, &b);
                a
            });
            both_paths(|| {
                let mut a = a0.clone();
                fan_m61(&mut a, M61::new(P - 1));
                a
            });
            let mut a = a0.clone();
            add_m61(&mut a, &b);
            assert!(a.iter().all(|x| x.value() < P), "unreduced output");
        }
    }

    #[test]
    fn overflow_flag_is_exact_on_known_cases() {
        // One overflowing element among many clean ones must be reported;
        // all-clean must not be.
        let mut clean = vec![1i64; 9];
        assert!(!add_i64(&mut clean, &[2i64; 9]));
        let mut hot = vec![1i64; 9];
        hot[6] = i64::MAX;
        assert!(add_i64(&mut hot, &[2i64; 9]));
        let mut neg = vec![i64::MIN; 5];
        assert!(fan_i64(&mut neg, -1));
        let mut ok = vec![i64::MIN; 5];
        assert!(!fan_i64(&mut ok, 1));
    }
}
