//! Index-space bijections used by the graph sketches.
//!
//! * **Edges.** The node-incidence vectors of Eq. 1 live in `{−1,0,1}^(V 2)`,
//!   so edges `(u,v)` with `u < v` are ranked into `[0, C(n,2))` with the
//!   standard triangular ranking.
//! * **k-subsets.** The `squash` encoding of Fig. 4 indexes the columns of
//!   the matrix `X_G` by the `C(n,k)` order-`k` subsets of `V`; we use the
//!   combinatorial number system (colexicographic ranking), which gives
//!   O(k)-time ranking and O(k log n)-time unranking without tables.
//! * **Pair slots.** Within a k-subset, the `C(k,2)` vertex pairs are the
//!   *rows* of `X_G`; adding 1 to row `r` of a column is adding `2^r` to
//!   the squashed entry (Fig. 4's `squash` map).

/// Binomial coefficient with saturation — callers only ever need exact
/// values well below `u64::MAX`, and saturation keeps comparisons sound.
pub fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc * (n - i) as u128 / (i + 1) as u128;
        if acc > u64::MAX as u128 {
            return u64::MAX;
        }
    }
    acc as u64
}

/// Number of distinct edge slots on `n` vertices, `C(n,2)`.
pub fn edge_domain(n: usize) -> u64 {
    binomial(n as u64, 2)
}

/// Ranks the edge `{u, v}` (order-insensitive, `u ≠ v`) into
/// `[0, C(n,2))`: slot = colex rank of the 2-subset `{u,v}`.
///
/// # Panics
/// Panics if `u == v` or an endpoint is out of range (self-loops are
/// excluded by Definition 1).
#[inline]
pub fn edge_index(n: usize, u: usize, v: usize) -> u64 {
    assert!(u != v, "self-loop ({u},{u})");
    assert!(u < n && v < n, "endpoint out of range: ({u},{v}) vs n={n}");
    let (lo, hi) = if u < v { (u, v) } else { (v, u) };
    // colex rank of {lo, hi}: C(hi,2) + C(lo,1)
    binomial(hi as u64, 2) + lo as u64
}

/// Inverse of [`edge_index`]: recovers `(u, v)` with `u < v`.
pub fn edge_unindex(index: u64) -> (usize, usize) {
    // Find largest hi with C(hi,2) <= index.
    let mut hi = ((2.0 * index as f64).sqrt() as u64).max(1);
    while binomial(hi + 1, 2) <= index {
        hi += 1;
    }
    while binomial(hi, 2) > index {
        hi -= 1;
    }
    let lo = index - binomial(hi, 2);
    (lo as usize, hi as usize)
}

/// Number of order-`k` subsets of `n` vertices, `C(n,k)` — the column
/// count of `X_G` in Fig. 4.
pub fn subset_domain(n: usize, k: usize) -> u64 {
    binomial(n as u64, k as u64)
}

/// Colexicographic rank of a strictly increasing `k`-subset:
/// `rank = Σ_j C(subset[j], j+1)`.
///
/// # Panics
/// Panics if the slice is not strictly increasing.
pub fn subset_rank(subset: &[usize]) -> u64 {
    let mut rank = 0u64;
    for (j, &c) in subset.iter().enumerate() {
        if j > 0 {
            assert!(subset[j - 1] < c, "subset must be strictly increasing");
        }
        rank += binomial(c as u64, j as u64 + 1);
    }
    rank
}

/// Inverse of [`subset_rank`] for subsets of size `k`.
pub fn subset_unrank(mut rank: u64, k: usize) -> Vec<usize> {
    let mut out = vec![0usize; k];
    for j in (1..=k).rev() {
        // Largest c with C(c, j) <= rank.
        let mut lo = (j - 1) as u64;
        let mut hi = lo + 2;
        while binomial(hi, j as u64) <= rank {
            hi *= 2;
        }
        // Binary search in (lo, hi].
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if binomial(mid, j as u64) <= rank {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        out[j - 1] = lo as usize;
        rank -= binomial(lo, j as u64);
    }
    out
}

/// Row index of the vertex pair `(a, b)` (positions within a `k`-subset,
/// `a < b < k`) among the `C(k,2)` rows of `X_G`, in lexicographic order
/// `(0,1), (0,2), …, (0,k−1), (1,2), …`.
#[inline]
pub fn pair_slot(a: usize, b: usize, k: usize) -> u32 {
    debug_assert!(a < b && b < k);
    // Rows before those starting with `a`: Σ_{i<a} (k−1−i).
    let before = a * (2 * k - a - 1) / 2;
    (before + (b - a - 1)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_basics() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(4, 5), 0);
        assert_eq!(binomial(52, 5), 2_598_960);
        assert_eq!(binomial(0, 0), 1);
    }

    #[test]
    fn binomial_saturates_instead_of_overflowing() {
        assert_eq!(binomial(1000, 500), u64::MAX);
    }

    #[test]
    fn edge_index_is_bijective() {
        let n = 40;
        let mut seen = std::collections::HashSet::new();
        for u in 0..n {
            for v in (u + 1)..n {
                let idx = edge_index(n, u, v);
                assert!(idx < edge_domain(n));
                assert!(seen.insert(idx), "duplicate index for ({u},{v})");
                assert_eq!(edge_unindex(idx), (u, v));
            }
        }
        assert_eq!(seen.len() as u64, edge_domain(n));
    }

    #[test]
    fn edge_index_order_insensitive() {
        assert_eq!(edge_index(10, 3, 7), edge_index(10, 7, 3));
    }

    #[test]
    #[should_panic]
    fn edge_index_rejects_self_loop() {
        let _ = edge_index(10, 4, 4);
    }

    #[test]
    fn edge_unindex_zero() {
        assert_eq!(edge_unindex(0), (0, 1));
    }

    #[test]
    fn subset_rank_bijective_k3() {
        let n = 12;
        let mut seen = std::collections::HashSet::new();
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let s = [a, b, c];
                    let r = subset_rank(&s);
                    assert!(r < subset_domain(n, 3));
                    assert!(seen.insert(r));
                    assert_eq!(subset_unrank(r, 3), s.to_vec());
                }
            }
        }
        assert_eq!(seen.len() as u64, subset_domain(n, 3));
    }

    #[test]
    fn subset_rank_bijective_k4() {
        let n = 10;
        let mut count = 0u64;
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    for d in (c + 1)..n {
                        let s = [a, b, c, d];
                        let r = subset_rank(&s);
                        assert_eq!(subset_unrank(r, 4), s.to_vec());
                        count += 1;
                    }
                }
            }
        }
        assert_eq!(count, subset_domain(n, 4));
    }

    #[test]
    fn subset_rank_is_colex_ordered() {
        // {0,1,2} is rank 0; the element with largest max comes last.
        assert_eq!(subset_rank(&[0, 1, 2]), 0);
        let n = 8;
        assert_eq!(subset_rank(&[n - 3, n - 2, n - 1]), subset_domain(n, 3) - 1);
    }

    #[test]
    #[should_panic]
    fn subset_rank_rejects_unsorted() {
        let _ = subset_rank(&[3, 1, 2]);
    }

    #[test]
    fn pair_slot_enumerates_all_rows() {
        for k in 2..=6 {
            let mut seen = std::collections::HashSet::new();
            for a in 0..k {
                for b in (a + 1)..k {
                    let s = pair_slot(a, b, k);
                    assert!((s as u64) < binomial(k as u64, 2));
                    assert!(seen.insert(s));
                }
            }
            assert_eq!(seen.len() as u64, binomial(k as u64, 2));
        }
    }

    #[test]
    fn pair_slot_lex_order_k3() {
        // Fig. 4 row order for k = 3: (0,1), (0,2), (1,2).
        assert_eq!(pair_slot(0, 1, 3), 0);
        assert_eq!(pair_slot(0, 2, 3), 1);
        assert_eq!(pair_slot(1, 2, 3), 2);
    }

    #[test]
    fn edge_index_matches_subset_rank_for_pairs() {
        // Edges are just 2-subsets; the two rankings must agree.
        for u in 0..15 {
            for v in (u + 1)..15 {
                assert_eq!(edge_index(15, u, v), subset_rank(&[u, v]));
            }
        }
    }
}
