//! Seeded workload generators.
//!
//! The paper motivates graph sketching with web graphs, IP-flow graphs,
//! and friendship graphs (§1). These generators produce the synthetic
//! stand-ins used by the experiments: Erdős–Rényi `G(n,p)` (the default
//! random workload), planted partitions (community structure with a known
//! sparse cut), barbells (an exactly known minimum cut — the adversarial
//! case for Fig. 1), grids and cycles (high-diameter graphs that stress
//! spanners), preferential attachment (heavy-tailed degrees, the web-graph
//! proxy), and weighted variants for §3.5.
//!
//! The stream generators turn a graph into a dynamic stream of unit
//! [`EdgeUpdate`]s (Definition 1) that materializes back to it:
//! [`insert_stream`] inserts every edge, [`churn_stream`] and
//! [`churn_with`] also insert and later delete decoy edges — the §1.1
//! workload where "edge deletions cancel out previous insertions". They
//! live here, below every crate that sketches a stream, so the unit
//! tests, benches, examples and trace catalogue all replay one sequence.

use crate::graph::Graph;
use gs_field::SplitMix64;
use gs_sketch::EdgeUpdate;

/// Erdős–Rényi `G(n, p)`: each pair independently an edge.
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p));
    let mut rng = SplitMix64::new(seed);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.next_f64() < p {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, edges)
}

/// Erdős–Rényi `G(n, p)` by geometric skipping: expected `O(n + m)` time
/// instead of [`gnp`]'s `O(n²)` coin flips, so million-vertex sparse
/// workloads are generated in milliseconds.
///
/// Instead of flipping a coin per vertex pair, the sampler walks the
/// `C(n, 2)` pair space in jumps drawn from the geometric distribution
/// `skip = ⌊ln(U) / ln(1 − p)⌋` — the number of consecutive misses before
/// the next hit when each pair is an edge independently with probability
/// `p`. Every landing is an edge, so work is proportional to the output
/// (plus the `O(n)` row walk).
///
/// The distribution is exactly `G(n, p)`, but the edge set for a given
/// seed differs from [`gnp`]'s — the original per-pair path stays
/// byte-stable for everything seeded against it; new workload-scale
/// callers use this one.
pub fn gnp_skip(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p));
    if n < 2 || p <= 0.0 {
        return Graph::from_edges(n, std::iter::empty());
    }
    if p >= 1.0 {
        return complete(n);
    }
    let mut rng = SplitMix64::new(seed);
    let log_miss = (1.0 - p).ln();
    let mut edges = Vec::with_capacity((p * (n * (n - 1) / 2) as f64) as usize + 1);
    // Cursor over the pair space in row-major order: row `u` holds the
    // pairs (u, u+1) .. (u, n-1). `v` starts one before the first column
    // so the initial skip of `k` lands on the (k+1)-th pair.
    let mut u = 0usize;
    let mut v = 0usize;
    loop {
        // U ∈ (0, 1]: ln is finite, and a skip of 0 (p close to 1) is
        // the next adjacent pair.
        let uniform = 1.0 - rng.next_f64();
        let skip = (uniform.ln() / log_miss).floor();
        if skip >= (n * n) as f64 {
            break; // one jump clears the whole remaining pair space
        }
        let mut step = skip as usize + 1;
        // Advance the cursor `step` pairs, wrapping through row ends.
        while step > n - 1 - v {
            step -= n - 1 - v;
            u += 1;
            v = u;
            if u >= n - 1 {
                return Graph::from_edges(n, edges);
            }
        }
        v += step;
        edges.push((u, v));
    }
    Graph::from_edges(n, edges)
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    Graph::from_edges(n, (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v))))
}

/// The cycle `C_n` (requires `n ≥ 3`).
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3);
    Graph::from_edges(n, (0..n).map(|u| (u, (u + 1) % n)))
}

/// The `rows × cols` grid graph.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let idx = |r: usize, c: usize| r * cols + c;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((idx(r, c), idx(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((idx(r, c), idx(r + 1, c)));
            }
        }
    }
    Graph::from_edges(rows * cols, edges)
}

/// Two `half`-cliques joined by exactly `bridge` vertex-disjoint edges:
/// the planted minimum cut is `bridge` (for `bridge < half − 1`), making
/// this the canonical MINCUT test case.
///
/// # Panics
/// Panics unless `2 ≤ bridge ≤ half`.
pub fn barbell(half: usize, bridge: usize) -> Graph {
    assert!(bridge <= half && half >= 2 && bridge >= 1);
    let n = 2 * half;
    let mut edges = Vec::new();
    for u in 0..half {
        for v in (u + 1)..half {
            edges.push((u, v));
            edges.push((half + u, half + v));
        }
    }
    for b in 0..bridge {
        edges.push((b, half + b));
    }
    Graph::from_edges(n, edges)
}

/// Planted partition ("stochastic block model") with `blocks` equal
/// communities: intra-community pairs are edges with probability `p_in`,
/// cross-community pairs with probability `p_out`.
pub fn planted_partition(n: usize, blocks: usize, p_in: f64, p_out: f64, seed: u64) -> Graph {
    assert!(blocks >= 1 && n >= blocks);
    let mut rng = SplitMix64::new(seed);
    let block_of = |v: usize| v * blocks / n;
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let p = if block_of(u) == block_of(v) {
                p_in
            } else {
                p_out
            };
            if rng.next_f64() < p {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, edges)
}

/// Preferential attachment: each new vertex attaches to `m` existing
/// vertices chosen proportionally to degree (Barabási–Albert style),
/// yielding the heavy-tailed degrees of web/social graphs.
pub fn preferential_attachment(n: usize, m: usize, seed: u64) -> Graph {
    assert!(m >= 1 && n > m);
    let mut rng = SplitMix64::new(seed);
    // `targets` holds one entry per half-edge; sampling an entry uniformly
    // is degree-proportional sampling.
    let mut targets: Vec<usize> = (0..=m).collect();
    let mut edges = Vec::new();
    // Seed clique on m+1 vertices.
    for u in 0..=m {
        for v in (u + 1)..=m {
            edges.push((u, v));
        }
    }
    for v in (m + 1)..n {
        let mut chosen = std::collections::BTreeSet::new();
        let mut guard = 0;
        while chosen.len() < m && guard < 50 * m {
            let t = targets[rng.next_range(targets.len() as u64) as usize];
            chosen.insert(t);
            guard += 1;
        }
        for &t in &chosen {
            edges.push((v, t));
            targets.push(t);
            targets.push(v);
        }
    }
    Graph::from_edges(n, edges)
}

/// `G(n,p)` with independent uniform integer weights in `[1, max_w]`
/// (workload for the weighted sparsification of §3.5).
pub fn gnp_weighted(n: usize, p: f64, max_w: u64, seed: u64) -> Graph {
    assert!(max_w >= 1);
    let base = gnp(n, p, seed);
    let mut rng = SplitMix64::new(seed ^ 0x77EE);
    base.map_weights(|_, _, _| 1 + rng.next_range(max_w))
}

/// A connected `G(n,p)`-like graph: `gnp` plus a random Hamiltonian path
/// to guarantee connectivity (spanner experiments need finite distances).
pub fn connected_gnp(n: usize, p: f64, seed: u64) -> Graph {
    let g = gnp(n, p, seed);
    let mut rng = SplitMix64::new(seed ^ 0xC0);
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.next_range(i as u64 + 1) as usize;
        perm.swap(i, j);
    }
    let mut edges: Vec<(usize, usize)> = g.edges().iter().map(|&(u, v, _)| (u, v)).collect();
    edges.extend(perm.windows(2).map(|w| (w[0], w[1])));
    Graph::from_edges(n, edges)
}

/// Insert-only stream realizing `g`: an edge of weight `w` appears as `w`
/// unit insertions, in edge-list order.
pub fn insert_stream(g: &Graph) -> Vec<EdgeUpdate> {
    let mut updates = Vec::new();
    for &(u, v, w) in g.edges() {
        for _ in 0..w {
            updates.push(EdgeUpdate::insert(u, v));
        }
    }
    updates
}

/// A churn stream that materializes to `g` after also inserting and later
/// deleting `extra` uniformly random decoy edges: [`churn_with`] seeded
/// with `seed` and a uniform decoy pair. Decoys may coincide with real
/// edges (their multiplicity rises and falls back).
///
/// # Panics
/// Panics if `g` has fewer than 2 vertices.
pub fn churn_stream(g: &Graph, extra: usize, seed: u64) -> Vec<EdgeUpdate> {
    let n = g.n();
    assert!(n >= 2);
    churn_with(g, extra, &mut SplitMix64::new(seed), |rng| {
        let u = rng.next_range(n as u64) as usize;
        let mut v = rng.next_range(n as u64) as usize;
        if u == v {
            v = (v + 1) % n;
        }
        (u, v)
    })
}

/// Shuffle-interleaves `g`'s unit insertions with `extra` decoy
/// insert/delete pairs on pairs drawn by `decoy`. The interleaving is
/// random, but every deletion follows its matching insertion, so every
/// prefix keeps multiplicities non-negative.
pub fn churn_with(
    g: &Graph,
    extra: usize,
    rng: &mut SplitMix64,
    mut decoy: impl FnMut(&mut SplitMix64) -> (usize, usize),
) -> Vec<EdgeUpdate> {
    // (timestamp, update); decoys get two timestamps in order.
    let mut timed: Vec<(u64, EdgeUpdate)> = Vec::new();
    for &(u, v, w) in g.edges() {
        for _ in 0..w {
            timed.push((rng.next_u64(), EdgeUpdate::insert(u, v)));
        }
    }
    for _ in 0..extra {
        let (u, v) = decoy(rng);
        debug_assert_ne!(u, v);
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let (t_ins, t_del) = if a < b {
            (a, b)
        } else {
            (b, a.max(b.wrapping_add(1)))
        };
        timed.push((t_ins, EdgeUpdate::insert(u, v)));
        timed.push((t_del, EdgeUpdate::delete(u, v)));
    }
    timed.sort_by_key(|&(t, _)| t);
    timed.into_iter().map(|(_, up)| up).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnp_respects_probability_extremes() {
        assert_eq!(gnp(20, 0.0, 1).m(), 0);
        assert_eq!(gnp(20, 1.0, 1).m(), 20 * 19 / 2);
    }

    #[test]
    fn gnp_is_seed_deterministic() {
        let a = gnp(30, 0.3, 7);
        let b = gnp(30, 0.3, 7);
        let c = gnp(30, 0.3, 8);
        assert_eq!(a.edges(), b.edges());
        assert_ne!(a.edges(), c.edges());
    }

    #[test]
    fn gnp_edge_count_concentrates() {
        let n = 100;
        let p = 0.2;
        let g = gnp(n, p, 3);
        let expected = p * (n * (n - 1) / 2) as f64;
        let sd = (expected * (1.0 - p)).sqrt();
        assert!(
            (g.m() as f64 - expected).abs() < 5.0 * sd,
            "m = {}, expected {expected}",
            g.m()
        );
    }

    #[test]
    fn gnp_skip_respects_probability_extremes_and_seed() {
        assert_eq!(gnp_skip(20, 0.0, 1).m(), 0);
        assert_eq!(gnp_skip(20, 1.0, 1).m(), 20 * 19 / 2);
        assert_eq!(gnp_skip(1, 0.5, 1).m(), 0);
        let a = gnp_skip(30, 0.3, 7);
        let b = gnp_skip(30, 0.3, 7);
        let c = gnp_skip(30, 0.3, 8);
        assert_eq!(a.edges(), b.edges());
        assert_ne!(a.edges(), c.edges());
    }

    #[test]
    fn gnp_skip_emits_well_formed_pairs() {
        let g = gnp_skip(50, 0.23, 9);
        let mut seen = std::collections::BTreeSet::new();
        for &(u, v, w) in g.edges() {
            assert!(u < v && v < 50, "malformed pair ({u}, {v})");
            assert_eq!(w, 1);
            assert!(seen.insert((u, v)), "duplicate pair ({u}, {v})");
        }
    }

    /// Regression for the skip-sampler's distribution: over many seeds,
    /// the naive per-pair sampler and the geometric-skip sampler must
    /// agree on the edge-count mean (both are Binomial(C(n,2), p)) and on
    /// per-pair inclusion frequencies (every pair near p, no positional
    /// bias at row starts/ends where the cursor arithmetic could slip).
    #[test]
    fn gnp_skip_matches_naive_gnp_distribution() {
        let n = 24;
        let p = 0.3;
        let rounds = 400;
        let pairs = n * (n - 1) / 2;
        let mut naive_edges = 0u64;
        let mut skip_edges = 0u64;
        let mut naive_freq = vec![0u32; n * n];
        let mut skip_freq = vec![0u32; n * n];
        for seed in 0..rounds {
            let a = gnp(n, p, 1000 + seed);
            let b = gnp_skip(n, p, 2000 + seed);
            naive_edges += a.m() as u64;
            skip_edges += b.m() as u64;
            for &(u, v, _) in a.edges() {
                naive_freq[u * n + v] += 1;
            }
            for &(u, v, _) in b.edges() {
                skip_freq[u * n + v] += 1;
            }
        }
        // Edge-count means: each is an average of `rounds` Binomial
        // draws; the estimator's sd is sqrt(pairs*p*(1-p)/rounds) ≈ 0.38,
        // so a 5-sd band around the analytic mean is a robust gate.
        let expected = pairs as f64 * p;
        let sd = (pairs as f64 * p * (1.0 - p) / rounds as f64).sqrt();
        for (tag, total) in [("naive", naive_edges), ("skip", skip_edges)] {
            let mean = total as f64 / rounds as f64;
            assert!(
                (mean - expected).abs() < 5.0 * sd,
                "{tag} edge-count mean {mean} strays from {expected}"
            );
        }
        // Per-pair inclusion: Binomial(rounds, p) per cell; 5-sd band.
        let cell_sd = (rounds as f64 * p * (1.0 - p)).sqrt();
        for u in 0..n {
            for v in (u + 1)..n {
                for (tag, freq) in [("naive", &naive_freq), ("skip", &skip_freq)] {
                    let got = freq[u * n + v] as f64;
                    assert!(
                        (got - rounds as f64 * p).abs() < 5.0 * cell_sd,
                        "{tag} pair ({u},{v}) frequency {got} strays from \
                         {}",
                        rounds as f64 * p
                    );
                }
            }
        }
    }

    #[test]
    fn complete_and_cycle_shapes() {
        assert_eq!(complete(6).m(), 15);
        let c = cycle(8);
        assert_eq!(c.m(), 8);
        assert!(c.is_connected());
        assert!((0..8).all(|v| c.degree(v) == 2));
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4); // horizontal + vertical
        assert!(g.is_connected());
    }

    #[test]
    fn barbell_planted_cut() {
        let g = barbell(10, 3);
        assert!(g.is_connected());
        // The planted cut separates the two halves with exactly 3 edges.
        let side: Vec<bool> = (0..20).map(|v| v < 10).collect();
        assert_eq!(g.cut_value(&side), 3);
        // Clique internal degree dominates.
        assert!(g.degree(5) >= 9);
    }

    #[test]
    fn planted_partition_has_sparse_cross_cut() {
        let g = planted_partition(60, 2, 0.5, 0.02, 11);
        let side: Vec<bool> = (0..60).map(|v| v < 30).collect();
        let cross = g.cut_value(&side);
        // Expected cross edges = 0.02 * 900 = 18; internal ≈ 0.5*435 each.
        assert!(cross < 60, "cross cut {cross} too heavy");
        assert!(g.m() as u64 > 8 * cross);
    }

    #[test]
    fn preferential_attachment_degree_skew() {
        let g = preferential_attachment(300, 2, 5);
        assert!(g.is_connected());
        let max_deg = (0..300).map(|v| g.degree(v)).max().unwrap();
        let median = {
            let mut d: Vec<usize> = (0..300).map(|v| g.degree(v)).collect();
            d.sort_unstable();
            d[150]
        };
        assert!(
            max_deg >= 4 * median,
            "no skew: max {max_deg}, median {median}"
        );
    }

    #[test]
    fn weighted_gnp_weights_in_range() {
        let g = gnp_weighted(40, 0.3, 9, 2);
        assert!(g.edges().iter().all(|&(_, _, w)| (1..=9).contains(&w)));
        assert!(g.edges().iter().any(|&(_, _, w)| w > 1));
    }

    #[test]
    fn connected_gnp_is_connected() {
        for seed in 0..5 {
            assert!(connected_gnp(50, 0.02, seed).is_connected());
        }
    }

    fn materialize(n: usize, updates: &[EdgeUpdate]) -> Graph {
        Graph::from_unit_updates(n, updates).expect("no negative multiplicity")
    }

    #[test]
    fn inserts_materialize_back() {
        let g = gnp(30, 0.2, 1);
        let s = insert_stream(&g);
        assert_eq!(s.len() as u64, g.total_weight());
        assert_eq!(materialize(30, &s).edges(), g.edges());
    }

    #[test]
    fn churn_stream_cancels_to_original() {
        let g = gnp(25, 0.15, 2);
        let s = churn_stream(&g, 500, 3);
        assert!(s.len() >= g.m() + 1000);
        assert!(s.iter().any(|u| u.delta == -1));
        assert_eq!(materialize(25, &s).edges(), g.edges());
    }

    #[test]
    fn churn_prefixes_stay_non_negative() {
        // The final fold only sees net multiplicities; walk every prefix
        // so a deletion scheduled before its insertion cannot hide.
        let g = cycle(10);
        let s = churn_stream(&g, 2000, 7);
        let mut mult = std::collections::BTreeMap::new();
        for (i, up) in s.iter().enumerate() {
            let m = mult.entry((up.u.min(up.v), up.u.max(up.v))).or_insert(0i64);
            *m += up.delta;
            assert!(*m >= 0, "prefix {i} drives ({}, {}) negative", up.u, up.v);
        }
        assert_eq!(materialize(10, &s).edges(), g.edges());
    }

    #[test]
    fn churn_with_zero_extra_is_pure_inserts() {
        let g = gnp(12, 0.3, 9);
        let s = churn_stream(&g, 0, 10);
        assert_eq!(s.len() as u64, g.total_weight());
        assert!(s.iter().all(|u| u.delta == 1));
    }
}
