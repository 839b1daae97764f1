//! `RECURSECONNECT` (§5.1, Theorem 5.1): a `(k^{log₂5} − 1)`-spanner in
//! `⌈log₂ k⌉ + 1` passes.
//!
//! Pass `i` works on a contraction `G̃_i` of the input graph (supervertices
//! = sets of original vertices) with the invariant
//! `|G̃_i| ≤ n^{1−(2^i−1)/k}`:
//!
//! 1. Every supervertex samples ~`n^{2^i/k}` distinct neighbors: `R`
//!    independent hash partitions of the supervertex-id space into `B`
//!    buckets, an ℓ0-detector per bucket over **original** edge slots, so
//!    every discovered neighbor comes with a witness edge of `G`.
//! 2. Supervertices that discover fewer than `n^{2^i/k}` distinct
//!    neighbors are *low degree*: all their witness edges enter the
//!    spanner and they retire (deviation documented in DESIGN.md §4.6 —
//!    the paper recovers their edges via sparse recovery; keeping all of
//!    them preserves every path through the retired vertex).
//! 3. The sampled edges form `H_i`. Cluster centers `C_i` = greedy maximal
//!    set of high-degree vertices at pairwise `H_i`-distance ≥ 3; every
//!    high-degree vertex is within 2 hops of a center (else greedy would
//!    have added it). All of `H_i`'s witness edges enter the spanner
//!    (superset of the BFS assignment trees, still `Õ(n^{1+1/k})`).
//! 4. Each cluster collapses into one supervertex of `G̃_{i+1}`.
//!
//! A final pass keeps one witness edge per remaining supervertex pair
//! ("after log k passes we have a graph of size √n and we can remember
//! the connectivity between every pair of vertices in O(n) space").
//!
//! Lemma 5.1's recursion `a₁ ≤ 4, a_{i+1} ≤ 5·a_i + 4` on intra-cluster
//! distances is auditable through the returned [`RecurseTrace`] (E14).

use crate::spanner::Meter;
use gs_field::{BackendKind, HashBackend, Randomness};
use gs_graph::Graph;
use gs_sketch::domain::{edge_domain, edge_index, edge_unindex};
use gs_sketch::{L0Detector, L0Result};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Parameters for [`recurse_connect`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecurseParams {
    /// The `k` of the `n^{1/k}` space/stretch trade-off. Stretch bound:
    /// `k^{log₂ 5} − 1`.
    pub k: usize,
    /// Multiplier on the per-phase neighbor target `n^{2^i/k}` when sizing
    /// bucket banks (`B = ⌈c · target⌉` buckets per repetition).
    pub bucket_factor: f64,
    /// Independent hash partitions per supervertex.
    pub reps: usize,
    /// Detector repetitions inside each bucket.
    pub detector_reps: usize,
    /// Randomness regime.
    pub kind: BackendKind,
}

impl RecurseParams {
    /// Scaled defaults: `B = 4·n^{2^i/k}` buckets, 3 partitions.
    pub fn scaled(k: usize) -> Self {
        assert!(k >= 2, "RECURSECONNECT needs k ≥ 2");
        RecurseParams {
            k,
            bucket_factor: 4.0,
            reps: 3,
            detector_reps: 2,
            kind: BackendKind::Oracle,
        }
    }
}

/// Per-phase audit record.
#[derive(Clone, Debug)]
pub struct PhaseInfo {
    /// Phase index `i` (0-based).
    pub phase: usize,
    /// The neighbor-sampling target `n^{2^i/k}`.
    pub degree_target: usize,
    /// Supervertex membership **after** this phase's collapse: original
    /// vertices per supervertex (retired vertices absent).
    pub members: Vec<Vec<usize>>,
    /// How many supervertices retired as low-degree this phase.
    pub retired: usize,
    /// Spanner edges added this phase.
    pub edges_added: usize,
}

/// Execution trace for the Lemma 5.1 audit (E14).
#[derive(Clone, Debug, Default)]
pub struct RecurseTrace {
    /// One record per contraction phase.
    pub phases: Vec<PhaseInfo>,
}

/// Builds the spanner; returns it with the audit trace. Pass count
/// (`⌈log₂ k⌉ + 1`) is visible on the `meter`.
pub fn recurse_connect(
    meter: &mut Meter<'_>,
    params: RecurseParams,
    seed: u64,
) -> (Graph, RecurseTrace) {
    let n = meter.n();
    let k = params.k;
    let edge_dom = edge_domain(n);
    let phases = (usize::BITS - (k - 1).leading_zeros()) as usize; // ⌈log₂ k⌉

    // super_of[v] = Some(supervertex id) while v is represented.
    let mut super_of: Vec<Option<usize>> = (0..n).map(Some).collect();
    let mut sv_count = n;
    let mut spanner: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut trace = RecurseTrace::default();

    for phase in 0..phases {
        if sv_count * sv_count <= n {
            break; // already at the √n regime; go to the final pass
        }
        let target = (n as f64)
            .powf((1u64 << phase) as f64 / k as f64)
            .ceil()
            .max(2.0) as usize;
        let buckets = ((target as f64) * params.bucket_factor).ceil() as usize;
        let hashes: Vec<HashBackend> = (0..params.reps)
            .map(|r| {
                params
                    .kind
                    .backend(seed, 0x7C_0000 + (phase * 64 + r) as u64)
            })
            .collect();

        // One bank (reps × buckets detectors over edge slots) per
        // supervertex. Supervertex ids are dense in 0..sv_count.
        let mut banks: Vec<Vec<L0Detector>> = (0..sv_count)
            .map(|p| {
                (0..params.reps * buckets)
                    .map(|i| {
                        L0Detector::with_params(
                            edge_dom,
                            params.detector_reps,
                            seed ^ (0x7C_1000 + ((phase * sv_count + p) * 977 + i) as u64)
                                .wrapping_mul(0x2545_F491_4F6C_DD1D),
                            params.kind,
                        )
                    })
                    .collect()
            })
            .collect();

        // ---- pass ----
        meter.pass(|u, v, d| {
            let (Some(p), Some(q)) = (super_of[u], super_of[v]) else {
                return;
            };
            if p == q {
                return;
            }
            let idx = edge_index(n, u, v);
            for (x, y) in [(p, q), (q, p)] {
                for (r, h) in hashes.iter().enumerate() {
                    let b = h.hash_range(y as u64, buckets as u64) as usize;
                    banks[x][r * buckets + b].update(idx, d);
                }
            }
        });

        // ---- decode: discovered neighbors with witness edges ----
        // adjacency[p]: neighbor supervertex -> witness (u, v).
        let mut adjacency: Vec<BTreeMap<usize, (usize, usize)>> = vec![BTreeMap::new(); sv_count];
        for (p, bank) in banks.iter().enumerate() {
            for det in bank {
                if let L0Result::Sample(idx, _) = det.query() {
                    let (u, v) = edge_unindex(idx);
                    if u >= n || v >= n {
                        continue;
                    }
                    let (Some(pu), Some(pv)) = (super_of[u], super_of[v]) else {
                        continue;
                    };
                    let q = if pu == p {
                        pv
                    } else if pv == p {
                        pu
                    } else {
                        continue; // hash collision artifact; ignore
                    };
                    if q != p {
                        adjacency[p].entry(q).or_insert((u, v));
                    }
                }
            }
        }
        // Symmetrize (q may have seen p even if p missed q).
        for p in 0..sv_count {
            let found: Vec<(usize, (usize, usize))> =
                adjacency[p].iter().map(|(&q, &e)| (q, e)).collect();
            for (q, e) in found {
                adjacency[q].entry(p).or_insert(e);
            }
        }

        let edges_before = spanner.len();
        let high: Vec<bool> = adjacency.iter().map(|a| a.len() >= target).collect();

        // Low-degree supervertices: keep all witness edges, retire.
        let mut retired = vec![false; sv_count];
        for p in 0..sv_count {
            if !high[p] {
                for &(u, v) in adjacency[p].values() {
                    spanner.insert((u.min(v), u.max(v)));
                }
                retired[p] = true;
            }
        }

        // H_i on high-degree vertices: all witness edges join the spanner.
        for p in 0..sv_count {
            if high[p] {
                for (&q, &(u, v)) in &adjacency[p] {
                    if high[q] {
                        spanner.insert((u.min(v), u.max(v)));
                    }
                }
            }
        }

        // ---- greedy centers: maximal, pairwise H_i-distance ≥ 3 ----
        // dist_to_center[p] = hops (≤ 2) to the nearest chosen center.
        let mut near_center = vec![u32::MAX; sv_count];
        let mut assigned_to = vec![usize::MAX; sv_count];
        let mut centers = Vec::new();
        for c in 0..sv_count {
            if !high[c] || near_center[c] != u32::MAX {
                continue; // low degree, or within 2 hops of a center
            }
            centers.push(c);
            // BFS to depth 2 over high-degree H_i adjacency.
            near_center[c] = 0;
            assigned_to[c] = c;
            let mut queue = VecDeque::from([c]);
            while let Some(x) = queue.pop_front() {
                if near_center[x] >= 2 {
                    continue;
                }
                for &y in adjacency[x].keys() {
                    if high[y] && near_center[x] + 1 < near_center[y] {
                        near_center[y] = near_center[x] + 1;
                        assigned_to[y] = c;
                        queue.push_back(y);
                    }
                }
            }
        }

        // ---- collapse ----
        let mut new_id_of_center: BTreeMap<usize, usize> = BTreeMap::new();
        for (i, &c) in centers.iter().enumerate() {
            new_id_of_center.insert(c, i);
        }
        let mut new_members: Vec<Vec<usize>> = vec![Vec::new(); centers.len()];
        let mut new_super: Vec<Option<usize>> = vec![None; n];
        for v in 0..n {
            let Some(p) = super_of[v] else { continue };
            if retired[p] {
                continue; // retired vertices leave the contracted graph
            }
            debug_assert!(high[p]);
            let c = assigned_to[p];
            debug_assert!(c != usize::MAX, "high-degree vertex with no center");
            let ni = new_id_of_center[&c];
            new_super[v] = Some(ni);
            new_members[ni].push(v);
        }
        super_of = new_super;
        sv_count = centers.len();
        trace.phases.push(PhaseInfo {
            phase,
            degree_target: target,
            members: new_members,
            retired: retired.iter().filter(|&&r| r).count(),
            edges_added: spanner.len() - edges_before,
        });
        if sv_count <= 1 {
            break;
        }
    }

    // ---- final pass: one witness edge per remaining supervertex pair ----
    if sv_count >= 2 {
        let pair_count = sv_count * sv_count;
        let mut pair_dets: Vec<Option<L0Detector>> = (0..pair_count).map(|_| None).collect();
        meter.pass(|u, v, d| {
            let (Some(p), Some(q)) = (super_of[u], super_of[v]) else {
                return;
            };
            if p == q {
                return;
            }
            let (a, b) = (p.min(q), p.max(q));
            let slot = a * sv_count + b;
            let det = pair_dets[slot].get_or_insert_with(|| {
                L0Detector::with_params(
                    edge_dom,
                    params.detector_reps,
                    seed ^ (0x7C_F000 + slot as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25),
                    params.kind,
                )
            });
            det.update(edge_index(n, u, v), d);
        });
        for det in pair_dets.into_iter().flatten() {
            if let L0Result::Sample(idx, _) = det.query() {
                let (u, v) = edge_unindex(idx);
                if u < n && v < n {
                    spanner.insert((u, v));
                }
            }
        }
    } else {
        // Still burn the final pass so the pass count is input-independent
        // (an adaptive scheme's batch count is part of its definition).
        meter.pass(|_, _, _| {});
    }

    (Graph::from_edges(n, spanner), trace)
}

/// The stretch bound of Theorem 5.1 for a given `k`.
pub fn stretch_bound(k: usize) -> f64 {
    (k as f64).powf(5.0f64.log2()) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_graph::paths::max_stretch;
    use gs_graph::{gen, paths};

    fn run(g: &Graph, k: usize, seed: u64) -> (Graph, RecurseTrace, usize) {
        let stream = gen::insert_stream(g);
        let mut meter = Meter::new(g.n(), &stream);
        let (h, t) = recurse_connect(&mut meter, RecurseParams::scaled(k), seed);
        (h, t, meter.passes())
    }

    #[test]
    fn stretch_bound_values() {
        assert!((stretch_bound(2) - (5.0 - 1.0)).abs() < 1e-9);
        assert!((stretch_bound(4) - 24.0).abs() < 1e-9);
    }

    #[test]
    fn pass_count_is_log_k_plus_one() {
        let g = gen::connected_gnp(60, 0.15, 1);
        for (k, expect) in [(2, 2), (4, 3), (8, 4)] {
            let (_, _, passes) = run(&g, k, 3);
            assert!(
                passes <= expect,
                "k = {k}: {passes} passes > ⌈log₂k⌉+1 = {expect}"
            );
        }
    }

    #[test]
    fn spanner_preserves_connectivity_and_stretch() {
        for (g, tag) in [
            (gen::connected_gnp(50, 0.15, 5), "gnp"),
            (gen::grid(6, 8), "grid"),
            (gen::preferential_attachment(50, 3, 7), "pa"),
        ] {
            let (h, _, _) = run(&g, 2, 9);
            for &(u, v, _) in h.edges() {
                assert!(g.has_edge(u, v), "{tag}: phantom edge ({u},{v})");
            }
            let s = max_stretch(&g, &h).unwrap_or(f64::INFINITY);
            assert!(
                s <= stretch_bound(2),
                "{tag}: stretch {s} > bound {}",
                stretch_bound(2)
            );
        }
    }

    #[test]
    fn dense_graph_sparsifies() {
        let g = gen::complete(64);
        let (h, _, _) = run(&g, 2, 11);
        assert!(h.m() < g.m(), "kept {}/{}", h.m(), g.m());
        let s = max_stretch(&g, &h).expect("connected");
        assert!(s <= stretch_bound(2));
    }

    #[test]
    fn trace_invariant_supervertex_counts_shrink() {
        let g = gen::connected_gnp(80, 0.2, 13);
        let (_, t, _) = run(&g, 2, 15);
        let mut prev = g.n();
        for p in &t.phases {
            let sv = p.members.len();
            assert!(
                sv < prev,
                "phase {} did not shrink: {sv} vs {prev}",
                p.phase
            );
            prev = sv;
        }
    }

    #[test]
    fn lemma_5_1_audit_on_trace() {
        // Intra-supervertex distances in the spanner obey a_{i+1} ≤ 5a_i+4
        // with a_0 = 0 ⇒ a_1 ≤ 4, a_2 ≤ 24 …
        let g = gen::connected_gnp(70, 0.25, 17);
        let (h, t, _) = run(&g, 4, 19);
        let dh = paths::all_pairs_distances(&h);
        let mut bound = 0u32; // a_0
        for p in &t.phases {
            bound = 5 * bound + 4;
            for members in &p.members {
                for (ai, &a) in members.iter().enumerate() {
                    for &b in &members[ai + 1..] {
                        assert!(
                            dh[a][b] <= bound,
                            "phase {}: d_H({a},{b}) = {} > a bound {}",
                            p.phase,
                            dh[a][b],
                            bound
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn churn_stream_supported() {
        let g = gen::connected_gnp(40, 0.2, 21);
        let stream = gen::churn_stream(&g, 300, 23);
        let mut meter = Meter::new(g.n(), &stream);
        let (h, _) = recurse_connect(&mut meter, RecurseParams::scaled(2), 25);
        let s = max_stretch(&g, &h).expect("connected");
        assert!(s <= stretch_bound(2), "churn stretch {s}");
    }

    #[test]
    fn disconnected_components_respected() {
        let mut edges = Vec::new();
        for u in 0..10 {
            for v in (u + 1)..10 {
                edges.push((u, v));
                edges.push((10 + u, 10 + v));
            }
        }
        let g = Graph::from_edges(20, edges);
        let (h, _, _) = run(&g, 2, 27);
        let dg = paths::all_pairs_distances(&g);
        let dh = paths::all_pairs_distances(&h);
        for u in 0..20 {
            for v in 0..20 {
                assert_eq!(dg[u][v] == paths::INF, dh[u][v] == paths::INF);
            }
        }
    }
}
