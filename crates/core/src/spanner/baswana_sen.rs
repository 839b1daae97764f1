//! The k-pass Baswana–Sen emulation (§5).
//!
//! > *"The Baswana-Sen construction \[7\] leads to an O(k)-pass (2k−1)-
//! > spanner construction using Õ(n^{1+1/k}) space in dynamic graph
//! > streams … each phase requires selecting O(n^{1/k}) edges incident on
//! > each node and this can be performed via either sparse recovery or ℓ0
//! > sampling."*
//!
//! Phase structure (clusters grow radius ≤ 1 per phase):
//!
//! * **Phase i (pass i).** Every vertex belongs to a cluster of the
//!   current clustering (initially singletons). Clusters are re-sampled
//!   with probability `n^{−1/k}`. During the pass each active vertex `u`
//!   sketches its incident edges **partitioned by the cluster of the other
//!   endpoint**: one ℓ0-detector restricted to sampled clusters (to join
//!   one), plus `R` independent hash-partitions of cluster-ids into `B`
//!   buckets with one ℓ0-detector each (to find one edge per adjacent
//!   cluster when no sampled cluster is adjacent — an adjacent cluster is
//!   alone in its bucket in some repetition w.h.p., DESIGN.md §4.7).
//! * **Decode.** `u` whose own cluster was re-sampled stays. Otherwise,
//!   if the sampled-cluster detector returns an edge, `u` joins that
//!   cluster through it. Otherwise `u` adds one discovered edge per
//!   adjacent cluster and retires from the active graph.
//! * **Final pass.** Every surviving vertex adds one edge to each
//!   adjacent cluster of the final clustering.
//!
//! Total passes: `(k−1) + 1 = k`. Stretch `2k−1`, `Õ(k·n^{1+1/k})` edges.

use crate::spanner::Meter;
use gs_field::{BackendKind, HashBackend, Randomness};
use gs_graph::Graph;
use gs_sketch::{L0Detector, L0Result};
use std::collections::BTreeMap;

/// Parameters for [`baswana_sen`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BaswanaSenParams {
    /// Stretch parameter: the spanner satisfies `d_H ≤ (2k−1)·d_G` w.h.p.
    pub k: usize,
    /// Bucket count `B` per hash partition of cluster-id space
    /// (`Θ(n^{1/k} log n)` in the analysis).
    pub buckets: usize,
    /// Independent partitions `R` (isolation repetitions).
    pub reps: usize,
    /// Detector repetitions inside each bucket.
    pub detector_reps: usize,
    /// Randomness regime.
    pub kind: BackendKind,
}

impl BaswanaSenParams {
    /// Scaled defaults: `B = ⌈2·n^{1/k}·log₂ n⌉`, `R = 4`.
    pub fn scaled(n: usize, k: usize) -> Self {
        assert!(k >= 1);
        let log2n = (usize::BITS - n.max(2).leading_zeros()) as f64;
        let frac = (n as f64).powf(1.0 / k as f64);
        BaswanaSenParams {
            k,
            buckets: (2.0 * frac * log2n).ceil() as usize,
            reps: 4,
            detector_reps: 2,
            kind: BackendKind::Oracle,
        }
    }
}

/// Per-vertex sketch bank for one phase.
struct PhaseBank {
    /// Detector over edges to vertices in *sampled* clusters.
    sampled: L0Detector,
    /// `reps × buckets` detectors over edges bucketed by the other
    /// endpoint's cluster id.
    buckets: Vec<L0Detector>,
}

/// Builds a `(2k−1)`-spanner of the streamed graph in exactly `k` passes.
/// Returns the spanner; the pass count is visible on the `meter`.
pub fn baswana_sen(meter: &mut Meter<'_>, params: BaswanaSenParams, seed: u64) -> Graph {
    let n = meter.n();
    let k = params.k;
    let sample_prob_shift = |phase: usize| -> Box<dyn Fn(usize) -> bool> {
        // Cluster c is sampled in this phase with probability n^{-1/k},
        // decided by a hash so that all decisions are consistent.
        let h = params.kind.backend(seed, 0xB5_0000 + phase as u64);
        let thresh = ((u64::MAX as f64) * (n as f64).powf(-1.0 / k as f64)) as u64;
        Box::new(move |c: usize| h.hash64(c as u64) <= thresh)
    };

    // Clustering state: `center[v]` = Some(cluster id) while v is active.
    let mut center: Vec<Option<usize>> = (0..n).map(Some).collect();
    let mut spanner: Vec<(usize, usize)> = Vec::new();

    // Phases 1..k−1 (none when k == 1).
    for phase in 1..k {
        let sampled = sample_prob_shift(phase);
        let bucket_hashes: Vec<HashBackend> = (0..params.reps)
            .map(|r| {
                params
                    .kind
                    .backend(seed, 0xB5_1000 + (phase * 64 + r) as u64)
            })
            .collect();
        let mk_bank = |v: usize| PhaseBank {
            sampled: L0Detector::with_params(
                n as u64,
                params.detector_reps,
                seed ^ (0xB5_2000 + (phase * n + v) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                params.kind,
            ),
            buckets: (0..params.reps * params.buckets)
                .map(|i| {
                    L0Detector::with_params(
                        n as u64,
                        params.detector_reps,
                        seed ^ (0xB5_3000 + ((phase * n + v) * 131 + i) as u64)
                            .wrapping_mul(0xD134_2543_DE82_EF95),
                        params.kind,
                    )
                })
                .collect(),
        };
        let mut banks: Vec<Option<PhaseBank>> =
            (0..n).map(|v| center[v].map(|_| mk_bank(v))).collect();

        // ---- pass ----
        meter.pass(|u, v, d| {
            let (cu, cv) = (center[u], center[v]);
            let (Some(cu), Some(cv)) = (cu, cv) else {
                return;
            };
            if cu == cv {
                return; // intra-cluster edges play no role this phase
            }
            for (x, cy, y) in [(u, cv, v), (v, cu, u)] {
                let bank = banks[x].as_mut().expect("active vertex has a bank");
                if sampled(cy) {
                    bank.sampled.update(y as u64, d);
                }
                for (r, h) in bucket_hashes.iter().enumerate() {
                    let b = h.hash_range(cy as u64, params.buckets as u64) as usize;
                    bank.buckets[r * params.buckets + b].update(y as u64, d);
                }
            }
        });

        // ---- decode ----
        let old_center = center.clone();
        #[allow(clippy::needless_range_loop)] // banks is vertex-indexed
        for u in 0..n {
            let Some(cu) = old_center[u] else { continue };
            if sampled(cu) {
                continue; // cluster survives; u stays put
            }
            let bank = banks[u].take().expect("bank exists");
            if let L0Result::Sample(y, _) = bank.sampled.query() {
                let y = y as usize;
                // Join the sampled cluster of neighbor y through this edge.
                spanner.push((u.min(y), u.max(y)));
                center[u] = old_center[y];
                continue;
            }
            // No sampled cluster adjacent: add one edge per discovered
            // adjacent cluster and retire.
            let mut per_cluster: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
            for det in &bank.buckets {
                if let L0Result::Sample(y, _) = det.query() {
                    let y = y as usize;
                    if let Some(cy) = old_center[y] {
                        per_cluster.entry(cy).or_insert((u.min(y), u.max(y)));
                    }
                }
            }
            spanner.extend(per_cluster.into_values());
            center[u] = None;
        }
    }

    // ---- final pass: one edge to every adjacent cluster ----
    let bucket_hashes: Vec<HashBackend> = (0..params.reps)
        .map(|r| params.kind.backend(seed, 0xB5_9000 + r as u64))
        .collect();
    let mut banks: Vec<Option<Vec<L0Detector>>> = (0..n)
        .map(|v| {
            center[v].map(|_| {
                (0..params.reps * params.buckets)
                    .map(|i| {
                        L0Detector::with_params(
                            n as u64,
                            params.detector_reps,
                            seed ^ (0xB5_A000 + (v * 131 + i) as u64)
                                .wrapping_mul(0xA076_1D64_78BD_642F),
                            params.kind,
                        )
                    })
                    .collect()
            })
        })
        .collect();
    meter.pass(|u, v, d| {
        let (Some(cu), Some(cv)) = (center[u], center[v]) else {
            return;
        };
        if cu == cv {
            return; // same final cluster: connected through its tree
        }
        for (x, cy, y) in [(u, cv, v), (v, cu, u)] {
            let bank = banks[x].as_mut().expect("active");
            for (r, h) in bucket_hashes.iter().enumerate() {
                let b = h.hash_range(cy as u64, params.buckets as u64) as usize;
                bank[r * params.buckets + b].update(y as u64, d);
            }
        }
    });
    #[allow(clippy::needless_range_loop)] // banks is vertex-indexed
    for u in 0..n {
        let Some(bank) = banks[u].take() else {
            continue;
        };
        let mut per_cluster: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
        for det in &bank {
            if let L0Result::Sample(y, _) = det.query() {
                let y = y as usize;
                if let Some(cy) = center[y] {
                    per_cluster.entry(cy).or_insert((u.min(y), u.max(y)));
                }
            }
        }
        spanner.extend(per_cluster.into_values());
    }

    Graph::from_edges(n, spanner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_graph::paths::max_stretch;
    use gs_graph::{gen, paths};

    fn run(g: &Graph, k: usize, seed: u64) -> (Graph, usize) {
        let stream = gen::insert_stream(g);
        let mut meter = Meter::new(g.n(), &stream);
        let spanner = baswana_sen(&mut meter, BaswanaSenParams::scaled(g.n(), k), seed);
        (spanner, meter.passes())
    }

    #[test]
    fn pass_count_is_k() {
        let g = gen::connected_gnp(40, 0.2, 1);
        for k in 1..=4 {
            let (_, passes) = run(&g, k, 7);
            assert_eq!(passes, k, "k = {k}");
        }
    }

    #[test]
    fn k1_returns_whole_graph_distances() {
        // k = 1: stretch bound 1, i.e. the spanner preserves distances.
        let g = gen::connected_gnp(25, 0.2, 3);
        let (h, _) = run(&g, 1, 9);
        assert_eq!(max_stretch(&g, &h), Some(1.0));
    }

    #[test]
    fn stretch_bound_k2() {
        let g = gen::connected_gnp(40, 0.15, 5);
        let (h, _) = run(&g, 2, 11);
        let s = max_stretch(&g, &h).expect("spanner connects what G connects");
        assert!(s <= 3.0, "stretch {s} > 2k−1 = 3");
        for &(u, v, _) in h.edges() {
            assert!(g.has_edge(u, v), "phantom edge");
        }
    }

    #[test]
    fn stretch_bound_k3_multiple_graphs() {
        for (g, tag) in [
            (gen::connected_gnp(50, 0.1, 13), "gnp"),
            (gen::grid(6, 8), "grid"),
            (gen::preferential_attachment(60, 2, 15), "pa"),
        ] {
            let (h, passes) = run(&g, 3, 17);
            assert_eq!(passes, 3);
            let s = max_stretch(&g, &h).expect("connected");
            assert!(s <= 5.0, "{tag}: stretch {s} > 5");
        }
    }

    #[test]
    fn spanner_is_sparser_on_dense_graphs() {
        let g = gen::complete(40);
        let (h, _) = run(&g, 2, 19);
        assert!(h.m() < g.m() / 2, "spanner kept {}/{} edges", h.m(), g.m());
    }

    #[test]
    fn dynamic_stream_with_churn() {
        let g = gen::connected_gnp(30, 0.2, 21);
        let stream = gen::churn_stream(&g, 300, 23);
        let mut meter = Meter::new(g.n(), &stream);
        let h = baswana_sen(&mut meter, BaswanaSenParams::scaled(30, 2), 25);
        let s = max_stretch(&g, &h).expect("connected");
        assert!(s <= 3.0, "churn stretch {s}");
    }

    #[test]
    fn disconnected_graph_supported() {
        let g = Graph::from_edges(10, [(0, 1), (1, 2), (5, 6), (6, 7)]);
        let (h, _) = run(&g, 2, 27);
        // Distances must be preserved within components, not across.
        let dg = paths::all_pairs_distances(&g);
        let dh = paths::all_pairs_distances(&h);
        for u in 0..10 {
            for v in 0..10 {
                if dg[u][v] == paths::INF {
                    assert_eq!(dh[u][v], paths::INF, "spanner connected ({u},{v})");
                } else {
                    assert!(dh[u][v] != paths::INF, "spanner disconnected ({u},{v})");
                }
            }
        }
    }
}
