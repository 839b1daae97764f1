//! The adversarial trace generator catalogue.
//!
//! Each generator is a small, fully-seeded recipe ([`GeneratorSpec`])
//! producing a [`Trace`]: the update stream *and* the exact final graph
//! it materializes to, so every run can be scored against an exact
//! baseline. Identical spec ⇒ byte-identical trace — the specs travel
//! inside trace files and tasks.jsonl rows, so a failure anywhere
//! reproduces from its JSON alone.
//!
//! The catalogue targets the failure modes the paper's structures are
//! supposed to survive, not average-case inputs:
//!
//! * [`GeneratorSpec::PowerLawChurn`] — heavy-tailed degrees
//!   (preferential attachment, the web/social-graph proxy of §1) under
//!   random insert/delete decoy churn. Hubs concentrate updates into
//!   few sketch rows.
//! * [`GeneratorSpec::SlidingWindow`] — a temporal storm: batches of
//!   random edges inserted every tick and deleted exactly `window`
//!   ticks later, the "recent-interactions graph" workload. At any
//!   instant most past updates have cancelled — the regime ℓ0-sampling
//!   exists for.
//! * [`GeneratorSpec::MinCutAdversary`] — a barbell whose planted
//!   bridge cut is the answer, with decoy churn concentrated on
//!   *cross* edges so the cut value repeatedly rises above its final
//!   near-threshold value before the deletions land.
//! * [`GeneratorSpec::SparsifierAdversary`] — a planted partition
//!   whose sparse cross-cut a sparsifier must preserve, with the decoy
//!   churn again aimed squarely at the cross-cut.
//! * [`GeneratorSpec::WeightChurn`] — a weighted multigraph stream
//!   (§3.5 value-carrying convention) over a [`gs_graph::gen::gnp_skip`]
//!   base: weights are inserted, re-inserted at decoy values, and the
//!   decoys deleted, so per-(pair, weight) multiplicities rise and fall.
//!
//! The three unit churn generators interleave through the shared
//! [`gen::churn_with`] (power-law churn is [`gen::churn_stream`], its
//! uniform-decoy case), so the traces, the unit tests and the benches
//! replay one algorithm; `generated_inputs_are_pinned` pins every
//! generator's output by digest.

use crate::trace::{Trace, UpdateKind};
use gs_field::SplitMix64;
use gs_graph::gen;
use gs_sketch::EdgeUpdate;
use serde::{Deserialize, Serialize};

/// A seeded, replayable trace recipe. See the module docs for the
/// catalogue; [`GeneratorSpec::generate`] produces the trace.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum GeneratorSpec {
    /// Preferential-attachment graph (each new vertex attaches to
    /// `attach` degree-proportional targets) streamed with `churn`
    /// random insert/delete decoy pairs.
    PowerLawChurn {
        /// Vertices.
        n: usize,
        /// Attachments per new vertex (`1 ≤ attach < n`).
        attach: usize,
        /// Decoy insert/delete pairs mixed into the stream.
        churn: usize,
        /// Master seed.
        seed: u64,
    },
    /// Temporal storm: every tick inserts `rate` random edges and
    /// deletes the batch inserted `window` ticks earlier; the final
    /// graph is exactly the last `window` batches (as multiplicities).
    SlidingWindow {
        /// Vertices.
        n: usize,
        /// Ticks a batch stays alive.
        window: usize,
        /// Total ticks.
        batches: usize,
        /// Edges inserted per tick.
        rate: usize,
        /// Master seed.
        seed: u64,
    },
    /// Barbell with a planted `bridge`-edge minimum cut, plus `churn`
    /// decoy cross edges inserted and later deleted — the stream's cut
    /// value keeps teasing above the near-threshold final answer.
    MinCutAdversary {
        /// Vertices per clique (total `n = 2·half`).
        half: usize,
        /// Planted bridge edges (the final minimum cut for
        /// `bridge < half − 1`).
        bridge: usize,
        /// Decoy cross-edge insert/delete pairs.
        churn: usize,
        /// Master seed.
        seed: u64,
    },
    /// Planted partition whose sparse cross-cut is the quantity a
    /// sparsifier must preserve; decoy churn lands only on cross-block
    /// pairs, inflating and deflating exactly that cut mid-stream.
    SparsifierAdversary {
        /// Vertices.
        n: usize,
        /// Equal-size communities.
        blocks: usize,
        /// Intra-community edge probability.
        p_in: f64,
        /// Cross-community edge probability.
        p_out: f64,
        /// Decoy cross-pair insert/delete pairs.
        churn: usize,
        /// Master seed.
        seed: u64,
    },
    /// Weighted multigraph churn over a geometric-skip `G(n, p)` base:
    /// base weights are uniform in `[1, max_weight]`, and `churn` decoy
    /// (pair, weight) copies are inserted and later deleted — when a
    /// decoy weight collides with the real one, that edge's
    /// multiplicity rises to 2 and falls back.
    WeightChurn {
        /// Vertices.
        n: usize,
        /// Base edge probability.
        p: f64,
        /// Weights are uniform in `[1, max_weight]`.
        max_weight: u64,
        /// Decoy weighted insert/delete pairs.
        churn: usize,
        /// Master seed.
        seed: u64,
    },
}

impl GeneratorSpec {
    /// The generator's short name (JSONL rows, CLI listings).
    pub fn name(&self) -> &'static str {
        match self {
            GeneratorSpec::PowerLawChurn { .. } => "power-law-churn",
            GeneratorSpec::SlidingWindow { .. } => "sliding-window",
            GeneratorSpec::MinCutAdversary { .. } => "mincut-adversary",
            GeneratorSpec::SparsifierAdversary { .. } => "sparsifier-adversary",
            GeneratorSpec::WeightChurn { .. } => "weight-churn",
        }
    }

    /// The vertex-set size of the trace this spec generates.
    pub fn n(&self) -> usize {
        match *self {
            GeneratorSpec::PowerLawChurn { n, .. }
            | GeneratorSpec::SlidingWindow { n, .. }
            | GeneratorSpec::SparsifierAdversary { n, .. }
            | GeneratorSpec::WeightChurn { n, .. } => n,
            GeneratorSpec::MinCutAdversary { half, .. } => 2 * half,
        }
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        match *self {
            GeneratorSpec::PowerLawChurn { seed, .. }
            | GeneratorSpec::SlidingWindow { seed, .. }
            | GeneratorSpec::MinCutAdversary { seed, .. }
            | GeneratorSpec::SparsifierAdversary { seed, .. }
            | GeneratorSpec::WeightChurn { seed, .. } => seed,
        }
    }

    /// The same recipe under a different seed (how the runner derives
    /// per-repeat traces from one tasks.jsonl row).
    pub fn with_seed(mut self, new: u64) -> Self {
        match &mut self {
            GeneratorSpec::PowerLawChurn { seed, .. }
            | GeneratorSpec::SlidingWindow { seed, .. }
            | GeneratorSpec::MinCutAdversary { seed, .. }
            | GeneratorSpec::SparsifierAdversary { seed, .. }
            | GeneratorSpec::WeightChurn { seed, .. } => *seed = new,
        }
        self
    }

    /// The delta convention of this generator's traces.
    pub fn kind(&self) -> UpdateKind {
        match self {
            GeneratorSpec::WeightChurn { .. } => UpdateKind::Weighted,
            _ => UpdateKind::Unit,
        }
    }

    /// Refuses degenerate parameters with the offending field named —
    /// the typed boundary for specs arriving from tasks.jsonl or the
    /// CLI, so bad input cannot reach a generator's `assert!`.
    pub fn validate(&self) -> Result<(), String> {
        let prob = |name: &str, p: f64| {
            if (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(format!("{name} must be in [0, 1], got {p}"))
            }
        };
        match *self {
            GeneratorSpec::PowerLawChurn { n, attach, .. } => {
                if attach < 1 {
                    return Err("attach must be at least 1".into());
                }
                if n <= attach {
                    return Err(format!("n must exceed attach, got n={n} attach={attach}"));
                }
            }
            GeneratorSpec::SlidingWindow {
                n,
                window,
                batches,
                rate,
                ..
            } => {
                if n < 2 {
                    return Err("n must be at least 2".into());
                }
                if window < 1 || batches < 1 || rate < 1 {
                    return Err("window, batches, and rate must all be at least 1".into());
                }
            }
            GeneratorSpec::MinCutAdversary { half, bridge, .. } => {
                if half < 2 {
                    return Err("half must be at least 2".into());
                }
                if bridge < 1 || bridge > half {
                    return Err(format!(
                        "bridge must be in [1, half], got bridge={bridge} half={half}"
                    ));
                }
            }
            GeneratorSpec::SparsifierAdversary {
                n,
                blocks,
                p_in,
                p_out,
                ..
            } => {
                if blocks < 2 {
                    return Err("blocks must be at least 2 (one block has no cross-cut)".into());
                }
                if n < 2 * blocks {
                    return Err(format!(
                        "n must be at least 2·blocks, got n={n} blocks={blocks}"
                    ));
                }
                prob("p_in", p_in)?;
                prob("p_out", p_out)?;
            }
            GeneratorSpec::WeightChurn {
                n, p, max_weight, ..
            } => {
                if n < 2 {
                    return Err("n must be at least 2".into());
                }
                prob("p", p)?;
                if max_weight < 1 {
                    return Err("max_weight must be at least 1".into());
                }
            }
        }
        Ok(())
    }

    /// Generates the trace. Deterministic in the spec (including its
    /// seed); see the determinism tests.
    ///
    /// # Panics
    /// Panics on parameters [`GeneratorSpec::validate`] refuses.
    pub fn generate(&self) -> Trace {
        self.validate().expect("invalid generator spec");
        let mut rng = SplitMix64::new(self.seed() ^ 0x57AC_E5EE_D000_0001);
        let updates = match *self {
            GeneratorSpec::PowerLawChurn {
                n, attach, churn, ..
            } => {
                let g = gen::preferential_attachment(n, attach, rng.next_u64());
                gen::churn_stream(&g, churn, rng.next_u64())
            }
            GeneratorSpec::SlidingWindow {
                n,
                window,
                batches,
                rate,
                ..
            } => sliding_window(n, window, batches, rate, &mut rng),
            GeneratorSpec::MinCutAdversary {
                half,
                bridge,
                churn,
                ..
            } => {
                let g = gen::barbell(half, bridge);
                // Decoys live on cross pairs only: the planted cut keeps
                // rising above `bridge` and collapsing back.
                gen::churn_with(&g, churn, &mut rng, |rng| {
                    let u = rng.next_range(half as u64) as usize;
                    let v = half + rng.next_range(half as u64) as usize;
                    (u, v)
                })
            }
            GeneratorSpec::SparsifierAdversary {
                n,
                blocks,
                p_in,
                p_out,
                churn,
                ..
            } => {
                let g = gen::planted_partition(n, blocks, p_in, p_out, rng.next_u64());
                let block_of = move |v: usize| v * blocks / n;
                gen::churn_with(&g, churn, &mut rng, move |rng| {
                    // A cross-block pair: u uniform, v re-drawn until its
                    // block differs (bounded walk keeps it deterministic).
                    let u = rng.next_range(n as u64) as usize;
                    let mut v = rng.next_range(n as u64) as usize;
                    while block_of(v) == block_of(u) {
                        v = (v + 1) % n;
                    }
                    (u, v)
                })
            }
            GeneratorSpec::WeightChurn {
                n,
                p,
                max_weight,
                churn,
                ..
            } => weight_churn(n, p, max_weight, churn, &mut rng),
        };
        Trace {
            generator: *self,
            kind: self.kind(),
            n: self.n(),
            updates,
        }
    }
}

/// The sliding-window storm: each tick deletes the batch that fell out
/// of the window, then inserts `rate` fresh random pairs.
fn sliding_window(
    n: usize,
    window: usize,
    batches: usize,
    rate: usize,
    rng: &mut SplitMix64,
) -> Vec<EdgeUpdate> {
    let mut live: std::collections::VecDeque<Vec<(usize, usize)>> =
        std::collections::VecDeque::new();
    let mut updates = Vec::with_capacity(batches * rate * 2);
    for _ in 0..batches {
        if live.len() == window {
            for (u, v) in live.pop_front().expect("window is full") {
                updates.push(EdgeUpdate::delete(u, v));
            }
        }
        let mut batch = Vec::with_capacity(rate);
        for _ in 0..rate {
            let u = rng.next_range(n as u64) as usize;
            let mut v = rng.next_range(n as u64) as usize;
            if u == v {
                v = (v + 1) % n;
            }
            updates.push(EdgeUpdate::insert(u, v));
            batch.push((u, v));
        }
        live.push_back(batch);
    }
    updates
}

/// The weighted multigraph churn stream: value-carrying inserts of a
/// weighted `gnp_skip` base, plus decoy (pair, weight) copies that are
/// inserted and later deleted.
fn weight_churn(
    n: usize,
    p: f64,
    max_weight: u64,
    churn: usize,
    rng: &mut SplitMix64,
) -> Vec<EdgeUpdate> {
    let base = gen::gnp_skip(n, p, rng.next_u64());
    let weight_seed = rng.next_u64();
    let mut wrng = SplitMix64::new(weight_seed);
    let base = base.map_weights(|_, _, _| 1 + wrng.next_range(max_weight));
    let mut timed: Vec<(u64, EdgeUpdate)> = Vec::new();
    for &(u, v, w) in base.edges() {
        timed.push((rng.next_u64(), EdgeUpdate::weighted(u, v, w, 1)));
    }
    for _ in 0..churn {
        // Decoys target base edges when there are any (weight collisions
        // are the interesting case), random pairs otherwise.
        let (u, v) = if base.m() > 0 {
            let &(u, v, _) = &base.edges()[rng.next_range(base.m() as u64) as usize];
            (u, v)
        } else {
            let u = rng.next_range(n as u64) as usize;
            let v = (u + 1 + rng.next_range(n as u64 - 1) as usize) % n;
            (u.min(v), u.max(v))
        };
        let w = 1 + rng.next_range(max_weight);
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let (t_ins, t_del) = if a < b {
            (a, b)
        } else {
            (b, a.max(b.wrapping_add(1)))
        };
        timed.push((t_ins, EdgeUpdate::weighted(u, v, w, 1)));
        timed.push((t_del, EdgeUpdate::weighted(u, v, w, -1)));
    }
    timed.sort_by_key(|&(t, _)| t);
    timed.into_iter().map(|(_, up)| up).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_graph::stoer_wagner;

    #[test]
    fn identical_specs_generate_identical_traces() {
        let spec = GeneratorSpec::SlidingWindow {
            n: 32,
            window: 3,
            batches: 10,
            rate: 8,
            seed: 42,
        };
        assert_eq!(spec.generate(), spec.generate());
        assert_ne!(
            spec.generate().updates,
            spec.with_seed(43).generate().updates
        );
    }

    #[test]
    fn power_law_trace_materializes_to_a_skewed_graph() {
        let spec = GeneratorSpec::PowerLawChurn {
            n: 200,
            attach: 2,
            churn: 80,
            seed: 5,
        };
        let t = spec.generate();
        let g = t.materialize().expect("generated traces materialize");
        assert!(g.is_connected());
        let max_deg = (0..200).map(|v| g.degree(v)).max().unwrap();
        let mut degs: Vec<usize> = (0..200).map(|v| g.degree(v)).collect();
        degs.sort_unstable();
        assert!(max_deg >= 3 * degs[100], "no degree skew");
        // Churn cancelled: updates outnumber surviving edges.
        assert!(t.updates.len() >= g.m() + 2 * 80);
    }

    #[test]
    fn sliding_window_keeps_exactly_the_last_window() {
        let spec = GeneratorSpec::SlidingWindow {
            n: 40,
            window: 2,
            batches: 9,
            rate: 11,
            seed: 3,
        };
        let t = spec.generate();
        // 9 batches of 11 inserts; 7 batches expired as deletes.
        assert_eq!(t.updates.len(), 9 * 11 + 7 * 11);
        let g = t.materialize().expect("generated traces materialize");
        // Survivors: the last 2 batches (multiplicities may overlap).
        let total: u64 = g.edges().iter().map(|&(_, _, w)| w).sum();
        assert_eq!(total, 2 * 11);
    }

    #[test]
    fn mincut_adversary_lands_on_the_planted_cut() {
        let spec = GeneratorSpec::MinCutAdversary {
            half: 8,
            bridge: 3,
            churn: 25,
            seed: 9,
        };
        let t = spec.generate();
        let g = t.materialize().expect("generated traces materialize");
        assert_eq!(stoer_wagner::min_cut_value(&g), 3);
        // Mid-stream the cross cut really does exceed the final value.
        let mut mult = std::collections::BTreeMap::new();
        let mut peak = 0i64;
        for up in &t.updates {
            if (up.u < 8) != (up.v < 8) {
                let key = (up.u.min(up.v), up.u.max(up.v));
                *mult.entry(key).or_insert(0i64) += up.delta;
                let cross: i64 = mult.values().sum();
                peak = peak.max(cross);
            }
        }
        assert!(peak > 3, "churn never raised the cut above the answer");
    }

    #[test]
    fn sparsifier_adversary_churns_only_the_cross_cut() {
        let n = 60;
        let spec = GeneratorSpec::SparsifierAdversary {
            n,
            blocks: 2,
            p_in: 0.6,
            p_out: 0.05,
            churn: 30,
            seed: 17,
        };
        let t = spec.generate();
        let g = t.materialize().expect("generated traces materialize");
        let side: Vec<bool> = (0..n).map(|v| v < n / 2).collect();
        assert!(
            g.cut_value(&side) * 4 < g.m() as u64,
            "cross cut not sparse"
        );
        // Every deletion is a cross-block decoy by construction.
        let block_of = |v: usize| v * 2 / n;
        for up in t.updates.iter().filter(|up| up.delta < 0) {
            assert_ne!(block_of(up.u), block_of(up.v), "decoy not on the cut");
        }
    }

    #[test]
    fn weight_churn_materializes_to_its_base_weights() {
        let spec = GeneratorSpec::WeightChurn {
            n: 30,
            p: 0.3,
            max_weight: 12,
            churn: 20,
            seed: 8,
        };
        let t = spec.generate();
        assert_eq!(t.kind, UpdateKind::Weighted);
        let g = t.materialize().expect("generated traces materialize");
        assert!(g.m() > 0);
        assert!(g.edges().iter().all(|&(_, _, w)| (1..=12).contains(&w)));
        // Decoys cancelled: insert count exceeds surviving edge count.
        let inserts = t.updates.iter().filter(|u| u.delta > 0).count();
        assert_eq!(inserts, g.m() + 20);
    }

    /// FNV-1a over each update's `(u, v, delta)` as little-endian
    /// `u64, u64, i64` — the per-update bytes the ladder's input digest
    /// folds.
    fn digest(updates: &[EdgeUpdate]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for up in updates {
            let bytes = [
                (up.u as u64).to_le_bytes(),
                (up.v as u64).to_le_bytes(),
                up.delta.to_le_bytes(),
            ];
            for b in bytes.concat() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn generated_inputs_are_pinned() {
        // The ladder's inputs, the experiment matrix and the seeded tests
        // all replay these exact sequences: a generator change must show
        // up here, not as a silently different benchmark.
        let specs = [
            GeneratorSpec::PowerLawChurn {
                n: 64,
                attach: 2,
                churn: 40,
                seed: 1,
            },
            GeneratorSpec::SlidingWindow {
                n: 32,
                window: 3,
                batches: 10,
                rate: 8,
                seed: 2,
            },
            GeneratorSpec::MinCutAdversary {
                half: 8,
                bridge: 2,
                churn: 25,
                seed: 3,
            },
            GeneratorSpec::SparsifierAdversary {
                n: 40,
                blocks: 2,
                p_in: 0.5,
                p_out: 0.05,
                churn: 30,
                seed: 4,
            },
            GeneratorSpec::WeightChurn {
                n: 30,
                p: 0.3,
                max_weight: 12,
                churn: 20,
                seed: 5,
            },
        ];
        let got: Vec<u64> = specs
            .iter()
            .map(|s| digest(&s.generate().updates))
            .collect();
        let g = gen::gnp_weighted(24, 0.2, 3, 6);
        let inserts = digest(&gen::insert_stream(&g));
        let churn = digest(&gen::churn_stream(&g, 50, 7));
        assert_eq!(
            got,
            [
                0x7f38_c8d6_612b_25d8,
                0xd1dc_40f6_8123_12f6,
                0xab33_bcd1_aa40_0b5c,
                0x998c_063a_9181_c392,
                0x311c_d253_b0f5_298f,
            ]
        );
        assert_eq!(inserts, 0x0fb4_1460_2a8e_896d);
        assert_eq!(churn, 0xa50d_feae_8a10_cadd);
    }

    #[test]
    fn degenerate_specs_are_refused_with_the_field_named() {
        assert!(GeneratorSpec::PowerLawChurn {
            n: 2,
            attach: 2,
            churn: 0,
            seed: 0
        }
        .validate()
        .unwrap_err()
        .contains("attach"));
        assert!(GeneratorSpec::SparsifierAdversary {
            n: 10,
            blocks: 2,
            p_in: 1.5,
            p_out: 0.1,
            churn: 0,
            seed: 0
        }
        .validate()
        .unwrap_err()
        .contains("p_in"));
        assert!(GeneratorSpec::WeightChurn {
            n: 10,
            p: 0.5,
            max_weight: 0,
            churn: 0,
            seed: 0
        }
        .validate()
        .unwrap_err()
        .contains("max_weight"));
    }
}
