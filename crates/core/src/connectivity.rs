//! The spanning-forest / connectivity sketch (the AGM substrate \[4\]).
//!
//! Theorem 2.3's `k-EDGECONNECT` and everything in §3 build on the
//! sketch-based spanning forest from the authors' SODA'12 paper: each node
//! keeps ℓ0 structures over its incidence vector `x^u` (Eq. 1); Boruvka
//! rounds then repeatedly sample an outgoing edge per component by
//! *summing* the member nodes' sketches (linearity ⇒ the sum sketches the
//! crossing edges) and contract.
//!
//! Each Boruvka round queries a *fresh* bank of detectors — re-querying a
//! structure after conditioning on its previous answers voids the
//! independence the analysis needs. The `share_rounds` ablation knob (E-abl)
//! deliberately reuses one bank to measure how much that matters in
//! practice.

use crate::absorb::{absorb_planned, AbsorbWork, SplitAbsorb};
use crate::incidence::sign_for;
use gs_field::{BackendKind, HashBackend, Randomness, M61};
use gs_graph::UnionFind;
use gs_sketch::bank::{BankGeometry, BankPart, BankSplit, CellBank, CellBanked};
use gs_sketch::domain::{edge_domain, edge_index, edge_unindex};
use gs_sketch::lane::{LaneOverflow, LaneWidth};
use gs_sketch::par::{even_ranges, par_map, DecodePlan, Job};
use gs_sketch::{
    level_count, EdgeUpdate, L0Detector, L0Result, LinearSketch, Mergeable, OneSparseCell,
    OneSparseState, CELL_BYTES,
};

/// Parameters for [`ForestSketch`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ForestParams {
    /// Boruvka rounds (each with its own detector bank). The default is
    /// `⌈log2 n⌉ + 2`: components at least halve per successful round and
    /// the slack absorbs detector failures.
    pub rounds: usize,
    /// Repetitions inside each [`L0Detector`].
    pub detector_reps: usize,
    /// Ablation: reuse round 0's bank for every round (cuts memory by
    /// `rounds×` but voids the independence argument).
    pub share_rounds: bool,
    /// Randomness regime (§2.3 oracle vs §3.4 Nisan).
    pub kind: BackendKind,
}

impl ForestParams {
    /// Default parameters for an `n`-vertex graph.
    pub fn for_n(n: usize) -> Self {
        ForestParams {
            rounds: (usize::BITS - n.max(2).leading_zeros()) as usize + 2,
            detector_reps: 2,
            share_rounds: false,
            kind: BackendKind::Oracle,
        }
    }
}

/// Upper bound on [`ForestParams::detector_reps`]: the hot path keeps the
/// per-rep subsampling levels in a stack buffer of this size. Far above
/// any useful repetition count (the default is 2–3; failure probability
/// falls exponentially in reps).
pub const MAX_DETECTOR_REPS: usize = 64;

/// A decoded spanning forest.
#[derive(Clone, Debug, Default)]
pub struct Forest {
    /// Vertex count.
    pub n: usize,
    /// Forest edges with the sketched coordinate value that was sampled:
    /// `|value|` is the edge's current multiplicity (unit-weight streams)
    /// or its weight (value-carrying streams, §3.5).
    pub edges: Vec<(usize, usize, i64)>,
}

impl Forest {
    /// Number of connected components implied by the forest
    /// (`n − |edges|`; forests are acyclic by construction).
    pub fn component_count(&self) -> usize {
        self.n - self.edges.len()
    }

    /// The component partition as a union-find structure.
    pub fn components(&self) -> UnionFind {
        let mut uf = UnionFind::new(self.n);
        for &(u, v, _) in &self.edges {
            uf.union(u, v);
        }
        uf
    }

    /// `true` iff the sketched graph was connected (w.h.p.).
    pub fn is_spanning_tree(&self) -> bool {
        self.component_count() == 1
    }
}

/// Linear sketch from which a spanning forest of the current multigraph
/// can be decoded (w.h.p.).
///
/// Storage is **one contiguous [`CellBank`]** covering every round, node,
/// repetition, and level — the shared substrate every scaling path
/// exploits: updates hash once per round and fan into both endpoint rows,
/// merges are three lane-wise slice adds over the whole sketch, and the
/// binary wire format dumps the lanes verbatim.
#[derive(Clone, Debug, PartialEq)]
pub struct ForestSketch {
    n: usize,
    params: ForestParams,
    seed: u64,
    /// Levels per detector row: `level_count(C(n,2))`.
    levels: u32,
    /// `(banks · n · detector_reps) × levels × 1` cells; the row of
    /// `(bank, node, rep)` starts at `((bank·n + node)·reps + rep)·levels`.
    cells: CellBank,
    /// Per-`(bank, rep)` subsampling hashes, bank-major. All nodes within
    /// one bank share them: summing Σ_{u∈A} sketch(x^u) is only
    /// meaningful when every node sketch is the same linear projection
    /// applied to a different vector. Independent randomness exists
    /// *across rounds* only.
    level_hash: Vec<HashBackend>,
    /// Per-bank fingerprint hash.
    finger: Vec<HashBackend>,
}

impl ForestSketch {
    /// A forest sketch with default parameters.
    pub fn new(n: usize, seed: u64) -> Self {
        Self::with_params(n, ForestParams::for_n(n), seed)
    }

    /// Full-control constructor (wide lanes — no delta bound declared).
    ///
    /// # Panics
    /// Panics if `n < 2` or `detector_reps` exceeds
    /// [`MAX_DETECTOR_REPS`].
    pub fn with_params(n: usize, params: ForestParams, seed: u64) -> Self {
        Self::with_width(n, params, seed, LaneWidth::WIDE)
    }

    /// As [`ForestSketch::with_params`], deriving the bank's lane
    /// widths from the caller's bound on `|delta|` per update (indices are
    /// edge slots `< C(n,2)`; see `LaneWidth::for_bounds`).
    pub fn with_bounds(n: usize, params: ForestParams, seed: u64, max_abs_delta: u64) -> Self {
        let width = LaneWidth::for_bounds(edge_domain(n).saturating_sub(1), max_abs_delta);
        Self::with_width(n, params, seed, width)
    }

    fn with_width(n: usize, params: ForestParams, seed: u64, width: LaneWidth) -> Self {
        assert!(n >= 2);
        assert!(
            (1..=MAX_DETECTOR_REPS).contains(&params.detector_reps),
            "detector_reps must be in 1..={MAX_DETECTOR_REPS}"
        );
        let banks = if params.share_rounds {
            1
        } else {
            params.rounds
        };
        let reps = params.detector_reps;
        let levels = level_count(edge_domain(n));
        let level_hash = (0..banks)
            .flat_map(|b| {
                let seed = Self::bank_seed(seed, b);
                (0..reps).map(move |r| params.kind.backend(seed, 0x4C30_0100 + r as u64))
            })
            .collect();
        let finger = (0..banks)
            .map(|b| params.kind.backend(Self::bank_seed(seed, b), 0x4C30_0001))
            .collect();
        ForestSketch {
            n,
            params,
            seed,
            levels,
            cells: CellBank::with_width(
                BankGeometry::new(banks * n * reps, levels as usize, 1),
                width,
            ),
            level_hash,
            finger,
        }
    }

    /// The per-round detector seed (the derivation the pre-bank
    /// `Vec<L0Detector>` layout used, kept so sketch files written by
    /// earlier builds still measure the same projection).
    fn bank_seed(seed: u64, bank: usize) -> u64 {
        seed ^ (0xF0_0000 + bank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Number of detector banks (1 under the `share_rounds` ablation).
    fn bank_count(&self) -> usize {
        if self.params.share_rounds {
            1
        } else {
            self.params.rounds
        }
    }

    /// Cells per `(bank, node)` detector row group: `reps × levels`.
    fn row_len(&self) -> usize {
        self.params.detector_reps * self.levels as usize
    }

    /// Vertex count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Applies one `(index, ±δ)` coordinate update to the `(bank, node)`
    /// detector rows, with the hash work precomputed: `lmax[r]` is the
    /// per-rep subsampling level, `(dw, ds, df)` the update triple.
    #[inline]
    fn fan_rows(&mut self, bank: usize, node: usize, lmax: &[u32], dw: i64, ds: i128, df: M61) {
        let levels = self.levels as usize;
        let mut base = ((bank * self.n + node) * self.params.detector_reps) * levels;
        for &lm in lmax {
            self.cells.fan(base..base + lm as usize + 1, dw, ds, df);
            base += levels;
        }
    }

    /// Applies a stream update `(u, v, ±m)` (Definition 1; `m` units of
    /// multiplicity at once are allowed). Each bank hashes the edge slot
    /// once — fingerprint plus one subsampling level per repetition — and
    /// fans the triple into both endpoint rows (`+` for the smaller
    /// endpoint, `−` for the larger, the Eq. 1 sign convention).
    pub fn update_edge(&mut self, u: usize, v: usize, delta: i64) {
        assert!(u != v && u < self.n && v < self.n, "bad edge ({u},{v})");
        if delta == 0 {
            return;
        }
        let idx = edge_index(self.n, u, v);
        let du = sign_for(u, v) * delta;
        let reps = self.params.detector_reps;
        // Stack buffer for the per-rep levels (with_params caps reps).
        let mut lmax = [0u32; MAX_DETECTOR_REPS];
        let lmax = &mut lmax[..reps];
        for b in 0..self.bank_count() {
            for (r, lm) in lmax.iter_mut().enumerate() {
                *lm = self.level_hash[b * reps + r].subsample_level(idx, self.levels - 1);
            }
            let (dw, ds, df) = CellBank::deltas(idx, du, self.finger[b].hash_m61(idx));
            self.fan_rows(b, u, lmax, dw, ds, df);
            self.fan_rows(b, v, lmax, -dw, -ds, -df);
        }
    }

    /// Batched ingestion — the bank kernel, run on the calling thread.
    /// Bit-identical to looping [`ForestSketch::update_edge`] (linearity
    /// makes application order irrelevant), but processes the batch
    /// **bank by bank**: each bank's cell region is contiguous, so one
    /// pass over the batch stays in a cache-resident window instead of
    /// striding across every bank per update. This is the one-thread
    /// case of [`LinearSketch::absorb_with`].
    pub fn absorb_batch(&mut self, batch: &[EdgeUpdate]) {
        absorb_planned(self, batch, &DecodePlan::sequential());
    }

    /// The split absorb of `batch`: the bank's `(round, node)` row
    /// groups are cut into contiguous, equal ranges, each a disjoint
    /// part of the bank — one per round, or `parts` ranges when more
    /// parts than rounds are asked for. The part owning a range walks
    /// the batch once per round it covers and fans only the endpoints
    /// whose rows it owns, so an update is hashed twice only in a round
    /// that two ranges share, and with one part per round never. Parts
    /// finer than the thread count let the threads that run them balance
    /// each other. Updates are validated here, on the calling thread.
    pub(crate) fn forest_work(&mut self, batch: &[EdgeUpdate], parts: usize) -> ForestWork<'_> {
        // Validate and pre-index once per update, not once per bank.
        let prepared: Vec<(u64, i64, u32, u32)> = batch
            .iter()
            .filter_map(|up| {
                let (u, v, delta) = (up.u, up.v, up.delta);
                assert!(u != v && u < self.n && v < self.n, "bad edge ({u},{v})");
                (delta != 0).then(|| {
                    (
                        edge_index(self.n, u, v),
                        sign_for(u, v) * delta,
                        u as u32,
                        v as u32,
                    )
                })
            })
            .collect();
        let total = self.bank_count() * self.n;
        let rowlen = self.row_len();
        let cuts: Vec<usize> = even_ranges(total, parts.max(self.bank_count()).min(total))[1..]
            .iter()
            .map(|groups| groups.start * rowlen)
            .collect();
        let reps = self.params.detector_reps;
        let ForestSketch {
            n,
            levels,
            cells,
            level_hash,
            finger,
            ..
        } = self;
        ForestWork {
            rows: ForestRows {
                n: *n,
                levels: *levels,
                reps,
                level_hash,
                finger,
            },
            prepared,
            split: cells.split_mut(&cuts),
        }
    }

    /// Total sketch size in 1-sparse cells (space accounting for E3/E4).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// An empty standalone detector with bank `b`'s hashes — the proxy
    /// through which decode queries reuse the [`L0Detector`] machinery.
    fn proxy_detector(&self, bank: usize) -> L0Detector {
        L0Detector::with_params(
            edge_domain(self.n),
            self.params.detector_reps,
            Self::bank_seed(self.seed, bank),
            self.params.kind,
        )
    }

    /// One Boruvka round's peel of the `removed` edges: every removed
    /// edge whose endpoints lie in two groups gets its per-rep levels and
    /// its `update_edge(u, v, −amount)` triple under bank `bank`, listed
    /// once for each of its two groups, signed for the endpoint there.
    fn round_peel(&self, bank: usize, groups: &[Vec<usize>], removed: &Removed<'_>) -> RoundPeel {
        let reps = self.params.detector_reps;
        let mut gid = vec![0usize; self.n];
        for (g, members) in groups.iter().enumerate() {
            for &x in members {
                gid[x] = g;
            }
        }
        let mut lmax = Vec::new();
        let crossing: Vec<Option<PeelTerm>> = removed
            .edges
            .iter()
            .map(|&(u, v, amount)| {
                (gid[u] != gid[v]).then(|| {
                    let idx = edge_index(self.n, u, v);
                    let at = lmax.len();
                    lmax.extend((0..reps).map(|r| {
                        self.level_hash[bank * reps + r].subsample_level(idx, self.levels - 1)
                    }));
                    let du = sign_for(u, v) * -amount;
                    let (dw, ds, df) = CellBank::deltas(idx, du, self.finger[bank].hash_m61(idx));
                    PeelTerm { at, dw, ds, df }
                })
            })
            .collect();
        let mut terms = Vec::new();
        let mut start = Vec::with_capacity(groups.len() + 1);
        start.push(0);
        for members in groups {
            for &x in members {
                for &e in removed.incident(x) {
                    if let Some(t) = crossing[e] {
                        // `update_edge` adds the triple to `u`'s rows and
                        // its negation to `v`'s.
                        terms.push(if removed.edges[e].0 == x {
                            t
                        } else {
                            PeelTerm {
                                dw: -t.dw,
                                ds: -t.ds,
                                df: -t.df,
                                ..t
                            }
                        });
                    }
                }
            }
            start.push(terms.len());
        }
        RoundPeel { lmax, terms, start }
    }

    /// Queries Σ_{u∈group} sketch(x^u) for bank `bank` — the bank-level
    /// batched group query. The decode scan visits cells in the same
    /// rep-major order as [`L0Detector::query`], but the sum over the
    /// group is computed **lazily, cell by cell, in scan order**: a query
    /// that decodes at subsampling level `ℓ` (the overwhelmingly common
    /// case — the surviving level of a support of size `d` is `≈ log₂ d`)
    /// only ever sums `reps + ℓ` cells per member instead of the whole
    /// `reps × levels` row, which is what takes the full-bank memory
    /// sweep off every Boruvka round. Lazy summation cannot change the
    /// answer: a cell the scan never reaches never influences the scan,
    /// and the cells it does reach hold exactly the member sums the eager
    /// query would hold ([`ForestSketch::group_query_reference`] keeps
    /// the eager pre-bank path alive as the pinned baseline).
    ///
    /// `peel` lists the removed edges with exactly one endpoint in the
    /// group (see [`RoundPeel`]); each adds its triple to the cells of
    /// every rep at the levels its edge reaches, as `update_edge` would
    /// have added it to a copy of the sketch.
    fn group_query(&self, bank: usize, group: &[usize], peel: GroupPeel<'_>) -> L0Result {
        let levels = self.levels as usize;
        let rowlen = self.row_len();
        let reps = self.params.detector_reps;
        let domain = edge_domain(self.n);
        let finger = &self.finger[bank];
        let row0 = (bank * self.n) * rowlen;
        // Sum of cell `(r, l)` of the row group over the members. The
        // group sum accumulates in the cell's `i64`/`i128` regardless of
        // the bank's lane widths: a sum over n members can exceed the
        // compacted per-cell range.
        let gather = |r: usize, l: usize| -> OneSparseCell {
            let j = r * levels + l;
            let (mut gw, mut gs, mut gf) = (0i64, 0i128, M61::ZERO);
            for &node in group {
                let (w, s, f) = self.cells.cell(row0 + node * rowlen + j).parts();
                gw += w;
                gs += s;
                gf += f;
            }
            for t in peel.terms {
                if peel.lmax[t.at + r] as usize >= l {
                    gw += t.dw;
                    gs += t.ds;
                    gf += t.df;
                }
            }
            OneSparseCell::from_parts(gw, gs, gf)
        };
        // Empty iff the full-vector cell of every rep sums to zero.
        let full: [OneSparseCell; MAX_DETECTOR_REPS] = std::array::from_fn(|r| {
            if r < reps {
                gather(r, 0)
            } else {
                OneSparseCell::new()
            }
        });
        if full[..reps].iter().all(|c| c.is_zero()) {
            return L0Result::Empty;
        }
        for (r, &full_cell) in full[..reps].iter().enumerate() {
            for l in 0..levels {
                let cell = if l == 0 { full_cell } else { gather(r, l) };
                if let OneSparseState::One(idx, v) = cell.decode(domain, finger) {
                    return L0Result::Sample(idx, v);
                }
            }
        }
        L0Result::Fail
    }

    /// The pre-kernel group query, kept verbatim as the decode baseline:
    /// per-cell indexed adds into freshly allocated lanes, overlaid onto
    /// a freshly built proxy detector per group. `bench_decode` measures
    /// the kernel against it and the parity tests pin bit-identity; it is
    /// not on any production path.
    #[doc(hidden)]
    pub fn group_query_reference(&self, bank: usize, group: &[usize]) -> L0Result {
        let rowlen = self.row_len();
        let mut gw = vec![0i64; rowlen];
        let mut gs = vec![0i128; rowlen];
        let mut gf = vec![M61::ZERO; rowlen];
        for &node in group {
            let off = (bank * self.n + node) * rowlen;
            for j in 0..rowlen {
                let (w, s, f) = self.cells.cell(off + j).parts();
                gw[j] += w;
                gs[j] += s;
                gf[j] += f;
            }
        }
        let mut acc = self.proxy_detector(bank);
        acc.banks_mut()[0].overlay(gw, gs, gf);
        acc.query()
    }

    /// Decodes a spanning forest by Boruvka contraction (sequentially —
    /// [`ForestSketch::decode_with`] takes a thread plan).
    pub fn decode(&self) -> Forest {
        self.decode_with(&DecodePlan::sequential())
    }

    /// Decodes a spanning forest by Boruvka contraction under a
    /// [`DecodePlan`]. Bit-identical to [`ForestSketch::decode`] at every
    /// thread count — see [`ForestSketch::decode_excluding_with`] for the
    /// determinism argument.
    pub fn decode_with(&self, plan: &DecodePlan) -> Forest {
        self.decode_excluding_with(&mut UnionFind::new(self.n), &[], plan)
    }

    /// Boruvka decoding seeded with an existing partition: components
    /// already joined in `uf` are treated as contracted. Used by the
    /// MST threshold walk and exposed for callers that combine sketches
    /// with known connectivity.
    pub fn decode_excluding(&self, uf: &mut UnionFind) -> Forest {
        self.decode_excluding_with(uf, &[], &DecodePlan::sequential())
    }

    /// [`ForestSketch::decode_excluding`] under a [`DecodePlan`], of the
    /// sketched graph with the `removed` edges taken out: each
    /// `(u, v, amount)` is decoded as if `update_edge(u, v, −amount)`
    /// had been applied first. `k-EDGECONNECT` peels its earlier forests
    /// this way. The group queries of one Boruvka round fan out across
    /// the plan's threads.
    ///
    /// **Peeling in place.** By linearity the removal is applied to each
    /// group sum, not to a copy of the sketch: a removed edge with both
    /// endpoints in a group cancels, and one with a single endpoint in
    /// it adds its triple, signed for that endpoint, to the cells its
    /// subsampling levels reach. The sums are exact (`i64`, `i128` and
    /// M61), so every scanned cell, and with it the forest, equals the
    /// decode of a copy with the edges subtracted — unless that
    /// subtraction would overflow a lane of the copy, past the spec's
    /// headroom, where the copy held a wrapped value and the peel holds
    /// the exact one. The transient is O(n + |removed|) per round.
    ///
    /// **Determinism.** The groups are fixed at round start (`uf` is not
    /// touched until every query of the round returned), each group's
    /// query reads only the immutable cell bank and the round's peel,
    /// and the per-group results are reassembled in group order before
    /// the sequential union pass consumes them. The parallel decode is
    /// therefore **bit-identical** to the sequential one — same samples,
    /// same union order, same forest — which the decode-parity suite
    /// pins for every task at thread counts {1, 2, 8}.
    ///
    /// # Panics
    /// Panics on a removed self-loop or out-of-range endpoint.
    pub fn decode_excluding_with(
        &self,
        uf: &mut UnionFind,
        removed: &[(usize, usize, i64)],
        plan: &DecodePlan,
    ) -> Forest {
        // A decode with nothing removed builds no peel at all.
        let removed = (!removed.is_empty()).then(|| Removed::new(self.n, removed));
        let mut edges = Vec::new();
        for round in 0..self.params.rounds {
            let bank = if self.params.share_rounds { 0 } else { round };
            let groups = uf.groups();
            if groups.len() <= 1 {
                break;
            }
            let peel = removed.as_ref().map(|r| self.round_peel(bank, &groups, r));
            // Σ_{u∈A} sketch(x^u) sketches exactly the crossing edges.
            // Groups are independent within the round: fan out, collect
            // in group order.
            let found = par_map(&groups, plan.threads(), |g, group| {
                let peel = peel.as_ref().map_or(GroupPeel::NONE, |p| p.group(g));
                match self.group_query(bank, group, peel) {
                    L0Result::Sample(idx, val) => {
                        let (u, v) = edge_unindex(idx);
                        (u < self.n && v < self.n).then_some((u, v, val))
                    }
                    _ => None,
                }
            });
            for (u, v, val) in found.into_iter().flatten() {
                // A stale or colliding sample inside one component is
                // discarded by the union check.
                if uf.union(u, v) {
                    edges.push((u, v, val));
                }
            }
        }
        Forest { n: self.n, edges }
    }

    /// The full pre-kernel decode path (reference group queries, inline
    /// loop) — the baseline `bench_decode` compares against.
    #[doc(hidden)]
    pub fn decode_reference(&self) -> Forest {
        let mut uf = UnionFind::new(self.n);
        let mut edges = Vec::new();
        for round in 0..self.params.rounds {
            let bank = if self.params.share_rounds { 0 } else { round };
            let groups = uf.groups();
            if groups.len() <= 1 {
                break;
            }
            let mut found: Vec<(usize, usize, i64)> = Vec::new();
            for group in &groups {
                if let L0Result::Sample(idx, val) = self.group_query_reference(bank, group) {
                    let (u, v) = edge_unindex(idx);
                    if u < self.n && v < self.n {
                        found.push((u, v, val));
                    }
                }
            }
            for (u, v, val) in found {
                if uf.union(u, v) {
                    edges.push((u, v, val));
                }
            }
        }
        Forest { n: self.n, edges }
    }
}

/// The edges a decode removes, indexed by endpoint (CSR): vertex `x`'s
/// incident edge ids are `ids[start[x]..start[x + 1]]`.
struct Removed<'a> {
    edges: &'a [(usize, usize, i64)],
    start: Vec<usize>,
    ids: Vec<usize>,
}

impl<'a> Removed<'a> {
    fn new(n: usize, edges: &'a [(usize, usize, i64)]) -> Self {
        let mut start = vec![0usize; n + 1];
        for &(u, v, _) in edges {
            assert!(u != v && u < n && v < n, "bad removed edge ({u},{v})");
            start[u + 1] += 1;
            start[v + 1] += 1;
        }
        for x in 0..n {
            start[x + 1] += start[x];
        }
        let mut fill = start.clone();
        let mut ids = vec![0usize; 2 * edges.len()];
        for (e, &(u, v, _)) in edges.iter().enumerate() {
            for x in [u, v] {
                ids[fill[x]] = e;
                fill[x] += 1;
            }
        }
        Removed { edges, start, ids }
    }

    fn incident(&self, x: usize) -> &[usize] {
        &self.ids[self.start[x]..self.start[x + 1]]
    }
}

/// A removed edge's correction to a group sum: its update triple, signed
/// for the endpoint inside the group, and where its per-rep subsampling
/// levels start in [`RoundPeel::lmax`].
#[derive(Clone, Copy)]
struct PeelTerm {
    at: usize,
    dw: i64,
    ds: i128,
    df: M61,
}

/// One Boruvka round's peel (see [`ForestSketch::round_peel`]): group
/// `g`'s crossing removed edges are `terms[start[g]..start[g + 1]]`.
struct RoundPeel {
    /// `reps` levels per crossing edge.
    lmax: Vec<u32>,
    terms: Vec<PeelTerm>,
    start: Vec<usize>,
}

impl RoundPeel {
    fn group(&self, g: usize) -> GroupPeel<'_> {
        GroupPeel {
            terms: &self.terms[self.start[g]..self.start[g + 1]],
            lmax: &self.lmax,
        }
    }
}

/// One group's share of a [`RoundPeel`].
#[derive(Clone, Copy)]
struct GroupPeel<'a> {
    terms: &'a [PeelTerm],
    lmax: &'a [u32],
}

impl GroupPeel<'_> {
    /// Nothing removed.
    const NONE: GroupPeel<'static> = GroupPeel {
        terms: &[],
        lmax: &[],
    };
}

/// The hashes and shape a forest's absorb jobs share.
struct ForestRows<'a> {
    n: usize,
    levels: u32,
    reps: usize,
    level_hash: &'a [HashBackend],
    finger: &'a [HashBackend],
}

impl ForestRows<'_> {
    /// Absorbs the prepared updates into the `(bank, node)` row groups
    /// `part` holds: per bank, in batch order, hash an update only if the
    /// part owns one of its endpoint rows and fan only those rows — the
    /// per-cell adds of the sequential kernel, in its order.
    fn absorb_part(&self, prepared: &[(u64, i64, u32, u32)], part: &mut BankPart<'_>) {
        let (n, reps, levels) = (self.n, self.reps, self.levels as usize);
        let rowlen = reps * levels;
        // Parts are cut at row-group boundaries: group `bank·n + node`.
        let cells = part.range();
        let groups = cells.start / rowlen..cells.end / rowlen;
        // Stack buffer for the per-rep levels (with_params caps reps).
        let mut lmax = [0u32; MAX_DETECTOR_REPS];
        let lmax = &mut lmax[..reps];
        for b in groups.start / n..groups.end.div_ceil(n) {
            let nodes = groups.start.max(b * n) - b * n..groups.end.min((b + 1) * n) - b * n;
            // A part holding the whole round owns every endpoint.
            let whole = nodes.len() == n;
            for &(idx, du, u, v) in prepared {
                let (u, v) = (u as usize, v as usize);
                let own_u = whole || nodes.contains(&u);
                let own_v = whole || nodes.contains(&v);
                if !(own_u || own_v) {
                    continue;
                }
                for (r, lm) in lmax.iter_mut().enumerate() {
                    *lm = self.level_hash[b * reps + r].subsample_level(idx, self.levels - 1);
                }
                let (dw, ds, df) = CellBank::deltas(idx, du, self.finger[b].hash_m61(idx));
                if own_u {
                    fan_row_group(part, (b * n + u) * rowlen, levels, lmax, (dw, ds, df));
                }
                if own_v {
                    fan_row_group(part, (b * n + v) * rowlen, levels, lmax, (-dw, -ds, -df));
                }
            }
        }
    }
}

/// Fans an update triple into one `(bank, node)` row group starting at
/// cell `base`: levels `0..=lmax[r]` of each rep `r`.
#[inline]
fn fan_row_group(
    part: &mut BankPart<'_>,
    mut base: usize,
    levels: usize,
    lmax: &[u32],
    (dw, ds, df): (i64, i128, M61),
) {
    for &lm in lmax {
        part.fan(base..base + lm as usize + 1, dw, ds, df);
        base += levels;
    }
}

/// One forest's share of a split absorb (see
/// [`ForestSketch::forest_work`]): its bank split into row-group parts,
/// one job each. Dropping it folds the split back into the bank.
pub(crate) struct ForestWork<'a> {
    rows: ForestRows<'a>,
    /// `(edge index, signed delta, u, v)` per nonzero update.
    prepared: Vec<(u64, i64, u32, u32)>,
    split: BankSplit<'a>,
}

impl ForestWork<'_> {
    /// Adds one job per part.
    pub(crate) fn push_jobs<'s>(&'s mut self, jobs: &mut Vec<Job<'s>>) {
        let (rows, prepared) = (&self.rows, &self.prepared[..]);
        for part in self.split.parts_mut() {
            jobs.push(Box::new(move || rows.absorb_part(prepared, part)));
        }
    }
}

impl SplitAbsorb for ForestSketch {
    fn absorb_work<'a>(
        &'a mut self,
        batch: &[EdgeUpdate],
        parts: usize,
        work: &mut AbsorbWork<'a>,
    ) {
        work.forest(self.forest_work(batch, parts));
    }
}

impl Mergeable for ForestSketch {
    fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.seed, other.seed,
            "merging forest sketches with different seeds"
        );
        assert_eq!(self.n, other.n);
        // One lane-wise add over the whole contiguous sketch.
        self.cells.add(&other.cells);
    }
}

impl CellBanked for ForestSketch {
    fn banks(&self) -> Vec<&CellBank> {
        vec![&self.cells]
    }

    fn banks_mut(&mut self) -> Vec<&mut CellBank> {
        vec![&mut self.cells]
    }

    fn fingerprints(&self) -> Vec<M61> {
        Vec::new()
    }

    fn fingerprints_mut(&mut self) -> Vec<&mut M61> {
        Vec::new()
    }
}

impl LinearSketch for ForestSketch {
    type Output = Forest;

    fn n(&self) -> usize {
        self.n
    }

    fn update_edge(&mut self, u: usize, v: usize, delta: i64) {
        ForestSketch::update_edge(self, u, v, delta);
    }

    fn absorb(&mut self, batch: &[EdgeUpdate]) {
        self.absorb_batch(batch);
    }

    fn absorb_with(&mut self, batch: &[EdgeUpdate], plan: &DecodePlan) {
        absorb_planned(self, batch, plan);
    }

    fn resident_lane_bytes(&self) -> usize {
        CellBanked::resident_bytes(self)
    }

    fn space_bytes(&self) -> usize {
        self.cell_count() * CELL_BYTES
    }

    fn lane_overflow(&self) -> Option<LaneOverflow> {
        CellBanked::lane_overflow(self)
    }

    fn decode(&self) -> Forest {
        ForestSketch::decode(self)
    }

    fn decode_with(&self, plan: &DecodePlan) -> Forest {
        ForestSketch::decode_with(self, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_graph::{gen, Graph};
    use gs_stream::distributed::split_updates;

    fn sketch_of(g: &Graph, seed: u64) -> ForestSketch {
        let mut s = ForestSketch::new(g.n(), seed);
        for &(u, v, w) in g.edges() {
            s.update_edge(u, v, w as i64);
        }
        s
    }

    fn forest_is_valid(g: &Graph, f: &Forest) {
        // Every forest edge exists in g, the forest is acyclic, and it has
        // exactly as many components as g.
        let mut uf = UnionFind::new(g.n());
        for &(u, v, val) in &f.edges {
            assert!(g.has_edge(u, v), "phantom edge ({u},{v})");
            assert!(uf.union(u, v), "cycle through ({u},{v})");
            // The sampled coordinate value is the signed multiplicity.
            assert_eq!(val.unsigned_abs(), g.edge_weight(u, v), "value mismatch");
        }
        assert_eq!(
            f.component_count(),
            g.components().component_count(),
            "component count mismatch"
        );
    }

    #[test]
    fn connected_graph_yields_spanning_tree() {
        let g = gen::connected_gnp(50, 0.1, 3);
        let f = sketch_of(&g, 1).decode();
        forest_is_valid(&g, &f);
        assert!(f.is_spanning_tree());
    }

    #[test]
    fn disconnected_graph_counts_components() {
        // Two cliques, no bridge.
        let mut edges = Vec::new();
        for u in 0..8 {
            for v in (u + 1)..8 {
                edges.push((u, v));
                edges.push((8 + u, 8 + v));
            }
        }
        let g = Graph::from_edges(16, edges);
        let f = sketch_of(&g, 5).decode();
        forest_is_valid(&g, &f);
        assert_eq!(f.component_count(), 2);
        let mut comps = f.components();
        assert!(comps.connected(0, 7));
        assert!(comps.connected(8, 15));
        assert!(!comps.connected(0, 8));
    }

    #[test]
    fn empty_graph_all_singletons() {
        let s = ForestSketch::new(10, 9);
        let f = s.decode();
        assert_eq!(f.component_count(), 10);
        assert!(f.edges.is_empty());
    }

    #[test]
    fn deletions_disconnect() {
        // A path 0-1-2-3 where the middle edge is inserted then deleted.
        let mut s = ForestSketch::new(4, 2);
        for (u, v) in [(0, 1), (1, 2), (2, 3)] {
            s.update_edge(u, v, 1);
        }
        s.update_edge(1, 2, -1);
        let f = s.decode();
        assert_eq!(f.component_count(), 2);
        let mut comps = f.components();
        assert!(comps.connected(0, 1));
        assert!(comps.connected(2, 3));
        assert!(!comps.connected(1, 2));
    }

    #[test]
    fn dynamic_stream_with_churn() {
        let g = gen::connected_gnp(40, 0.15, 11);
        let stream = gen::churn_stream(&g, 400, 13);
        let mut s = ForestSketch::new(40, 17);
        s.absorb(&stream);
        let f = s.decode();
        forest_is_valid(&g, &f);
        assert!(f.is_spanning_tree());
    }

    #[test]
    fn success_rate_over_seeds() {
        // Spanning forest must decode w.h.p.; count failures across seeds.
        let g = gen::connected_gnp(60, 0.08, 21);
        let mut failures = 0;
        for seed in 0..30 {
            let f = sketch_of(&g, seed).decode();
            if !f.is_spanning_tree() {
                failures += 1;
            }
        }
        assert!(failures <= 1, "forest decode failed {failures}/30 times");
    }

    #[test]
    fn merge_equals_central() {
        let g = gen::connected_gnp(30, 0.2, 31);
        let stream = gen::churn_stream(&g, 100, 33);
        let parts = split_updates(&stream, 3, 35);
        let mut site_sketches: Vec<ForestSketch> = parts
            .iter()
            .map(|p| {
                let mut s = ForestSketch::new(30, 77);
                s.absorb(p);
                s
            })
            .collect();
        let mut merged = site_sketches.remove(0);
        for s in &site_sketches {
            merged.merge(s);
        }
        let mut central = ForestSketch::new(30, 77);
        central.absorb(&stream);
        // Same seed + linear merges ⇒ identical decodes.
        assert_eq!(merged.decode().edges, central.decode().edges);
    }

    #[test]
    fn shared_rounds_ablation_is_sound_but_sticky() {
        // Reusing one detector bank across rounds keeps decoding *sound*
        // (never a phantom edge, never a cycle) but loses progress: a
        // component whose deterministic query fails will fail identically
        // every round. This is exactly why Boruvka needs fresh randomness
        // per round; the ablation bench quantifies the gap.
        let g = gen::connected_gnp(40, 0.15, 41);
        let mut params = ForestParams::for_n(40);
        params.share_rounds = true;
        let mut full_success = 0;
        for seed in 0..20 {
            let mut s = ForestSketch::with_params(40, params, seed);
            for &(u, v, w) in g.edges() {
                s.update_edge(u, v, w as i64);
            }
            let f = s.decode();
            forest_is_valid_partial(&g, &f);
            if f.is_spanning_tree() {
                full_success += 1;
            }
        }
        // Fresh-bank decoding succeeds ~30/30 (see success_rate_over_seeds);
        // the shared bank must do strictly worse — that is the finding.
        assert!(
            full_success < 20,
            "sticky-failure effect unexpectedly absent ({full_success}/20)"
        );
    }

    /// Soundness-only check: edges real, no cycles (spanning not required).
    fn forest_is_valid_partial(g: &Graph, f: &Forest) {
        let mut uf = UnionFind::new(g.n());
        for &(u, v, _) in &f.edges {
            assert!(g.has_edge(u, v), "phantom edge ({u},{v})");
            assert!(uf.union(u, v), "cycle through ({u},{v})");
        }
    }

    #[test]
    fn batched_absorb_is_bit_identical_to_per_update_feed() {
        let g = gen::connected_gnp(30, 0.2, 61);
        let updates = gen::churn_stream(&g, 250, 63);
        for share_rounds in [false, true] {
            let mut params = ForestParams::for_n(30);
            params.share_rounds = share_rounds;
            let mut batched = ForestSketch::with_params(30, params, 65);
            batched.absorb_batch(&updates);
            let mut looped = ForestSketch::with_params(30, params, 65);
            for up in &updates {
                looped.update_edge(up.u, up.v, up.delta);
            }
            assert_eq!(batched, looped, "share_rounds = {share_rounds}");
        }
    }

    /// More parts than rounds cut rounds by node: with `share_rounds`
    /// (one bank) every split below cuts a round, so parts share bitmap
    /// words at unaligned cuts and hash the updates they share twice.
    #[test]
    fn split_absorb_cutting_rounds_by_node_is_bit_identical() {
        let g = gen::connected_gnp(30, 0.2, 91);
        let updates = gen::churn_stream(&g, 250, 93);
        for share_rounds in [false, true] {
            let mut params = ForestParams::for_n(30);
            params.share_rounds = share_rounds;
            let mut looped = ForestSketch::with_params(30, params, 95);
            for up in &updates {
                looped.update_edge(up.u, up.v, up.delta);
            }
            for threads in [2, 3, 8, 64] {
                let mut split = ForestSketch::with_params(30, params, 95);
                split.absorb_with(&updates, &DecodePlan::with_threads(threads));
                let label = format!("share_rounds = {share_rounds}, {threads} parts");
                assert_eq!(split, looped, "{label}");
                assert_eq!(
                    split.cells.dirty_words(),
                    looped.cells.dirty_words(),
                    "{label}"
                );
            }
        }
    }

    #[test]
    fn multigraph_multiplicities_survive_partial_deletion() {
        // Edge (0,1) has multiplicity 2; deleting one unit keeps it.
        let mut s = ForestSketch::new(3, 3);
        s.update_edge(0, 1, 2);
        s.update_edge(1, 2, 1);
        s.update_edge(0, 1, -1);
        let f = s.decode();
        assert!(f.is_spanning_tree());
    }

    #[test]
    fn planned_decode_is_bit_identical_to_sequential_and_reference() {
        let g = gen::connected_gnp(40, 0.12, 71);
        let s = sketch_of(&g, 73);
        let seq = s.decode();
        assert_eq!(
            s.decode_reference().edges,
            seq.edges,
            "kernel decode drifted from the pre-kernel reference"
        );
        for threads in [2, 3, 8, 64] {
            let par = s.decode_with(&DecodePlan::with_threads(threads));
            assert_eq!(par.edges, seq.edges, "threads = {threads}");
        }
        // Seeded-partition decoding must agree thread for thread too.
        let mut uf_seq = UnionFind::new(40);
        let mut uf_par = UnionFind::new(40);
        for v in 1..12 {
            uf_seq.union(0, v);
            uf_par.union(0, v);
        }
        let a = s.decode_excluding(&mut uf_seq);
        let b = s.decode_excluding_with(&mut uf_par, &[], &DecodePlan::with_threads(8));
        assert_eq!(a.edges, b.edges);
    }

    #[test]
    #[should_panic(expected = "bad removed edge")]
    fn a_removed_self_loop_is_refused() {
        let s = ForestSketch::new(4, 1);
        s.decode_excluding_with(
            &mut UnionFind::new(4),
            &[(2, 2, 1)],
            &DecodePlan::sequential(),
        );
    }

    #[test]
    fn decode_excluding_contracts_known_components() {
        let g = gen::connected_gnp(20, 0.3, 51);
        let s = sketch_of(&g, 53);
        let mut uf = UnionFind::new(20);
        // Pretend vertices 0..10 are already one component.
        for v in 1..10 {
            uf.union(0, v);
        }
        let f = s.decode_excluding(&mut uf);
        // All vertices end connected (graph is connected).
        assert_eq!(uf.component_count(), 1);
        // Fewer edges than a full spanning tree are needed.
        assert!(f.edges.len() <= 10);
    }
}
