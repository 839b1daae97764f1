//! The cell bank: one contiguous struct-of-arrays store for 1-sparse cells.
//!
//! Every structure in this workspace bottoms out in the same object — the
//! 1-sparse cell `(w, s, f)` of [`crate::one_sparse::OneSparseCell`]. Before
//! this module each structure owned a scattered `Vec<OneSparseCell>` in
//! array-of-structs layout; now they all share a [`CellBank`]: three
//! parallel lanes (`w: i32` *or* `i64`, `s: i64` *or* `i128` — see below,
//! `f: M61`) plus a [`BankGeometry`] descriptor (`reps × levels ×
//! slots`). The layout buys three things at once:
//!
//! * **Batched updates.** An update's expensive work — the fingerprint hash
//!   `h(i)` and the per-repetition subsampling level of `i` — depends only
//!   on the index, never on the cell. The bank exposes
//!   [`CellBank::fan`], a contiguous fan-out that applies one precomputed
//!   `(Δw, Δs, Δf)` triple to a run of cells; callers hash once per index
//!   and fan into every affected row instead of re-hashing per cell.
//! * **Lane-wise merges.** A dense [`CellBank::add`] is three
//!   contiguous slice-add loops over primitive lanes, one scalar loop per
//!   lane width. A sparse operand is summed over its dirty cells only
//!   (see below).
//! * **A wire-ready dump.** The lanes *are* the linear measurement state;
//!   `graph_sketches::wire` format v2 ships them as raw little-endian
//!   bytes, geometry-checked against a spec-built receiver (see the
//!   [`CellBanked`] visitor below).
//!
//! [`CellBanked`] is also a supertrait of [`crate::LinearSketch`], so a
//! task's size questions are answered once, from its banks: the cell
//! count behind `space_bytes`, the width-aware resident bytes and the
//! lane-overflow mark.
//!
//! The lanes are plain zeroed `Vec`s of primitive elements, which the
//! allocator hands out as untouched pages (see [`crate::lane`]). A bank
//! therefore pays physical memory only for the pages its written cells
//! live on: building a sketch from its spec is nearly free, and a shard
//! that never absorbs an update never becomes resident. Sizes reported
//! by [`CellBank::resident_bytes`] count the allocation, an upper bound
//! on what the process actually holds.
//!
//! ## Spec-derived lane widths
//!
//! The `w` lane (`Σ x_i`) and the `s` lane (`Σ i·x_i`) are each stored
//! as a width-tagged [`IntLane`], at the widths [`LaneWidth::for_bounds`]
//! derives from the constructor's declared index/delta bounds: `w` is
//! `i32` for every unit-bound spec (else `i64`), `s` is `i64` when the
//! index budget allows (else `i128`). A unit-bound cell is 20 bytes (plus
//! its dirty bit) where the uncompacted one was 32, on every absorb,
//! merge, drain and decode sweep and in resident memory. The wire formats
//! are width-oblivious: export widens to the 8-byte `w` and 16-byte `s`
//! words the formats always shipped, import range-checks back down
//! (out-of-range values are a typed error at the wire boundary, never
//! silent truncation).
//!
//! Every kernel ([`CellBank::apply`], [`CellBank::check_apply`],
//! [`CellBank::fan`], [`BankPart::fan`], both [`CellBank::add`] paths,
//! [`CellBank::accumulate`], [`CellBank::try_overlay`],
//! [`CellBank::drain_dirty`], [`CellBank::force_wide`]) has one body that
//! calls the same [`IntLane`] operation on both lanes; the lane picks the
//! loop for its stored width.
//!
//! The declared bound is a *derivation hint*, not a trusted limit: every
//! ingest kernel detects true overflow at the stored width (`i32`, `i64`
//! or `i128`) and marks the bank **poisoned** ([`CellBank::lane_overflow`])
//! instead of panicking — an overflowed bank is no longer a linear
//! measurement, so boundaries that export or decode state check the mark
//! and refuse with a typed error while the thread that owns the sketch
//! keeps running.
//!
//! A bank has no serialized form of its own: the wire layer ships its
//! lanes raw and overlays them onto a bank built from the sketch's spec
//! ([`CellBank::try_overlay`]), so every bank carries its structured
//! geometry, and equality and [`CellBank::add`] work across widths by
//! value.
//!
//! ## Dirty tracking and the delta path
//!
//! Every bank additionally carries a **touched-slot bitmap**: one bit per
//! cell, set whenever the cell's measurements change ([`CellBank::apply`],
//! [`CellBank::fan`], [`CellBank::add`] unions the other bank's bits, and
//! the bulk-import paths mark everything). [`CellBank::drain_dirty`]
//! zeroes the touched cells and clears the bitmap, which maintains the
//! delta invariant the wire layer's incremental records stand on: **after
//! any drain every cell is zero**, so between drains the bank's value is
//! exactly the linear measurement of the updates absorbed since the last
//! drain, supported on the dirty cells. Shipping just those cells and
//! summing them at a coordinator is therefore exact — the
//! [`crate::LinearSketch`] linearity law restricted to the delta path.
//! The bitmap never participates in equality or serialization; it is
//! bookkeeping about *freshness*, not part of the measurement.
//!
//! The same invariant makes merges and full dumps cost O(touched cells):
//! [`CellBank::add`] sums only an operand's dirty cells when they are
//! sparse, and the wire v2 writer reads [`CellBank::dirty_words`] to emit
//! every clean 64-cell word as zeros without touching its lane pages.
//!
//! ## Split ingest
//!
//! [`CellBank::split_mut`] cuts a bank into contiguous [`BankPart`]s,
//! disjoint `&mut` views of the lanes that threads fan into at once (a
//! forest sketch's rounds and nodes are independent row groups of one
//! bank). Dropping the [`BankSplit`] folds the parts' bitmap words at the
//! cuts and their poison back into the bank, which then equals the bank
//! the same fans applied directly would have left.

use crate::lane::{IntLane, IntPart, IntWidth, LaneOverflow, LaneWidth};
use crate::one_sparse::{OneSparseCell, OneSparseState};
use gs_field::{Randomness, M61};
use std::ops::Range;

/// The logical shape of a [`CellBank`]: `reps` independent repetitions,
/// each holding `levels` nested subsampling levels of `slots` cells.
/// Total cells = `reps · levels · slots`; cell `(r, l, t)` lives at flat
/// index `(r · levels + l) · slots + t`.
///
/// Each consumer instantiates the axes it needs: an `L0Detector` is
/// `reps × levels × 1`, a `k-RECOVERY` is `rows × 1 × buckets`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BankGeometry {
    /// Independent repetitions (detector reps, recovery rows).
    pub reps: usize,
    /// Nested subsampling levels per repetition.
    pub levels: usize,
    /// Cells per `(rep, level)` row (recovery buckets).
    pub slots: usize,
}

impl BankGeometry {
    /// A `reps × levels × slots` geometry.
    pub fn new(reps: usize, levels: usize, slots: usize) -> Self {
        debug_assert!(reps >= 1 && levels >= 1 && slots >= 1);
        BankGeometry {
            reps,
            levels,
            slots,
        }
    }

    /// Total cell count `reps · levels · slots`.
    pub fn len(&self) -> usize {
        self.reps * self.levels * self.slots
    }

    /// `true` iff the geometry holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat index of cell `(rep, level, slot)`.
    #[inline]
    pub fn index(&self, rep: usize, level: usize, slot: usize) -> usize {
        debug_assert!(rep < self.reps && level < self.levels && slot < self.slots);
        (rep * self.levels + level) * self.slots + slot
    }
}

/// [`CellBank::add`] takes its sparse path when the operand's dirty set
/// covers at most one cell in this many. Summing one dirty cell costs a
/// bit scan and scattered access to three lanes of both banks, more than
/// a cell of the streaming dense sweep; both paths are bit-identical, so
/// this only decides speed.
const SPARSE_ADD_RATIO: usize = 16;

/// Flat indices of the set bits of a dirty bitmap, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(word_i, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let i = (word_i << 6) + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(i)
        })
    })
}

/// A struct-of-arrays store of 1-sparse cells: the shared, contiguous
/// substrate every sketch's measurement state lives in.
///
/// Equality compares the **measurements** (`w`/`s`/`f` lanes) only, by
/// value — not the geometry descriptor, the dirty bitmap, the lane width,
/// or the poison mark: two banks are equal iff they are the same linear
/// measurement, whether or not one stores its index-sums wide.
#[derive(Clone, Debug)]
pub struct CellBank {
    geom: BankGeometry,
    /// Σ x_i per cell, at the spec-derived width (`i32` or `i64`).
    w: IntLane,
    /// Σ i·x_i per cell, at the spec-derived width.
    s: IntLane,
    /// Σ x_i·h(i) per cell, over F_{2^61−1}.
    f: Vec<M61>,
    /// Touched-slot bitmap (one bit per cell, `⌈len/64⌉` words): bit `i`
    /// is set iff cell `i` changed since the last [`CellBank::drain_dirty`].
    /// Unused tail bits of the last word stay zero. Not part of equality
    /// or serialization.
    dirty: Vec<u64>,
    /// Sticky overflow mark: set by any ingest kernel that detects true
    /// lane overflow, cleared only when the whole state is replaced
    /// ([`CellBank::try_overlay`]). Not part of equality or
    /// serialization.
    poison: Option<LaneOverflow>,
}

impl PartialEq for CellBank {
    fn eq(&self, other: &Self) -> bool {
        self.w == other.w && self.s == other.s && self.f == other.f
    }
}

impl Eq for CellBank {}

impl CellBank {
    /// A zeroed bank of the given geometry with [`LaneWidth::WIDE`]
    /// lanes — the always-safe widths for callers that declare no bounds.
    pub fn new(geom: BankGeometry) -> Self {
        Self::with_width(geom, LaneWidth::WIDE)
    }

    /// A zeroed bank of the given geometry and lane widths. Callers
    /// derive the widths from their projection's bounds via
    /// [`LaneWidth::for_bounds`].
    ///
    /// # Panics
    /// Panics if `width.w` is `i128`: the cell API speaks `i64` weights.
    pub fn with_width(geom: BankGeometry, width: LaneWidth) -> Self {
        assert!(
            width.w <= IntWidth::I64,
            "a bank's w lane is at most i64, got {:?}",
            width.w
        );
        let len = geom.len();
        CellBank {
            geom,
            w: IntLane::zeroed(width.w, len),
            s: IntLane::zeroed(width.s, len),
            f: M61::zeroed_vec(len),
            dirty: vec![0; len.div_ceil(64)],
            poison: None,
        }
    }

    /// The geometry descriptor.
    pub fn geometry(&self) -> BankGeometry {
        self.geom
    }

    /// The lane widths this bank stores.
    pub fn width(&self) -> LaneWidth {
        LaneWidth {
            w: self.w.width(),
            s: self.s.width(),
        }
    }

    /// Total cell count.
    pub fn len(&self) -> usize {
        self.f.len()
    }

    /// `true` iff the bank holds no cells.
    pub fn is_empty(&self) -> bool {
        self.f.is_empty()
    }

    /// Bytes of allocated lane storage (`w` and `s` at their stored
    /// widths, `f`, and the dirty bitmap) — the width-aware space
    /// accounting behind [`CellBanked::resident_bytes`]. This counts
    /// the allocation, not the pages the OS holds: lanes are lazily
    /// zeroed, so lane pages holding no written cell take no physical
    /// memory (see [`crate::lane`]).
    pub fn resident_bytes(&self) -> usize {
        self.w.resident_bytes() + self.s.resident_bytes() + self.f.len() * 8 + self.dirty.len() * 8
    }

    /// The sticky overflow mark, if any ingest kernel ever detected true
    /// lane overflow. A poisoned bank is no longer a linear measurement:
    /// its lane contents are unspecified wrapped values, and every
    /// boundary that exports state must check this before trusting them.
    pub fn lane_overflow(&self) -> Option<LaneOverflow> {
        self.poison
    }

    #[inline]
    fn poison_at(&mut self, cell: Option<usize>) {
        if self.poison.is_none() {
            self.poison = Some(LaneOverflow { cell });
        }
    }

    /// Converts both lanes to [`LaneWidth::WIDE`] in place, preserving
    /// values — the narrow-vs-wide gauntlet hook, and the escape hatch for
    /// callers that overlay unbounded external sums.
    pub fn force_wide(&mut self) {
        self.w.widen_to(LaneWidth::WIDE.w);
        self.s.widen_to(LaneWidth::WIDE.s);
    }

    /// The precomputed update triple for `x[index] += delta` under
    /// fingerprint hash value `hf = h(index)`: `(Δw, Δs, Δf)`. Hash once
    /// per index, then [`CellBank::apply`] / [`CellBank::fan`] the triple
    /// into every affected cell.
    #[inline]
    pub fn deltas(index: u64, delta: i64, hf: M61) -> (i64, i128, M61) {
        // Δs = index · delta cannot overflow i128: |index| < 2^64,
        // |delta| ≤ 2^63, so |Δs| < 2^127.
        (
            delta,
            index as i128 * delta as i128,
            M61::from_i64(delta) * hf,
        )
    }

    /// Applies a precomputed update triple to one cell. Never panics: true
    /// overflow of the `w` or `s` lane at its stored width — a sum that
    /// leaves it, or a delta that does not fit it at all — stores the
    /// wrapped value and marks the bank poisoned — see
    /// [`CellBank::lane_overflow`].
    #[inline]
    pub fn apply(&mut self, i: usize, dw: i64, ds: i128, df: M61) {
        self.dirty[i >> 6] |= 1u64 << (i & 63);
        let ovf = self.w.add_at(i, dw.into()) | self.s.add_at(i, ds);
        self.f[i] += df;
        if ovf {
            self.poison_at(Some(i));
        }
    }

    /// Checks whether [`CellBank::apply`] of the same triple would
    /// overflow, **without mutating anything** — the dry-run pass behind
    /// the wire layer's all-or-nothing delta import.
    #[inline]
    pub fn check_apply(&self, i: usize, dw: i64, ds: i128) -> Result<(), LaneOverflow> {
        if self.w.fits_add(i, dw.into()) && self.s.fits_add(i, ds) {
            Ok(())
        } else {
            Err(LaneOverflow { cell: Some(i) })
        }
    }

    /// Fans a precomputed update triple into a contiguous run of cells —
    /// the batched-update kernel inner loop. Three lane-wise passes keep
    /// each loop over one primitive type. Overflow poisons (never
    /// panics).
    #[inline]
    pub fn fan(&mut self, range: Range<usize>, dw: i64, ds: i128, df: M61) {
        self.mark_dirty_range(range.clone());
        let ovf = self.w.fan(range.clone(), dw.into()) | self.s.fan(range.clone(), ds);
        for f in &mut self.f[range] {
            *f += df;
        }
        if ovf {
            self.poison_at(None);
        }
    }

    /// Splits the bank into disjoint mutable parts at the ascending cell
    /// indices `cuts`: part `i` covers cells `cuts[i-1]..cuts[i]` (from 0,
    /// to the bank's end), so the parts are contiguous and cover the
    /// bank. Each part can [`BankPart::fan`] into its own cells on its
    /// own thread. When the returned [`BankSplit`] drops, it folds the
    /// parts' bookkeeping back into the bank: the dirty bits a part set in
    /// a bitmap word whose first cell lies in an earlier part, and the
    /// first part's poison mark in part order. The bank is then exactly what fanning the same triples
    /// into it directly would have left (range fans mark no overflow
    /// cell, so the poison mark does not depend on which part saw it).
    ///
    /// # Panics
    /// Panics if `cuts` is not ascending or a cut lies past the bank.
    pub fn split_mut(&mut self, cuts: &[usize]) -> BankSplit<'_> {
        let len = self.len();
        assert!(
            cuts.windows(2).all(|c| c[0] <= c[1]) && cuts.last().is_none_or(|&c| c <= len),
            "bank cuts must ascend within the bank"
        );
        let CellBank {
            w,
            s,
            f,
            dirty,
            poison,
            ..
        } = self;
        let (mut w, mut s) = (w.part(), s.part());
        let (mut f, mut dirty) = (&mut f[..], &mut dirty[..]);
        let mut parts = Vec::with_capacity(cuts.len() + 1);
        let (mut start, mut first_word) = (0, 0);
        for end in cuts.iter().copied().chain([len]) {
            let cells = end - start;
            let (pw, rest) = w.split_at(cells);
            w = rest;
            let (ps, rest) = s.split_at(cells);
            s = rest;
            let (pf, rest) = std::mem::take(&mut f).split_at_mut(cells);
            f = rest;
            // A bitmap word belongs to the part holding its first cell.
            let end_word = end.div_ceil(64);
            let (pd, rest) = std::mem::take(&mut dirty).split_at_mut(end_word - first_word);
            dirty = rest;
            parts.push(BankPart {
                start,
                first_word,
                w: pw,
                s: ps,
                f: pf,
                dirty: pd,
                head: 0,
                poison: None,
            });
            (start, first_word) = (end, end_word);
        }
        BankSplit { parts, poison }
    }

    /// Legacy single-cell update: hashes `index` itself. Prefer computing
    /// [`CellBank::deltas`] once per index and fanning when more than one
    /// cell is touched.
    #[inline]
    pub fn update(&mut self, i: usize, index: u64, delta: i64, h: &impl Randomness) {
        let (dw, ds, df) = Self::deltas(index, delta, h.hash_m61(index));
        self.apply(i, dw, ds, df);
    }

    /// The cell at flat index `i`, as a value (for decode paths).
    #[inline]
    pub fn cell(&self, i: usize) -> OneSparseCell {
        // The `w` lane is at most `i64` (see `with_width`).
        OneSparseCell::from_parts(self.w.get(i) as i64, self.s.get(i), self.f[i])
    }

    /// Attempts 1-sparse decoding of cell `i` (see
    /// [`OneSparseCell::decode`]).
    #[inline]
    pub fn decode_cell(&self, i: usize, domain: u64, h: &impl Randomness) -> OneSparseState {
        self.cell(i).decode(domain, h)
    }

    /// `true` iff cell `i` certifies the zero vector.
    #[inline]
    pub fn cell_is_zero(&self, i: usize) -> bool {
        self.w.is_zero_at(i) && self.s.is_zero_at(i) && self.f[i].is_zero()
    }

    /// `true` iff every cell is zero.
    pub fn is_zero(&self) -> bool {
        self.w.all_zero() && self.s.all_zero() && self.f.iter().all(|f| f.is_zero())
    }

    /// Linear combination: adds another bank's measurements. Works across
    /// widths by value: a wide operand folding into a narrow receiver is
    /// range-checked per cell. Overflow — and any poison carried by
    /// `other` — poisons `self`.
    ///
    /// The sum is **dirty-driven**: by the delta invariant every cell
    /// where `other` can be nonzero is dirty in `other`, so when its dirty
    /// set is sparse only those cells are summed — a drained engine shard
    /// that absorbed one frame since its last drain costs O(touched
    /// cells), not a sweep of the whole bank. Denser operands take
    /// [`CellBank::add_dense`], the lane-wise sweep. Both
    /// paths leave bit-identical lanes, poison and bitmaps
    /// (`lane_gauntlet` pins it), so the cutoff only decides speed.
    ///
    /// # Panics
    /// Panics if the banks hold different cell counts (they would not be
    /// measurements of the same projection).
    pub fn add(&mut self, other: &Self) {
        if other.dirty_count().saturating_mul(SPARSE_ADD_RATIO) <= other.len() {
            self.add_sparse(other);
        } else {
            self.add_dense(other);
        }
    }

    /// The dense path of [`CellBank::add`]: three lane-wise slice sums
    /// over every cell (a per-cell range-checked sum across widths). It
    /// is also the bit-identity oracle for the sparse path.
    ///
    /// # Panics
    /// Panics if the banks hold different cell counts.
    pub fn add_dense(&mut self, other: &Self) {
        self.begin_add(other);
        let ovf = self.w.add_lane(&other.w) | self.s.add_lane(&other.s);
        for (f, &g) in self.f.iter_mut().zip(&other.f) {
            *f += g;
        }
        self.finish_add(other, ovf);
    }

    /// The sparse path of [`CellBank::add`]: sums only `other`'s dirty
    /// cells, with the dense path's per-cell arithmetic and overflow
    /// rule.
    fn add_sparse(&mut self, other: &Self) {
        self.begin_add(other);
        let mut ovf = false;
        for i in set_bits(&other.dirty) {
            ovf |= self.w.add_at(i, other.w.get(i)) | self.s.add_at(i, other.s.get(i));
            self.f[i] += other.f[i];
        }
        self.finish_add(other, ovf);
    }

    /// Shape checks and bookkeeping shared by both add paths.
    fn begin_add(&mut self, other: &Self) {
        assert_eq!(
            self.len(),
            other.len(),
            "adding cell banks of different sizes"
        );
        debug_assert!(
            self.geom == other.geom,
            "adding banks with different geometries"
        );
        // Every cell where `other` can be nonzero is dirty in `other` (the
        // delta invariant), so the union keeps the invariant here.
        for (a, b) in self.dirty.iter_mut().zip(&other.dirty) {
            *a |= *b;
        }
    }

    /// Poison bookkeeping shared by both add paths: overflow in the sum
    /// itself, then any poison `other` carried.
    fn finish_add(&mut self, other: &Self, ovf: bool) {
        if ovf {
            self.poison_at(None);
        }
        if let Some(p) = other.poison {
            self.poison_at(p.cell);
        }
    }

    /// Read-only view of the width-tagged `w` (total-weight) lane.
    pub fn w_lane(&self) -> &IntLane {
        &self.w
    }

    /// Read-only view of the width-tagged `s` (index-sum) lane.
    pub fn s_lane(&self) -> &IntLane {
        &self.s
    }

    /// Read-only view of the `f` (fingerprint) lane.
    pub fn f_lane(&self) -> &[M61] {
        &self.f
    }

    /// The batched group-query kernel: adds the cells of `range` into the
    /// accumulator lanes, lane-wise (`aw[j] += w[range.start + j]`, and
    /// likewise for `s` and `f`). A lane narrower than its accumulators
    /// (`i32` `w`, `i64` `s`) widens as it sums, so the accumulators do
    /// not overflow mid-query. The accumulators wrap at their own width.
    /// Decode paths that sum many rows (Σ_{u∈A} sketch(x^u) in Boruvka
    /// rounds, the per-cut recovery sums of Fig. 3) call this once per
    /// row instead of walking cells with per-index bounds checks.
    ///
    /// # Panics
    /// Panics if `range` exceeds the bank or the accumulators are not
    /// exactly `range.len()` long.
    #[inline]
    pub fn accumulate(
        &self,
        range: Range<usize>,
        aw: &mut [i64],
        as_: &mut [i128],
        af: &mut [M61],
    ) {
        let f = &self.f[range.clone()];
        assert!(
            aw.len() == f.len() && as_.len() == f.len() && af.len() == f.len(),
            "accumulator lanes disagree with the row length"
        );
        self.w.sum_into(range.clone(), aw);
        self.s.sum_into(range, as_);
        for (a, &g) in af.iter_mut().zip(f) {
            *a += g;
        }
    }

    /// Overwrites the measurement lanes with externally-provided data
    /// (wire import into a spec-built bank), narrowing `w` and `s` to the
    /// stored widths with range checks; an out-of-range value is refused
    /// with the lowest offending cell. The geometry descriptor and lane
    /// widths are kept — the receiver's structure is the source of truth. On
    /// success the whole bank is marked dirty (a bulk import has no
    /// per-cell freshness record) and any poison is cleared (the state
    /// was replaced wholesale). On error **nothing** is modified.
    ///
    /// # Panics
    /// Panics if the lane lengths disagree with the bank's cell count.
    pub fn try_overlay(
        &mut self,
        w: Vec<i64>,
        s: Vec<i128>,
        f: Vec<M61>,
    ) -> Result<(), LaneOverflow> {
        assert!(
            w.len() == self.len() && s.len() == self.len() && f.len() == self.len(),
            "overlay lanes disagree with bank size"
        );
        // Validate the whole batch before writing anything.
        let unfit = self
            .w
            .first_unfit(&w)
            .into_iter()
            .chain(self.s.first_unfit(&s));
        if let Some(i) = unfit.min() {
            return Err(LaneOverflow { cell: Some(i) });
        }
        self.w.copy_from(&w);
        self.s.copy_from(&s);
        self.f.copy_from_slice(&f);
        self.poison = None;
        self.mark_all_dirty();
        Ok(())
    }

    /// [`CellBank::try_overlay`] for trusted same-provenance lanes.
    ///
    /// # Panics
    /// Panics if the lane lengths disagree, or a value exceeds this bank's
    /// compacted lanes (use [`CellBank::try_overlay`] on untrusted input).
    pub fn overlay(&mut self, w: Vec<i64>, s: Vec<i128>, f: Vec<M61>) {
        self.try_overlay(w, s, f)
            .expect("overlay value exceeds the bank's lane width");
    }

    /// `true` iff cell `i` was touched since the last
    /// [`CellBank::drain_dirty`].
    #[inline]
    pub fn is_dirty(&self, i: usize) -> bool {
        self.dirty[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// Number of cells touched since the last [`CellBank::drain_dirty`].
    pub fn dirty_count(&self) -> usize {
        self.dirty.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Read-only view of the touched-slot bitmap, `⌈len/64⌉` words: bit
    /// `i & 63` of word `i >> 6` is set iff cell `i` was touched since the
    /// last drain, and the unused tail bits of the last word are zero. A
    /// zero word certifies its 64 cells are zero (the delta invariant),
    /// which lets the v2 writer emit them without reading the lanes.
    pub fn dirty_words(&self) -> &[u64] {
        &self.dirty
    }

    /// Flat indices of the touched cells, ascending — the support of the
    /// pending delta (the wire layer ships exactly these cells).
    pub fn dirty_indices(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.dirty_count());
        out.extend(set_bits(&self.dirty));
        out
    }

    /// Drains the pending delta: zeroes every touched cell and clears the
    /// bitmap, returning how many cells were drained. Afterwards the whole
    /// bank is zero (untouched cells were already zero since the previous
    /// drain — see the module docs), so it starts accumulating the next
    /// delta from scratch. The poison mark (if any) is **not** cleared:
    /// the drained delta was already computed from overflowed state.
    pub fn drain_dirty(&mut self) -> usize {
        let mut drained = 0;
        for i in set_bits(&self.dirty) {
            self.w.zero(i);
            self.s.zero(i);
            self.f[i] = M61::ZERO;
            drained += 1;
        }
        self.dirty.fill(0);
        drained
    }

    /// Marks every cell in `range` touched.
    #[inline]
    fn mark_dirty_range(&mut self, range: Range<usize>) {
        debug_assert!(range.end <= self.len());
        let mut i = range.start;
        while i < range.end {
            let (word, mask) = range_word_mask(i, range.end);
            self.dirty[word] |= mask;
            i = (word + 1) << 6;
        }
    }

    /// Marks every cell touched (bulk imports with no freshness record).
    fn mark_all_dirty(&mut self) {
        for word in &mut self.dirty {
            *word = !0;
        }
        let tail = self.len() & 63;
        if tail != 0 {
            if let Some(last) = self.dirty.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
    }
}

/// The bitmap word holding cell `i`, and the bits in it of the cells
/// `i..end` (up to the word's last cell).
#[inline]
fn range_word_mask(i: usize, end: usize) -> (usize, u64) {
    let word = i >> 6;
    let hi = end.min((word + 1) << 6);
    // Bits i..hi of this word: (hi-i) ones shifted up to bit i&63.
    let run = hi - i;
    let mask = if run == 64 {
        !0
    } else {
        ((1u64 << run) - 1) << (i & 63)
    };
    (word, mask)
}

/// One contiguous cell range of a [`CellBank`] under
/// [`CellBank::split_mut`]: disjoint `&mut` views of its lanes and of
/// the bitmap words whose first cell it holds, plus the bookkeeping the
/// split folds back into the bank.
#[derive(Debug)]
pub struct BankPart<'a> {
    /// The part's first cell, as a bank index.
    start: usize,
    /// The first bitmap word whose first cell lies in this part.
    first_word: usize,
    w: IntPart<'a>,
    s: IntPart<'a>,
    f: &'a mut [M61],
    /// Bitmap words `first_word..`, through the one holding the part's
    /// last cell.
    dirty: &'a mut [u64],
    /// Dirty bits this part set in word `start / 64` when that word
    /// belongs to an earlier part.
    head: u64,
    /// Set by the first fan that truly overflowed.
    poison: Option<LaneOverflow>,
}

impl BankPart<'_> {
    /// The bank cells this part covers.
    pub fn range(&self) -> Range<usize> {
        self.start..self.start + self.f.len()
    }

    /// [`CellBank::fan`] into this part's cells: `range` is in bank
    /// indices and must lie inside [`BankPart::range`]. Same lanes, dirty
    /// bits and overflow rule as the bank's own fan, whose kernel this
    /// repeats over the part's lane slices.
    ///
    /// # Panics
    /// Panics if `range` leaves the part.
    #[inline]
    pub fn fan(&mut self, range: Range<usize>, dw: i64, ds: i128, df: M61) {
        let mut i = range.start;
        while i < range.end {
            let (word, mask) = range_word_mask(i, range.end);
            match word.checked_sub(self.first_word) {
                Some(k) => self.dirty[k] |= mask,
                None => self.head |= mask,
            }
            i = (word + 1) << 6;
        }
        let r = range.start - self.start..range.end - self.start;
        let ovf = self.w.fan(r.clone(), dw.into()) | self.s.fan(r.clone(), ds);
        for f in &mut self.f[r] {
            *f += df;
        }
        if ovf && self.poison.is_none() {
            self.poison = Some(LaneOverflow { cell: None });
        }
    }
}

/// A [`CellBank`] split into [`BankPart`]s by [`CellBank::split_mut`].
/// Dropping it folds the parts' bookkeeping back into the bank.
#[derive(Debug)]
pub struct BankSplit<'a> {
    parts: Vec<BankPart<'a>>,
    poison: &'a mut Option<LaneOverflow>,
}

impl<'a> BankSplit<'a> {
    /// The parts, in bank order.
    pub fn parts_mut(&mut self) -> &mut [BankPart<'a>] {
        &mut self.parts
    }
}

impl Drop for BankSplit<'_> {
    fn drop(&mut self) {
        for i in 1..self.parts.len() {
            let (head, word) = (self.parts[i].head, self.parts[i].start >> 6);
            if head == 0 {
                continue;
            }
            // The word's first cell lies in an earlier part, which holds
            // the word.
            let owner = self.parts[..i]
                .iter_mut()
                .rev()
                .find(|p| p.first_word <= word && word < p.first_word + p.dirty.len());
            if let Some(owner) = owner {
                owner.dirty[word - owner.first_word] |= head;
            }
        }
        if self.poison.is_none() {
            *self.poison = self.parts.iter().find_map(|p| p.poison);
        }
    }
}

/// Visitor access to every [`CellBank`] (and standalone verification
/// fingerprint) making up a sketch's linear measurement state, in a
/// deterministic order.
///
/// This is the contract the binary wire format stands on: a sketch's
/// *structure* (hashes, seeds, parameters) is fully derivable from its
/// spec, so shipping a sketch only requires shipping the banks and
/// fingerprint scalars — the receiver rebuilds the structure from the spec
/// and overlays the state, geometry-checked bank by bank. It is also a
/// supertrait of [`crate::LinearSketch`]: every size and overflow
/// question about a task is answered here, from its banks.
pub trait CellBanked {
    /// Every bank, in a deterministic traversal order.
    fn banks(&self) -> Vec<&CellBank>;

    /// Mutable counterpart of [`CellBanked::banks`], same order.
    fn banks_mut(&mut self) -> Vec<&mut CellBank>;

    /// Standalone linear `F_{2^61−1}` scalars (the `k-RECOVERY`
    /// verification fingerprints), in a deterministic order.
    fn fingerprints(&self) -> Vec<M61>;

    /// Mutable counterpart of [`CellBanked::fingerprints`], same order.
    fn fingerprints_mut(&mut self) -> Vec<&mut M61>;

    /// Total 1-sparse cells across every bank (the space accounting of
    /// [`crate::LinearSketch::space_bytes`]).
    fn cell_count(&self) -> usize {
        self.banks().iter().map(|b| b.len()).sum()
    }

    /// Total cells touched across every bank since the last drain — the
    /// support size of the pending delta.
    fn dirty_cells(&self) -> usize {
        self.banks().iter().map(|b| b.dirty_count()).sum()
    }

    /// The first lane-overflow mark across the banks, if any — the typed
    /// surface engine/wire boundaries check before trusting exported
    /// state.
    fn lane_overflow(&self) -> Option<LaneOverflow> {
        self.banks().iter().find_map(|b| b.lane_overflow())
    }

    /// Width-aware resident bytes of the measurement state: every bank's
    /// lanes at their stored widths plus the standalone fingerprints.
    fn resident_bytes(&self) -> usize {
        let banks: usize = self.banks().iter().map(|b| b.resident_bytes()).sum();
        banks + self.fingerprints().len() * 8
    }

    /// Drains the sketch's pending delta: every bank is
    /// [`CellBank::drain_dirty`]-ed and every fingerprint scalar is zeroed
    /// (fingerprints are linear sums too, so their post-drain value is the
    /// fingerprint of the updates since the drain). Afterwards the sketch
    /// is the zero measurement and starts accumulating the next delta.
    /// Returns the number of cells drained.
    fn drain_dirty(&mut self) -> usize {
        let mut drained = 0;
        for bank in self.banks_mut() {
            drained += bank.drain_dirty();
        }
        for fp in self.fingerprints_mut() {
            *fp = M61::ZERO;
        }
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_field::m61::P;
    use gs_field::OracleHash;

    fn h() -> OracleHash {
        OracleHash::new(0xBA2C, 1)
    }

    /// What a unit-bound spec derives at moderate `n`.
    const COMPACT: LaneWidth = LaneWidth {
        w: IntWidth::I32,
        s: IntWidth::I64,
    };
    /// `i64` in both integer lanes.
    const NARROW: LaneWidth = LaneWidth {
        w: IntWidth::I64,
        s: IntWidth::I64,
    };
    /// Every width pair a bank can hold.
    const WIDTHS: [LaneWidth; 4] = [
        COMPACT,
        LaneWidth {
            w: IntWidth::I32,
            s: IntWidth::I128,
        },
        NARROW,
        LaneWidth::WIDE,
    ];

    /// The `w` lane as the `i64` words the overlay takes.
    fn w_vec(b: &CellBank) -> Vec<i64> {
        (0..b.len()).map(|i| b.cell(i).parts().0).collect()
    }

    #[test]
    fn geometry_indexing_is_row_major() {
        let g = BankGeometry::new(2, 3, 4);
        assert_eq!(g.len(), 24);
        assert_eq!(g.index(0, 0, 0), 0);
        assert_eq!(g.index(0, 1, 0), 4);
        assert_eq!(g.index(1, 0, 0), 12);
        assert_eq!(g.index(1, 2, 3), 23);
    }

    #[test]
    fn bank_update_matches_aos_cell() {
        let h = h();
        for width in WIDTHS {
            let mut bank = CellBank::with_width(BankGeometry::new(1, 1, 4), width);
            let mut cells = [OneSparseCell::new(); 4];
            for (i, idx, d) in [(0usize, 7u64, 3i64), (1, 9, -2), (0, 7, -3), (3, 1000, 5)] {
                bank.update(i, idx, d, &h);
                cells[i].update(idx, d, &h);
            }
            for (i, cell) in cells.iter().enumerate() {
                assert_eq!(bank.cell(i), *cell);
                assert_eq!(bank.decode_cell(i, 1 << 20, &h), cell.decode(1 << 20, &h));
            }
            assert!(bank.cell_is_zero(0) && bank.cell_is_zero(2));
            assert!(!bank.is_zero());
            assert!(bank.lane_overflow().is_none());
        }
    }

    #[test]
    fn narrow_and_wide_banks_agree_bit_for_bit() {
        let h = h();
        let mut narrow = CellBank::with_width(BankGeometry::new(2, 3, 2), COMPACT);
        let mut wide = CellBank::with_width(BankGeometry::new(2, 3, 2), LaneWidth::WIDE);
        for (i, idx, d) in [
            (0usize, 7u64, 3i64),
            (5, 9, -2),
            (0, 7, -3),
            (11, 1000, 5),
            (5, 12, 40),
        ] {
            narrow.update(i, idx, d, &h);
            wide.update(i, idx, d, &h);
        }
        assert_eq!(narrow, wide);
        assert_eq!(narrow.w_lane().to_wide_vec(), wide.w_lane().to_wide_vec());
        assert_eq!(narrow.s_lane().to_wide_vec(), wide.s_lane().to_wide_vec());
        // Merge across widths by value, both directions.
        let mut nw = narrow.clone();
        nw.add(&wide);
        let mut ww = wide.clone();
        ww.add(&narrow);
        assert_eq!(nw, ww);
        assert!(nw.lane_overflow().is_none());
        // force_wide preserves the measurement.
        let mut forced = narrow.clone();
        forced.force_wide();
        assert_eq!(forced.width(), LaneWidth::WIDE);
        assert_eq!(forced, narrow);
    }

    #[test]
    fn accumulate_equals_indexed_cell_sum() {
        let h = h();
        for width in WIDTHS {
            let mut bank = CellBank::with_width(BankGeometry::new(1, 1, 16), width);
            for (i, idx, d) in [(2usize, 5u64, 3i64), (3, 9, -1), (7, 5, 2), (10, 30, 4)] {
                bank.update(i, idx, d, &h);
            }
            let range = 2..11;
            let len = range.len();
            let (mut aw, mut as_, mut af) =
                (vec![1i64; len], vec![2i128; len], vec![M61::ZERO; len]);
            bank.accumulate(range.clone(), &mut aw, &mut as_, &mut af);
            for j in 0..len {
                assert_eq!(i128::from(aw[j]), 1 + bank.w_lane().get(range.start + j));
                assert_eq!(as_[j], 2 + bank.s_lane().get(range.start + j));
                assert_eq!(af[j], bank.f_lane()[range.start + j]);
            }
        }
    }

    #[test]
    #[should_panic]
    fn accumulate_rejects_mismatched_accumulators() {
        let bank = CellBank::new(BankGeometry::new(1, 1, 8));
        let (mut aw, mut as_, mut af) = (vec![0i64; 3], vec![0i128; 4], vec![M61::ZERO; 4]);
        bank.accumulate(0..4, &mut aw, &mut as_, &mut af);
    }

    #[test]
    fn fan_equals_per_cell_updates() {
        let h = h();
        for width in WIDTHS {
            let mut fanned = CellBank::with_width(BankGeometry::new(1, 8, 1), width);
            let mut looped = CellBank::with_width(BankGeometry::new(1, 8, 1), width);
            let (index, delta) = (12345u64, -7i64);
            let (dw, ds, df) = CellBank::deltas(index, delta, h.hash_m61(index));
            fanned.fan(2..6, dw, ds, df);
            for i in 2..6 {
                looped.update(i, index, delta, &h);
            }
            assert_eq!(fanned, looped);
            // A fingerprint delta of P − 1 over written and zero cells
            // subtracts one from each and leaves every `f` reduced.
            let top = M61::new(P - 1);
            fanned.fan(0..8, 0, 0, top);
            for i in 0..8 {
                looped.apply(i, 0, 0, top);
            }
            assert_eq!(fanned, looped);
            for (i, &f) in fanned.f_lane().iter().enumerate() {
                let before = if (2..6).contains(&i) { df } else { M61::ZERO };
                assert_eq!(f, before - M61::ONE, "{width:?}: cell {i}");
                assert!(f.value() < P, "{width:?}: cell {i} unreduced");
            }
        }
    }

    #[test]
    fn add_is_lanewise_and_checks_size() {
        let h = h();
        let mut a = CellBank::new(BankGeometry::new(2, 2, 1));
        let mut b = CellBank::new(BankGeometry::new(2, 2, 1));
        let mut whole = CellBank::new(BankGeometry::new(2, 2, 1));
        for (i, idx, d) in [(0usize, 3u64, 5i64), (2, 9, -2)] {
            a.update(i, idx, d, &h);
            whole.update(i, idx, d, &h);
        }
        for (i, idx, d) in [(0usize, 3u64, -5i64), (3, 4, 1)] {
            b.update(i, idx, d, &h);
            whole.update(i, idx, d, &h);
        }
        a.add(&b);
        assert_eq!(a, whole);
        assert!(a.cell_is_zero(0));
        // An operand of P − 1 in every `f` subtracts one from each cell,
        // written or not, and leaves every `f` reduced.
        let mut top = CellBank::new(BankGeometry::new(2, 2, 1));
        top.fan(0..4, 0, 0, M61::new(P - 1));
        a.add_dense(&top);
        for (i, (&f, &g)) in a.f_lane().iter().zip(whole.f_lane()).enumerate() {
            assert_eq!(f, g - M61::ONE, "cell {i}");
            assert!(f.value() < P, "cell {i} unreduced");
        }
    }

    #[test]
    #[should_panic]
    fn add_rejects_mismatched_sizes() {
        let mut a = CellBank::new(BankGeometry::new(1, 2, 1));
        let b = CellBank::new(BankGeometry::new(1, 3, 1));
        a.add(&b);
    }

    #[test]
    fn equality_ignores_geometry() {
        let h = h();
        let mut structured = CellBank::new(BankGeometry::new(2, 3, 1));
        let mut flat = CellBank::new(BankGeometry::new(1, 1, 6));
        structured.update(4, 10, 2, &h);
        flat.update(4, 10, 2, &h);
        assert_eq!(structured, flat);
    }

    #[test]
    fn dirty_bits_track_touched_cells() {
        let h = h();
        let mut bank = CellBank::new(BankGeometry::new(2, 3, 1));
        assert_eq!(bank.dirty_count(), 0);
        bank.update(1, 7, 3, &h);
        bank.update(4, 9, -2, &h);
        bank.update(1, 7, -3, &h); // cancels cell 1, still touched
        assert_eq!(bank.dirty_indices(), vec![1, 4]);
        assert!(bank.is_dirty(1) && bank.is_dirty(4) && !bank.is_dirty(0));
        assert!(bank.cell_is_zero(1), "cancelled but dirty");
    }

    #[test]
    fn fan_marks_the_whole_range_dirty() {
        let h = h();
        // 130 cells: the range crosses two word boundaries.
        let mut bank = CellBank::new(BankGeometry::new(1, 1, 130));
        let (dw, ds, df) = CellBank::deltas(5, 2, h.hash_m61(5));
        bank.fan(60..129, dw, ds, df);
        assert_eq!(bank.dirty_indices(), (60..129).collect::<Vec<_>>());
        assert!(!bank.is_dirty(59) && !bank.is_dirty(129));
        assert_eq!(bank.dirty_words(), [0xf << 60, !0, 1]);
    }

    #[test]
    fn drain_zeroes_touched_cells_and_resets_tracking() {
        let h = h();
        for width in WIDTHS {
            let mut bank = CellBank::with_width(BankGeometry::new(1, 1, 70), width);
            bank.update(3, 10, 4, &h);
            bank.update(66, 11, -1, &h);
            assert_eq!(bank.drain_dirty(), 2);
            assert!(bank.is_zero(), "drain leaves the zero measurement");
            assert_eq!(bank.dirty_count(), 0);
            // The next delta accumulates from scratch.
            bank.update(3, 10, 2, &h);
            assert_eq!(bank.dirty_indices(), vec![3]);
            let expect = CellBank::deltas(10, 2, h.hash_m61(10));
            assert_eq!(bank.cell(3).parts(), (expect.0, expect.1, expect.2));
        }
    }

    #[test]
    fn add_unions_dirty_sets() {
        let h = h();
        let mut a = CellBank::new(BankGeometry::new(1, 1, 8));
        let mut b = CellBank::new(BankGeometry::new(1, 1, 8));
        a.update(1, 3, 1, &h);
        b.update(6, 4, 1, &h);
        a.add(&b);
        assert_eq!(a.dirty_indices(), vec![1, 6]);
    }

    #[test]
    fn overlay_and_deserialize_mark_everything_dirty() {
        let h = h();
        let mut src = CellBank::new(BankGeometry::new(1, 3, 1));
        src.update(1, 77, 3, &h);
        let mut dst = CellBank::new(BankGeometry::new(1, 3, 1));
        dst.overlay(
            w_vec(&src),
            src.s_lane().to_wide_vec(),
            src.f_lane().to_vec(),
        );
        assert_eq!(dst.dirty_count(), 3, "bulk import has no freshness record");
        // Deserialization (the wire load path) overlays the shipped lanes
        // onto a spec-built, possibly narrow, bank: the same rule.
        let mut back = CellBank::with_width(BankGeometry::new(1, 3, 1), COMPACT);
        back.try_overlay(
            w_vec(&src),
            src.s_lane().to_wide_vec(),
            src.f_lane().to_vec(),
        )
        .unwrap();
        assert_eq!(back.dirty_count(), 3);
    }

    #[test]
    fn equality_ignores_dirty_bits() {
        let h = h();
        let mut touched = CellBank::new(BankGeometry::new(1, 1, 4));
        touched.update(2, 5, 1, &h);
        touched.update(2, 5, -1, &h);
        let fresh = CellBank::new(BankGeometry::new(1, 1, 4));
        assert_eq!(touched, fresh);
        assert_ne!(touched.dirty_count(), fresh.dirty_count());
    }

    #[test]
    fn overlay_replaces_lanes() {
        let h = h();
        let mut src = CellBank::new(BankGeometry::new(1, 3, 1));
        src.update(1, 77, 3, &h);
        let mut dst = CellBank::new(BankGeometry::new(1, 3, 1));
        dst.overlay(
            w_vec(&src),
            src.s_lane().to_wide_vec(),
            src.f_lane().to_vec(),
        );
        assert_eq!(dst, src);
        assert_eq!(dst.geometry(), BankGeometry::new(1, 3, 1));
    }

    // ----------------------------------------------- overflow → poison

    #[test]
    fn apply_overflow_poisons_instead_of_panicking() {
        // Regression for the old debug-only `expect("…overflowed i128")`:
        // adversarial accumulated state must mark the bank, not kill the
        // worker thread.
        let mut wide = CellBank::new(BankGeometry::new(1, 1, 2));
        wide.apply(0, 1, i128::MAX, M61::ZERO);
        assert!(wide.lane_overflow().is_none());
        wide.apply(0, 1, i128::MAX, M61::ZERO);
        let p = wide.lane_overflow().expect("i128 overflow must poison");
        assert_eq!(p.cell, Some(0));

        let mut narrow = CellBank::with_width(BankGeometry::new(1, 1, 2), NARROW);
        narrow.apply(1, 1, i64::MAX as i128, M61::ZERO);
        assert!(narrow.lane_overflow().is_none());
        narrow.apply(1, 1, 1, M61::ZERO);
        assert_eq!(narrow.lane_overflow().unwrap().cell, Some(1));
        // A Δs that cannot even fit the narrow lane poisons immediately.
        let mut narrow2 = CellBank::with_width(BankGeometry::new(1, 1, 2), NARROW);
        narrow2.apply(0, 1, i128::from(i64::MAX) + 1, M61::ZERO);
        assert!(narrow2.lane_overflow().is_some());
    }

    #[test]
    fn fan_and_add_overflow_poison() {
        let mut narrow = CellBank::with_width(BankGeometry::new(1, 1, 8), NARROW);
        narrow.fan(0..8, 0, (i64::MAX - 1) as i128, M61::ZERO);
        assert!(narrow.lane_overflow().is_none());
        narrow.fan(2..5, 0, 2, M61::ZERO);
        assert!(narrow.lane_overflow().is_some(), "fan overflow must poison");

        let mut a = CellBank::with_width(BankGeometry::new(1, 1, 4), NARROW);
        let mut b = CellBank::with_width(BankGeometry::new(1, 1, 4), NARROW);
        a.apply(3, 0, i64::MAX as i128, M61::ZERO);
        b.apply(3, 0, 1, M61::ZERO);
        a.add(&b);
        assert!(a.lane_overflow().is_some(), "merge overflow must poison");
        // Poison propagates through merges of a poisoned operand.
        let mut clean = CellBank::with_width(BankGeometry::new(1, 1, 4), NARROW);
        clean.add(&a);
        assert!(clean.lane_overflow().is_some(), "poison must propagate");
    }

    #[test]
    fn check_apply_is_a_pure_dry_run() {
        let mut narrow = CellBank::with_width(BankGeometry::new(1, 1, 2), NARROW);
        narrow.apply(0, 5, 100, M61::ZERO);
        assert!(narrow.check_apply(0, 1, 1).is_ok());
        let err = narrow.check_apply(0, 1, i128::from(i64::MAX)).unwrap_err();
        assert_eq!(err.cell, Some(0));
        assert!(narrow.check_apply(0, i64::MAX, 0).is_err());
        // Nothing was mutated by the failed checks.
        assert_eq!(narrow.cell(0).parts().0, 5);
        assert_eq!(narrow.s_lane().get(0), 100);
        assert!(narrow.lane_overflow().is_none());
    }

    #[test]
    fn try_overlay_range_checks_narrow_imports() {
        let mut narrow = CellBank::with_width(BankGeometry::new(1, 1, 3), NARROW);
        let bad = vec![0i128, i128::from(i64::MAX) + 1, 0];
        let err = narrow
            .try_overlay(vec![1, 2, 3], bad, vec![M61::ZERO; 3])
            .unwrap_err();
        assert_eq!(err.cell, Some(1));
        // The failed overlay changed nothing.
        assert!(narrow.is_zero());
        assert_eq!(narrow.dirty_count(), 0);
        // In-range values land, and a successful overlay clears poison.
        narrow.apply(0, 1, i128::MAX, M61::ZERO);
        narrow.apply(0, 1, i128::MAX, M61::ZERO);
        assert!(narrow.lane_overflow().is_some());
        narrow
            .try_overlay(
                vec![1, 2, 3],
                vec![9, -9, i64::MAX as i128],
                vec![M61::ZERO; 3],
            )
            .unwrap();
        assert!(narrow.lane_overflow().is_none());
        assert_eq!(narrow.s_lane().get(2), i64::MAX as i128);
    }

    /// Everything `add` leaves behind, for comparing its two paths.
    fn add_outcome(b: &CellBank) -> (CellBank, Vec<usize>, Option<LaneOverflow>) {
        (b.clone(), b.dirty_indices(), b.lane_overflow())
    }

    #[test]
    fn sparse_add_equals_dense_add_across_widths() {
        let h = h();
        let geom = BankGeometry::new(2, 4, 40);
        for (wa, wb) in WIDTHS.into_iter().flat_map(|a| WIDTHS.map(|b| (a, b))) {
            let mut a = CellBank::with_width(geom, wa);
            for i in (0..geom.len()).step_by(3) {
                a.update(i, i as u64 * 7 + 1, 2, &h);
            }
            // Two touched cells of 320: the sparse path.
            let mut b = CellBank::with_width(geom, wb);
            b.update(5, 99, -4, &h);
            b.update(200, 1234, 9, &h);
            assert!(b.dirty_count() * SPARSE_ADD_RATIO <= b.len());
            let mut sparse = a.clone();
            sparse.add(&b);
            let mut dense = a.clone();
            dense.add_dense(&b);
            assert_eq!(add_outcome(&sparse), add_outcome(&dense), "{wa:?}+{wb:?}");
            // Overflow in the sum and a poisoned operand poison alike.
            let mut hot = CellBank::with_width(geom, wb);
            hot.apply(3, i64::MAX, 0, M61::ZERO); // a's cell 3 holds w = 2
            hot.apply(6, 1, i128::MAX, M61::ZERO);
            hot.apply(6, 1, i128::MAX, M61::ZERO);
            let (mut sparse, mut dense) = (a.clone(), a.clone());
            sparse.add(&hot);
            dense.add_dense(&hot);
            assert!(sparse.lane_overflow().is_some());
            assert_eq!(
                add_outcome(&sparse),
                add_outcome(&dense),
                "{wa:?}+{wb:?} hot"
            );
        }
    }

    #[test]
    fn split_fans_equal_direct_fans_at_ragged_cuts() {
        let h = h();
        let geom = BankGeometry::new(1, 1, 300);
        let mut fans: Vec<(Range<usize>, i64, i128, M61)> = (0..90)
            .map(|k| {
                let start = (k * 37) % 290;
                let (dw, ds, df) =
                    CellBank::deltas(k as u64 * 11, 1 - (k as i64 % 3), h.hash_m61(k as u64));
                (start..start + 1 + k % 10, dw, ds, df)
            })
            .collect();
        // Two maximal fans over the same cells overflow wherever they land.
        fans.push((140..147, i64::MAX, i128::from(i64::MAX), M61::ZERO));
        fans.push((140..147, i64::MAX, i128::from(i64::MAX), M61::ZERO));
        let cut_sets: [&[usize]; 5] = [
            &[],
            &[150],
            &[7, 7, 100, 130, 200],
            &[1, 2, 3, 64, 65, 128, 299, 300],
            &[10, 20, 30, 40, 50, 60, 63, 70, 250],
        ];
        for width in WIDTHS {
            for cuts in cut_sets {
                let bounds: Vec<usize> = [0].iter().chain(cuts).chain(&[300]).copied().collect();
                // Fans inside one part: the split path applies those only.
                let fits =
                    |r: &Range<usize>| bounds.windows(2).any(|b| b[0] <= r.start && r.end <= b[1]);
                let mut direct = CellBank::with_width(geom, width);
                direct.update(5, 9, 2, &h);
                let mut split = direct.clone();
                for (r, dw, ds, df) in fans.iter().filter(|f| fits(&f.0)) {
                    direct.fan(r.clone(), *dw, *ds, *df);
                }
                let mut parts = split.split_mut(cuts);
                for part in parts.parts_mut() {
                    let own = part.range();
                    for (r, dw, ds, df) in fans.iter().filter(|f| fits(&f.0)) {
                        if own.start <= r.start && r.end <= own.end {
                            part.fan(r.clone(), *dw, *ds, *df);
                        }
                    }
                }
                drop(parts);
                assert!(direct.lane_overflow().is_some());
                assert_eq!(
                    add_outcome(&split),
                    add_outcome(&direct),
                    "{width:?} cuts {cuts:?}"
                );
                assert_eq!(split.dirty_words(), direct.dirty_words());
            }
        }
    }

    #[test]
    fn resident_bytes_track_lane_width() {
        let geom = BankGeometry::new(1, 1, 64);
        let bytes = |width| CellBank::with_width(geom, width).resident_bytes();
        // 64 cells: f 512 + dirty 8; w is 256 (i32) or 512 (i64), s is
        // 512 (i64) or 1024 (i128).
        assert_eq!(bytes(COMPACT), 256 + 512 + 512 + 8);
        assert_eq!(bytes(NARROW), 512 + 512 + 512 + 8);
        assert_eq!(bytes(LaneWidth::WIDE), 512 + 1024 + 512 + 8);
        for width in WIDTHS {
            assert_eq!(bytes(width), 64 * width.cell_bytes() + 8, "{width:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at most i64")]
    fn with_width_refuses_an_i128_w_lane() {
        let width = LaneWidth {
            w: IntWidth::I128,
            s: IntWidth::I128,
        };
        CellBank::with_width(BankGeometry::new(1, 1, 1), width);
    }

    /// The `w` of cell `i` and the bank's poison mark.
    fn w_and_poison(b: &CellBank, i: usize) -> (i64, Option<LaneOverflow>) {
        (b.cell(i).parts().0, b.lane_overflow())
    }

    #[test]
    fn i32_w_lane_poisons_one_past_its_edge_in_every_kernel() {
        let geom = BankGeometry::new(1, 1, 64);
        let (max, wrapped) = (i64::from(i32::MAX), i64::from(i32::MIN));
        let z = M61::ZERO;

        // apply and check_apply: i32::MAX exactly is clean, one more
        // poisons, and the poison outlives the value coming back.
        let mut b = CellBank::with_width(geom, COMPACT);
        b.apply(0, max - 1, 0, z);
        assert!(b.check_apply(0, 1, 0).is_ok());
        b.apply(0, 1, 0, z);
        assert_eq!(w_and_poison(&b, 0), (max, None));
        let at0 = Some(LaneOverflow { cell: Some(0) });
        assert_eq!(b.check_apply(0, 1, 0).err(), at0);
        assert_eq!(
            w_and_poison(&b, 0),
            (max, None),
            "the dry run mutates nothing"
        );
        b.apply(0, 1, 0, z);
        assert_eq!(w_and_poison(&b, 0), (wrapped, at0));
        b.apply(0, -1, 0, z);
        b.apply(5, 1, 0, z);
        assert_eq!(b.lane_overflow(), at0, "poison is sticky");
        // A delta that does not fit i32 at all: refused by the dry run,
        // poisons when applied.
        let mut b = CellBank::with_width(geom, COMPACT);
        assert!(b.check_apply(1, max + 1, 0).is_err() && b.check_apply(1, max, 0).is_ok());
        b.apply(1, max + 1, 0, z);
        assert_eq!(
            w_and_poison(&b, 1),
            (wrapped, Some(LaneOverflow { cell: Some(1) }))
        );

        // fan, and BankPart::fan across a cut.
        for split in [false, true] {
            let mut b = CellBank::with_width(geom, COMPACT);
            let fan = |b: &mut CellBank, range: Range<usize>, dw: i64| {
                if split {
                    let mut parts = b.split_mut(&[20]);
                    for part in parts.parts_mut() {
                        let own = part.range();
                        let r = range.start.max(own.start)..range.end.min(own.end);
                        if !r.is_empty() {
                            part.fan(r, dw, 0, z);
                        }
                    }
                } else {
                    b.fan(range, dw, 0, z);
                }
            };
            fan(&mut b, 10..30, max);
            assert_eq!(w_and_poison(&b, 25), (max, None), "split {split}");
            fan(&mut b, 24..26, 1);
            let none = Some(LaneOverflow { cell: None });
            assert_eq!(w_and_poison(&b, 25), (wrapped, none), "split {split}");
            assert_eq!(w_and_poison(&b, 26), (max, none), "split {split}");
            fan(&mut b, 24..26, -1);
            assert_eq!(b.lane_overflow(), none, "split {split}: sticky");
        }

        // Both add paths: a sum of i32::MAX exactly is clean, one more
        // poisons.
        for dense in [false, true] {
            let add = |a: &mut CellBank, b: &CellBank| {
                if dense {
                    a.add_dense(b);
                } else {
                    assert!(b.dirty_count() * SPARSE_ADD_RATIO <= b.len());
                    a.add(b);
                }
            };
            let mut a = CellBank::with_width(geom, COMPACT);
            a.apply(2, max - 1, 0, z);
            let mut one = CellBank::with_width(geom, COMPACT);
            one.apply(2, 1, 0, z);
            add(&mut a, &one);
            assert_eq!(w_and_poison(&a, 2), (max, None), "dense {dense}");
            add(&mut a, &one);
            let poison = a.lane_overflow();
            assert_eq!(a.cell(2).parts().0, wrapped, "dense {dense}");
            assert!(poison.is_some(), "dense {dense}");
            let mut minus = CellBank::with_width(geom, COMPACT);
            minus.apply(2, -1, 0, z);
            add(&mut a, &minus);
            assert_eq!(a.lane_overflow(), poison, "dense {dense}: sticky");
            // A wide operand's value past i32 poisons the compact sum.
            let mut a = CellBank::with_width(geom, COMPACT);
            let mut wide = CellBank::new(geom);
            wide.apply(2, max + 1, 0, z);
            add(&mut a, &wide);
            assert_eq!(w_and_poison(&a, 2).0, wrapped, "dense {dense}");
            assert!(a.lane_overflow().is_some(), "dense {dense}");
        }
    }
}
