//! The cell bank: one contiguous struct-of-arrays store for 1-sparse cells.
//!
//! Every structure in this workspace bottoms out in the same object — the
//! 1-sparse cell `(w, s, f)` of [`crate::one_sparse::OneSparseCell`]. Before
//! this module each structure owned a scattered `Vec<OneSparseCell>` in
//! array-of-structs layout; now they all share a [`CellBank`]: three
//! parallel lanes (`w: i64`, `s: i64` *or* `i128` — see below, `f: M61`)
//! plus a [`BankGeometry`] descriptor (`reps × levels × slots`). The layout
//! buys three things at once:
//!
//! * **Batched updates.** An update's expensive work — the fingerprint hash
//!   `h(i)` and the per-repetition subsampling level of `i` — depends only
//!   on the index, never on the cell. The bank exposes
//!   [`CellBank::fan`], a contiguous fan-out that applies one precomputed
//!   `(Δw, Δs, Δf)` triple to a run of cells; callers hash once per index
//!   and fan into every affected row instead of re-hashing per cell.
//! * **Vectorizable merges.** A dense [`CellBank::add`] is three
//!   contiguous slice-add loops over primitive lanes, dispatched through
//!   the runtime AVX2 kernels of [`crate::simd`] (the scalar loops are
//!   preserved there as the bit-identity oracle); a sparse operand is
//!   summed over its dirty cells only (see below).
//! * **A wire-ready dump.** The lanes *are* the linear measurement state;
//!   `graph_sketches::wire` format v2 ships them as raw little-endian
//!   bytes, geometry-checked against a spec-built receiver (see the
//!   [`CellBanked`] visitor below).
//!
//! The lanes are plain zeroed `Vec`s of primitive elements, which the
//! allocator hands out as untouched pages (see [`crate::lane`]). A bank
//! therefore pays physical memory only for the pages its written cells
//! live on: building a sketch from its spec is nearly free, and a shard
//! that never absorbs an update never becomes resident. Sizes reported
//! by [`CellBank::resident_bytes`] count the allocation, an upper bound
//! on what the process actually holds.
//!
//! ## Spec-derived lane width
//!
//! The `s` lane (`Σ i·x_i`) is stored as a width-tagged [`SLane`]: `i64`
//! (**narrow**) when the constructor's declared index/delta bounds fit
//! [`LaneWidth::for_bounds`]'s budget, `i128` (**wide**) otherwise. Narrow
//! banks move 24 bytes per cell instead of 32 on every absorb, merge,
//! drain, and decode sweep. The wire formats are width-oblivious: export
//! widens to the 16-byte `s` words the formats always shipped, import
//! range-checks back down (out-of-range values are a typed error at the
//! wire boundary, never silent truncation).
//!
//! The declared bound is a *derivation hint*, not a trusted limit: every
//! ingest kernel detects true overflow (narrow `i64` or wide `i128`) and
//! marks the bank **poisoned** ([`CellBank::lane_overflow`]) instead of
//! panicking — an overflowed bank is no longer a linear measurement, so
//! boundaries that export state check the mark and refuse with a typed
//! error while the engine worker that owns the sketch keeps running.
//!
//! Serialization stays bit-compatible with the pre-bank JSON: a bank
//! serializes as the same array of `{w, s, f}` cell objects that
//! `Vec<OneSparseCell>` produced, so wire-format-v1 files written before
//! the refactor still load (they deserialize with a
//! [`BankGeometry::flat`] descriptor and a wide lane, re-structured when
//! the state is transplanted into a spec-built sketch at the wire
//! boundary — equality and [`CellBank::add`] work across widths by value).
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
//! The same invariant makes merges and resets cost O(touched cells):
//! [`CellBank::add`] sums only an operand's dirty cells when they are
//! sparse, and [`CellBank::reset`] returns a bank to its freshly built
//! state by zeroing just its dirty cells.
//!
//! ## Generation counters and the decode cache
//!
//! On top of the bitmap each bank carries two monotone counters that the
//! decode cache ([`crate::cache`]) keys on:
//!
//! * [`CellBank::generation`] advances on **every** mutation of the
//!   measurement ([`CellBank::apply`], [`CellBank::fan`],
//!   [`CellBank::add`], [`CellBank::try_overlay`],
//!   [`CellBank::drain_dirty`]). Equal generations across two points in
//!   time therefore certify the lanes are bit-identical.
//! * [`CellBank::drain_epoch`] advances only when dirty bits are
//!   *cleared* ([`CellBank::drain_dirty`]). Between two points with the
//!   same drain epoch, every cell whose value changed has its dirty bit
//!   set at the later point (mutators only ever *set* bits), so the
//!   current dirty set is a sound — if conservative — over-approximation
//!   of "changed since the earlier point". The cache uses exactly this
//!   to invalidate only the decode work whose input rows were touched.
//!
//! Like the bitmap, the counters never participate in equality or
//! serialization. [`CellBank::reset`] is the one operation that moves
//! them back (to a fresh bank's zeros): it starts a new lineage.

use crate::lane::{LaneOverflow, LaneWidth, SLane};
use crate::one_sparse::{OneSparseCell, OneSparseState};
use crate::simd;
use gs_field::{Randomness, M61};
use serde::{Deserialize, Error, Serialize, Value};
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

    /// A structureless descriptor for `len` cells (`1 × 1 × len`) — the
    /// shape of a bank deserialized from a legacy cell array, where the
    /// axes are not recorded in the serialized form.
    pub fn flat(len: usize) -> Self {
        BankGeometry {
            reps: 1,
            levels: 1,
            slots: len,
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
/// measurement, regardless of whether one was deserialized with a
/// [`BankGeometry::flat`] shape or stores its index-sums wide.
#[derive(Clone, Debug)]
pub struct CellBank {
    geom: BankGeometry,
    /// Σ x_i per cell.
    w: Vec<i64>,
    /// Σ i·x_i per cell, at the spec-derived width.
    s: SLane,
    /// Σ x_i·h(i) per cell, over F_{2^61−1}.
    f: Vec<M61>,
    /// Touched-slot bitmap (one bit per cell, `⌈len/64⌉` words): bit `i`
    /// is set iff cell `i` changed since the last [`CellBank::drain_dirty`].
    /// Unused tail bits of the last word stay zero. Not part of equality
    /// or serialization.
    dirty: Vec<u64>,
    /// Sticky overflow mark: set by any ingest kernel that detects true
    /// lane overflow, cleared only when the whole state is replaced
    /// ([`CellBank::try_overlay`], [`CellBank::reset`]). Not part of
    /// equality or serialization.
    poison: Option<LaneOverflow>,
    /// Mutation counter: advanced by every mutator of the measurement
    /// lanes (see the module docs). Not part of equality or serialization.
    generation: u64,
    /// Bit-clearing counter: advanced by [`CellBank::drain_dirty`] when it
    /// clears dirty bits. Not part of equality or serialization.
    drains: u64,
}

impl PartialEq for CellBank {
    fn eq(&self, other: &Self) -> bool {
        self.w == other.w && self.s == other.s && self.f == other.f
    }
}

impl Eq for CellBank {}

impl CellBank {
    /// A zeroed bank of the given geometry with a **wide** `s` lane — the
    /// always-safe width for callers that declare no bounds (and the shape
    /// legacy deserialization produces).
    pub fn new(geom: BankGeometry) -> Self {
        Self::with_width(geom, LaneWidth::Wide)
    }

    /// A zeroed bank of the given geometry and `s`-lane width. Callers
    /// derive the width from their projection's bounds via
    /// [`LaneWidth::for_bounds`].
    pub fn with_width(geom: BankGeometry, width: LaneWidth) -> Self {
        let len = geom.len();
        CellBank {
            geom,
            w: vec![0; len],
            s: SLane::zeroed(width, len),
            f: M61::zeroed_vec(len),
            dirty: vec![0; len.div_ceil(64)],
            poison: None,
            generation: 0,
            drains: 0,
        }
    }

    /// The mutation generation: a monotone counter advanced by every
    /// mutator of the measurement lanes ([`CellBank::apply`],
    /// [`CellBank::fan`], [`CellBank::add`], [`CellBank::try_overlay`],
    /// [`CellBank::drain_dirty`]). Two equal readings certify the lanes
    /// are bit-identical in between — the decode cache's hit key. Only
    /// [`CellBank::reset`] moves it back (to 0, a fresh bank's reading).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The drain epoch: a monotone counter advanced whenever dirty bits
    /// are cleared ([`CellBank::drain_dirty`]). While it is unchanged, the
    /// current dirty set over-approximates every cell changed since any
    /// earlier reading — the decode cache's fine-grained invalidation key.
    #[inline]
    pub fn drain_epoch(&self) -> u64 {
        self.drains
    }

    /// The geometry descriptor.
    pub fn geometry(&self) -> BankGeometry {
        self.geom
    }

    /// The `s`-lane width this bank stores.
    pub fn width(&self) -> LaneWidth {
        self.s.width()
    }

    /// Total cell count.
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// `true` iff the bank holds no cells.
    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }

    /// Bytes of allocated lane storage (`w` + `s` at its stored width +
    /// `f` + the dirty bitmap) — the width-aware space accounting behind
    /// `LinearSketch::resident_lane_bytes`. This counts the allocation,
    /// not the pages the OS holds: lanes are lazily zeroed, so lane pages
    /// holding no written cell take no physical memory (see
    /// [`crate::lane`]).
    pub fn resident_bytes(&self) -> usize {
        self.w.len() * 8 + self.s.resident_bytes() + self.f.len() * 8 + self.dirty.len() * 8
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

    /// Converts a narrow bank to wide in place, preserving values — the
    /// narrow-vs-wide gauntlet hook, and the escape hatch for callers that
    /// overlay unbounded external sums (e.g. decode-side group proxies).
    pub fn force_wide(&mut self) {
        if let Some(n) = self.s.as_narrow() {
            self.s = SLane::Wide(n.iter().map(|&x| x as i128).collect());
        }
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
    /// overflow of the `w` or `s` lane (at its stored width) stores the
    /// wrapped value and marks the bank poisoned — see
    /// [`CellBank::lane_overflow`].
    #[inline]
    pub fn apply(&mut self, i: usize, dw: i64, ds: i128, df: M61) {
        self.generation += 1;
        self.dirty[i >> 6] |= 1u64 << (i & 63);
        let (nw, ow) = self.w[i].overflowing_add(dw);
        self.w[i] = nw;
        let os = match &mut self.s {
            SLane::Narrow(s) => match i64::try_from(ds) {
                Ok(d) => {
                    let (ns, o) = s[i].overflowing_add(d);
                    s[i] = ns;
                    o
                }
                // Δs itself exceeds the narrow lane: store the wrapped
                // low word (the value is unspecified once poisoned).
                Err(_) => {
                    let (ns, _) = s[i].overflowing_add(ds as i64);
                    s[i] = ns;
                    true
                }
            },
            SLane::Wide(s) => {
                let (ns, o) = s[i].overflowing_add(ds);
                s[i] = ns;
                o
            }
        };
        self.f[i] += df;
        if ow || os {
            self.poison_at(Some(i));
        }
    }

    /// Checks whether [`CellBank::apply`] of the same triple would
    /// overflow, **without mutating anything** — the dry-run pass behind
    /// the wire layer's all-or-nothing delta import.
    #[inline]
    pub fn check_apply(&self, i: usize, dw: i64, ds: i128) -> Result<(), LaneOverflow> {
        let overflow = LaneOverflow { cell: Some(i) };
        self.w[i].checked_add(dw).ok_or(overflow)?;
        match &self.s {
            SLane::Narrow(s) => {
                let d = i64::try_from(ds).map_err(|_| overflow)?;
                s[i].checked_add(d).ok_or(overflow)?;
            }
            SLane::Wide(s) => {
                s[i].checked_add(ds).ok_or(overflow)?;
            }
        }
        Ok(())
    }

    /// Fans a precomputed update triple into a contiguous run of cells —
    /// the batched-update kernel inner loop. Three lane-wise passes keep
    /// each loop over one primitive type; the narrow `w`/`s`/`f` sweeps
    /// dispatch through [`crate::simd`]. Overflow poisons (never panics).
    #[inline]
    pub fn fan(&mut self, range: Range<usize>, dw: i64, ds: i128, df: M61) {
        self.generation += 1;
        self.mark_dirty_range(range.clone());
        let mut ovf = simd::fan_i64(&mut self.w[range.clone()], dw);
        match &mut self.s {
            SLane::Narrow(s) => match i64::try_from(ds) {
                Ok(d) => ovf |= simd::fan_i64(&mut s[range.clone()], d),
                Err(_) => {
                    let _ = simd::fan_i64(&mut s[range.clone()], ds as i64);
                    ovf = true;
                }
            },
            SLane::Wide(s) => {
                for x in &mut s[range.clone()] {
                    let (v, o) = x.overflowing_add(ds);
                    *x = v;
                    ovf |= o;
                }
            }
        }
        simd::fan_m61(&mut self.f[range], df);
        if ovf {
            self.poison_at(None);
        }
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
        OneSparseCell::from_parts(self.w[i], self.s.get(i), self.f[i])
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
        self.w[i] == 0 && self.s.is_zero_at(i) && self.f[i].is_zero()
    }

    /// `true` iff every cell is zero.
    pub fn is_zero(&self) -> bool {
        self.w.iter().all(|&w| w == 0) && self.s.all_zero() && self.f.iter().all(|f| f.is_zero())
    }

    /// Linear combination: adds another bank's measurements. Works across
    /// widths by value: a wide operand folding into a narrow receiver is
    /// range-checked per cell (legacy-JSON state merging into a
    /// spec-built compact bank). Overflow — and any poison carried by
    /// `other` — poisons `self`.
    ///
    /// The sum is **dirty-driven**: by the delta invariant every cell
    /// where `other` can be nonzero is dirty in `other`, so when its dirty
    /// set is sparse only those cells are summed — a drained engine shard
    /// that absorbed one frame since its last drain costs O(touched
    /// cells), not a sweep of the whole bank. Denser operands take
    /// [`CellBank::add_dense`], the lane-wise [`crate::simd`] sweep. Both
    /// paths leave bit-identical lanes, poison, stamps and bitmaps
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
    /// over every cell, through the [`crate::simd`] kernels. It is also
    /// the bit-identity oracle for the sparse path.
    ///
    /// # Panics
    /// Panics if the banks hold different cell counts.
    pub fn add_dense(&mut self, other: &Self) {
        self.begin_add(other);
        let mut ovf = simd::add_i64(&mut self.w, &other.w);
        match (&mut self.s, &other.s) {
            (SLane::Narrow(a), SLane::Narrow(b)) => {
                ovf |= simd::add_i64(a, b);
            }
            (SLane::Wide(a), SLane::Wide(b)) => {
                for (x, &y) in a.iter_mut().zip(b.iter()) {
                    let (v, o) = x.overflowing_add(y);
                    *x = v;
                    ovf |= o;
                }
            }
            (SLane::Wide(a), SLane::Narrow(b)) => {
                for (x, &y) in a.iter_mut().zip(b.iter()) {
                    let (v, o) = x.overflowing_add(y as i128);
                    *x = v;
                    ovf |= o;
                }
            }
            (SLane::Narrow(a), SLane::Wide(b)) => {
                for (x, &y) in a.iter_mut().zip(b.iter()) {
                    match i64::try_from(y) {
                        Ok(y) => {
                            let (v, o) = x.overflowing_add(y);
                            *x = v;
                            ovf |= o;
                        }
                        Err(_) => {
                            let (v, _) = x.overflowing_add(y as i64);
                            *x = v;
                            ovf = true;
                        }
                    }
                }
            }
        }
        simd::add_m61(&mut self.f, &other.f);
        self.finish_add(other, ovf);
    }

    /// The sparse path of [`CellBank::add`]: sums only `other`'s dirty
    /// cells, with the dense path's per-cell arithmetic and overflow
    /// rule.
    fn add_sparse(&mut self, other: &Self) {
        self.begin_add(other);
        let mut ovf = false;
        for i in set_bits(&other.dirty) {
            let (w, o) = self.w[i].overflowing_add(other.w[i]);
            self.w[i] = w;
            ovf |= o | self.s.add_at(&other.s, i);
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
            self.geom == other.geom
                || self.geom == BankGeometry::flat(self.len())
                || other.geom == BankGeometry::flat(other.len()),
            "adding structured banks with different geometries"
        );
        // Every cell where `other` can be nonzero is dirty in `other` (the
        // delta invariant), so the union keeps the invariant here.
        //
        // The generation absorbs `other`'s whole mutation history (plus 1
        // for the add itself) rather than bumping by one: a bank that
        // absorbs drained shards in place, or a snapshot rebuilt by
        // `clone + add`, then stamps strictly monotone in the total
        // mutations upstream — two readings stamp equal iff nothing
        // upstream changed, so the decode cache can key on the sum. Same
        // for the drain epochs.
        self.generation += other.generation + 1;
        self.drains += other.drains;
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

    /// Read-only view of the `w` (total-weight) lane.
    pub fn w_lane(&self) -> &[i64] {
        &self.w
    }

    /// Read-only view of the width-tagged `s` (index-sum) lane.
    pub fn s_lane(&self) -> &SLane {
        &self.s
    }

    /// Read-only view of the `f` (fingerprint) lane.
    pub fn f_lane(&self) -> &[M61] {
        &self.f
    }

    /// The batched group-query kernel: adds the cells of `range` into the
    /// accumulator lanes, lane-wise (`aw[j] += w[range.start + j]`, and
    /// likewise for `s` and `f`). The `w` and `f` sweeps dispatch through
    /// [`crate::simd`]; a narrow `s` lane widens into the `i128`
    /// accumulators as it sums, so the accumulators never overflow
    /// mid-query. Decode paths that sum many rows (Σ_{u∈A} sketch(x^u) in
    /// Boruvka rounds, the per-cut recovery sums of Fig. 3) call this once
    /// per row instead of walking cells with per-index bounds checks.
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
        let w = &self.w[range.clone()];
        let f = &self.f[range.clone()];
        assert!(
            aw.len() == w.len() && as_.len() == w.len() && af.len() == w.len(),
            "accumulator lanes disagree with the row length"
        );
        simd::add_i64(aw, w);
        match &self.s {
            SLane::Narrow(s) => {
                for (a, &b) in as_.iter_mut().zip(&s[range]) {
                    *a += b as i128;
                }
            }
            SLane::Wide(s) => {
                for (a, &b) in as_.iter_mut().zip(&s[range]) {
                    *a += b;
                }
            }
        }
        simd::add_m61(af, f);
    }

    /// Overwrites the measurement lanes with externally-provided data
    /// (wire import into a spec-built bank), narrowing with range checks
    /// when this bank is compact. The geometry descriptor and lane width
    /// are kept — the receiver's structure is the source of truth. On
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
        match &mut self.s {
            SLane::Narrow(lane) => {
                // Validate the whole batch before writing anything.
                if let Some(i) = s.iter().position(|&v| i64::try_from(v).is_err()) {
                    return Err(LaneOverflow { cell: Some(i) });
                }
                for (dst, &src) in lane.iter_mut().zip(&s) {
                    *dst = src as i64;
                }
            }
            SLane::Wide(lane) => {
                lane.copy_from_slice(&s);
            }
        }
        self.w.copy_from_slice(&w);
        self.f.copy_from_slice(&f);
        self.poison = None;
        self.generation += 1;
        self.mark_all_dirty();
        Ok(())
    }

    /// [`CellBank::try_overlay`] for trusted same-provenance lanes.
    ///
    /// # Panics
    /// Panics if the lane lengths disagree, or a value exceeds this bank's
    /// narrow lane (use [`CellBank::try_overlay`] on untrusted input).
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
        let drained = self.zero_dirty_cells();
        if drained > 0 {
            // Cells were zeroed (a mutation) and their bits cleared (an
            // epoch event); an empty drain changed nothing.
            self.generation += 1;
            self.drains += 1;
        }
        drained
    }

    /// Resets the bank in place to exactly what a freshly constructed
    /// bank of its geometry and width holds: the touched cells zeroed
    /// through the bitmap (every other cell is already zero — the delta
    /// invariant), the bitmap cleared, both stamp counters back to 0 and
    /// the poison mark cleared. Equal to replacing the bank with a new
    /// zeroed one in lanes, stamps and bitmap, at O(touched cells) and
    /// without allocating. Unlike [`CellBank::drain_dirty`] this starts a
    /// new lineage: the stamps restart, so a decode memo taken before the
    /// reset must not be carried across it (see [`crate::cache`]).
    pub fn reset(&mut self) {
        self.zero_dirty_cells();
        self.poison = None;
        self.generation = 0;
        self.drains = 0;
    }

    /// Zeroes every touched cell and clears the bitmap; returns how many
    /// cells were touched.
    fn zero_dirty_cells(&mut self) -> usize {
        let mut zeroed = 0;
        for i in set_bits(&self.dirty) {
            self.w[i] = 0;
            self.s.zero(i);
            self.f[i] = M61::ZERO;
            zeroed += 1;
        }
        self.dirty.fill(0);
        zeroed
    }

    /// Marks every cell in `range` touched.
    #[inline]
    fn mark_dirty_range(&mut self, range: Range<usize>) {
        debug_assert!(range.end <= self.len());
        let mut i = range.start;
        while i < range.end {
            let word = i >> 6;
            let hi = range.end.min((word + 1) << 6);
            // Bits i..hi of this word: (hi-i) ones shifted up to bit i&63.
            let run = hi - i;
            let mask = if run == 64 {
                !0
            } else {
                ((1u64 << run) - 1) << (i & 63)
            };
            self.dirty[word] |= mask;
            i = hi;
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

// A bank serializes exactly as the `Vec<OneSparseCell>` it replaced — an
// array of `{w, s, f}` objects (`s` always written wide) — so
// wire-format-v1 JSON is unchanged in both directions regardless of the
// resident lane width. The geometry axes and width are not serialized;
// deserialized banks carry a `flat` descriptor and a wide lane until
// transplanted into a spec-built sketch (the wire layer's load path does
// exactly that, narrowing with range checks).
impl Serialize for CellBank {
    fn to_value(&self) -> Value {
        Value::Seq((0..self.len()).map(|i| self.cell(i).to_value()).collect())
    }
}

impl Deserialize for CellBank {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let cells = Vec::<OneSparseCell>::from_value(v)?;
        let mut bank = CellBank::new(BankGeometry::flat(cells.len()));
        let mut w = Vec::with_capacity(cells.len());
        let mut s = Vec::with_capacity(cells.len());
        let mut f = Vec::with_capacity(cells.len());
        for c in &cells {
            let (cw, cs, cf) = c.parts();
            w.push(cw);
            s.push(cs);
            f.push(cf);
        }
        // A deserialized bank has no freshness record: everything counts
        // as touched since the (never-happened) last drain. The bank is
        // wide, so the overlay cannot fail.
        bank.overlay(w, s, f);
        Ok(bank)
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
/// and overlays the state, geometry-checked bank by bank.
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

    /// Resets the sketch in place to its freshly built state: every bank
    /// is [`CellBank::reset`] and every fingerprint scalar zeroed. For a
    /// sketch whose measurement state is exactly its banks and
    /// fingerprints (every spec-built sketch — the contract wire v2
    /// stands on), the result equals a new sketch from the same factory
    /// in lanes, stamps, bitmaps and poison, without allocating one. The
    /// engine's drain-on-read path resets drained shards this way.
    fn reset(&mut self) {
        for bank in self.banks_mut() {
            bank.reset();
        }
        for fp in self.fingerprints_mut() {
            *fp = M61::ZERO;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_field::OracleHash;

    fn h() -> OracleHash {
        OracleHash::new(0xBA2C, 1)
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
        for width in [LaneWidth::Narrow, LaneWidth::Wide] {
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
        let mut narrow = CellBank::with_width(BankGeometry::new(2, 3, 2), LaneWidth::Narrow);
        let mut wide = CellBank::with_width(BankGeometry::new(2, 3, 2), LaneWidth::Wide);
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
        assert_eq!(forced.width(), LaneWidth::Wide);
        assert_eq!(forced, narrow);
    }

    #[test]
    fn accumulate_equals_indexed_cell_sum() {
        let h = h();
        for width in [LaneWidth::Narrow, LaneWidth::Wide] {
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
                assert_eq!(aw[j], 1 + bank.w_lane()[range.start + j]);
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
        for width in [LaneWidth::Narrow, LaneWidth::Wide] {
            let mut fanned = CellBank::with_width(BankGeometry::new(1, 8, 1), width);
            let mut looped = CellBank::with_width(BankGeometry::new(1, 8, 1), width);
            let (index, delta) = (12345u64, -7i64);
            let (dw, ds, df) = CellBank::deltas(index, delta, h.hash_m61(index));
            fanned.fan(2..6, dw, ds, df);
            for i in 2..6 {
                looped.update(i, index, delta, &h);
            }
            assert_eq!(fanned, looped);
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
    }

    #[test]
    #[should_panic]
    fn add_rejects_mismatched_sizes() {
        let mut a = CellBank::new(BankGeometry::new(1, 2, 1));
        let b = CellBank::new(BankGeometry::new(1, 3, 1));
        a.add(&b);
    }

    #[test]
    fn serde_shape_is_the_legacy_cell_array() {
        let h = h();
        for width in [LaneWidth::Narrow, LaneWidth::Wide] {
            let mut bank = CellBank::with_width(BankGeometry::new(1, 2, 1), width);
            bank.update(0, 42, 7, &h);
            let v = bank.to_value();
            // Exactly what Vec<OneSparseCell> produced, at either width.
            let legacy: Vec<OneSparseCell> = (0..2).map(|i| bank.cell(i)).collect();
            assert_eq!(v, legacy.to_value());
            let back = CellBank::from_value(&v).unwrap();
            assert_eq!(back, bank);
            assert_eq!(back.geometry(), BankGeometry::flat(2));
            assert_eq!(back.width(), LaneWidth::Wide);
        }
    }

    #[test]
    fn equality_ignores_geometry() {
        let h = h();
        let mut structured = CellBank::new(BankGeometry::new(2, 3, 1));
        let mut flat = CellBank::new(BankGeometry::flat(6));
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
    }

    #[test]
    fn drain_zeroes_touched_cells_and_resets_tracking() {
        let h = h();
        for width in [LaneWidth::Narrow, LaneWidth::Wide] {
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
            src.w_lane().to_vec(),
            src.s_lane().to_wide_vec(),
            src.f_lane().to_vec(),
        );
        assert_eq!(dst.dirty_count(), 3, "bulk import has no freshness record");
        let back = CellBank::from_value(&src.to_value()).unwrap();
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
            src.w_lane().to_vec(),
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

        let mut narrow = CellBank::with_width(BankGeometry::new(1, 1, 2), LaneWidth::Narrow);
        narrow.apply(1, 1, i64::MAX as i128, M61::ZERO);
        assert!(narrow.lane_overflow().is_none());
        narrow.apply(1, 1, 1, M61::ZERO);
        assert_eq!(narrow.lane_overflow().unwrap().cell, Some(1));
        // A Δs that cannot even fit the narrow lane poisons immediately.
        let mut narrow2 = CellBank::with_width(BankGeometry::new(1, 1, 2), LaneWidth::Narrow);
        narrow2.apply(0, 1, i128::from(i64::MAX) + 1, M61::ZERO);
        assert!(narrow2.lane_overflow().is_some());
    }

    #[test]
    fn fan_and_add_overflow_poison() {
        let mut narrow = CellBank::with_width(BankGeometry::new(1, 1, 8), LaneWidth::Narrow);
        narrow.fan(0..8, 0, (i64::MAX - 1) as i128, M61::ZERO);
        assert!(narrow.lane_overflow().is_none());
        narrow.fan(2..5, 0, 2, M61::ZERO);
        assert!(narrow.lane_overflow().is_some(), "fan overflow must poison");

        let mut a = CellBank::with_width(BankGeometry::new(1, 1, 4), LaneWidth::Narrow);
        let mut b = CellBank::with_width(BankGeometry::new(1, 1, 4), LaneWidth::Narrow);
        a.apply(3, 0, i64::MAX as i128, M61::ZERO);
        b.apply(3, 0, 1, M61::ZERO);
        a.add(&b);
        assert!(a.lane_overflow().is_some(), "merge overflow must poison");
        // Poison propagates through merges of a poisoned operand.
        let mut clean = CellBank::with_width(BankGeometry::new(1, 1, 4), LaneWidth::Narrow);
        clean.add(&a);
        assert!(clean.lane_overflow().is_some(), "poison must propagate");
    }

    #[test]
    fn check_apply_is_a_pure_dry_run() {
        let mut narrow = CellBank::with_width(BankGeometry::new(1, 1, 2), LaneWidth::Narrow);
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
        let mut narrow = CellBank::with_width(BankGeometry::new(1, 1, 3), LaneWidth::Narrow);
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

    #[test]
    fn generation_advances_on_every_mutator_and_nothing_else() {
        let h = h();
        let mut bank = CellBank::new(BankGeometry::new(1, 1, 8));
        assert_eq!((bank.generation(), bank.drain_epoch()), (0, 0));
        bank.update(1, 7, 3, &h);
        assert_eq!(bank.generation(), 1);
        let (dw, ds, df) = CellBank::deltas(9, 2, h.hash_m61(9));
        bank.fan(2..6, dw, ds, df);
        assert_eq!(bank.generation(), 2);
        let other = bank.clone();
        // add absorbs the operand's history: 2 (own) + 2 (other) + 1.
        bank.add(&other);
        assert_eq!(bank.generation(), 5);
        // Read-only paths leave the counters alone.
        let _ = bank.cell(1);
        let _ = bank.dirty_indices();
        let mut acc = (vec![0i64; 4], vec![0i128; 4], vec![M61::ZERO; 4]);
        bank.accumulate(2..6, &mut acc.0, &mut acc.1, &mut acc.2);
        assert_eq!((bank.generation(), bank.drain_epoch()), (5, 0));
        // A real drain bumps both counters; an empty drain bumps neither.
        assert!(bank.drain_dirty() > 0);
        assert_eq!((bank.generation(), bank.drain_epoch()), (6, 1));
        assert_eq!(bank.drain_dirty(), 0);
        assert_eq!((bank.generation(), bank.drain_epoch()), (6, 1));
        // Overlay replaces state wholesale: a mutation, not a drain.
        bank.overlay(vec![1; 8], vec![2; 8], vec![M61::ZERO; 8]);
        assert_eq!((bank.generation(), bank.drain_epoch()), (7, 1));
        // Rebuilt clone+add chains stamp equal iff no constituent moved.
        let (a, b) = (bank.clone(), other.clone());
        let mut m1 = a.clone();
        m1.add(&b);
        let mut m2 = a.clone();
        m2.add(&b);
        assert_eq!(m1.generation(), m2.generation());
        let mut b2 = b.clone();
        b2.update(0, 3, 1, &h);
        let mut m3 = a.clone();
        m3.add(&b2);
        assert_ne!(m3.generation(), m1.generation());
        // Counters never participate in equality.
        let fresh = CellBank::new(BankGeometry::new(1, 1, 8));
        let mut cancelled = fresh.clone();
        cancelled.update(0, 3, 1, &h);
        cancelled.update(0, 3, -1, &h);
        assert_eq!(cancelled, fresh);
        assert_ne!(cancelled.generation(), fresh.generation());
    }

    /// Everything `add` leaves behind, for comparing its two paths.
    fn add_outcome(b: &CellBank) -> (CellBank, Vec<usize>, Option<LaneOverflow>, u64, u64) {
        (
            b.clone(),
            b.dirty_indices(),
            b.lane_overflow(),
            b.generation(),
            b.drain_epoch(),
        )
    }

    #[test]
    fn sparse_add_equals_dense_add_across_widths() {
        let h = h();
        let geom = BankGeometry::new(2, 4, 40);
        for (wa, wb) in [
            (LaneWidth::Narrow, LaneWidth::Narrow),
            (LaneWidth::Narrow, LaneWidth::Wide),
            (LaneWidth::Wide, LaneWidth::Narrow),
            (LaneWidth::Wide, LaneWidth::Wide),
        ] {
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
    fn reset_restores_a_fresh_bank() {
        let h = h();
        for width in [LaneWidth::Narrow, LaneWidth::Wide] {
            let geom = BankGeometry::new(1, 3, 50);
            let fresh = CellBank::with_width(geom, width);
            let mut bank = fresh.clone();
            bank.update(3, 10, 4, &h);
            let (dw, ds, df) = CellBank::deltas(77, -2, h.hash_m61(77));
            bank.fan(60..140, dw, ds, df);
            bank.drain_dirty();
            bank.update(149, 11, 1, &h);
            bank.apply(0, i64::MAX, 0, M61::ZERO);
            bank.apply(0, 1, 0, M61::ZERO);
            assert!(bank.lane_overflow().is_some());
            bank.reset();
            assert_eq!(add_outcome(&bank), add_outcome(&fresh), "{width:?}");
            assert!(bank.is_zero());
        }
    }

    #[test]
    fn resident_bytes_track_lane_width() {
        let narrow = CellBank::with_width(BankGeometry::new(1, 1, 64), LaneWidth::Narrow);
        let wide = CellBank::with_width(BankGeometry::new(1, 1, 64), LaneWidth::Wide);
        // 64 cells: w 512 + f 512 + dirty 8; s is 512 narrow vs 1024 wide.
        assert_eq!(narrow.resident_bytes(), 512 + 512 + 512 + 8);
        assert_eq!(wide.resident_bytes(), 512 + 1024 + 512 + 8);
    }
}
