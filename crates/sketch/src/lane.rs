//! Lane-width machinery for the [`crate::bank::CellBank`]: spec-derived
//! compaction of the bank's two integer lanes, and lazily zeroed lane
//! storage.
//!
//! A bank cell is the 1-sparse triple `(w, s, f)`: `w = Σ x_i`,
//! `s = Σ i·x_i`, `f = Σ x_i·h(i)`. The cell API speaks `i64` weights and
//! `i128` index-sums (indices range up to `C(n,2) ≈ 2^64`), but the
//! integer lanes are almost all of the bytes a bank holds and moves on
//! every absorb, merge, drain and decode sweep, and most specs can never
//! produce sums anywhere near those widths. This module makes each lane's
//! width a property derived from the sketch spec:
//!
//! * [`LaneWidth::for_bounds`] — given the largest index the projection
//!   can see and the largest per-update |Δ| the caller declares, pick
//!   each lane's width with `2^24` updates of accumulation headroom
//!   ([`LANE_HEADROOM_LOG2`]):
//!   - `w` is `i32` when `max|Δ| · 2^24 ≤ i32::MAX` (every unit-bound
//!     spec), else `i64`;
//!   - `s` is `i64` when `(max_index + 1) · max|Δ| · 2^24 ≤ i64::MAX`,
//!     else `i128`.
//!
//!   A unit-bound cell is then 20 bytes (`4 + 8 + 8`) where the
//!   uncompacted one was 32; a unit-bound `w` overflows only after 2^31
//!   net same-sign updates of one cell.
//! * [`IntLane`] — one width-tagged integer lane, serving both `w` and
//!   `s`. Its kernels (apply, fan, add, accumulate, overlay) run at the
//!   stored width with one generic scalar body per kernel, whatever the
//!   width. Export paths widen ([`IntLane::get`],
//!   [`IntLane::to_wide_vec`]): the wire formats always ship 8-byte `w`
//!   and 16-byte `s` words, and import paths range-check on the way in.
//! * [`LaneOverflow`] — the typed error raised when accumulated state
//!   exceeds a lane's width. The declared bound is a *derivation hint*,
//!   never a trusted limit: kernels detect true overflow regardless and
//!   poison the bank instead of panicking (see `CellBank::lane_overflow`).
//! * **Lazily zeroed storage.** Every lane is a plain `vec![0; len]` of a
//!   primitive element (`i32`, `i64`, `i128`, or `u64` words cast to
//!   `M61` by [`gs_field::M61::zeroed_vec`]). std allocates those through
//!   the allocator's zeroed path (`calloc`), which maps a large lane fresh
//!   from the OS without writing it, so its pages stay backed by the
//!   shared zero page: a spec-built sketch costs address space, not
//!   resident memory, and a page becomes resident on its first write.
//!
//! The headroom choice is deliberately conservative: a `ForestSketch` over
//! `n = 1000` has `max_index = C(1000,2) − 1 < 2^19`, so unit-delta streams
//! derive `i32`/`i64` lanes with ~2^44 of `s` slack, while a weighted
//! sparsifier class that carries values up to `2^40` on a large edge
//! domain derives `i64`/`i128` exactly as it must.

use std::fmt;
use std::ops::Range;

/// Accumulation headroom (log2) reserved on top of the declared per-update
/// bound when deriving a lane width: a lane is narrowed only if `2^24`
/// maximal same-sign updates per cell still fit the narrower type.
pub const LANE_HEADROOM_LOG2: u32 = 24;

/// The element type of one integer lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum IntWidth {
    /// `i32` cells.
    I32,
    /// `i64` cells.
    I64,
    /// `i128` cells.
    I128,
}

impl IntWidth {
    /// Bytes one cell occupies at this width.
    pub(crate) fn bytes(self) -> usize {
        match self {
            IntWidth::I32 => 4,
            IntWidth::I64 => 8,
            IntWidth::I128 => 16,
        }
    }

    /// `true` iff `v` is representable at this width.
    pub(crate) fn fits(self, v: i128) -> bool {
        match self {
            IntWidth::I32 => i32::try_from(v).is_ok(),
            IntWidth::I64 => i64::try_from(v).is_ok(),
            IntWidth::I128 => true,
        }
    }
}

/// The widths of a bank's two integer lanes: `w` (`Σ x_i`) and `s`
/// (`Σ i·x_i`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneWidth {
    /// Width of the `w` lane: `I32` or `I64` (the cell API speaks `i64`
    /// weights, so a bank refuses an `I128` `w` lane).
    pub w: IntWidth,
    /// Width of the `s` lane.
    pub s: IntWidth,
}

impl LaneWidth {
    /// `i64` weights and `i128` index-sums: the always-safe widths, for
    /// banks built without declared bounds.
    pub const WIDE: LaneWidth = LaneWidth {
        w: IntWidth::I64,
        s: IntWidth::I128,
    };

    /// Derives both lane widths from the projection's index bound and the
    /// caller-declared per-update magnitude bound.
    ///
    /// `w` is `i32` iff `max(1, max_abs_delta) · 2^24` fits `i32`, else
    /// `i64`; `s` is `i64` iff `(max_index + 1) · max(1, max_abs_delta) ·
    /// 2^24` fits `i64`, else `i128`. `max_index` is the largest index
    /// the projection can see (domain − 1); `max_abs_delta` the largest
    /// |Δ| a well-formed stream delivers (1 for unit sketches, the
    /// weight-class ceiling for value-carrying ones). The bound is a
    /// derivation hint only — the bank's kernels still detect true
    /// overflow at run time.
    pub fn for_bounds(max_index: u64, max_abs_delta: u64) -> LaneWidth {
        let headroom = 1u128 << LANE_HEADROOM_LOG2;
        let delta = max_abs_delta.max(1) as u128;
        let w_budget = delta * headroom;
        let s_budget = (max_index as u128 + 1)
            .saturating_mul(delta)
            .saturating_mul(headroom);
        LaneWidth {
            w: if w_budget <= i32::MAX as u128 {
                IntWidth::I32
            } else {
                IntWidth::I64
            },
            s: if s_budget <= i64::MAX as u128 {
                IntWidth::I64
            } else {
                IntWidth::I128
            },
        }
    }

    /// Bytes one cell occupies at these widths: `w`, `s` and the 8-byte
    /// `f` (the dirty bitmap's bit is not counted).
    pub fn cell_bytes(self) -> usize {
        self.w.bytes() + self.s.bytes() + 8
    }
}

/// Typed overflow report: accumulated cell state exceeded its lane width
/// (or, for wide lanes, `i128` itself). Raised by the bank's ingest
/// kernels as a sticky *poison* mark instead of a panic — an overflowed
/// bank is no longer a linear measurement, so every boundary that exports
/// state checks for it and surfaces this error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneOverflow {
    /// Flat index of the first overflowing cell, when the kernel tracked
    /// it (single-cell applies do; the range kernels, fan and add, report
    /// `None`).
    pub cell: Option<usize>,
}

impl fmt::Display for LaneOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.cell {
            Some(i) => write!(f, "cell-bank lane overflow at cell {i}"),
            None => write!(f, "cell-bank lane overflow"),
        }
    }
}

impl std::error::Error for LaneOverflow {}

/// A primitive lane element: the arithmetic every lane kernel needs.
pub(crate) trait LaneInt: Copy + Default + fmt::Debug {
    /// `v` at this width, if it fits.
    fn narrow(v: i128) -> Option<Self>;
    /// The low bits of `v` at this width (two's complement).
    fn wrap(v: i128) -> Self;
    /// The value, widened.
    fn widen(self) -> i128;
    /// Wrapping add plus an overflow flag.
    fn overflowing_add(self, rhs: Self) -> (Self, bool);
    /// The cells of `lane` if it stores this width.
    fn cells(lane: &IntLane) -> Option<&[Self]>;
}

macro_rules! lane_int {
    ($t:ty, $variant:ident) => {
        impl LaneInt for $t {
            #[inline]
            fn narrow(v: i128) -> Option<Self> {
                <$t>::try_from(v).ok()
            }
            #[inline]
            fn wrap(v: i128) -> Self {
                v as $t
            }
            #[inline]
            fn widen(self) -> i128 {
                self as i128
            }
            #[inline]
            fn overflowing_add(self, rhs: Self) -> (Self, bool) {
                <$t>::overflowing_add(self, rhs)
            }
            #[inline]
            fn cells(lane: &IntLane) -> Option<&[Self]> {
                match lane {
                    IntLane::$variant(c) => Some(c),
                    _ => None,
                }
            }
        }
    };
}

lane_int!(i32, I32);
lane_int!(i64, I64);
lane_int!(i128, I128);

/// Adds `d` into `x`, wrapping; `true` on overflow, including a `d` that
/// does not fit the lane (its wrapped low word is added: the value is
/// unspecified once the bank is poisoned).
#[inline]
fn add_one<T: LaneInt>(x: &mut T, d: i128) -> bool {
    match T::narrow(d) {
        Some(d) => {
            let (v, o) = x.overflowing_add(d);
            *x = v;
            o
        }
        None => {
            *x = x.overflowing_add(T::wrap(d)).0;
            true
        }
    }
}

/// Broadcast add (wrapping); `true` iff any cell overflowed.
#[inline]
fn fan_slice<T: LaneInt>(dst: &mut [T], d: T) -> bool {
    let mut ovf = false;
    for x in dst {
        let (v, o) = x.overflowing_add(d);
        *x = v;
        ovf |= o;
    }
    ovf
}

/// Lane-wise add (wrapping); `true` iff any cell overflowed.
#[inline]
fn add_slice<T: LaneInt>(dst: &mut [T], src: &[T]) -> bool {
    let mut ovf = false;
    for (x, &y) in dst.iter_mut().zip(src) {
        let (v, o) = x.overflowing_add(y);
        *x = v;
        ovf |= o;
    }
    ovf
}

/// [`add_one`] over a run of cells.
#[inline]
fn fan_cells<T: LaneInt>(cells: &mut [T], d: i128) -> bool {
    match T::narrow(d) {
        Some(d) => fan_slice(cells, d),
        None => {
            fan_slice(cells, T::wrap(d));
            true
        }
    }
}

/// Adds `other` into `cells` lane-wise: the slice sweep when the widths
/// agree, else [`add_one`] per cell (range-checked when `other` is wider).
fn add_cells<T: LaneInt>(cells: &mut [T], other: &IntLane) -> bool {
    match T::cells(other) {
        Some(src) => add_slice(cells, src),
        None => {
            let mut ovf = false;
            for (i, x) in cells.iter_mut().enumerate() {
                ovf |= add_one(x, other.get(i));
            }
            ovf
        }
    }
}

/// `acc[j] += cells[j]`, widened to the accumulator's type, wrapping.
fn sum_cells<A: LaneInt, T: LaneInt>(acc: &mut [A], cells: &[T]) {
    for (a, &c) in acc.iter_mut().zip(cells) {
        *a = a.overflowing_add(A::wrap(c.widen())).0;
    }
}

/// Overwrites `cells` with `values`, each already known to fit.
fn copy_cells<T: LaneInt, V: LaneInt>(cells: &mut [T], values: &[V]) {
    for (x, &v) in cells.iter_mut().zip(values) {
        *x = T::wrap(v.widen());
    }
}

/// Runs `$body` with `$c` bound to the cells of whichever width `$lane`
/// (an [`IntLane`] or [`IntPart`]) stores.
macro_rules! each {
    ($kind:ident, $lane:expr, $c:ident => $body:expr) => {
        match $lane {
            $kind::I32($c) => $body,
            $kind::I64($c) => $body,
            $kind::I128($c) => $body,
        }
    };
}

/// One width-tagged integer lane of a bank (its `w` or its `s`). All
/// kernels run at the stored width; [`IntLane::get`] /
/// [`IntLane::to_wide_vec`] widen on the way out for export paths.
#[derive(Clone, Debug)]
pub enum IntLane {
    /// Compacted `i32` cells.
    I32(Vec<i32>),
    /// `i64` cells.
    I64(Vec<i64>),
    /// Full-width `i128` cells.
    I128(Vec<i128>),
}

impl IntLane {
    /// A zeroed lane of `len` cells at the given width. The storage is
    /// a zeroed allocation (see the module docs), so its pages become
    /// resident only when cells are written.
    pub(crate) fn zeroed(width: IntWidth, len: usize) -> Self {
        match width {
            IntWidth::I32 => IntLane::I32(vec![0; len]),
            IntWidth::I64 => IntLane::I64(vec![0; len]),
            IntWidth::I128 => IntLane::I128(vec![0; len]),
        }
    }

    /// The lane's width tag.
    pub fn width(&self) -> IntWidth {
        match self {
            IntLane::I32(_) => IntWidth::I32,
            IntLane::I64(_) => IntWidth::I64,
            IntLane::I128(_) => IntWidth::I128,
        }
    }

    /// Number of cells.
    pub(crate) fn len(&self) -> usize {
        each!(IntLane, self, c => c.len())
    }

    /// Cell `i`, widened.
    #[inline]
    pub fn get(&self, i: usize) -> i128 {
        each!(IntLane, self, c => c[i].widen())
    }

    /// `true` iff cell `i` is zero.
    #[inline]
    pub(crate) fn is_zero_at(&self, i: usize) -> bool {
        self.get(i) == 0
    }

    /// `true` iff every cell is zero.
    pub(crate) fn all_zero(&self) -> bool {
        each!(IntLane, self, c => c.iter().all(|x| x.widen() == 0))
    }

    /// The whole lane widened to `i128` (width-oblivious export).
    pub fn to_wide_vec(&self) -> Vec<i128> {
        each!(IntLane, self, c => c.iter().map(|x| x.widen()).collect())
    }

    /// Resident bytes of the lane storage.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.len() * self.width().bytes()
    }

    /// Zeroes cell `i` (drain path).
    #[inline]
    pub(crate) fn zero(&mut self, i: usize) {
        each!(IntLane, self, c => c[i] = Default::default())
    }

    /// Adds `d` into cell `i`; `true` on overflow at this lane's width
    /// (see [`add_one`]).
    #[inline]
    pub(crate) fn add_at(&mut self, i: usize, d: i128) -> bool {
        each!(IntLane, self, c => add_one(&mut c[i], d))
    }

    /// `true` iff [`IntLane::add_at`] of the same `d` would not overflow.
    #[inline]
    pub(crate) fn fits_add(&self, i: usize, d: i128) -> bool {
        self.get(i)
            .checked_add(d)
            .is_some_and(|v| self.width().fits(v))
    }

    /// Broadcast-adds `d` into the cells of `range`; `true` on overflow.
    #[inline]
    pub(crate) fn fan(&mut self, range: Range<usize>, d: i128) -> bool {
        self.part().fan(range, d)
    }

    /// Adds `other` (of the same length) into this lane cell by cell,
    /// across widths by value; `true` on overflow.
    pub(crate) fn add_lane(&mut self, other: &IntLane) -> bool {
        debug_assert_eq!(self.len(), other.len());
        each!(IntLane, self, c => add_cells(c, other))
    }

    /// Adds the cells of `range` into `acc`, widened to its element type
    /// and wrapping there.
    pub(crate) fn sum_into<A: LaneInt>(&self, range: Range<usize>, acc: &mut [A]) {
        each!(IntLane, self, c => sum_cells(acc, &c[range]))
    }

    /// The index of the first of `values` that does not fit this lane.
    pub(crate) fn first_unfit<V: LaneInt>(&self, values: &[V]) -> Option<usize> {
        let width = self.width();
        values.iter().position(|v| !width.fits(v.widen()))
    }

    /// Overwrites the lane with `values`, which must all fit (check with
    /// [`IntLane::first_unfit`]).
    pub(crate) fn copy_from<V: LaneInt>(&mut self, values: &[V]) {
        debug_assert!(values.len() == self.len() && self.first_unfit(values).is_none());
        each!(IntLane, self, c => copy_cells(c, values))
    }

    /// Widens the lane in place to at least `width`, preserving values.
    pub(crate) fn widen_to(&mut self, width: IntWidth) {
        if self.width() < width {
            let values = self.to_wide_vec();
            *self = IntLane::zeroed(width, values.len());
            self.copy_from(&values);
        }
    }

    /// The whole lane as a mutable [`IntPart`].
    #[inline]
    pub(crate) fn part(&mut self) -> IntPart<'_> {
        match self {
            IntLane::I32(c) => IntPart::I32(c),
            IntLane::I64(c) => IntPart::I64(c),
            IntLane::I128(c) => IntPart::I128(c),
        }
    }
}

/// Equality is by **value**, across widths: a narrow lane equals a wider
/// lane holding the same sums (a widened twin is still the same linear
/// measurement).
impl PartialEq for IntLane {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (IntLane::I32(a), IntLane::I32(b)) => a == b,
            (IntLane::I64(a), IntLane::I64(b)) => a == b,
            (IntLane::I128(a), IntLane::I128(b)) => a == b,
            _ => self.len() == other.len() && (0..self.len()).all(|i| self.get(i) == other.get(i)),
        }
    }
}

impl Eq for IntLane {}

/// A mutable slice of an [`IntLane`] at its stored width: one contiguous
/// part of a bank split for parallel fans.
#[derive(Debug)]
pub(crate) enum IntPart<'a> {
    I32(&'a mut [i32]),
    I64(&'a mut [i64]),
    I128(&'a mut [i128]),
}

impl<'a> IntPart<'a> {
    /// Splits the part at cell `mid`.
    pub(crate) fn split_at(self, mid: usize) -> (IntPart<'a>, IntPart<'a>) {
        match self {
            IntPart::I32(c) => {
                let (a, b) = c.split_at_mut(mid);
                (IntPart::I32(a), IntPart::I32(b))
            }
            IntPart::I64(c) => {
                let (a, b) = c.split_at_mut(mid);
                (IntPart::I64(a), IntPart::I64(b))
            }
            IntPart::I128(c) => {
                let (a, b) = c.split_at_mut(mid);
                (IntPart::I128(a), IntPart::I128(b))
            }
        }
    }

    /// Broadcast-adds `d` into the part's cells of `range`; `true` on
    /// overflow.
    #[inline]
    pub(crate) fn fan(&mut self, range: Range<usize>, d: i128) -> bool {
        each!(IntPart, self, c => fan_cells(&mut c[range], d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMPACT: LaneWidth = LaneWidth {
        w: IntWidth::I32,
        s: IntWidth::I64,
    };

    #[test]
    fn width_derivation_tracks_the_budget() {
        // Unit deltas on small edge domains: compact with huge slack.
        assert_eq!(LaneWidth::for_bounds((1000 * 999) / 2 - 1, 1), COMPACT);
        // The exact `s` boundary: (max_index+1)·Δ·2^24 ≤ i64::MAX.
        let budget = (i64::MAX as u128 >> LANE_HEADROOM_LOG2) as u64;
        assert_eq!(LaneWidth::for_bounds(budget - 1, 1).s, IntWidth::I64);
        assert_eq!(LaneWidth::for_bounds(budget, 1).s, IntWidth::I128);
        // Weight-carrying deltas shrink the index budget proportionally.
        assert_eq!(LaneWidth::for_bounds(budget / 1024, 1024).s, IntWidth::I128);
        assert_eq!(
            LaneWidth::for_bounds(budget / 1024 - 1, 1024).s,
            IntWidth::I64
        );
        // Huge domains are always wide in `s`, whatever the delta bound;
        // `w` depends on the delta bound alone.
        assert_eq!(
            LaneWidth::for_bounds(u64::MAX, 1),
            LaneWidth {
                w: IntWidth::I32,
                s: IntWidth::I128
            }
        );
        // The exact `w` boundary: Δ·2^24 ≤ i32::MAX, i.e. Δ ≤ 127.
        assert_eq!(LaneWidth::for_bounds(10, 0).w, IntWidth::I32);
        assert_eq!(LaneWidth::for_bounds(10, 127).w, IntWidth::I32);
        assert_eq!(LaneWidth::for_bounds(10, 128).w, IntWidth::I64);
        assert_eq!(LaneWidth::for_bounds(10, u64::MAX), LaneWidth::WIDE);
        assert_eq!(COMPACT.cell_bytes(), 20);
        assert_eq!(LaneWidth::WIDE.cell_bytes(), 32);
    }

    #[test]
    fn slane_cross_width_equality() {
        let mut lanes =
            [IntWidth::I32, IntWidth::I64, IntWidth::I128].map(|w| IntLane::zeroed(w, 4));
        assert!(lanes.iter().all(|l| *l == lanes[0]));
        lanes[0].add_at(2, -55);
        assert_ne!(lanes[0], lanes[2]);
        for lane in &mut lanes[1..] {
            lane.add_at(2, -55);
        }
        for lane in &lanes {
            assert_eq!(*lane, lanes[0]);
            assert_eq!(lane.get(2), -55);
            assert_eq!(lane.to_wide_vec(), lanes[0].to_wide_vec());
        }
        let bytes: Vec<usize> = lanes.iter().map(IntLane::resident_bytes).collect();
        assert_eq!(bytes, [16, 32, 64]);
        // Widening keeps the values and changes the storage.
        let mut widened = lanes[0].clone();
        widened.widen_to(IntWidth::I64);
        assert_eq!(widened.width(), IntWidth::I64);
        assert_eq!(widened, lanes[0]);
        widened.widen_to(IntWidth::I32);
        assert_eq!(widened.width(), IntWidth::I64, "widen_to never narrows");
    }

    #[test]
    fn lane_kernels_at_the_edge_of_every_width() {
        for width in [IntWidth::I32, IntWidth::I64, IntWidth::I128] {
            let (max, min) = match width {
                IntWidth::I32 => (i32::MAX.into(), i32::MIN.into()),
                IntWidth::I64 => (i64::MAX.into(), i64::MIN.into()),
                IntWidth::I128 => (i128::MAX, i128::MIN),
            };
            // The next width up, if any: a delta or operand past this one.
            let wider = match width {
                IntWidth::I32 => Some(IntWidth::I64),
                IntWidth::I64 => Some(IntWidth::I128),
                IntWidth::I128 => None,
            };
            let what = format!("{width:?}");
            // Reaching either edge exactly is clean; one past it
            // overflows and stores the wrapped value.
            let mut lane = IntLane::zeroed(width, 12);
            assert!(!lane.add_at(0, max - 1), "{what}");
            assert!(lane.fits_add(0, 1) && !lane.fits_add(0, 2), "{what}");
            assert!(!lane.add_at(0, 1), "{what}");
            assert_eq!(lane.get(0), max, "{what}");
            assert!(lane.add_at(0, 1), "{what}");
            assert_eq!(lane.get(0), min, "{what}");
            assert!(!lane.add_at(1, min + 1) && !lane.add_at(1, -1), "{what}");
            assert!(!lane.fits_add(1, -1), "{what}");
            assert!(lane.add_at(1, -1), "{what}");
            assert_eq!(lane.get(1), max, "{what}");
            // A delta that does not fit the width overflows on its own.
            if wider.is_some() {
                assert!(!lane.fits_add(2, max + 1), "{what}");
                assert!(lane.add_at(2, max + 1), "{what}");
                assert_eq!(lane.get(2), min, "{what}");
                assert!(lane.fan(10..12, min - 1), "{what}");
                assert_eq!(lane.get(10), max, "{what}");
            }
            // Fans: the same edges over a run of cells.
            assert!(!lane.fan(3..6, max), "{what}");
            assert!(lane.fan(4..6, 1), "{what}");
            assert_eq!(lane.get(3), max, "{what}");
            assert_eq!(lane.get(5), min, "{what}");
            assert!(!lane.fan(6..10, min), "{what}");
            assert!(!lane.fan(6..8, 1), "{what}");
            assert!(lane.fan(8..10, -1), "{what}");
            assert_eq!(lane.get(7), min + 1, "{what}");
            assert_eq!(lane.get(9), max, "{what}");
            // Same-width lane adds: one hot cell among clean ones is
            // reported, all-clean is not.
            let mut ones = IntLane::zeroed(width, 9);
            let mut twos = IntLane::zeroed(width, 9);
            assert!(!ones.fan(0..9, 1) && !twos.fan(0..9, 2), "{what}");
            assert!(!ones.clone().add_lane(&twos), "{what}");
            ones.add_at(6, max - 1);
            let mut hot = ones.clone();
            assert!(hot.add_lane(&twos), "{what}: one hot cell");
            assert_eq!(hot.get(6), min + 1, "{what}");
            assert_eq!(hot.get(5), 3, "{what}");
            // A wider operand adds by value and range-checks per cell.
            if let Some(wider) = wider {
                let mut a = IntLane::zeroed(width, 4);
                let mut b = IntLane::zeroed(wider, 4);
                a.add_at(3, max);
                b.add_at(2, max);
                assert!(!a.add_lane(&b), "{what}");
                assert_eq!(a.get(2), max, "{what}");
                b.add_at(1, max + 1);
                assert!(a.add_lane(&b), "{what}: a wide value that does not fit");
            }
            // Accumulating widens into an `i128` sum, exact past this
            // width (an `i128` lane wraps at its own), and an `i64` sum
            // is exact past `i32`.
            let mut edge = IntLane::zeroed(width, 4);
            edge.add_at(3, max);
            let mut acc = vec![max; 4];
            edge.sum_into(0..4, &mut acc);
            assert_eq!(acc[3], max.wrapping_add(max), "{what}");
            if width == IntWidth::I32 {
                let mut acc = vec![i32::MAX as i64; 4];
                edge.sum_into(0..4, &mut acc);
                assert_eq!(i128::from(acc[3]), 2 * max, "{what}");
            }
        }
    }
}
