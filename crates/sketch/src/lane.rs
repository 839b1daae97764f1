//! Lane-width machinery for the [`crate::bank::CellBank`]: spec-derived
//! `s`-lane compaction and lazily zeroed lane storage.
//!
//! The bank's `s` lane (`Σ i·x_i` per cell) was born `i128` because indices
//! range up to `C(n,2) ≈ 2^64` — but it is also **half the bytes the bank
//! moves** on every absorb, merge, drain, and decode sweep, and most specs
//! can never produce an index-sum anywhere near 128 bits. This module makes
//! the width a property derived from the sketch spec:
//!
//! * [`LaneWidth::for_bounds`] — given the largest index the projection can
//!   see and the largest per-update |Δ| the caller declares, pick `i64`
//!   (narrow) when `(max_index + 1) · max|Δ| · 2^24 ≤ i64::MAX`, else
//!   `i128` (wide). The `2^24` factor is accumulation headroom: a narrow
//!   lane tolerates ~16M maximal same-sign updates per cell before its
//!   checked arithmetic trips.
//! * [`SLane`] — the width-tagged `s` lane itself. All kernels run at the
//!   stored width; export paths widen to `i128` (the wire formats always
//!   ship 16-byte `s` words), import paths range-check on the way in.
//! * [`LaneOverflow`] — the typed error raised when accumulated state
//!   exceeds the lane width. The declared bound is a *derivation hint*,
//!   never a trusted limit: kernels detect true overflow regardless and
//!   poison the bank instead of panicking (see `CellBank::lane_overflow`).
//! * **Lazily zeroed storage.** Every lane is a plain `vec![0; len]` of a
//!   primitive element (`i64`, `i128`, or `u64` words cast to `M61` by
//!   [`gs_field::M61::zeroed_vec`]). std allocates those through the
//!   allocator's zeroed path (`calloc`), which maps a large lane fresh
//!   from the OS without writing it, so its pages stay backed by the
//!   shared zero page: a spec-built sketch costs address space, not
//!   resident memory, and a page becomes resident on its first write.
//!   The AVX2 kernels in [`crate::simd`] use unaligned loads and stores
//!   only, so lanes need no alignment beyond their element type's.
//!
//! The headroom choice is deliberately conservative: a `ForestSketch` over
//! `n = 1000` has `max_index = C(1000,2) − 1 < 2^19`, so unit-delta streams
//! go narrow with ~2^44 of slack, while a weighted sparsifier class that
//! carries values up to `2^40` on a large edge domain derives wide exactly
//! as it must.

use std::fmt;

/// Accumulation headroom (log2) reserved on top of the declared per-update
/// bound when deriving a lane width: a narrow lane is chosen only if
/// `2^24` maximal same-sign updates per cell still fit `i64`.
pub const LANE_HEADROOM_LOG2: u32 = 24;

/// Width of a bank's `s` (index-sum) lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneWidth {
    /// `i64` cells — half the bandwidth of wide, derived only when the
    /// spec bounds `|Σ index·Δ|` far below `2^63`.
    Narrow,
    /// `i128` cells — the always-safe default.
    Wide,
}

impl LaneWidth {
    /// Derives the lane width from the projection's index bound and the
    /// caller-declared per-update magnitude bound.
    ///
    /// Narrow iff `(max_index + 1) · max(1, max_abs_delta) · 2^24` fits
    /// `i64`. `max_index` is the largest index the projection can see
    /// (domain − 1); `max_abs_delta` the largest |Δ| a well-formed stream
    /// delivers (1 for unit sketches, the weight-class ceiling for
    /// value-carrying ones). The bound is a derivation hint only — the
    /// bank's kernels still detect true overflow at run time.
    pub fn for_bounds(max_index: u64, max_abs_delta: u64) -> LaneWidth {
        let per_update = (max_index as u128 + 1).saturating_mul(max_abs_delta.max(1) as u128);
        let budget = per_update.saturating_mul(1u128 << LANE_HEADROOM_LOG2);
        if budget <= i64::MAX as u128 {
            LaneWidth::Narrow
        } else {
            LaneWidth::Wide
        }
    }

    /// Bytes one `s` cell occupies at this width.
    pub fn s_bytes(self) -> usize {
        match self {
            LaneWidth::Narrow => 8,
            LaneWidth::Wide => 16,
        }
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
    /// it (single-cell applies do; vectorized range kernels report `None`).
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

/// The width-tagged `s` (index-sum) lane of a bank. All kernels run at the
/// stored width; [`SLane::get`] / [`SLane::to_wide_vec`] widen on the way
/// out for export paths, which always speak `i128`.
#[derive(Clone, Debug)]
pub enum SLane {
    /// Compacted `i64` cells.
    Narrow(Vec<i64>),
    /// Full-width `i128` cells.
    Wide(Vec<i128>),
}

impl SLane {
    /// A zeroed lane of `len` cells at the given width. The storage is
    /// a zeroed allocation (see the module docs), so its pages become
    /// resident only when cells are written.
    pub fn zeroed(width: LaneWidth, len: usize) -> Self {
        match width {
            LaneWidth::Narrow => SLane::Narrow(vec![0; len]),
            LaneWidth::Wide => SLane::Wide(vec![0; len]),
        }
    }

    /// The lane's width tag.
    pub fn width(&self) -> LaneWidth {
        match self {
            SLane::Narrow(_) => LaneWidth::Narrow,
            SLane::Wide(_) => LaneWidth::Wide,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            SLane::Narrow(b) => b.len(),
            SLane::Wide(b) => b.len(),
        }
    }

    /// `true` iff the lane holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cell `i`, widened.
    #[inline]
    pub fn get(&self, i: usize) -> i128 {
        match self {
            SLane::Narrow(b) => b[i] as i128,
            SLane::Wide(b) => b[i],
        }
    }

    /// Zeroes cell `i` (drain path).
    #[inline]
    pub fn zero(&mut self, i: usize) {
        match self {
            SLane::Narrow(b) => b[i] = 0,
            SLane::Wide(b) => b[i] = 0,
        }
    }

    /// Adds cell `i` of `other` into cell `i`, wrapping at this lane's
    /// width; returns `true` on overflow, including a wide value that does
    /// not fit a narrow lane (the dense merge's per-cell rule, for the
    /// sparse merge path).
    #[inline]
    pub(crate) fn add_at(&mut self, other: &SLane, i: usize) -> bool {
        match (self, other) {
            (SLane::Narrow(a), SLane::Narrow(b)) => {
                let (v, o) = a[i].overflowing_add(b[i]);
                a[i] = v;
                o
            }
            (SLane::Wide(a), SLane::Wide(b)) => {
                let (v, o) = a[i].overflowing_add(b[i]);
                a[i] = v;
                o
            }
            (SLane::Wide(a), SLane::Narrow(b)) => {
                let (v, o) = a[i].overflowing_add(b[i] as i128);
                a[i] = v;
                o
            }
            (SLane::Narrow(a), SLane::Wide(b)) => match i64::try_from(b[i]) {
                Ok(y) => {
                    let (v, o) = a[i].overflowing_add(y);
                    a[i] = v;
                    o
                }
                Err(_) => {
                    a[i] = a[i].wrapping_add(b[i] as i64);
                    true
                }
            },
        }
    }

    /// `true` iff cell `i` is zero.
    #[inline]
    pub fn is_zero_at(&self, i: usize) -> bool {
        match self {
            SLane::Narrow(b) => b[i] == 0,
            SLane::Wide(b) => b[i] == 0,
        }
    }

    /// `true` iff every cell is zero.
    pub fn all_zero(&self) -> bool {
        match self {
            SLane::Narrow(b) => b.iter().all(|&x| x == 0),
            SLane::Wide(b) => b.iter().all(|&x| x == 0),
        }
    }

    /// The narrow cells, if this lane is narrow.
    pub fn as_narrow(&self) -> Option<&[i64]> {
        match self {
            SLane::Narrow(b) => Some(b.as_slice()),
            SLane::Wide(_) => None,
        }
    }

    /// The wide cells, if this lane is wide.
    pub fn as_wide(&self) -> Option<&[i128]> {
        match self {
            SLane::Narrow(_) => None,
            SLane::Wide(b) => Some(b.as_slice()),
        }
    }

    /// The whole lane widened to `i128` (width-oblivious export).
    pub fn to_wide_vec(&self) -> Vec<i128> {
        match self {
            SLane::Narrow(b) => b.iter().map(|&x| x as i128).collect(),
            SLane::Wide(b) => b.to_vec(),
        }
    }

    /// Resident bytes of the lane storage.
    pub fn resident_bytes(&self) -> usize {
        self.len() * self.width().s_bytes()
    }
}

/// Equality is by **value**, across widths: a narrow lane equals a wide
/// lane holding the same index-sums (a widened twin is still the same
/// linear measurement).
impl PartialEq for SLane {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (SLane::Narrow(a), SLane::Narrow(b)) => a == b,
            (SLane::Wide(a), SLane::Wide(b)) => a == b,
            _ => self.len() == other.len() && (0..self.len()).all(|i| self.get(i) == other.get(i)),
        }
    }
}

impl Eq for SLane {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_derivation_tracks_the_budget() {
        // Unit deltas on small edge domains: narrow with huge slack.
        assert_eq!(
            LaneWidth::for_bounds((1000 * 999) / 2 - 1, 1),
            LaneWidth::Narrow
        );
        // The exact boundary: (max_index+1)·Δ·2^24 ≤ i64::MAX.
        let budget = (i64::MAX as u128 >> LANE_HEADROOM_LOG2) as u64;
        assert_eq!(LaneWidth::for_bounds(budget - 1, 1), LaneWidth::Narrow);
        assert_eq!(LaneWidth::for_bounds(budget, 1), LaneWidth::Wide);
        // Weight-carrying deltas shrink the index budget proportionally.
        assert_eq!(LaneWidth::for_bounds(budget / 1024, 1024), LaneWidth::Wide);
        assert_eq!(
            LaneWidth::for_bounds(budget / 1024 - 1, 1024),
            LaneWidth::Narrow
        );
        // Huge domains are always wide, whatever the delta bound.
        assert_eq!(LaneWidth::for_bounds(u64::MAX, 1), LaneWidth::Wide);
    }

    #[test]
    fn slane_cross_width_equality() {
        let mut narrow = SLane::zeroed(LaneWidth::Narrow, 4);
        let mut wide = SLane::zeroed(LaneWidth::Wide, 4);
        assert_eq!(narrow, wide);
        if let SLane::Narrow(b) = &mut narrow {
            b[2] = -55;
        }
        assert_ne!(narrow, wide);
        if let SLane::Wide(b) = &mut wide {
            b[2] = -55;
        }
        assert_eq!(narrow, wide);
        assert_eq!(narrow.get(2), -55);
        assert_eq!(narrow.to_wide_vec(), wide.to_wide_vec());
        assert_eq!(narrow.resident_bytes(), 32);
        assert_eq!(wide.resident_bytes(), 64);
    }
}
