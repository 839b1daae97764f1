//! The generation-keyed decode cache: cached answers under sustained
//! query traffic.
//!
//! Updates are cheap; decoding is not. A serving workload asks the *same*
//! question between *small* deltas, and between two queries with no
//! intervening mutation the sketch is bit-identical — so the previous
//! answer is too. [`DecodeCache`] memoizes the last decoded answer keyed
//! by the sketch's **bank stamps** ([`BankStamp`]): one
//! `(generation, drain epoch)` pair per [`crate::bank::CellBank`], read
//! through the [`crate::bank::CellBanked`] visitor. The soundness
//! argument is layered:
//!
//! * **Hit.** Every bank mutator advances its generation, so equal stamp
//!   vectors certify the measurement lanes are unchanged — and decoding
//!   is a pure function of the lanes (thread plans are bit-identical by
//!   the pinned parity suite), so the memoized answer *is* the fresh
//!   answer.
//! * **Fine-grained invalidation.** On a stamp mismatch the whole-answer
//!   memo is dead, but per-component memos (the Borůvka round structure a
//!   forest decode stashes in the [`DecodeCache::set_detail`] slot) can
//!   survive: while a bank's drain epoch is unchanged, mutators only ever
//!   *set* dirty bits, so the current dirty bitmap over-approximates
//!   every cell changed since the memo was taken. A component whose input
//!   rows carry no dirty bit therefore decodes to the memoized value
//!   bit for bit; only touched components recompute, and the results are
//!   spliced into the memoized structure. A drain-epoch change (bits were
//!   cleared) drops the fine-grained memo entirely — conservative, never
//!   wrong.
//! * **Oracle.** Setting the `GS_NO_DECODE_CACHE` environment variable
//!   (any value but `0`) disables every memo at cache construction time:
//!   each query recomputes from scratch, which is the bit-identity oracle
//!   the cache-disabled CI job runs the full suite under.
//!
//! A cache belongs to one sketch **lineage**: the same sketch value
//! evolving in place — including a base that absorbs drained engine
//! shards, since `add` adds each operand's whole counter history — or
//! merge-on-read rebuilds over the same evolving constituents (rebuilt
//! banks absorb their operands' counters, so their stamps stay strictly
//! monotone in the upstream mutations). Callers that reset or replace
//! the underlying state outside the counters' view — e.g. an engine
//! resetting drained shards (`CellBank::reset`) or swapping in zero
//! sketches — must start a fresh cache or key the old one out
//! themselves.
//!
//! The cache never changes an answer — only whether it is recomputed.
//! Counters ([`DecodeCache::hits`], [`DecodeCache::misses`],
//! [`DecodeCache::invalidations`], [`DecodeCache::groups_reused`],
//! [`DecodeCache::groups_recomputed`]) expose the reuse behavior to tests
//! and the serving layer's STATS surface.

use crate::bank::CellBanked;
use std::any::Any;

/// The freshness stamp of one [`crate::bank::CellBank`]: its mutation
/// generation and drain epoch, read at a single point in time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BankStamp {
    /// [`crate::bank::CellBank::generation`] at stamp time.
    pub generation: u64,
    /// [`crate::bank::CellBank::drain_epoch`] at stamp time.
    pub drains: u64,
}

/// The stamp vector of a sketch: one [`BankStamp`] per bank, in
/// [`CellBanked::banks`] order. Equal vectors certify the sketch's entire
/// measurement state is bit-identical between the two readings.
pub fn stamps_of<S: CellBanked + ?Sized>(sketch: &S) -> Vec<BankStamp> {
    sketch
        .banks()
        .iter()
        .map(|b| BankStamp {
            generation: b.generation(),
            drains: b.drain_epoch(),
        })
        .collect()
}

/// A memoized decode answer together with the stamp vector it was
/// computed at.
#[derive(Clone, Debug)]
pub struct CachedAnswer<O> {
    /// The sketch's stamp vector when `output` was decoded.
    pub stamps: Vec<BankStamp>,
    /// The decoded answer, bit-identical to a fresh decode at `stamps`.
    pub output: O,
}

/// A decode cache for one sketch (or one query stream over a sketch):
/// the whole-answer memo, an opaque slot for sketch-specific structural
/// memos, and the reuse counters. Create one per cached query stream and
/// pass it to `LinearSketch::decode_cached` on every query.
#[derive(Debug)]
pub struct DecodeCache<O> {
    answer: Option<CachedAnswer<O>>,
    /// Sketch-specific structural memo (e.g. the forest decode's
    /// per-round group results), stored type-erased so the cache type
    /// does not depend on any concrete sketch.
    detail: Option<Box<dyn Any + Send>>,
    disabled: bool,
    hits: u64,
    misses: u64,
    invalidations: u64,
    groups_reused: u64,
    groups_recomputed: u64,
}

impl<O> Default for DecodeCache<O> {
    fn default() -> Self {
        Self::new()
    }
}

impl<O> DecodeCache<O> {
    /// An empty cache. Honors the `GS_NO_DECODE_CACHE` environment
    /// variable (any value but `0`) at construction time: a disabled
    /// cache recomputes every answer from scratch and stores nothing —
    /// the bit-identity oracle.
    pub fn new() -> Self {
        Self::with_disabled(crate::env::no_decode_cache())
    }

    /// An empty cache with the memo explicitly enabled or disabled
    /// (tests use this to compare both paths in one process).
    pub fn with_disabled(disabled: bool) -> Self {
        DecodeCache {
            answer: None,
            detail: None,
            disabled,
            hits: 0,
            misses: 0,
            invalidations: 0,
            groups_reused: 0,
            groups_recomputed: 0,
        }
    }

    /// `true` iff every memo is disabled (the oracle mode).
    pub fn is_disabled(&self) -> bool {
        self.disabled
    }

    /// Queries answered straight from the whole-answer memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Queries that had to run decode work (no memo, stale memo, or a
    /// disabled cache).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Stale whole-answer memos discarded because the stamp vector moved.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Decode components answered from a structural memo across all
    /// recomputations (e.g. Borůvka group queries skipped).
    pub fn groups_reused(&self) -> u64 {
        self.groups_reused
    }

    /// Decode components actually recomputed across all recomputations.
    pub fn groups_recomputed(&self) -> u64 {
        self.groups_recomputed
    }

    /// Records component-level reuse from a structural-memo decode.
    pub fn note_groups(&mut self, reused: u64, recomputed: u64) {
        self.groups_reused += reused;
        self.groups_recomputed += recomputed;
    }

    /// Records an uncached full decode (the trait-default
    /// `decode_cached` path of sketches without a memo) as a miss, so
    /// the counters stay meaningful for every implementor.
    pub fn note_fresh_decode(&mut self) {
        self.misses += 1;
    }

    /// Stores a sketch-specific structural memo. Dropped (never stored)
    /// when the cache is disabled.
    pub fn set_detail<T: Any + Send>(&mut self, detail: T) {
        if !self.disabled {
            self.detail = Some(Box::new(detail));
        }
    }

    /// Removes and returns the structural memo, if one of type `T` is
    /// stored. Always `None` when the cache is disabled.
    pub fn take_detail<T: Any + Send>(&mut self) -> Option<T> {
        self.detail
            .take()
            .and_then(|b| b.downcast::<T>().ok())
            .map(|b| *b)
    }

    /// The current whole-answer memo, if any (tests inspect it).
    pub fn cached(&self) -> Option<&CachedAnswer<O>> {
        self.answer.as_ref()
    }
}

impl<O: Clone> DecodeCache<O> {
    /// The hit half of [`DecodeCache::answer_banked`] on its own: the
    /// memoized answer for exactly `stamps`, counting a hit — `None` when
    /// the memo is disabled, empty, or stale. Callers that need the miss
    /// work to borrow state the recompute closure could not (e.g. a
    /// freshly merged snapshot) probe with this first and call
    /// `answer_banked` only on `None`; a stale memo is left for
    /// `answer_banked` to invalidate so the counters tally the same
    /// either way.
    pub fn answer_hit(&mut self, stamps: &[BankStamp]) -> Option<O> {
        if self.disabled {
            return None;
        }
        let ans = self.answer.as_ref()?;
        if ans.stamps != stamps {
            return None;
        }
        self.hits += 1;
        Some(ans.output.clone())
    }

    /// The memoization core: returns the cached answer when `stamps`
    /// matches the memo, otherwise runs `recompute` (which may itself use
    /// the structural-memo slot through the `&mut Self` it receives) and
    /// re-arms the memo at `stamps`.
    ///
    /// The caller must read `stamps` from the sketch *before* calling and
    /// must not mutate the sketch inside `recompute` — the stamp vector
    /// certifies the state the stored answer belongs to.
    pub fn answer_banked(
        &mut self,
        stamps: Vec<BankStamp>,
        recompute: impl FnOnce(&mut Self) -> O,
    ) -> O {
        if !self.disabled {
            if let Some(ans) = &self.answer {
                if ans.stamps == stamps {
                    self.hits += 1;
                    return ans.output.clone();
                }
                self.invalidations += 1;
            }
        }
        self.misses += 1;
        let output = recompute(self);
        if !self.disabled {
            self.answer = Some(CachedAnswer {
                stamps,
                output: output.clone(),
            });
        }
        output
    }

    /// [`DecodeCache::answer_banked`] with the stamp vector read from the
    /// sketch's banks — the one-liner every bank-backed
    /// `LinearSketch::decode_cached` override is built from.
    pub fn answer_for<S: CellBanked + ?Sized>(
        &mut self,
        sketch: &S,
        recompute: impl FnOnce(&mut Self) -> O,
    ) -> O {
        let stamps = stamps_of(sketch);
        self.answer_banked(stamps, recompute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::{BankGeometry, CellBank};

    struct OneBank(CellBank);

    impl CellBanked for OneBank {
        fn banks(&self) -> Vec<&CellBank> {
            vec![&self.0]
        }
        fn banks_mut(&mut self) -> Vec<&mut CellBank> {
            vec![&mut self.0]
        }
        fn fingerprints(&self) -> Vec<gs_field::M61> {
            Vec::new()
        }
        fn fingerprints_mut(&mut self) -> Vec<&mut gs_field::M61> {
            Vec::new()
        }
    }

    #[test]
    fn answer_hit_probes_without_recompute() {
        let mut cache: DecodeCache<u64> = DecodeCache::with_disabled(false);
        let key = vec![BankStamp {
            generation: 3,
            drains: 1,
        }];
        // Empty memo: the probe misses and counts nothing.
        assert_eq!(cache.answer_hit(&key), None);
        assert_eq!(cache.hits(), 0);
        // Arm the memo, then probe: a hit with the same accounting the
        // full answer_banked path would produce.
        assert_eq!(cache.answer_banked(key.clone(), |_| 7u64), 7);
        assert_eq!(cache.answer_hit(&key), Some(7));
        assert_eq!(cache.hits(), 1);
        // Stale stamps miss and leave the memo for answer_banked to
        // invalidate — invalidation accounting stays in one place.
        let newer = vec![BankStamp {
            generation: 4,
            drains: 1,
        }];
        assert_eq!(cache.answer_hit(&newer), None);
        assert_eq!(cache.invalidations(), 0);
        // A disabled cache never reports hits.
        let mut off: DecodeCache<u64> = DecodeCache::with_disabled(true);
        assert_eq!(off.answer_banked(key.clone(), |_| 9u64), 9);
        assert_eq!(off.answer_hit(&key), None);
    }

    #[test]
    fn hit_on_equal_stamps_miss_after_mutation() {
        let mut s = OneBank(CellBank::new(BankGeometry::new(1, 1, 8)));
        let mut cache: DecodeCache<u64> = DecodeCache::with_disabled(false);
        let mut computes = 0;
        for _ in 0..3 {
            let got = cache.answer_for(&s, |_| {
                computes += 1;
                42
            });
            assert_eq!(got, 42);
        }
        assert_eq!((computes, cache.hits(), cache.misses()), (1, 2, 1));
        assert_eq!(cache.invalidations(), 0);
        // A mutation moves the stamp: the memo is invalidated once, then
        // hits resume.
        s.0.apply(3, 1, 3, gs_field::M61::ZERO);
        let got = cache.answer_for(&s, |_| {
            computes += 1;
            43
        });
        assert_eq!(got, 43);
        assert_eq!((computes, cache.invalidations()), (2, 1));
        assert_eq!(cache.answer_for(&s, |_| unreachable!()), 43);
    }

    #[test]
    fn disabled_cache_always_recomputes_and_stores_nothing() {
        let s = OneBank(CellBank::new(BankGeometry::new(1, 1, 8)));
        let mut cache: DecodeCache<u64> = DecodeCache::with_disabled(true);
        let mut computes = 0;
        for _ in 0..3 {
            cache.answer_for(&s, |c| {
                computes += 1;
                // The structural slot is inert too.
                c.set_detail(7u32);
                assert_eq!(c.take_detail::<u32>(), None);
                9
            });
        }
        assert_eq!(computes, 3);
        assert!(cache.cached().is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 3));
    }

    #[test]
    fn detail_slot_round_trips_by_type() {
        let mut cache: DecodeCache<u64> = DecodeCache::with_disabled(false);
        cache.set_detail(vec![1usize, 2, 3]);
        assert_eq!(cache.take_detail::<String>(), None);
        // A failed downcast consumes the slot (the consumer changed type).
        assert_eq!(cache.take_detail::<Vec<usize>>(), None);
        cache.set_detail(vec![4usize]);
        assert_eq!(cache.take_detail::<Vec<usize>>(), Some(vec![4]));
        assert_eq!(cache.take_detail::<Vec<usize>>(), None);
    }

    #[test]
    fn drain_moves_the_stamp_even_when_values_return() {
        // drain + re-apply can reproduce identical lane values; the drain
        // epoch keeps the stamps distinct so the memo cannot serve a
        // stale structural decode.
        let mut bank = CellBank::new(BankGeometry::new(1, 1, 4));
        let before = stamps_of(&OneBank(bank.clone()));
        bank.apply(0, 1, 5, gs_field::M61::ZERO);
        bank.drain_dirty();
        let after = stamps_of(&OneBank(bank.clone()));
        assert_ne!(before, after);
        assert_ne!(before[0].drains, after[0].drains);
    }
}
