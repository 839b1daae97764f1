//! A retired decode cache's name, kept for one caller: see
//! [`DecodeCache`]. Sketches hold no decode memo; the one memo the
//! system keeps is a gs-serve tenant's, keyed on its ingest counters.

use std::marker::PhantomData;

/// Compatibility shim for the serving ladder's replay (`ladder/`), its
/// only caller: a data-free stand-in for the decode cache the replay
/// still names, with `graph_sketches::AnySketch::decode_cached` (a plain
/// `decode_with`) beside it. Both group counters are always 0. The
/// ladder-refresh item in ROADMAP.md deletes the shim with the replay's
/// last use of it.
#[derive(Debug)]
pub struct DecodeCache<O>(PhantomData<fn() -> O>);

impl<O> Default for DecodeCache<O> {
    fn default() -> Self {
        Self::new()
    }
}

impl<O> DecodeCache<O> {
    /// The shim (it holds nothing).
    pub fn new() -> Self {
        DecodeCache(PhantomData)
    }

    /// Always 0: no decode reuses memoized work.
    pub fn groups_reused(&self) -> u64 {
        0
    }

    /// Always 0: the shim counts nothing.
    pub fn groups_recomputed(&self) -> u64 {
        0
    }
}
