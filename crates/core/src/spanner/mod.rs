//! Spanner construction from adaptive sketches (§5).
//!
//! Unlike §3–§4, these schemes are **r-adaptive** (Definition 2):
//!
//! > *"An r-adaptive sketching scheme is a sequence of r sketches where the
//! > linear measurements performed in the r-th sketch may be chosen based
//! > on the outcomes of earlier sketches."*
//!
//! In the stream world each adaptivity round is a pass. The algorithms
//! below read the stream only through a [`Meter`], which counts passes,
//! so the experiments can verify the claimed pass counts:
//!
//! * [`baswana_sen`](mod@baswana_sen) — the k-pass emulation of Baswana–Sen: stretch
//!   `2k − 1` with `Õ(n^{1+1/k})` edges, pass-per-phase.
//! * [`recurse`] — `RECURSECONNECT` (§5.1, Theorem 5.1): only
//!   `⌈log₂ k⌉ + 1` passes by growing contracted regions aggressively, at
//!   the price of stretch `k^{log₂ 5} − 1`.

use gs_sketch::EdgeUpdate;

pub mod baswana_sen;
pub mod recurse;

pub use baswana_sen::{baswana_sen, BaswanaSenParams};
pub use recurse::{recurse_connect, RecurseParams, RecurseTrace};

/// A stream on `[n]` that can only be read a whole pass at a time, and
/// counts the passes.
#[derive(Debug)]
pub struct Meter<'a> {
    n: usize,
    updates: &'a [EdgeUpdate],
    passes: usize,
}

impl<'a> Meter<'a> {
    /// Wraps a stream on `n` vertices with a zeroed pass counter.
    pub fn new(n: usize, updates: &'a [EdgeUpdate]) -> Self {
        Meter {
            n,
            updates,
            passes: 0,
        }
    }

    /// Vertex count of the underlying stream.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Performs one pass, feeding every update to `sink(u, v, delta)` in
    /// stream order.
    pub fn pass(&mut self, mut sink: impl FnMut(usize, usize, i64)) {
        self.passes += 1;
        for up in self.updates {
            sink(up.u, up.v, up.delta);
        }
    }

    /// Number of passes performed so far.
    pub fn passes(&self) -> usize {
        self.passes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_passes() {
        let s = [EdgeUpdate::insert(0, 1)];
        let mut m = Meter::new(3, &s);
        assert_eq!(m.passes(), 0);
        let mut total = 0;
        m.pass(|_, _, d| total += d);
        m.pass(|_, _, d| total += d);
        assert_eq!(m.passes(), 2);
        assert_eq!(total, 2);
        assert_eq!(m.n(), 3);
    }

    #[test]
    fn replay_visits_in_order() {
        let s = [
            EdgeUpdate::insert(0, 1),
            EdgeUpdate::insert(2, 3),
            EdgeUpdate::delete(0, 1),
        ];
        let mut m = Meter::new(4, &s);
        let mut seen = Vec::new();
        m.pass(|u, v, d| seen.push((u, v, d)));
        assert_eq!(seen, vec![(0, 1, 1), (2, 3, 1), (0, 1, -1)]);
    }
}
