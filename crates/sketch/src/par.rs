//! The decode-side parallelism primitives: a thread plan and a
//! deterministic scoped fan-out.
//!
//! Decoding is where the query paths spend their time — Boruvka rounds
//! lane-sum whole groups of detector rows, sparsifiers peel a recovery
//! per Gomory–Hu cut, witnesses decode per subsampling level. All of
//! those loops share one shape: a list of **independent** items whose
//! per-item work touches only shared immutable sketch state, with the
//! results consumed *in item order*. [`par_map_with`] runs exactly that
//! shape across scoped threads and reassembles the outputs by position,
//! so the parallel run is **bit-identical** to the sequential loop — not
//! merely equivalent: the sequential consumer sees the same values in the
//! same order, whatever the thread interleaving was.
//!
//! [`DecodePlan`] is the knob callers thread through the decode stack
//! ([`crate::LinearSketch::decode_with`]): how many OS threads a decode
//! may fan out over. `threads = 1` runs every loop inline (no spawns at
//! all) and is the pinned reference the parity tests compare against.
//!
//! Ingest takes the same plan ([`crate::LinearSketch::absorb_with`]): a
//! batch is cut into [`Job`]s that each write a disjoint part of one
//! sketch, and [`run_jobs`] runs them in one fork-join.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::{Mutex, OnceLock, PoisonError};

/// How a decode call may parallelize. Answers are **bit-identical** for
/// every `threads` value (see the module docs); the plan trades wall
/// clock for OS threads, never accuracy.
///
/// The plan records the caller's *requested* budget; at execution time
/// [`par_map_with`] additionally clamps the effective fan-out to the
/// machine's available parallelism and spawns no thread at all when the
/// effective count is 1, so an 8-thread plan on a 1-core box runs the
/// inline reference loop instead of paying for useless spawns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodePlan {
    /// Maximum OS threads one decode call may fan out over (≥ 1; a plan
    /// built with 0 is clamped to 1). Nested decoders split this budget
    /// rather than multiplying it.
    pub threads: usize,
}

impl DecodePlan {
    /// The single-threaded plan: every decode loop runs inline, no
    /// threads are spawned. This is the reference behavior.
    pub fn sequential() -> Self {
        DecodePlan { threads: 1 }
    }

    /// A plan over the machine's available parallelism (1 if it cannot
    /// be queried).
    pub fn auto() -> Self {
        DecodePlan {
            threads: std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        }
    }

    /// A plan over exactly `threads` OS threads (clamped to ≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        DecodePlan {
            threads: threads.max(1),
        }
    }

    /// The effective thread count (≥ 1 even for a hand-built plan).
    pub fn threads(&self) -> usize {
        self.threads.max(1)
    }

    /// The per-item plan when this plan fans out over `items` parallel
    /// items — nested decoders split the budget rather than multiplying
    /// it. With more items than threads every item decodes inline; with
    /// fewer (two subsampling levels under an 8-thread plan, say) the
    /// surplus threads flow down into each item's own decode.
    pub fn split(&self, items: usize) -> DecodePlan {
        let outer = self.threads().min(items.max(1));
        DecodePlan::with_threads(self.threads() / outer)
    }
}

impl Default for DecodePlan {
    /// Defaults to [`DecodePlan::sequential`]: parallelism is opt-in.
    fn default() -> Self {
        DecodePlan::sequential()
    }
}

/// Maps `f` over `items` across at most `threads` scoped threads and
/// returns the outputs **in item order** — deterministically equal to the
/// sequential `items.iter().map(..).collect()` whatever the scheduling,
/// because each output is placed by its item's position.
///
/// `init` builds one per-thread scratch value (accumulator buffers a
/// decode kernel reuses across items); `f` receives the scratch, the
/// item's index, and the item. With `threads <= 1` or fewer than two
/// items everything runs inline on the caller's thread with a single
/// scratch — the reference loop.
pub fn par_map_with<T, S, R, F>(
    items: &[T],
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    // Effective threads are clamped to the machine's available
    // parallelism: spawning 8 scoped threads on a 1-core box costs more
    // than it buys (BENCH_decode's pre-clamp rows measured a 0.87×
    // "speedup"), and clamping cannot change any answer — outputs are
    // reassembled by item position either way. When the effective count
    // is 1 no thread is ever spawned.
    let threads = threads.max(1).min(items.len()).min(hardware_threads());
    if threads <= 1 {
        let mut scratch = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(&mut scratch, i, item))
            .collect();
    }
    // Contiguous chunks, sizes differing by at most one; chunk c starts
    // at the same index however many threads actually run, so outputs
    // reassemble by position.
    let per = items.len().div_ceil(threads);
    let chunks: Vec<(usize, &[T])> = items
        .chunks(per)
        .enumerate()
        .map(|(c, chunk)| (c * per, chunk))
        .collect();
    let mut results: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|&(base, chunk)| {
                let (init, f) = (&init, &f);
                scope.spawn(move || {
                    let mut scratch = init();
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(i, item)| f(&mut scratch, base + i, item))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("decode worker panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(items.len());
    for part in &mut results {
        out.append(part);
    }
    out
}

/// The machine's available parallelism (1 if it cannot be queried),
/// computed once per process — the ceiling [`par_map_with`] clamps every
/// plan's thread budget to at execution time. The [`DecodePlan`] itself
/// keeps the caller's requested budget (so nested [`DecodePlan::split`]
/// arithmetic is machine-independent); only the fan-out is clamped.
fn hardware_threads() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// One unit of ingest work for [`run_jobs`]: a closure holding the
/// `&mut` to the disjoint part of a sketch it writes.
pub type Job<'a> = Box<dyn FnOnce() + Send + 'a>;

/// Runs every job once across at most `threads` scoped threads, clamped
/// to the machine's available parallelism like [`par_map_with`]: one
/// fork-join, whatever the number of jobs. Threads pull jobs from one
/// shared queue in list order, so uneven jobs balance themselves; with
/// one effective thread the jobs run inline, in list order, and no
/// thread is spawned.
///
/// Each job owns the `&mut` it writes and no two jobs write the same
/// state, so which thread runs a job never changes what it writes: the
/// absorb kernels built on this are bit-identical to their sequential
/// loops at every thread count.
pub fn run_jobs(jobs: Vec<Job<'_>>, threads: usize) {
    let threads = threads.max(1).min(jobs.len()).min(hardware_threads());
    if threads <= 1 {
        jobs.into_iter().for_each(|job| job());
        return;
    }
    let queue = Mutex::new(jobs.into_iter());
    let work = || loop {
        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
        match next {
            Some(job) => job(),
            None => return,
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        work();
    });
}

/// `0..total` cut into `parts` contiguous ranges (at least one) whose
/// lengths differ by at most one; range `i` is
/// `i·total/parts .. (i+1)·total/parts`, so it depends only on `total`
/// and `parts`.
pub fn even_ranges(total: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    (0..parts)
        .map(|i| i * total / parts..(i + 1) * total / parts)
        .collect()
}

/// [`par_map_with`] without per-thread scratch.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with(items, threads, || (), |(), i, item| f(i, item))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_constructors_clamp() {
        assert_eq!(DecodePlan::sequential().threads(), 1);
        assert_eq!(DecodePlan::with_threads(0).threads(), 1);
        assert_eq!(DecodePlan::with_threads(8).threads, 8);
        assert!(DecodePlan::auto().threads() >= 1);
        assert_eq!(DecodePlan::default(), DecodePlan::sequential());
    }

    #[test]
    fn split_shares_the_budget_without_multiplying_it() {
        let plan = DecodePlan::with_threads(8);
        // More items than threads: items decode inline.
        assert_eq!(plan.split(14).threads(), 1);
        // Fewer items: the surplus flows into each item.
        assert_eq!(plan.split(2).threads(), 4);
        assert_eq!(plan.split(3).threads(), 2);
        // Degenerate shapes stay sane.
        assert_eq!(plan.split(0).threads(), 8);
        assert_eq!(plan.split(1).threads(), 8);
        assert_eq!(DecodePlan::sequential().split(5).threads(), 1);
    }

    #[test]
    fn par_map_preserves_item_order_at_every_width() {
        let items: Vec<usize> = (0..103).collect();
        let sequential: Vec<usize> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 7, 8, 64, 200] {
            let got = par_map(&items, threads, |i, &x| {
                assert_eq!(i, x, "index drifted from position");
                x * x + 1
            });
            assert_eq!(got, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn scratch_is_per_thread_and_reused() {
        // The scratch counts how many items one thread handled; totals
        // must cover every item exactly once.
        let items: Vec<u32> = (0..50).collect();
        let got = par_map_with(
            &items,
            4,
            || 0usize,
            |seen, _, &x| {
                *seen += 1;
                (x, *seen)
            },
        );
        assert_eq!(got.len(), 50);
        // Outputs are in item order regardless of which thread ran them.
        for (i, &(x, seen)) in got.iter().enumerate() {
            assert_eq!(x as usize, i);
            assert!(seen >= 1);
        }
    }

    #[test]
    fn run_jobs_runs_every_job_once_at_every_width() {
        for threads in [1, 2, 3, 8] {
            let mut slots = vec![0u32; 37];
            let jobs: Vec<Job<'_>> = slots
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| Box::new(move || *slot += i as u32 + 1) as Job<'_>)
                .collect();
            run_jobs(jobs, threads);
            let want: Vec<u32> = (1..=37).collect();
            assert_eq!(slots, want, "threads = {threads}");
        }
        run_jobs(Vec::new(), 4);
    }

    #[test]
    fn even_ranges_cover_in_order_and_differ_by_at_most_one() {
        for (total, parts) in [(10, 3), (3, 8), (0, 2), (61_440, 2), (7, 1), (5, 0)] {
            let ranges = even_ranges(total, parts);
            assert_eq!(ranges.len(), parts.max(1));
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, total);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
            let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
            let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(hi - lo <= 1, "{total}/{parts}: {lens:?}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(par_map(&[] as &[u8], 8, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u8], 8, |_, &x| x + 1), vec![8]);
    }
}
