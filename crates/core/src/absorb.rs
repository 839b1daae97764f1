//! Split ingest: one update batch absorbed into one sketch by several
//! threads at once.
//!
//! Every task's measurement state is a set of independent parts. A
//! forest sketch's detector rows group by `(round, node)`, and a batch
//! writes each group only through the updates that touch that node; a
//! composite task is a list of sub-sketches (threshold forests,
//! `k-EDGECONNECT` layers, min-cut levels, weight classes, the bipartite
//! base and cover, sparsifier recovery levels, subgraph samplers). So a
//! batch can be cut into jobs that write disjoint state, and one scoped
//! fork-join ([`run_jobs`]) runs them. Each cell still sees the same
//! adds in the same order as under the sequential absorb, so the result
//! is bit-identical at every thread count, and the sequential absorb is
//! the one-thread case of the same code.
//!
//! A task collects its jobs with [`SplitAbsorb::absorb_work`]: composites
//! partition the batch (per level, class or cover copy) and hand each
//! share to their parts. Forest banks are split with
//! [`gs_sketch::CellBank::split_mut`]; the split folds back into the
//! bank when [`AbsorbWork`] drops, after the join.

use crate::connectivity::ForestWork;
use gs_sketch::par::{run_jobs, DecodePlan, Job};
use gs_sketch::EdgeUpdate;

/// The absorb work of one batch, collected from a sketch and its
/// sub-sketches before one fork-join runs it.
#[derive(Default)]
pub(crate) struct AbsorbWork<'a> {
    /// Forest banks split into row-group parts. Dropped after the join,
    /// which folds every split back into its bank.
    forests: Vec<ForestWork<'a>>,
    /// Jobs that own everything they write (recovery levels, sampler
    /// groups).
    jobs: Vec<Job<'a>>,
}

impl<'a> AbsorbWork<'a> {
    /// Adds a forest's split absorb.
    pub(crate) fn forest(&mut self, work: ForestWork<'a>) {
        self.forests.push(work);
    }

    /// Adds a self-contained job.
    pub(crate) fn job(&mut self, job: Job<'a>) {
        self.jobs.push(job);
    }

    /// Runs every job in one fork-join over at most `threads` threads,
    /// then folds the forest splits back.
    fn run(mut self, threads: usize) {
        let mut jobs: Vec<Job<'_>> = std::mem::take(&mut self.jobs);
        for forest in &mut self.forests {
            forest.push_jobs(&mut jobs);
        }
        run_jobs(jobs, threads);
    }
}

/// A sketch whose batch absorb splits into jobs on disjoint state.
pub(crate) trait SplitAbsorb {
    /// Adds the jobs that absorb `batch` into this sketch to `work`, cut
    /// into about `parts` pieces. Panics on an invalid update happen
    /// here, on the calling thread, before any job runs.
    fn absorb_work<'a>(&'a mut self, batch: &[EdgeUpdate], parts: usize, work: &mut AbsorbWork<'a>);
}

/// `LinearSketch::absorb_with` for every task: collect the jobs for
/// `plan.threads()` parts, then run them in one fork-join.
pub(crate) fn absorb_planned<S: SplitAbsorb + ?Sized>(
    sketch: &mut S,
    batch: &[EdgeUpdate],
    plan: &DecodePlan,
) {
    let mut work = AbsorbWork::default();
    sketch.absorb_work(batch, plan.threads(), &mut work);
    work.run(plan.threads());
}
