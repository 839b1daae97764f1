//! Micro-benchmarks of the paper's artifacts and the unified API, one
//! module each: ℓ0 sampling (Thm 2.1, `l0`), k-RECOVERY (Thm 2.2,
//! `sparse_recovery`), spanning forests and k-EDGECONNECT (Thm 2.3,
//! `kedge`), MINCUT (Fig. 1, `mincut`), the Fig. 2/3 sparsifiers
//! (`sparsify`), weighted sparsification (§3.5, `weighted`), subgraph
//! sketches (§4, `subgraphs`), spanners (§5, `spanner`), the DESIGN.md §4
//! ablations (`ablation`) and the `AnySketch` ingest, engine and
//! delta-sync paths (`api`).
//!
//! Every row is timed by [`time_ns`] (one warm-up call, then the minimum
//! of three runs, calls under 100 µs batched) and printed under its label
//! `group/function/parameter`. The run appends one record, each row's
//! label and nanoseconds per call, to the `BENCH_micro.json` trajectory.

mod ablation;
mod api;
mod kedge;
mod l0;
mod mincut;
mod spanner;
mod sparse_recovery;
mod sparsify;
mod subgraphs;
mod weighted;

use gs_bench::trajectory::{self, fixed, object, time_ns};
use serde::{Serialize, Value};

/// The rows of one run, in the order they were timed.
struct Rows(Vec<(String, f64)>);

impl Rows {
    /// Times `f` and records it as the row `label`.
    fn time<T>(&mut self, label: String, f: impl FnMut() -> T) {
        let ns = time_ns(f);
        let per_call = if ns >= 1e6 {
            format!("{:>12.3} ms/iter", ns / 1e6)
        } else if ns >= 1e3 {
            format!("{:>12.3} us/iter", ns / 1e3)
        } else {
            format!("{ns:>12.1} ns/iter")
        };
        println!("{label:<48} {per_call}");
        self.0.push((label, ns));
    }
}

fn main() {
    let mut rows = Rows(Vec::new());
    l0::run(&mut rows);
    sparse_recovery::run(&mut rows);
    kedge::run(&mut rows);
    mincut::run(&mut rows);
    sparsify::run(&mut rows);
    weighted::run(&mut rows);
    subgraphs::run(&mut rows);
    spanner::run(&mut rows);
    ablation::run(&mut rows);
    api::run(&mut rows);

    let record: Vec<Value> = rows
        .0
        .iter()
        .map(|(label, ns)| object([("label", label.to_value()), ("ns", fixed(*ns, 1))]))
        .collect();
    let path = trajectory::append("micro", [("rows", Value::Seq(record))])
        .unwrap_or_else(|e| panic!("{e}"));
    println!("appended record to {}", path.display());
}
