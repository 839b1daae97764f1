//! Bank-kernel micro-benchmarks with an append-only perf trajectory.
//!
//! Measures the hot bank kernels — **absorb** (batched edge ingest),
//! **clone** (copy one sketch's lanes), **merge** (lane slice-add of one
//! sketch into another), and **fan** (broadcast one update triple across
//! a cell row) — in two lane-width configurations:
//!
//! | config   | `w` / `s` lanes | cell  |
//! |----------|-----------------|-------|
//! | `wide`   | `i64` / `i128`  | 32 B  |
//! | `narrow` | `i32` / `i64`   | 20 B  |
//!
//! `wide` is the pre-compaction baseline; `narrow` is what a unit-bound
//! spec-built sketch runs today (the widths `LaneWidth::for_bounds`
//! derives for a unit delta bound). Every kernel is one scalar loop per
//! lane width. Records before the `i32` `w` lane measured `narrow` with
//! an `i64` `w`, 24 B a cell; older records also split each width into
//! two kernel paths, four configs in all. Records before the `clone` row
//! timed the clone of the merge's target together with the merge, both
//! under `merge`. Before anything is timed, both configurations are
//! asserted **bit-identical** on the exact workload being measured — a
//! number from a kernel that diverges from the oracle is worthless.
//!
//! One more row times served ingest into one tenant: 1024-update
//! batches into the n = 4096 connectivity spec (the ladder's
//! ingest-powerlaw tenant), absorbed three ways — `absorb` on one thread,
//! `absorb_with` on two threads that split one sketch's rows, and the
//! 2-shard [`SketchEngine`] gs-serve used to run (two workers absorbing
//! two replicas; the merged shards are asserted equal to the single
//! sketch, bit for bit, before anything is timed).
//!
//! Each run appends one record to the `BENCH_bank.json` trajectory
//! through [`gs_bench::trajectory`]: git sha, UTC date, host,
//! per-kernel nanoseconds, and GB/s where the byte count is exact.
//!
//! Method: the configurations are interleaved over one untimed warm-up
//! round and `RUNS` timed rounds; the reported number is each
//! configuration's minimum (least-noise estimator for a single-threaded
//! CPU-bound kernel).

use graph_sketches::api::{AnySketch, SketchSpec, SketchTask};
use graph_sketches::connectivity::ForestParams;
use graph_sketches::ForestSketch;
use gs_bench::trajectory::{self, churn, fixed, object};
use gs_field::M61;
use gs_sketch::bank::CellBanked;
use gs_sketch::lane::{IntWidth, LaneWidth};
use gs_sketch::par::DecodePlan;
use gs_sketch::{BankGeometry, CellBank, LinearSketch, Mergeable};
use gs_stream::engine::{EngineConfig, SketchEngine};
use serde::{Serialize, Value};
use std::hint::black_box;
use std::time::Instant;

const RUNS: usize = 7;

/// The timed kernels, in record order.
const KERNELS: [&str; 4] = ["absorb", "clone", "merge", "fan"];

/// One lane-width configuration under measurement.
#[derive(Clone, Copy)]
struct Config {
    name: &'static str,
    width: LaneWidth,
}

const CONFIGS: [Config; 2] = [
    Config {
        name: "wide",
        width: LaneWidth::WIDE,
    },
    Config {
        name: "narrow",
        width: LaneWidth {
            w: IntWidth::I32,
            s: IntWidth::I64,
        },
    },
];

fn build_forest(cfg: Config, n: usize, seed: u64) -> ForestSketch {
    if cfg.width == LaneWidth::WIDE {
        ForestSketch::new(n, seed)
    } else {
        // Unit-weight bound: what SketchSpec::build derives for this task.
        ForestSketch::with_bounds(n, ForestParams::for_n(n), seed, 1)
    }
}

/// Asserts two sketches carry bit-identical measurement state, comparing
/// the integer lanes by value across widths.
fn assert_same(label: &str, a: &ForestSketch, b: &ForestSketch) {
    assert_eq!(a.banks().len(), b.banks().len(), "{label}: bank count");
    for (ba, bb) in a.banks().iter().zip(b.banks()) {
        assert_eq!(ba.w_lane(), bb.w_lane(), "{label}: w lane diverged");
        assert_eq!(
            ba.s_lane().to_wide_vec(),
            bb.s_lane().to_wide_vec(),
            "{label}: s lane diverged"
        );
        assert_eq!(ba.f_lane(), bb.f_lane(), "{label}: f lane diverged");
    }
}

fn main() {
    let n = 128;
    let updates = churn(n, 20_000);
    let seed = 0xBE7C;

    // ---- identity gauntlet: every configuration must agree bit-for-bit
    // on the exact workload about to be timed, before any clock starts.
    let absorbed: Vec<ForestSketch> = CONFIGS
        .iter()
        .map(|&cfg| {
            let mut s = build_forest(cfg, n, seed);
            s.absorb(&updates);
            s
        })
        .collect();
    for (cfg, s) in CONFIGS.iter().zip(&absorbed) {
        assert_same(&format!("absorb {}", cfg.name), &absorbed[0], s);
        assert!(
            s.banks().iter().all(|b| b.width() == cfg.width),
            "{}: the sketch does not hold the configuration's lane widths",
            cfg.name
        );
    }
    let merge_operands: Vec<(ForestSketch, ForestSketch)> = CONFIGS
        .iter()
        .map(|&cfg| {
            let mut a = build_forest(cfg, n, seed);
            a.absorb(&updates[..updates.len() / 2]);
            let mut b = build_forest(cfg, n, seed);
            b.absorb(&updates[updates.len() / 2..]);
            (a, b)
        })
        .collect();
    let merged: Vec<ForestSketch> = merge_operands
        .iter()
        .map(|(a, b)| {
            let mut a = a.clone();
            a.merge(b);
            a
        })
        .collect();
    for (cfg, s) in CONFIGS[1..].iter().zip(&merged[1..]) {
        assert_same(&format!("merge {}", cfg.name), &merged[0], s);
    }
    let cells: usize = absorbed[0].banks().iter().map(|b| b.len()).sum();

    // ---- timings. Configurations are interleaved round-robin rather
    // than measured back-to-back, so slow clock-frequency drift over the
    // run biases every configuration equally; the reported number is the
    // per-configuration minimum across rounds (least-noise estimator for
    // a single-threaded CPU-bound kernel). Round 0 is an untimed warm-up.
    const FAN_LEN: usize = 1 << 16;
    let mut fan_banks: Vec<CellBank> = CONFIGS
        .iter()
        .map(|&cfg| CellBank::with_width(BankGeometry::new(1, 1, FAN_LEN), cfg.width))
        .collect();

    let mut mins = [[f64::INFINITY; 2]; KERNELS.len()]; // [kernel][config]
    for round in 0..=RUNS {
        for (ci, &cfg) in CONFIGS.iter().enumerate() {
            let t = Instant::now();
            let mut s = build_forest(cfg, n, seed);
            s.absorb(&updates);
            black_box(&s);
            let absorb_ns = t.elapsed().as_nanos() as f64;
            let (a, b) = &merge_operands[ci];
            let t = Instant::now();
            let mut acc = a.clone();
            black_box(&acc);
            let clone_ns = t.elapsed().as_nanos() as f64;
            let t = Instant::now();
            acc.merge(b);
            black_box(&acc);
            let merge_ns = t.elapsed().as_nanos() as f64;
            let bank = &mut fan_banks[ci];
            let t = Instant::now();
            bank.fan(0..FAN_LEN, 1, 7, M61::new(13));
            black_box(&bank);
            let fan_ns = t.elapsed().as_nanos() as f64;
            if round > 0 {
                for (min, ns) in mins.iter_mut().zip([absorb_ns, clone_ns, merge_ns, fan_ns]) {
                    min[ci] = min[ci].min(ns);
                }
            }
        }
    }

    let mut kernel_rows = Vec::new();
    let mut speedup = Vec::new();
    for (kernel, mins) in KERNELS.into_iter().zip(mins) {
        for (cfg, ns) in CONFIGS.iter().zip(mins) {
            let cell_bytes = cfg.width.cell_bytes();
            let mut row = vec![
                ("kernel", kernel.to_value()),
                ("config", cfg.name.to_value()),
                ("ns", fixed(ns, 0)),
            ];
            // Ingest is hash-bound, not bandwidth-bound; no honest byte
            // count exists, so no GB/s is reported. A clone reads and
            // writes each cell's lanes once, a merge reads them from both
            // operands and writes them back once, and a fan reads and
            // writes each cell of its row.
            let gb_per_s = match kernel {
                "absorb" => {
                    row.push(("ns_per_update", fixed(ns / updates.len() as f64, 1)));
                    None
                }
                "clone" => Some(2.0 * (cells * cell_bytes) as f64 / ns),
                "merge" => Some(3.0 * (cells * cell_bytes) as f64 / ns),
                _ => Some(2.0 * (FAN_LEN * cell_bytes) as f64 / ns),
            };
            row.push(("gb_per_s", gb_per_s.map_or(Value::Null, |g| fixed(g, 2))));
            kernel_rows.push(object(row));
            println!(
                "{kernel:>6} {:>6}: {:>12.0} ns{}",
                cfg.name,
                ns,
                gb_per_s
                    .map(|g| format!("  ({g:.2} GB/s)"))
                    .unwrap_or_default()
            );
        }
        speedup.push((kernel, mins[0] / mins[1]));
    }

    let served = served_ingest_row();
    let path = trajectory::append(
        "bank",
        [
            ("n", n.to_value()),
            ("updates", updates.len().to_value()),
            ("cells", cells.to_value()),
            ("kernels", Value::Seq(kernel_rows)),
            (
                "speedup_narrow_vs_wide",
                object(speedup.iter().map(|&(k, x)| (k, fixed(x, 2)))),
            ),
            ("served_ingest", served),
        ],
    )
    .unwrap_or_else(|e| panic!("{e}"));

    println!(
        "speedup narrow vs wide: {}",
        speedup
            .iter()
            .map(|(k, x)| format!("{k} {x:.2}x"))
            .collect::<Vec<_>>()
            .join("  ")
    );
    println!("appended record to {}", path.display());
}

/// The served-ingest row (see the module docs): nanoseconds per update,
/// minimum over interleaved rounds, for a fresh tenant absorbing 16
/// batches of 1024 updates each way. The engine figure covers routing,
/// queueing and absorbing until flushed, not the later merge.
fn served_ingest_row() -> Value {
    const N: usize = 4096;
    const BATCH: usize = 1024;
    let spec = SketchSpec::new(SketchTask::Connectivity, N).with_seed(41);
    let updates = churn(N, 16 * BATCH);
    let split_plan = DecodePlan::with_threads(2);
    let single = || {
        let mut s = spec.build();
        for batch in updates.chunks(BATCH) {
            s.absorb(batch);
        }
        s
    };
    let split = || {
        let mut s = spec.build();
        for batch in updates.chunks(BATCH) {
            s.absorb_with(batch, &split_plan);
        }
        s
    };
    let engine = || {
        let config = EngineConfig::new(2).with_workers(2).with_seed(spec.seed);
        let mut engine = SketchEngine::new(config, || spec.build());
        for batch in updates.chunks(BATCH) {
            engine.ingest(batch);
        }
        engine.flush();
        engine
    };

    // ---- identity gate, one sketch alive beside the reference at a time.
    let reference = single();
    let other = split();
    assert!(other == reference, "absorb_with(2) lanes diverged");
    let dirty = |s: &AnySketch| -> Vec<Vec<u64>> {
        s.banks().iter().map(|b| b.dirty_words().to_vec()).collect()
    };
    assert_eq!(
        dirty(&other),
        dirty(&reference),
        "absorb_with(2) dirty words"
    );
    assert_eq!(
        other.fingerprints(),
        reference.fingerprints(),
        "absorb_with(2) fingerprints"
    );
    drop(other);
    assert!(
        engine().seal() == reference,
        "merged engine shards diverged"
    );
    drop(reference);

    // Each path's time includes dropping what it built.
    let paths: [&dyn Fn(); 3] = [
        &|| drop(black_box(single())),
        &|| drop(black_box(split())),
        &|| drop(black_box(engine())),
    ];
    let mut mins = [f64::INFINITY; 3];
    for round in 0..=RUNS {
        for (min, path) in mins.iter_mut().zip(paths) {
            let t = Instant::now();
            path();
            let ns = t.elapsed().as_nanos() as f64;
            if round > 0 {
                *min = min.min(ns);
            }
        }
    }
    let per = |ns: f64| ns / updates.len() as f64;
    println!(
        "served ingest n={N}, {BATCH}-update batches: absorb {:.0} ns/update, \
         absorb_with(2) {:.0}, 2-shard engine {:.0}",
        per(mins[0]),
        per(mins[1]),
        per(mins[2])
    );
    object([
        ("n", N.to_value()),
        ("batch", BATCH.to_value()),
        ("updates", updates.len().to_value()),
        ("absorb_1_ns_per_update", fixed(per(mins[0]), 1)),
        ("absorb_with_2_ns_per_update", fixed(per(mins[1]), 1)),
        ("engine_2_shards_ns_per_update", fixed(per(mins[2]), 1)),
    ])
}
