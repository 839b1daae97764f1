//! Bank-kernel micro-benchmarks with an append-only perf trajectory.
//!
//! Measures the hot bank kernels — **absorb** (batched edge ingest),
//! **merge** (lane slice-add of one sketch into another), and **fan**
//! (broadcast one update triple across a cell row) — in two lane-width
//! configurations:
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
//! two kernel paths, four configs in all. Before anything is timed,
//! both configurations are asserted **bit-identical** on the exact
//! workload being measured — a number from a kernel that diverges from
//! the oracle is worthless.
//!
//! One more row times served ingest into one tenant: 1024-update
//! batches into the n = 4096 connectivity spec (the ladder's
//! ingest-powerlaw tenant), absorbed three ways — `absorb` on one thread,
//! `absorb_with` on two threads that split one sketch's rows, and the
//! 2-shard [`SketchEngine`] gs-serve used to run (two workers absorbing
//! two replicas; the merged shards are asserted equal to the single
//! sketch, bit for bit, before anything is timed).
//!
//! Results append one record per run to `BENCH_bank.json` (override the
//! path with `BENCH_BANK_OUT`): git sha, UTC date, per-kernel
//! nanoseconds, and GB/s where the byte count is exact. The file is a
//! JSON array and is never truncated — CI uploads it as an artifact, so
//! the perf trajectory of the storage layer is recorded per commit
//! instead of living in scrollback.
//!
//! Method: per measurement, one warm-up run, then `RUNS` timed runs; the
//! reported number is the minimum (least-noise estimator for a
//! single-threaded CPU-bound kernel).

use graph_sketches::api::{AnySketch, SketchSpec, SketchTask};
use graph_sketches::connectivity::ForestParams;
use graph_sketches::ForestSketch;
use gs_field::M61;
use gs_sketch::bank::CellBanked;
use gs_sketch::lane::{IntWidth, LaneWidth};
use gs_sketch::par::DecodePlan;
use gs_sketch::{BankGeometry, CellBank, EdgeUpdate, LinearSketch, Mergeable};
use gs_stream::engine::{EngineConfig, SketchEngine};
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

const RUNS: usize = 7;

fn churn(n: usize, len: usize) -> Vec<EdgeUpdate> {
    (0..len)
        .map(|i| {
            let u = (i * 13) % n;
            let v = (u + 1 + (i * 7) % (n - 1)) % n;
            EdgeUpdate {
                u,
                v,
                delta: if i % 5 == 0 { -1 } else { 1 },
            }
        })
        .filter(|up| up.u != up.v)
        .collect()
}

/// One lane-width configuration under measurement.
#[derive(Clone, Copy)]
struct Config {
    name: &'static str,
    narrow: bool,
}

const CONFIGS: [Config; 2] = [
    Config {
        name: "wide",
        narrow: false,
    },
    Config {
        name: "narrow",
        narrow: true,
    },
];

fn build_forest(cfg: Config, n: usize, seed: u64) -> ForestSketch {
    if cfg.narrow {
        // Unit-weight bound: what SketchSpec::build derives for this task.
        ForestSketch::with_bounds(n, ForestParams::for_n(n), seed, 1)
    } else {
        ForestSketch::new(n, seed)
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

fn git_sha() -> String {
    let sha = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let dirty = Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .is_some_and(|o| !o.stdout.is_empty());
    if dirty {
        format!("{sha}-dirty")
    } else {
        sha
    }
}

fn utc_date() -> String {
    Command::new("date")
        .args(["-u", "+%Y-%m-%dT%H:%M:%SZ"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| {
            let secs = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0);
            format!("epoch:{secs}")
        })
}

/// Appends `record` to the JSON array in `path`, creating the array if
/// the file is missing or not in trajectory format. Existing records are
/// never modified or dropped.
fn append_record(path: &str, record: &str) {
    let prior = std::fs::read_to_string(path).unwrap_or_default();
    let trimmed = prior.trim();
    let json = if trimmed.starts_with('[') && trimmed.ends_with(']') {
        let body = trimmed[1..trimmed.len() - 1].trim_end();
        if body.is_empty() {
            format!("[\n{record}\n]\n")
        } else {
            format!("[{body},\n{record}\n]\n")
        }
    } else {
        format!("[\n{record}\n]\n")
    };
    std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
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
            s.banks().iter().all(|b| b.width() == cfg_width(*cfg)),
            "{}: the sketch does not hold the configuration's lane widths",
            cfg.name
        );
    }
    let merged: Vec<ForestSketch> = CONFIGS
        .iter()
        .map(|&cfg| {
            let mut a = build_forest(cfg, n, seed);
            a.absorb(&updates[..updates.len() / 2]);
            let mut b = build_forest(cfg, n, seed);
            b.absorb(&updates[updates.len() / 2..]);
            a.merge(&b);
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
    let mut fan_banks: Vec<CellBank> = CONFIGS
        .iter()
        .map(|&cfg| CellBank::with_width(BankGeometry::new(1, 1, FAN_LEN), cfg_width(cfg)))
        .collect();

    let mut mins = [[f64::INFINITY; 2]; 3]; // [kernel][config]
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
            acc.merge(b);
            black_box(&acc);
            let merge_ns = t.elapsed().as_nanos() as f64;
            let bank = &mut fan_banks[ci];
            let t = Instant::now();
            bank.fan(0..FAN_LEN, 1, 7, M61::new(13));
            black_box(&bank);
            let fan_ns = t.elapsed().as_nanos() as f64;
            if round > 0 {
                mins[0][ci] = mins[0][ci].min(absorb_ns);
                mins[1][ci] = mins[1][ci].min(merge_ns);
                mins[2][ci] = mins[2][ci].min(fan_ns);
            }
        }
    }

    let mut kernel_json = Vec::new();
    let mut speedup = [f64::NAN; 3]; // absorb, merge, fan
    let mut baseline = [f64::NAN; 3];
    for (ki, kernel) in ["absorb", "merge", "fan"].iter().enumerate() {
        for (ci, &cfg) in CONFIGS.iter().enumerate() {
            let ns = mins[ki][ci];
            let cell_bytes = cfg_width(cfg).cell_bytes();
            let (detail, gb_per_s) = match ki {
                0 => (
                    format!(", \"ns_per_update\": {:.1}", ns / updates.len() as f64),
                    // Ingest is hash-bound, not bandwidth-bound; no
                    // honest byte count exists, so no GB/s is reported.
                    None,
                ),
                // Merge reads each cell's lanes from both operands and
                // writes them back once; fan reads and writes each cell.
                1 => (String::new(), Some(3.0 * (cells * cell_bytes) as f64 / ns)),
                _ => (
                    String::new(),
                    Some(2.0 * (FAN_LEN * cell_bytes) as f64 / ns),
                ),
            };
            if cfg.narrow {
                speedup[ki] = baseline[ki] / ns;
            } else {
                baseline[ki] = ns;
            }
            let gb = gb_per_s
                .map(|g| format!("{g:.2}"))
                .unwrap_or_else(|| "null".into());
            kernel_json.push(format!(
                "      {{ \"kernel\": \"{kernel}\", \"config\": \"{}\", \
                 \"ns\": {ns:.0}{detail}, \"gb_per_s\": {gb} }}",
                cfg.name
            ));
            println!(
                "{kernel:>6} {:>6}: {:>12.0} ns{}",
                cfg.name,
                ns,
                gb_per_s
                    .map(|g| format!("  ({g:.2} GB/s)"))
                    .unwrap_or_default()
            );
        }
    }

    let served = served_ingest_row();

    let record = format!(
        "  {{\n    \"sha\": \"{}\",\n    \"date\": \"{}\",\n    \
         \"n\": {n},\n    \"updates\": {},\n    \
         \"cells\": {cells},\n    \"kernels\": [\n{}\n    ],\n    \
         \"speedup_narrow_vs_wide\": {{ \"absorb\": {:.2}, \
         \"merge\": {:.2}, \"fan\": {:.2} }},\n    \"served_ingest\": {served}\n  }}",
        git_sha(),
        utc_date(),
        updates.len(),
        kernel_json.join(",\n"),
        speedup[0],
        speedup[1],
        speedup[2],
    );
    // cargo runs benches with the package (not workspace) root as cwd;
    // anchor the default at the workspace root so the trajectory file is
    // the committed one.
    let out = std::env::var("BENCH_BANK_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_bank.json").into());
    append_record(&out, &record);

    println!(
        "speedup narrow vs wide: absorb {:.2}x  merge {:.2}x  fan {:.2}x",
        speedup[0], speedup[1], speedup[2]
    );
    println!("appended record to {out}");
}

/// The served-ingest row (see the module docs): nanoseconds per update,
/// minimum over interleaved rounds, for a fresh tenant absorbing 16
/// batches of 1024 updates each way. The engine figure covers routing,
/// queueing and absorbing until flushed, not the later merge.
fn served_ingest_row() -> String {
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

    let mut mins = [f64::INFINITY; 3];
    for round in 0..=RUNS {
        let times = [
            time(|| black_box(single())),
            time(|| black_box(split())),
            time(|| black_box(engine())),
        ];
        if round > 0 {
            for (min, t) in mins.iter_mut().zip(times) {
                *min = min.min(t);
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
    format!(
        "{{ \"n\": {N}, \"batch\": {BATCH}, \"updates\": {}, \
         \"absorb_1_ns_per_update\": {:.1}, \"absorb_with_2_ns_per_update\": {:.1}, \
         \"engine_2_shards_ns_per_update\": {:.1} }}",
        updates.len(),
        per(mins[0]),
        per(mins[1]),
        per(mins[2])
    )
}

/// Wall-clock nanoseconds of `f`, including dropping what it returns.
fn time<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    drop(f());
    t.elapsed().as_nanos() as f64
}

/// The lane widths of a configuration: what a unit delta bound derives,
/// or the unbounded default.
fn cfg_width(cfg: Config) -> LaneWidth {
    if cfg.narrow {
        LaneWidth {
            w: IntWidth::I32,
            s: IntWidth::I64,
        }
    } else {
        LaneWidth::WIDE
    }
}
