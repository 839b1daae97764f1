//! The experiment runner: a tasks.jsonl matrix executed against exact
//! baselines.
//!
//! A tasks file is JSONL — one [`TaskRow`] per line — and each row is a
//! sweep: (task × generator × eps list × repeats). Every cell generates
//! its own seeded trace ([`crate::GeneratorSpec::with_seed`] over a
//! derived per-cell seed), replays it through a
//! [`gs_stream::engine::SketchEngine`] — or a live `gs-serve` server
//! when [`RunnerOpts::server`] is set — and scores the decoded
//! [`SketchAnswer`] against the exact in-memory algorithm on the
//! materialized final graph. The output is:
//!
//! * per-run JSONL rows ([`RunRow`]): accuracy, resident bytes, ingest
//!   and decode wall time, the served tenant's memo counters — the raw
//!   points;
//! * a frontier table ([`FrontierRow`]): per (row, eps) aggregates —
//!   the accuracy-vs-space-vs-time frontier CI uploads;
//! * guarantee violations: a row's `(eps, delta)` promise is enforced
//!   as *at most ⌊delta · runs⌋ of the runs may miss eps*, the empirical
//!   form of the paper's "within ε with probability ≥ 1 − δ".

use crate::generate::GeneratorSpec;
use crate::trace::Trace;
use graph_sketches::api::{SketchAnswer, SketchSpec, SketchTask};
use graph_sketches::frame::ServiceStats;
use gs_field::SplitMix64;
use gs_graph::subgraph::Pattern;
use gs_graph::{cuts, stoer_wagner, Graph, UnionFind};
use gs_serve::Client;
use gs_sketch::DecodePlan;
use gs_stream::engine::{EngineConfig, SketchEngine};
use serde::{Deserialize, Serialize, Value};
use std::time::{Duration, Instant};

/// The engine-seed tweak the CLI applies (`spec.seed ^ 0x517E5`), reused
/// here so offline runs shard exactly like `graph-sketch sketch` would.
const ENGINE_SEED_TWEAK: u64 = 0x517E5;

/// Sentinel error for runs that produced no usable estimate (unresolved
/// min cut, zero subgraph samples): finite so the JSONL stays valid,
/// larger than any real relative error so it always fails its gate.
pub const ERR_UNRESOLVED: f64 = 1e9;

/// One tasks.jsonl row: a (task × generator × eps × repeats) sweep cell.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskRow {
    /// The structural question.
    pub task: SketchTask,
    /// The trace recipe; its seed is re-derived per repeat.
    pub generator: GeneratorSpec,
    /// Accuracy targets to sweep (one run set per value).
    pub eps: Vec<f64>,
    /// Seeded repeats per eps value.
    pub repeats: usize,
    /// Allowed failure fraction: at most `⌊delta · repeats⌋` runs may
    /// miss eps before the row's guarantee is declared violated.
    pub delta: f64,
    /// `k` override (connectivity threshold / pattern order); `None`
    /// takes the task default.
    pub k: Option<usize>,
    /// Engine shards to ingest through.
    pub shards: usize,
    /// Ingest chunks per run: the engine path decodes at every chunk
    /// boundary, the serve path sends each chunk as one `INGEST` frame.
    pub chunks: usize,
}

impl TaskRow {
    /// Parses one tasks.jsonl object. Unknown keys are rejected — a
    /// typo'd `"repeat"` silently running the default would invalidate
    /// the sweep it was supposed to configure.
    pub fn from_value(v: &Value) -> Result<TaskRow, String> {
        let map = v.as_map().ok_or("task row must be a JSON object")?;
        for (key, _) in map {
            if !matches!(
                key.as_str(),
                "task" | "generator" | "eps" | "repeats" | "delta" | "k" | "shards" | "chunks"
            ) {
                return Err(format!("unknown task-row key {key:?}"));
            }
        }
        let task_name = v
            .get("task")
            .and_then(Value::as_str)
            .ok_or("task row needs a \"task\" command string")?;
        let task = SketchTask::from_command(task_name)
            .ok_or_else(|| format!("unknown task {task_name:?}"))?;
        let generator = GeneratorSpec::from_value(
            v.get("generator")
                .ok_or("task row needs a \"generator\" spec")?,
        )
        .map_err(|e| format!("bad generator: {e}"))?;
        generator.validate()?;
        let eps = match v.get("eps") {
            None => vec![0.5],
            Some(one) if one.as_f64().is_some() => vec![one.as_f64().expect("checked")],
            Some(many) => {
                let seq = many.as_seq().ok_or("\"eps\" must be a number or a list")?;
                let eps: Vec<f64> = seq.iter().filter_map(Value::as_f64).collect();
                if eps.len() != seq.len() || eps.is_empty() {
                    return Err("\"eps\" list must be non-empty numbers".into());
                }
                eps
            }
        };
        let get_u = |name: &str, default: u64| -> Result<u64, String> {
            match v.get(name) {
                None => Ok(default),
                Some(x) => x
                    .as_u64()
                    .ok_or_else(|| format!("{name:?} must be a non-negative integer")),
            }
        };
        let delta = match v.get("delta") {
            None => 0.0,
            Some(x) => {
                let d = x.as_f64().ok_or("\"delta\" must be a number")?;
                if !(0.0..1.0).contains(&d) {
                    return Err(format!("\"delta\" must be in [0, 1), got {d}"));
                }
                d
            }
        };
        let repeats = get_u("repeats", 3)? as usize;
        if repeats == 0 {
            return Err("\"repeats\" must be at least 1".into());
        }
        Ok(TaskRow {
            task,
            generator,
            eps,
            repeats,
            delta,
            k: v.get("k")
                .map(|x| {
                    x.as_u64()
                        .ok_or("\"k\" must be a non-negative integer")
                        .map(|k| k as usize)
                })
                .transpose()?,
            shards: get_u("shards", 2)?.max(1) as usize,
            chunks: get_u("chunks", 3)?.max(1) as usize,
        })
    }

    /// Parses a whole tasks.jsonl text: one row per line, blank lines
    /// and `#` comments skipped, errors prefixed with the line number.
    pub fn parse_tasks(text: &str) -> Result<Vec<TaskRow>, String> {
        let mut rows = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let v = Value::from_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            rows.push(TaskRow::from_value(&v).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        if rows.is_empty() {
            return Err("tasks file holds no rows".into());
        }
        Ok(rows)
    }

    /// The spec one run of this row builds (seed fills in per repeat).
    fn spec(&self, eps: f64, seed: u64) -> SketchSpec {
        let mut spec = SketchSpec::new(self.task, self.generator.n())
            .with_eps(eps)
            .with_seed(seed);
        if let Some(k) = self.k {
            spec = spec.with_k(k);
        }
        if let GeneratorSpec::WeightChurn { max_weight, .. } = self.generator {
            spec = spec.with_max_weight(max_weight);
        }
        spec
    }
}

/// Where a live server run should connect.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerTarget {
    /// TCP `host:port`.
    Tcp(String),
    /// Unix-domain socket path.
    Unix(std::path::PathBuf),
}

/// Runner knobs.
#[derive(Clone, Debug)]
pub struct RunnerOpts {
    /// Base seed: per-cell seeds derive from (base, row, eps, repeat).
    pub base_seed: u64,
    /// Replay through this live server instead of an in-process engine.
    pub server: Option<ServerTarget>,
    /// Random-cut trials for the sparsifier and witness audits.
    pub trials: usize,
    /// Decode threads per query.
    pub threads: usize,
}

impl Default for RunnerOpts {
    fn default() -> Self {
        RunnerOpts {
            base_seed: 1,
            server: None,
            trials: 120,
            threads: 2,
        }
    }
}

/// One executed run: a single (row, eps, repeat) cell.
#[derive(Clone, Debug, Serialize)]
pub struct RunRow {
    /// Index of the originating tasks.jsonl row.
    pub row: usize,
    /// Task command name.
    pub task: String,
    /// Generator name.
    pub generator: String,
    /// Vertex count.
    pub n: usize,
    /// Accuracy target of this cell.
    pub eps: f64,
    /// Repeat index within the cell.
    pub repeat: usize,
    /// The derived trace seed (reproduces the run outright).
    pub seed: u64,
    /// Stream length replayed.
    pub updates: usize,
    /// `engine` or `serve`.
    pub path: String,
    /// Resident sketch bytes at the format-frozen 32-byte cell.
    pub bytes_resident: u64,
    /// Width-aware resident lane bytes.
    pub lane_bytes_resident: u64,
    /// Wall nanoseconds spent ingesting (incl. interleaved queries).
    pub ingest_ns: u64,
    /// Wall nanoseconds of the final scored query.
    pub decode_ns: u64,
    /// The served tenant's `STATS` `decode_cache_hits`: queries its
    /// answer memo served (the serve path's re-query). 0 on the engine
    /// path, which keeps no memo.
    pub cache_hits: u64,
    /// The served tenant's `STATS` `decode_cache_invalidations`. 0 on
    /// the engine path.
    pub cache_invalidations: u64,
    /// Task-specific error measure (see `score`); 0 is exact.
    pub err: f64,
    /// Whether the run met its eps target.
    pub within: bool,
    /// Short human-readable `sketch vs exact` note.
    pub detail: String,
}

/// Per-(row, eps) aggregate: one point of the frontier table.
#[derive(Clone, Debug, Serialize)]
pub struct FrontierRow {
    /// Index of the originating tasks.jsonl row.
    pub row: usize,
    /// Task command name.
    pub task: String,
    /// Generator name.
    pub generator: String,
    /// Accuracy target.
    pub eps: f64,
    /// Runs aggregated.
    pub runs: usize,
    /// Runs that missed eps.
    pub failures: usize,
    /// `⌊delta · runs⌋`: misses the row's guarantee tolerates.
    pub allowed_failures: usize,
    /// Mean error over runs (unresolved runs count [`ERR_UNRESOLVED`]).
    pub mean_err: f64,
    /// Worst error over runs.
    pub max_err: f64,
    /// Mean width-aware resident bytes.
    pub mean_lane_bytes: f64,
    /// Mean final-query nanoseconds.
    pub mean_decode_ns: f64,
    /// `failures ≤ allowed_failures`.
    pub pass: bool,
}

/// A full experiment's output.
#[derive(Clone, Debug)]
pub struct ExperimentReport {
    /// Every executed run.
    pub rows: Vec<RunRow>,
    /// Per-(row, eps) frontier points, in row order.
    pub frontier: Vec<FrontierRow>,
    /// Human-readable guarantee violations (empty ⇔ [`Self::ok`]).
    pub violations: Vec<String>,
}

impl ExperimentReport {
    /// `true` iff every (row, eps) group honored its (eps, delta) gate.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The per-run rows as JSONL.
    pub fn runs_jsonl(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            out.push_str(&row.to_value().to_json());
            out.push('\n');
        }
        out
    }

    /// The frontier points as JSONL.
    pub fn frontier_jsonl(&self) -> String {
        let mut out = String::new();
        for row in &self.frontier {
            out.push_str(&row.to_value().to_json());
            out.push('\n');
        }
        out
    }

    /// The frontier as an aligned text table (the CI artifact humans
    /// read): accuracy vs space vs time, one line per (row, eps).
    pub fn frontier_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<18} {:<22} {:>6} {:>5} {:>9} {:>10} {:>10} {:>12} {:>12} {:>5}\n",
            "task",
            "generator",
            "eps",
            "runs",
            "miss/max",
            "mean_err",
            "max_err",
            "lane_bytes",
            "decode_us",
            "pass"
        ));
        for f in &self.frontier {
            out.push_str(&format!(
                "{:<18} {:<22} {:>6.3} {:>5} {:>9} {:>10.4} {:>10.4} {:>12.0} {:>12.1} {:>5}\n",
                f.task,
                f.generator,
                f.eps,
                f.runs,
                format!("{}/{}", f.failures, f.allowed_failures),
                f.mean_err,
                f.max_err,
                f.mean_lane_bytes,
                f.mean_decode_ns / 1e3,
                if f.pass { "ok" } else { "FAIL" }
            ));
        }
        out
    }
}

/// Executes a task matrix. Engine runs are fully in-process; with
/// [`RunnerOpts::server`] set, every run instead replays its trace
/// through a live server tenant (created and dropped per run) and the
/// space/cache numbers come from the server's `STATS` frames.
pub fn run_experiment(rows: &[TaskRow], opts: &RunnerOpts) -> Result<ExperimentReport, String> {
    let mut client = match &opts.server {
        None => None,
        Some(ServerTarget::Tcp(addr)) => {
            Some(Client::connect_tcp(addr).map_err(|e| format!("connecting to {addr}: {e}"))?)
        }
        Some(ServerTarget::Unix(path)) => {
            Some(Client::connect_unix(path).map_err(|e| format!("connecting to {path:?}: {e}"))?)
        }
    };
    let mut runs = Vec::new();
    for (ri, row) in rows.iter().enumerate() {
        for (ei, &eps) in row.eps.iter().enumerate() {
            for rep in 0..row.repeats {
                let mut srng = SplitMix64::new(
                    opts.base_seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add((ri as u64) << 40)
                        .wrapping_add((ei as u64) << 20)
                        .wrapping_add(rep as u64),
                );
                let seed = srng.next_u64();
                let trace = row.generator.with_seed(seed).generate();
                let spec = row.spec(eps, seed);
                spec.validate()
                    .map_err(|e| format!("row {ri} eps {eps}: bad spec: {e}"))?;
                let mut run = match &mut client {
                    None => run_engine(row, &spec, &trace, opts)?,
                    Some(c) => run_serve(c, ri, rep, row, &spec, &trace, opts)?,
                };
                run.row = ri;
                run.eps = eps;
                run.repeat = rep;
                run.seed = seed;
                runs.push(run);
            }
        }
    }
    let mut frontier = Vec::new();
    let mut violations = Vec::new();
    for (ri, row) in rows.iter().enumerate() {
        for &eps in &row.eps {
            let cell: Vec<&RunRow> = runs
                .iter()
                .filter(|r| r.row == ri && r.eps == eps)
                .collect();
            let failures = cell.iter().filter(|r| !r.within).count();
            let allowed = (row.delta * cell.len() as f64).floor() as usize;
            let mean = |f: &dyn Fn(&RunRow) -> f64| {
                cell.iter().map(|r| f(r)).sum::<f64>() / cell.len() as f64
            };
            let point = FrontierRow {
                row: ri,
                task: row.task.command().to_string(),
                generator: row.generator.name().to_string(),
                eps,
                runs: cell.len(),
                failures,
                allowed_failures: allowed,
                mean_err: mean(&|r| r.err),
                max_err: cell.iter().map(|r| r.err).fold(0.0, f64::max),
                mean_lane_bytes: mean(&|r| r.lane_bytes_resident as f64),
                mean_decode_ns: mean(&|r| r.decode_ns as f64),
                pass: failures <= allowed,
            };
            if !point.pass {
                violations.push(format!(
                    "row {ri} ({} over {}): eps {eps} missed by {failures}/{} runs \
                     (delta {} allows {allowed}); worst err {:.4}",
                    point.task, point.generator, point.runs, row.delta, point.max_err,
                ));
            }
            frontier.push(point);
        }
    }
    Ok(ExperimentReport {
        rows: runs,
        frontier,
        violations,
    })
}

/// One run through an in-process engine, CLI-identically configured.
fn run_engine(
    row: &TaskRow,
    spec: &SketchSpec,
    trace: &Trace,
    opts: &RunnerOpts,
) -> Result<RunRow, String> {
    let config = EngineConfig::new(row.shards).with_seed(spec.seed ^ ENGINE_SEED_TWEAK);
    let mut engine = SketchEngine::new(config, || spec.build());
    let plan = DecodePlan::with_threads(opts.threads);
    let per = trace.updates.len().div_ceil(row.chunks).max(1);
    let t0 = Instant::now();
    for chunk in trace.updates.chunks(per) {
        engine
            .try_ingest(chunk)
            .map_err(|e| format!("engine refused a trace chunk: {e}"))?;
        engine.flush();
        let _ = engine.answer(&plan);
    }
    engine.flush();
    let ingest_ns = t0.elapsed().as_nanos() as u64;
    let t1 = Instant::now();
    let answer = engine.answer(&plan);
    let decode_ns = t1.elapsed().as_nanos() as u64;
    let stats = engine.stats();
    let (err, within, detail) = score(spec, trace, &answer, opts);
    Ok(RunRow {
        row: 0,
        task: spec.task.command().to_string(),
        generator: row.generator.name().to_string(),
        n: trace.n,
        eps: spec.eps,
        repeat: 0,
        seed: spec.seed,
        updates: trace.updates.len(),
        path: "engine".to_string(),
        bytes_resident: stats.bytes_resident as u64,
        lane_bytes_resident: stats.lane_bytes_resident as u64,
        ingest_ns,
        decode_ns,
        cache_hits: 0,
        cache_invalidations: 0,
        err,
        within,
        detail,
    })
}

/// One run through a live server: tenant per run, chunked retrying
/// ingest, the answer from a `QUERY` frame, and the space/cache numbers
/// from the tenant's `STATS` share.
fn run_serve(
    client: &mut Client,
    ri: usize,
    rep: usize,
    row: &TaskRow,
    spec: &SketchSpec,
    trace: &Trace,
    opts: &RunnerOpts,
) -> Result<RunRow, String> {
    let tenant = format!("exp-r{ri}-p{rep}-e{}", (spec.eps * 1000.0).round() as u64);
    let fail = |stage: &str, e: gs_serve::ClientError| format!("{tenant}: {stage}: {e}");
    client
        .create(&tenant, &spec.to_json())
        .map_err(|e| fail("create", e))?;
    let per = trace.updates.len().div_ceil(row.chunks).max(1);
    let t0 = Instant::now();
    client
        .ingest_chunked(&tenant, &trace.updates, per, Duration::from_secs(30))
        .map_err(|e| fail("ingest", e))?;
    let ingest_ns = t0.elapsed().as_nanos() as u64;
    let t1 = Instant::now();
    let answer_json = client
        .query(&tenant, opts.threads as u32)
        .map_err(|e| fail("query", e))?;
    let decode_ns = t1.elapsed().as_nanos() as u64;
    // A second query is answered from the tenant's memo; its counters
    // come back through STATS.
    client
        .query(&tenant, opts.threads as u32)
        .map_err(|e| fail("re-query", e))?;
    let stats_json = client.stats(&tenant).map_err(|e| fail("stats", e))?;
    let stats = Value::from_json(&stats_json)
        .map_err(|e| format!("{tenant}: unparseable stats: {e}"))
        .and_then(|v| {
            ServiceStats::from_value(&v).map_err(|e| format!("{tenant}: bad stats shape: {e}"))
        })?;
    let tstats = stats
        .per_tenant
        .iter()
        .find(|t| t.name == tenant)
        .ok_or_else(|| format!("{tenant}: server stats omit the tenant"))?
        .clone();
    let answer = Value::from_json(&answer_json)
        .map_err(|e| format!("{tenant}: unparseable answer: {e}"))
        .and_then(|v| {
            SketchAnswer::from_value(&v).map_err(|e| format!("{tenant}: bad answer shape: {e}"))
        })?;
    client.drop_tenant(&tenant).map_err(|e| fail("drop", e))?;
    let (err, within, detail) = score(spec, trace, &answer, opts);
    Ok(RunRow {
        row: 0,
        task: spec.task.command().to_string(),
        generator: row.generator.name().to_string(),
        n: trace.n,
        eps: spec.eps,
        repeat: 0,
        seed: spec.seed,
        updates: trace.updates.len(),
        path: "serve".to_string(),
        bytes_resident: tstats.bytes_resident,
        lane_bytes_resident: tstats.lane_bytes_resident,
        ingest_ns,
        decode_ns,
        cache_hits: tstats.decode_cache_hits,
        cache_invalidations: tstats.decode_cache_invalidations,
        err,
        within,
        detail,
    })
}

/// Scores a decoded answer against the exact algorithm on the trace's
/// materialized final graph. Returns `(err, within, detail)`:
///
/// * exact-verdict tasks (connectivity, bipartite, k-connectivity) —
///   err is 0 on agreement, 1 on disagreement, and `within` demands
///   agreement outright (their guarantee is w.h.p. exactness);
/// * min cut — relative error of the estimate, gated at eps;
/// * sparsifiers — [`cuts::random_cut_audit`] worst multiplicative cut
///   error against the materialized (multi)graph, gated at eps;
/// * subgraphs — worst additive γ error over the decoded patterns,
///   gated at eps;
/// * MST — the `(1+ε)` window of the differential harness; err is the
///   relative overshoot;
/// * witness — fraction of random cuts where `min(k, cut)` disagrees,
///   gated at zero (Theorem 2.3 is exact on `min(cut, k)`).
fn score(
    spec: &SketchSpec,
    trace: &Trace,
    answer: &SketchAnswer,
    opts: &RunnerOpts,
) -> (f64, bool, String) {
    let g = match trace.materialize() {
        Ok(g) => g,
        Err(e) => return (1.0, false, format!("trace does not materialize: {e}")),
    };
    let audit_seed = spec.seed ^ 0xA0D1_7000;
    let verdict = |sketch: bool, exact: bool, what: &str| {
        (
            if sketch == exact { 0.0 } else { 1.0 },
            sketch == exact,
            format!("{what}: sketch {sketch}, exact {exact}"),
        )
    };
    match (spec.task, answer) {
        (
            SketchTask::Connectivity,
            SketchAnswer::Connectivity {
                components,
                connected,
                ..
            },
        ) => {
            let exact = g.components().component_count();
            (
                (*components as f64 - exact as f64).abs(),
                *components == exact && *connected == g.is_connected(),
                format!("components: sketch {components}, exact {exact}"),
            )
        }
        (SketchTask::Bipartite, SketchAnswer::Bipartite { bipartite }) => {
            verdict(*bipartite, is_bipartite(&g), "bipartite")
        }
        (SketchTask::KConnect, SketchAnswer::KConnected { k, connected }) => {
            let exact = g.is_connected() && stoer_wagner::min_cut_value(&g) >= *k as u64;
            verdict(*connected, exact, "k-connected")
        }
        (
            SketchTask::MinCut,
            SketchAnswer::MinCut {
                resolved, value, ..
            },
        ) => {
            let exact = stoer_wagner::min_cut_value(&g);
            if !resolved {
                return (ERR_UNRESOLVED, false, format!("unresolved; exact {exact}"));
            }
            let err = if exact == 0 {
                *value as f64
            } else {
                (*value as f64 - exact as f64).abs() / exact as f64
            };
            (
                err,
                err <= spec.eps,
                format!("min cut: sketch {value}, exact {exact}"),
            )
        }
        (
            SketchTask::SimpleSparsify | SketchTask::Sparsify | SketchTask::WeightedSparsify,
            SketchAnswer::Sparsifier { edges, .. },
        ) => {
            let h = Graph::from_weighted_edges(g.n(), edges.iter().copied());
            let err = cuts::random_cut_audit(&g, &h, opts.trials, audit_seed);
            (
                err,
                err <= spec.eps,
                format!("cut audit over {} trials: worst err {err:.4}", opts.trials),
            )
        }
        (
            SketchTask::Subgraphs,
            SketchAnswer::Subgraphs {
                samples, gammas, ..
            },
        ) => {
            let simple = simple_view(&g);
            let mut worst = 0.0f64;
            let mut decoded = 0usize;
            for (name, est) in gammas {
                let (Some(est), Some(pattern)) = (est, pattern_by_name(name)) else {
                    continue;
                };
                decoded += 1;
                worst = worst.max((est - gs_graph::subgraph::gamma(&simple, &pattern)).abs());
            }
            if decoded == 0 {
                return (
                    ERR_UNRESOLVED,
                    false,
                    format!("no decodable gamma ({samples} samples)"),
                );
            }
            (
                worst,
                worst <= spec.eps,
                format!("worst gamma err {worst:.4} over {decoded} patterns"),
            )
        }
        (SketchTask::Mst, SketchAnswer::Msf { total_weight, .. }) => {
            let exact = exact_msf_weight(&g);
            let approx = *total_weight as f64;
            let within =
                approx >= exact as f64 * 0.999 && approx <= (1.0 + spec.eps) * exact as f64 + 1.0;
            let err = if exact == 0 {
                approx
            } else {
                (approx / exact as f64 - 1.0).max(0.0)
            };
            (
                err,
                within,
                format!("msf weight: sketch {total_weight}, exact {exact}"),
            )
        }
        (SketchTask::KEdgeWitness, SketchAnswer::Witness { edges }) => {
            let k = spec.k as u64;
            let w = Graph::from_weighted_edges(g.n(), edges.iter().copied());
            let mut rng = SplitMix64::new(audit_seed);
            let mut bad = 0usize;
            for _ in 0..opts.trials {
                let side: Vec<bool> = (0..g.n()).map(|_| rng.next_u64() & 1 == 1).collect();
                if side.iter().all(|&b| b) || side.iter().all(|&b| !b) {
                    continue;
                }
                if g.cut_value(&side).min(k) != w.cut_value(&side).min(k) {
                    bad += 1;
                }
            }
            let err = bad as f64 / opts.trials as f64;
            (
                err,
                bad == 0,
                format!("min(cut, {k}) disagreed on {bad}/{} cuts", opts.trials),
            )
        }
        (task, other) => (
            ERR_UNRESOLVED,
            false,
            format!("task {:?} got mismatched answer {other:?}", task),
        ),
    }
}

/// The unweighted support of a (multi)graph: one edge per distinct pair.
fn simple_view(g: &Graph) -> Graph {
    let pairs: std::collections::BTreeSet<(usize, usize)> = g
        .edges()
        .iter()
        .map(|&(u, v, _)| (u.min(v), u.max(v)))
        .collect();
    Graph::from_edges(g.n(), pairs)
}

/// Exact two-coloring over the support (BFS per component).
fn is_bipartite(g: &Graph) -> bool {
    let n = g.n();
    let mut adj = vec![Vec::new(); n];
    for &(u, v, _) in g.edges() {
        adj[u].push(v);
        adj[v].push(u);
    }
    let mut color = vec![u8::MAX; n];
    for start in 0..n {
        if color[start] != u8::MAX {
            continue;
        }
        color[start] = 0;
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if color[v] == u8::MAX {
                    color[v] = 1 - color[u];
                    queue.push_back(v);
                } else if color[v] == color[u] {
                    return false;
                }
            }
        }
    }
    true
}

/// Kruskal over the materialized graph (same tie-breaks as the
/// differential harness).
fn exact_msf_weight(g: &Graph) -> u64 {
    let mut edges = g.edges().to_vec();
    edges.sort_by_key(|&(u, v, w)| (w, u, v));
    let mut uf = UnionFind::new(g.n());
    let mut total = 0;
    for (u, v, w) in edges {
        if uf.union(u, v) {
            total += w;
        }
    }
    total
}

/// The built-in pattern table, by the names `SketchAnswer::Subgraphs`
/// reports.
fn pattern_by_name(name: &str) -> Option<Pattern> {
    match name {
        "triangle" => Some(Pattern::triangle()),
        "path3" => Some(Pattern::path3()),
        "edge+isolated" => Some(Pattern::edge_plus_isolated()),
        "k4" => Some(Pattern::k4()),
        "c4" => Some(Pattern::c4()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_json(task: &str) -> String {
        format!(
            r#"{{"task":"{task}","generator":{{"PowerLawChurn":{{"n":16,"attach":2,"churn":8,"seed":1}}}},"eps":[0.5],"repeats":2}}"#
        )
    }

    #[test]
    fn tasks_jsonl_parses_with_defaults_and_rejects_typos() {
        let rows = TaskRow::parse_tasks(&format!(
            "# comment\n{}\n\n{}\n",
            row_json("connectivity"),
            row_json("mincut")
        ))
        .expect("parse");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].task, SketchTask::Connectivity);
        assert_eq!(rows[0].repeats, 2);
        assert_eq!(rows[0].delta, 0.0);
        assert_eq!(rows[0].shards, 2);
        let typo = row_json("connectivity").replace("repeats", "repeat");
        assert!(TaskRow::parse_tasks(&typo).unwrap_err().contains("repeat"));
        assert!(TaskRow::parse_tasks(r#"{"task":"nope","generator":{}}"#)
            .unwrap_err()
            .contains("nope"));
    }

    #[test]
    fn engine_runs_score_connectivity_exactly() {
        let rows = TaskRow::parse_tasks(&row_json("connectivity")).expect("parse");
        let report = run_experiment(&rows, &RunnerOpts::default()).expect("run");
        assert_eq!(report.rows.len(), 2);
        assert!(report.ok(), "violations: {:?}", report.violations);
        for run in &report.rows {
            assert!(run.within, "{:?}", run);
            assert_eq!(run.err, 0.0);
            assert!(run.updates > 0);
            assert!(run.lane_bytes_resident > 0);
        }
        assert_eq!(report.frontier.len(), 1);
        assert_eq!(report.frontier[0].runs, 2);
        assert!(report.frontier[0].pass);
        // Distinct repeats really used distinct seeds.
        assert_ne!(report.rows[0].seed, report.rows[1].seed);
        // Artifact forms render.
        assert_eq!(report.runs_jsonl().lines().count(), 2);
        assert!(report.frontier_table().contains("connectivity"));
    }

    #[test]
    fn a_failed_guarantee_is_reported_not_swallowed() {
        // delta 0 and an impossible eps floor: force failures by scoring
        // a weighted task against the wrong generator is contrived, so
        // instead check the gate arithmetic directly.
        let runs = vec![
            RunRow {
                row: 0,
                task: "mincut".into(),
                generator: "mincut-adversary".into(),
                n: 8,
                eps: 0.5,
                repeat: 0,
                seed: 1,
                updates: 10,
                path: "engine".into(),
                bytes_resident: 0,
                lane_bytes_resident: 0,
                ingest_ns: 0,
                decode_ns: 0,
                cache_hits: 0,
                cache_invalidations: 0,
                err: 2.0,
                within: false,
                detail: String::new(),
            };
            3
        ];
        let report = ExperimentReport {
            rows: runs,
            frontier: vec![],
            violations: vec!["row 0: eps 0.5 missed by 3/3 runs".into()],
        };
        assert!(!report.ok());
    }

    #[test]
    fn subgraph_and_bipartite_exact_helpers_agree_with_structure() {
        let even_cycle = gs_graph::gen::cycle(6);
        let odd_cycle = gs_graph::gen::cycle(5);
        assert!(is_bipartite(&even_cycle));
        assert!(!is_bipartite(&odd_cycle));
        let tri = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        assert_eq!(
            gs_graph::subgraph::gamma(&simple_view(&tri), &Pattern::triangle()),
            1.0
        );
    }
}
