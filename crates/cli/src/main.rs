//! `graph-sketch` — sketch a dynamic graph stream from stdin and answer a
//! structural query, without ever materializing the graph.
//!
//! ```text
//! graph-sketch <command> --n <vertices> [options] < updates.txt
//! graph-sketch --spec '<json>' [options] < updates.txt
//! graph-sketch sketch     (<command> --n <v> | --spec '<json>') [--out FILE] [--format bin|delta] < updates.txt
//! graph-sketch merge      <sketch-file>... [--out FILE]
//! graph-sketch decode     <sketch-file> [--json] [--threads N]
//! graph-sketch sync       --state FILE <delta-file>...
//! graph-sketch serve      --state-dir DIR (--tcp ADDR | --unix PATH) [options]
//! graph-sketch client     (--tcp ADDR | --unix PATH) <action> ...
//! graph-sketch workload   gen --generator '<json>' [--seed <int>] [--out FILE] [--format bin|jsonl|text]
//! graph-sketch experiment run --tasks FILE [--out DIR] [--seed <int>] [--tcp ADDR | --unix PATH] [--check]
//! graph-sketch analyze    [--root DIR]
//!
//! commands:
//!   connectivity          components + spanning forest size
//!   bipartite             bipartiteness test (double cover)
//!   mincut                (1+eps)-approximate minimum cut        [--eps]
//!   simple-sparsify       eps-cut-sparsifier (Fig. 2)            [--eps]
//!   sparsify              eps-cut-sparsifier (Fig. 3)            [--eps]
//!   weighted-sparsify     weighted-stream sparsifier (S3.5)      [--eps --max-weight]
//!   triangles             gamma for order-3 patterns             [--eps]
//!   mst                   (1+eps)-approx minimum spanning forest [--eps --max-weight]
//!   kconnected            k-edge-connectivity test               [--k]
//!   kedge                 k-EDGECONNECT witness subgraph         [--k]
//!
//! verbs (the cross-process coordinator topology of S1.1):
//!   sketch                ingest stdin, write a binary sketch file
//!                         (--format delta writes the incremental record
//!                         instead: only the cells this stream touched)
//!   merge                 fold sketch files from independent processes
//!   decode                answer the query from a sketch file
//!   sync                  coordinator: apply worker delta records to a
//!                         resident state file (created from the first
//!                         delta's spec if absent); workers re-sketch only
//!                         their round's updates instead of re-shipping
//!                         whole sketches
//!   serve                 the production path: a resident multi-tenant
//!                         daemon (TCP / Unix socket, length-prefixed
//!                         binary frames) that keeps named sketches hot,
//!                         ingests deltas and update batches as they
//!                         arrive, answers queries in place, and
//!                         checkpoints dirty tenants for crash recovery
//!   client                script one protocol frame against a running
//!                         server: ping | create | ingest | query |
//!                         snapshot | drop | stats | checkpoint
//!   workload              generate one seeded adversarial trace (binary,
//!                         JSONL, or the stream form above) from the
//!                         gs-workloads generator catalogue
//!   experiment            run a tasks.jsonl matrix of (task x generator x
//!                         eps x repeats) against exact baselines and emit
//!                         accuracy-vs-space-vs-time frontier tables;
//!                         --check turns (eps, delta) guarantees into a gate
//!   analyze               lint every .rs file under --root (default .)
//!                         for the workspace invariants — panic-free
//!                         parser zones, SAFETY comments, capped
//!                         allocations and the GS_* env registry;
//!                         exits 1 on any violation (the blocking CI
//!                         job)
//!
//! options:
//!   --sites <int>   shard the resident engine <int> ways (worker threads
//!                   are capped at the machine's parallelism); linearity
//!                   makes the answer identical to --sites 1
//!   --chunk <int>   stdin ingest chunk size in updates (memory is
//!                   O(chunk), not O(stream))
//!   --stats         report updates/sec and engine counters on stderr
//!   --out <file>    sketch/merge: write the sketch file here (default stdout)
//!   --format <f>    sketch: output format, `bin` (the default: a sketch
//!                   file, the length-prefixed LE binary of the cell banks)
//!                   or `delta` (binary record of only the touched cells).
//!                   merge and sync always write sketch files
//!   --state <file>  sync: the coordinator's resident sketch file
//!   --threads <int> decode fan-out: how many threads the DecodeEngine
//!                   may use (queries and the decode verb; default =
//!                   available parallelism).
//!                   Answers are bit-identical at every thread count
//!   --json          emit the answer as one JSON object
//!   --seed <int>    master sketch seed
//!
//! stream format: one update per line: `+ u v [w]` or `- u v [w]`.
//! ```
//!
//! Every command is parsed into a [`SketchSpec`] and executed through
//! [`AnySketch`] — the CLI contains no per-algorithm plumbing. Streams are
//! ingested in fixed-size chunks through a sharded
//! [`gs_stream::engine::SketchEngine`], so resident memory scales with the
//! sketch and the chunk, never with the stream.

#![forbid(unsafe_code)]

mod parse;
mod serve_cmd;
mod workload_cmd;

use graph_sketches::api::{AnySketch, SketchAnswer, SketchSpec, SketchTask};
use graph_sketches::wire::{SketchDelta, SketchFile};
use gs_sketch::par::DecodePlan;
use gs_sketch::{EdgeUpdate, LinearSketch};
use gs_stream::engine::{EngineConfig, EngineStats, SketchEngine};
use parse::parse_line;
use serde::{Serialize, Value};
use std::io::{BufRead, Write};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Default stdin ingest chunk, in updates.
const DEFAULT_CHUNK: usize = 8192;

/// What `sketch --format` writes.
#[derive(Clone, Copy, Default)]
enum FileFormat {
    /// A sketch file: length-prefixed little-endian binary (the default).
    #[default]
    Bin,
    /// The incremental delta record: only the touched cells (a delta is a
    /// summand for `sync`, not a sketch file).
    Delta,
}

impl FileFormat {
    fn parse(text: &str) -> Result<Self, String> {
        match text {
            "bin" => Ok(FileFormat::Bin),
            "delta" => Ok(FileFormat::Delta),
            other => Err(format!("--format must be bin or delta, got {other:?}")),
        }
    }
}

/// The refusal of `--format` on every verb but `sketch`.
const FORMAT_ONLY_ON_SKETCH: &str = "--format only applies to the sketch verb (merge and sync \
                                     always write sketch files; delta records come from \
                                     sketch --format delta)";

struct Options {
    spec: SketchSpec,
    sites: usize,
    json: bool,
    stats: bool,
    chunk: usize,
    out: Option<String>,
    format: Option<FileFormat>,
    threads: Option<usize>,
}

/// The decode plan a `--threads` flag selects: the machine's available
/// parallelism unless the user pinned a count. Answers are bit-identical
/// at every thread count, so the default is the fast one.
fn decode_plan(threads: Option<usize>) -> DecodePlan {
    match threads {
        Some(t) => DecodePlan::with_threads(t),
        None => DecodePlan::auto(),
    }
}

fn usage() -> ExitCode {
    let commands: Vec<&str> = SketchTask::ALL.iter().map(|t| t.command()).collect();
    eprintln!(
        "usage: graph-sketch <{commands}> --n <vertices> \
         [--eps <f>] [--k <int>] [--max-weight <int>] [--seed <int>] \
         [--sites <int>] [--chunk <int>] [--threads <int>] [--stats] [--json] < stream\n\
         \x20      graph-sketch --spec '<json>' [options] < stream\n\
         \x20      graph-sketch sketch (<command> --n <v> | --spec '<json>') [--out FILE] [--format bin|delta] < stream\n\
         \x20      graph-sketch merge <sketch-file>... [--out FILE]\n\
         \x20      graph-sketch decode <sketch-file> [--json] [--threads <int>]\n\
         \x20      graph-sketch sync --state FILE <delta-file>...\n\
         \x20      graph-sketch serve --state-dir DIR (--tcp ADDR | --unix PATH) [--workers <int>] [--checkpoint-secs <f>] [--max-connections <int>] [--quiet]\n\
         \x20      graph-sketch client (--tcp ADDR | --unix PATH) (ping | create <tenant> <spec> | ingest <tenant> [--delta FILE]... [--trace FILE] | query <tenant> [--threads <int>] [--json] | snapshot <tenant> --out FILE | drop <tenant> | stats [tenant] | checkpoint [tenant])",
        commands = commands.join("|")
    );
    ExitCode::from(2)
}

/// Parses the spec-shaped argument form shared by queries and `sketch`:
/// an optional leading task command, then flags.
fn parse_spec_args(args: &[String]) -> Result<Options, String> {
    let mut args = args.iter().cloned().peekable();
    let command = match args.peek() {
        Some(first) if !first.starts_with("--") => {
            let command = args.next().expect("peeked");
            let task = SketchTask::from_command(&command)
                .ok_or_else(|| format!("unknown command {command:?}"))?;
            Some(task)
        }
        _ => None,
    };
    // Flags are collected first and applied after the base spec is known,
    // so their position relative to --spec does not matter.
    let mut spec_json: Option<String> = None;
    let mut n: Option<usize> = None;
    let mut eps: Option<f64> = None;
    let mut k: Option<usize> = None;
    let mut max_weight: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut sites = 1usize;
    let mut json = false;
    let mut stats = false;
    let mut chunk = DEFAULT_CHUNK;
    let mut out: Option<String> = None;
    let mut format: Option<FileFormat> = None;
    let mut threads: Option<usize> = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--json" => {
                json = true;
                continue;
            }
            "--stats" => {
                stats = true;
                continue;
            }
            _ => {}
        }
        let mut val = || args.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--spec" => spec_json = Some(val()?),
            "--n" => n = Some(val()?.parse().map_err(|e| format!("--n: {e}"))?),
            "--eps" => eps = Some(val()?.parse().map_err(|e| format!("--eps: {e}"))?),
            "--k" => k = Some(val()?.parse().map_err(|e| format!("--k: {e}"))?),
            "--max-weight" => {
                max_weight = Some(val()?.parse().map_err(|e| format!("--max-weight: {e}"))?)
            }
            "--seed" => seed = Some(val()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--sites" => sites = val()?.parse().map_err(|e| format!("--sites: {e}"))?,
            "--chunk" => chunk = val()?.parse().map_err(|e| format!("--chunk: {e}"))?,
            "--out" => out = Some(val()?),
            "--format" => format = Some(FileFormat::parse(&val()?)?),
            "--threads" => threads = Some(val()?.parse().map_err(|e| format!("--threads: {e}"))?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let mut spec = match (command, spec_json) {
        (Some(_), Some(_)) => {
            return Err("a command and --spec cannot be combined; use one or the other".into())
        }
        (None, None) => return Err("missing command or --spec".into()),
        (Some(task), None) => {
            let n = n.ok_or("missing required --n <vertices>")?;
            SketchSpec::new(task, n)
        }
        (None, Some(text)) => {
            let mut spec = SketchSpec::from_json(&text).map_err(|e| format!("--spec: {e}"))?;
            if let Some(n) = n {
                spec.n = n;
            }
            spec
        }
    };
    if let Some(eps) = eps {
        spec = spec.with_eps(eps);
    }
    if let Some(k) = k {
        spec = spec.with_k(k);
    }
    if let Some(w) = max_weight {
        spec = spec.with_max_weight(w);
    }
    if let Some(seed) = seed {
        spec = spec.with_seed(seed);
    }
    if spec.n < 2 {
        return Err("--n must be at least 2".into());
    }
    // The full typed validation: degenerate spec fields (k = 0, eps out
    // of range, zero max weight, …) are refused here with the offending
    // field named, instead of panicking inside a sketch constructor once
    // the engine builds its shards.
    spec.validate().map_err(|e| e.to_string())?;
    if sites < 1 {
        return Err("--sites must be at least 1".into());
    }
    if chunk < 1 {
        return Err("--chunk must be at least 1".into());
    }
    if threads == Some(0) {
        return Err("--threads must be at least 1".into());
    }
    Ok(Options {
        spec,
        sites,
        json,
        stats,
        chunk,
        out,
        format,
        threads,
    })
}

struct IngestReport {
    updates: u64,
    elapsed_secs: f64,
    stats: EngineStats,
}

impl IngestReport {
    fn print(&self) {
        let rate = if self.elapsed_secs > 0.0 {
            self.updates as f64 / self.elapsed_secs
        } else {
            0.0
        };
        eprintln!(
            "stats: {} updates in {:.3}s ({:.0} updates/s) via {} shard(s) on {} worker \
             thread(s); {} batches enqueued; {} sketch bytes resident ({} lane bytes)",
            self.updates,
            self.elapsed_secs,
            rate,
            self.stats.shards,
            self.stats.workers,
            self.stats.batches_enqueued,
            self.stats.bytes_resident,
            self.stats.lane_bytes_resident,
        );
        if self.stats.lane_overflows > 0 {
            eprintln!(
                "warning: {} shard(s) report lane overflow; answers from this sketch \
                 must not be trusted",
                self.stats.lane_overflows
            );
        }
    }
}

/// Streams stdin through a sharded engine in `--chunk`-sized batches —
/// resident memory is O(chunk + sketch), never O(stream).
fn ingest_stdin(opts: &Options) -> Result<(AnySketch, IngestReport), String> {
    let spec = opts.spec;
    let mut engine = SketchEngine::new(
        EngineConfig::new(opts.sites).with_seed(spec.seed ^ 0x517E5),
        || spec.build(),
    );
    let start = Instant::now();
    let stdin = std::io::stdin();
    let mut chunk: Vec<EdgeUpdate> = Vec::with_capacity(opts.chunk);
    let mut total: u64 = 0;
    for (i, line) in stdin.lock().lines().enumerate() {
        let line = line.map_err(|e| format!("reading stdin: {e}"))?;
        let Some(parsed) = parse_line(&line, i + 1, spec.n).map_err(|e| e.to_string())? else {
            continue;
        };
        let up = EdgeUpdate {
            u: parsed.u,
            v: parsed.v,
            // Value-carrying convention: a weighted line `+ u v w` carries
            // delta = +-w, read as multiplicity by unit sketches and as
            // the edge weight by mst / weighted-sparsify.
            delta: parsed.delta * parsed.w as i64,
        };
        spec.check_update(&up)
            .map_err(|msg| format!("line {}: {msg}", i + 1))?;
        chunk.push(up);
        total += 1;
        if chunk.len() >= opts.chunk {
            // Parse-time checks make this infallible in practice; the
            // typed path is defense in depth (a refused batch names the
            // offending update instead of killing a shard worker).
            engine.try_ingest(&chunk).map_err(|e| e.to_string())?;
            chunk.clear();
        }
    }
    if !chunk.is_empty() {
        engine.try_ingest(&chunk).map_err(|e| e.to_string())?;
    }
    engine.flush();
    let stats = engine.stats();
    let sketch = engine.seal();
    Ok((
        sketch,
        IngestReport {
            updates: total,
            elapsed_secs: start.elapsed().as_secs_f64(),
            stats,
        },
    ))
}

/// Writes a sketch file in the selected `--format` to `--out` or stdout
/// (raw binary — pipe or redirect it). Emitting a delta drains the
/// carried sketch, which is why the file is `&mut`.
fn emit_file(
    out: &Option<String>,
    format: FileFormat,
    file: &mut SketchFile,
) -> Result<(), String> {
    // Poisoned state refuses to encode, before anything is written or
    // drained: an error naming the bank and cell, not a panic.
    file.check_exportable().map_err(|e| e.to_string())?;
    let bytes = match format {
        FileFormat::Bin => file.to_bytes(),
        FileFormat::Delta => file.delta_bytes(),
    };
    match out {
        Some(path) => std::fs::write(path, bytes).map_err(|e| format!("{path}: {e}")),
        None => std::io::stdout()
            .write_all(&bytes)
            .map_err(|e| format!("stdout: {e}")),
    }
}

/// Reads and parses a sketch file (a JSON file of the retired wire
/// format 1 is refused with a typed error).
fn load_sketch_file(path: &str) -> Result<SketchFile, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    SketchFile::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))
}

/// Renders a decoded answer exactly like the original one-shot CLI:
/// human lines on stdout (stderr + exit 1 for an unresolved min cut), or
/// one JSON object with `--json`.
fn render_answer(answer: &SketchAnswer, json_body: Option<Value>) -> ExitCode {
    let unresolved = matches!(
        answer,
        SketchAnswer::MinCut {
            resolved: false,
            ..
        }
    );
    if let Some(body) = json_body {
        println!("{}", body.to_json());
    } else if unresolved {
        // Diagnostics go to stderr; stdout stays empty on failure so
        // scripts can keep treating stdout as data.
        for line in answer.render_lines() {
            eprintln!("{line}");
        }
    } else {
        for line in answer.render_lines() {
            println!("{line}");
        }
    }
    if unresolved {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `graph-sketch <command> … < stream` — ingest and answer in one process.
fn cmd_query(args: &[String]) -> ExitCode {
    let opts = match parse_spec_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    // Refuse flags that would be silently ignored here.
    if opts.out.is_some() {
        eprintln!("error: --out only applies to the sketch and merge verbs");
        return usage();
    }
    if opts.format.is_some() {
        eprintln!("error: {FORMAT_ONLY_ON_SKETCH}");
        return usage();
    }
    let (sketch, report) = match ingest_stdin(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "ingested {} updates over {} vertices across {} shard(s)",
        report.updates, opts.spec.n, opts.sites
    );
    if opts.stats {
        report.print();
    }
    let answer = sketch.decode_with(&decode_plan(opts.threads));
    let json_body = opts.json.then(|| {
        Value::Map(vec![
            ("spec".into(), opts.spec.to_value()),
            ("sites".into(), Value::UInt(opts.sites as u64)),
            ("updates".into(), Value::UInt(report.updates)),
            ("answer".into(), answer.to_value()),
        ])
    });
    render_answer(&answer, json_body)
}

/// `graph-sketch sketch … < stream` — ingest stdin, emit a sketch file.
fn cmd_sketch(args: &[String]) -> ExitCode {
    let opts = match parse_spec_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    // Refuse flags that would be silently ignored here.
    if opts.json {
        eprintln!("error: --json does not apply to sketch (use --format for the file format)");
        return usage();
    }
    if opts.threads.is_some() {
        eprintln!("error: --threads only applies to decoding verbs (sketch never decodes)");
        return usage();
    }
    let (sketch, report) = match ingest_stdin(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.stats {
        report.print();
    }
    let mut file = match SketchFile::new(opts.spec, sketch) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = emit_file(&opts.out, opts.format.unwrap_or_default(), &mut file) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "sketched {} updates into a {} sketch ({} bytes resident)",
        report.updates,
        opts.spec.task.command(),
        report.stats.bytes_resident
    );
    ExitCode::SUCCESS
}

/// `graph-sketch merge <file>… [--out FILE]` — fold independently-built
/// sketch files, refusing incompatible specs with a per-file error.
fn cmd_merge(args: &[String]) -> ExitCode {
    let mut files: Vec<String> = Vec::new();
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(path) => out = Some(path.clone()),
                None => {
                    eprintln!("error: missing value for --out");
                    return usage();
                }
            },
            "--format" => {
                eprintln!("error: {FORMAT_ONLY_ON_SKETCH}");
                return usage();
            }
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown flag {flag}");
                return usage();
            }
            path => files.push(path.to_string()),
        }
    }
    if files.is_empty() {
        eprintln!("error: merge needs at least one sketch file");
        return usage();
    }
    let mut acc: Option<SketchFile> = None;
    for path in &files {
        let file = match load_sketch_file(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        match &mut acc {
            None => acc = Some(file),
            Some(merged) => {
                if let Err(e) = merged.try_merge(&file) {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let mut merged = acc.expect("at least one file");
    eprintln!("merged {} sketch file(s)", files.len());
    if let Err(e) = emit_file(&out, FileFormat::Bin, &mut merged) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `graph-sketch sync --state FILE <delta-file>…` — the coordinator side
/// of the incremental topology: apply worker delta records to a resident
/// sketch state. The state file is created from the first delta's spec if
/// it does not exist yet; afterwards it always holds the full sketch of
/// everything every worker has drained so far (`decode` answers from it
/// at any point). Deltas are sums, so the application order is
/// irrelevant; an incompatible or corrupt delta is refused with a typed
/// error and the state file is left untouched (the new state lands via
/// write-then-rename, never an in-place truncation).
///
/// One coordinator per state file: `sync` is the serialization point of
/// the topology — N workers emit deltas concurrently, one `sync`
/// invocation at a time folds them in. Two racing invocations over the
/// same `--state` cannot corrupt the file, but the later rename wins and
/// the earlier invocation's deltas would need re-applying.
fn cmd_sync(args: &[String]) -> ExitCode {
    let mut state: Option<String> = None;
    let mut deltas: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--state" => match it.next() {
                Some(path) => state = Some(path.clone()),
                None => {
                    eprintln!("error: missing value for --state");
                    return usage();
                }
            },
            "--format" => {
                eprintln!("error: {FORMAT_ONLY_ON_SKETCH}");
                return usage();
            }
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown flag {flag}");
                return usage();
            }
            path => deltas.push(path.to_string()),
        }
    }
    let Some(state_path) = state else {
        eprintln!("error: sync needs --state <file> (the coordinator's resident sketch)");
        return usage();
    };
    if deltas.is_empty() {
        eprintln!("error: sync needs at least one delta record to apply");
        return usage();
    }
    // Parse every delta up front: a bad record in the middle must not
    // leave the state half-synced.
    let mut parsed = Vec::with_capacity(deltas.len());
    for path in &deltas {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match SketchDelta::from_bytes(&bytes) {
            Ok(d) => parsed.push(d),
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut file = if std::path::Path::new(&state_path).exists() {
        match load_sketch_file(&state_path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        // Bootstrap: the first delta carries the full spec, which is all a
        // coordinator needs to build its empty receiving sketch. The spec
        // is untrusted input — empty_file contains the build, so a record
        // describing an unconstructible sketch is an error, not a panic.
        match parsed[0].empty_file() {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: {}: {e}", deltas[0]);
                return ExitCode::FAILURE;
            }
        }
    };
    let mut cells = 0usize;
    for (path, delta) in deltas.iter().zip(&parsed) {
        if let Err(e) = file.apply_delta_parsed(delta) {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
        cells += delta.touched_cells();
    }
    // Replace the state atomically and durably (stream to a staging
    // file, fsync, rename, fsync the directory): the accumulated rounds
    // are unrecoverable — the workers drained when they emitted them — so
    // a crashed or out-of-space write must not truncate the old state in
    // place, and a power loss must not keep the rename but lose the data.
    // The staging name is per-process so racing syncs cannot corrupt
    // each other's half-written file; last-rename-wins between whole
    // invocations is still the caller's to serialize (see the verb docs:
    // one coordinator per state file).
    if let Err(e) = file.write_durably(Path::new(&state_path)) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "synced {} delta record(s) ({cells} touched cells) into {state_path}",
        deltas.len()
    );
    ExitCode::SUCCESS
}

/// `graph-sketch decode <file> [--json]` — answer the query from a sketch
/// file, exactly as if the stream had been ingested here.
fn cmd_decode(args: &[String]) -> ExitCode {
    let mut path: Option<String> = None;
    let mut json = false;
    let mut threads: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--threads" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(t)) if t >= 1 => threads = Some(t),
                Some(Ok(_)) => {
                    eprintln!("error: --threads must be at least 1");
                    return usage();
                }
                Some(Err(e)) => {
                    eprintln!("error: --threads: {e}");
                    return usage();
                }
                None => {
                    eprintln!("error: missing value for --threads");
                    return usage();
                }
            },
            "--format" => {
                eprintln!("error: {FORMAT_ONLY_ON_SKETCH}");
                return usage();
            }
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown flag {flag}");
                return usage();
            }
            p if path.is_none() => path = Some(p.to_string()),
            extra => {
                eprintln!("error: decode takes one sketch file, got extra {extra:?}");
                return usage();
            }
        }
    }
    let Some(path) = path else {
        eprintln!("error: decode needs a sketch file");
        return usage();
    };
    let file = match load_sketch_file(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let answer = file.decode_with(&decode_plan(threads));
    let json_body = json.then(|| {
        Value::Map(vec![
            ("spec".into(), file.spec.to_value()),
            ("answer".into(), answer.to_value()),
        ])
    });
    render_answer(&answer, json_body)
}

/// `graph-sketch analyze [--root DIR]` — the workspace invariant linter
/// as a CLI verb. Defaults to the current directory (run it from the
/// workspace root, as the CI job does).
fn cmd_analyze(args: &[String]) -> ExitCode {
    let mut root = std::path::PathBuf::from(".");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = std::path::PathBuf::from(dir),
                None => {
                    eprintln!("analyze: --root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("analyze: unknown argument {other:?} (only --root <dir> is accepted)");
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::from(gs_analyze::run_cli(&root))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("sketch") => cmd_sketch(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("decode") => cmd_decode(&args[1..]),
        Some("sync") => cmd_sync(&args[1..]),
        Some("serve") => serve_cmd::cmd_serve(&args[1..]),
        Some("client") => serve_cmd::cmd_client(&args[1..]),
        Some("workload") => workload_cmd::cmd_workload(&args[1..]),
        Some("experiment") => workload_cmd::cmd_experiment(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        _ => cmd_query(&args),
    }
}
