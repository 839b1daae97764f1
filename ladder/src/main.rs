//! `gs-ladder`: the serving ladder benchmark.
//!
//! ```text
//! gs-ladder [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!           [--out DIR] [--append FILE] [--scale full|smoke]
//! gs-ladder --summarize FILE
//! ```
//!
//! Each workload runs against a `gs-serve` server in a child process
//! (this binary re-executed with `--serve-child`), checks every served
//! answer against an offline decode, and prints one JSON object per
//! workload as the last line(s) of stdout: the end-to-end metrics, or
//! with `--trace 1` the per-layer metrics of the outside-in replay (spans
//! go to `DIR/trace.jsonl`). Human-readable tables go to stderr. The exit
//! code is non-zero when any answer is wrong or any operation failed.
//! See LADDER.md.

mod child;
mod parity;
mod replay;
mod served;
mod stats;
mod summary;
mod trajectory;
mod workloads;

use child::ServerProc;
use graph_sketches::frame::ServiceStats;
use gs_serve::Client;
use serde::{Deserialize, Value};
use served::{Kind, OpRec, Phase, Served};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Prepared, Scale, Workload};

/// The end-to-end metrics, printed with `--trace 0`: the ones that repeat
/// within a tenth between runs (LADDER.md).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("server_peak_rss_mb", "MiB"),
    ("resident_lane_mb", "MiB"),
];

/// The per-layer metrics, printed with `--trace 1`. The first eight are
/// end-to-end measurements that do not repeat within a tenth, taken from
/// the untraced half of the traced run.
const PER_LAYER: &[(&str, &str)] = &[
    ("ingest_updates_per_s", "1/s"),
    ("ingest_ack_p50_ms", "ms"),
    ("ingest_ack_p90_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("fresh_query_p50_ms", "ms"),
    ("fresh_query_p90_ms", "ms"),
    ("checkpoint_p50_ms", "ms"),
    ("field.hash_ns_per_update", "ns"),
    ("field.hash_calls_per_update", "count"),
    ("sketch.fan_ns_per_update", "ns"),
    ("sketch.fan_cells_per_update", "count"),
    ("sketch.clone_ms", "ms"),
    ("sketch.merge_ms", "ms"),
    ("sketch.cache_hit_ratio", "ratio"),
    ("sketch.cache_groups_reused_ratio", "ratio"),
    ("core.absorb_ns_per_update", "ns"),
    ("core.absorb_glue_ns_per_update", "ns"),
    ("core.decode_fresh_ms", "ms"),
    ("core.decode_cached_miss_ms", "ms"),
    ("core.answer_json_ms", "ms"),
    ("core.wire.delta_apply_ms", "ms"),
    ("core.wire.delta_encode_ms", "ms"),
    ("core.wire.delta_bytes_per_update", "B"),
    ("core.wire.v2_encode_ms", "ms"),
    ("core.wire.v2_mb", "MiB"),
    ("core.frame.encode_ns_per_update", "ns"),
    ("core.frame.decode_ns_per_update", "ns"),
    ("core.frame.bytes_per_update", "B"),
    ("stream.offer_ns_per_batch", "ns"),
    ("stream.ingest_blocked_ms", "ms"),
    ("stream.flush_ms", "ms"),
    ("stream.snapshot_ms", "ms"),
    ("stream.drain_ms", "ms"),
    ("serve.busy_ratio", "ratio"),
    ("serve.busy_wait_share", "ratio"),
    ("serve.query_hit_rtt_ms", "ms"),
    ("serve.checkpoint_io_ms", "ms"),
    ("serve.ingest_remainder_share", "ratio"),
    ("serve.query_remainder_ms", "ms"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// Cold starts per run; `setup_s` is their median.
const COLD_STARTS: usize = 3;

struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    append: Option<String>,
    scale: Scale,
    corrupt_reference: bool,
}

fn usage() -> String {
    "usage: gs-ladder [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] \
     [--out DIR] [--append FILE] [--scale full|smoke]\n       gs-ladder --summarize FILE"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        out: PathBuf::from(".ladder_run"),
        append: None,
        scale: Scale::Full,
        corrupt_reference: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--corrupt-reference" {
            // Test hook: a wrong offline reference must fail the run.
            o.corrupt_reference = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                o.workloads = match value.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::from_name(name).ok_or_else(|| bad("unknown workload"))?],
                }
            }
            "--seed" => o.seed = value.parse().map_err(|_| bad("not an integer"))?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(o.seconds > 0.0 && o.seconds <= 60.0) {
                    return Err(bad("must be in (0, 60]"));
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => o.out = PathBuf::from(value),
            "--append" => o.append = Some(value.clone()),
            "--scale" => {
                o.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(bad("full or smoke")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--serve-child") {
        return match (args.get(1), args.get(2)) {
            (Some(sock), Some(state)) => match child::serve(Path::new(sock), Path::new(state)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("gs-ladder server: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => ExitCode::FAILURE,
        };
    }
    if args.first().map(String::as_str) == Some("--summarize") {
        return match args.get(1).map(|path| summary::summarize(path)) {
            Some(Ok(table)) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Some(Err(e)) => {
                eprintln!("gs-ladder: {e}");
                ExitCode::FAILURE
            }
            None => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("gs-ladder: creating {}: {e}", opts.out.display());
        return ExitCode::FAILURE;
    }
    if opts.trace {
        // One trace file per invocation.
        let _ = std::fs::remove_file(opts.out.join("trace.jsonl"));
    }
    let mut ok = true;
    for &w in &opts.workloads {
        match run_workload(w, &opts) {
            Ok(result) => {
                ok &= result.correct && result.failed == 0;
                println!("{}", result.json());
            }
            Err(e) => {
                eprintln!("gs-ladder: {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload's outcome.
struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    /// The metrics the JSON line carries, `(name, unit)`.
    list: &'static [(&'static str, &'static str)],
    /// Every candidate measured, including those the JSON line omits.
    all: BTreeMap<&'static str, f64>,
}

impl RunResult {
    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, unit)) in self.list.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = self.all.get(name).copied().unwrap_or(f64::NAN);
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// A JSON number; non-finite values (no samples) print as 0.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn run_workload(w: Workload, o: &Opts) -> Result<RunResult, String> {
    let work = o.out.join(format!("{}-{}", w.name(), std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let result = run_in(w, o, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(w: Workload, o: &Opts, work: &Path) -> Result<RunResult, String> {
    let t = Instant::now();
    let p = w.prepare(o.seed, o.scale, o.seconds);
    eprintln!(
        "== {} seed {} : inputs {:016x} ({} updates, prepared in {:.2}s)",
        w.name(),
        o.seed,
        p.digest,
        p.tenants.iter().map(|t| t.updates.len()).sum::<usize>(),
        t.elapsed().as_secs_f64()
    );
    let result = if o.trace {
        traced(&p, o, work)?
    } else {
        untraced(&p, o, work)?
    };
    let report = report_json(&p, o, &result);
    std::fs::write(o.out.join(format!("{}.report.json", w.name())), &report)
        .map_err(|e| format!("writing the report: {e}"))?;
    if let Some(path) = &o.append {
        trajectory::append_record(path, &report)
            .map_err(|e| format!("appending to {path}: {e}"))?;
    }
    Ok(result)
}

/// Spawns the server and creates every tenant; returns the time from
/// spawn to the last `CREATE` answered.
fn cold_start(p: &Prepared, work: &Path) -> Result<(ServerProc, Client, f64), String> {
    let t = Instant::now();
    let mut server = ServerProc::spawn(work)?;
    let mut client = server.connect()?;
    for tenant in &p.tenants {
        client
            .create(tenant.name, &tenant.spec.to_json())
            .map_err(|e| format!("CREATE {}: {e}", tenant.name))?;
    }
    Ok((server, client, t.elapsed().as_secs_f64()))
}

/// What one served run against a fresh server yields.
struct ServedRun {
    served: Served,
    setup_s: f64,
    peak_rss_mib: f64,
    stats: ServiceStats,
    hit_rtt_ms: Vec<f64>,
    parity: parity::Parity,
}

fn serve_once(
    p: &Prepared,
    o: &Opts,
    work: &Path,
    cold_starts: usize,
    seconds: f64,
    traced: bool,
) -> Result<ServedRun, String> {
    let mut setups = Vec::new();
    let mut started = None;
    for i in 0..cold_starts {
        let (server, client, secs) = cold_start(p, work)?;
        setups.push(secs);
        if i + 1 == cold_starts {
            started = Some((server, client));
        } else {
            drop(client);
            server.stop()?;
        }
    }
    let (mut server, client) = started.ok_or("no cold start")?;
    let mut clients = vec![client];
    if p.workload == Workload::TenantMix {
        clients.push(server.connect()?);
    }
    let (mut served, mut client) = served::run(p, clients, seconds, traced)?;
    let stats = fetch_stats(&mut client)?;
    let hit_rtt_ms = if traced {
        probe_hits(p, &mut client)?
    } else {
        Vec::new()
    };
    let peak_rss_mib = server.peak_rss_mib()?;
    drop(client);
    server.stop()?;
    let parity = parity::check(p, &mut served.log, o.corrupt_reference);
    Ok(ServedRun {
        served,
        setup_s: stats::median(&setups).unwrap_or(f64::NAN),
        peak_rss_mib,
        stats,
        hit_rtt_ms,
        parity,
    })
}

fn fetch_stats(client: &mut Client) -> Result<ServiceStats, String> {
    let text = client.stats("").map_err(|e| format!("STATS: {e}"))?;
    Value::from_json(&text)
        .and_then(|v| ServiceStats::from_value(&v))
        .map_err(|e| format!("STATS payload: {e}"))
}

/// Cache-hit round trips: per tenant one query to arm the cache, then
/// ten that hit it.
fn probe_hits(p: &Prepared, client: &mut Client) -> Result<Vec<f64>, String> {
    let mut rtts = Vec::new();
    for t in &p.tenants {
        client
            .query(t.name, 0)
            .map_err(|e| format!("probe QUERY: {e}"))?;
        for _ in 0..10 {
            let start = Instant::now();
            client
                .query(t.name, 0)
                .map_err(|e| format!("probe QUERY: {e}"))?;
            rtts.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok(rtts)
}

/// Ops of `kind` in the measured phase that succeeded.
fn measured(log: &[OpRec], kind: Kind) -> impl Iterator<Item = &OpRec> {
    log.iter()
        .filter(move |op| op.kind == kind && op.phase == Phase::Measure && op.error.is_none())
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Every end-to-end candidate of one served run, by name; the table on
/// stderr shows them all, the JSON carries [`END_TO_END`].
fn end_to_end(run: &ServedRun) -> BTreeMap<&'static str, f64> {
    let log = &run.served.log;
    let pct = |xs: &[f64], p: f64| stats::percentile(xs, p).unwrap_or(f64::NAN);
    let acks: Vec<f64> = measured(log, Kind::Ingest)
        .map(|op| ms(op.latency_ns()))
        .collect();
    let updates: usize = measured(log, Kind::Ingest).map(|op| op.updates).sum();
    let queries: Vec<&OpRec> = measured(log, Kind::Query).collect();
    let fresh: Vec<&OpRec> = queries.iter().copied().filter(|op| op.fresh).collect();
    let checkpoints: Vec<f64> = measured(log, Kind::Checkpoint)
        .map(|op| ms(op.latency_ns()))
        .collect();
    let lane: u64 = run
        .stats
        .per_tenant
        .iter()
        .map(|t| t.lane_bytes_resident)
        .sum();
    BTreeMap::from([
        ("setup_s", run.setup_s),
        (
            "ingest_updates_per_s",
            updates as f64 / (run.served.ingest_wall_ns as f64 / 1e9),
        ),
        ("ingest_ack_p50_ms", pct(&acks, 50.0)),
        ("ingest_ack_p90_ms", pct(&acks, 90.0)),
        ("query_p50_ms", per_tenant(&queries, 50.0)),
        ("query_p90_ms", per_tenant(&queries, 90.0)),
        ("fresh_query_p50_ms", per_tenant(&fresh, 50.0)),
        ("fresh_query_p90_ms", per_tenant(&fresh, 90.0)),
        ("checkpoint_p50_ms", pct(&checkpoints, 50.0)),
        ("server_peak_rss_mb", run.peak_rss_mib),
        ("resident_lane_mb", lane as f64 / (1u64 << 20) as f64),
    ])
}

/// A query-latency percentile taken per tenant, then averaged over the
/// tenants queried. Tenants of different tasks answer at very different
/// speeds; one percentile over their mixture would jump between their
/// modes from run to run, while this moves only when a tenant's own
/// latency does. With one tenant it is the plain percentile.
fn per_tenant(queries: &[&OpRec], p: f64) -> f64 {
    let mut by: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for op in queries {
        by.entry(op.tenant.unwrap_or(usize::MAX))
            .or_default()
            .push(ms(op.latency_ns()));
    }
    let per: Vec<f64> = by
        .values()
        .filter_map(|xs| stats::percentile(xs, p))
        .collect();
    per.iter().sum::<f64>() / per.len() as f64
}

/// Sample counts behind the end-to-end percentiles, for the table.
fn sample_counts(log: &[OpRec]) -> String {
    let n = |kind| measured(log, kind).count();
    let fresh = measured(log, Kind::Query).filter(|op| op.fresh).count();
    let tail = |k: usize| stats::supported_percentile(k).map_or("none".into(), |p| format!("p{p}"));
    format!(
        "samples: {} ingests (tail {}), {} queries ({} fresh, tail {}), {} checkpoints",
        n(Kind::Ingest),
        tail(n(Kind::Ingest)),
        n(Kind::Query),
        fresh,
        tail(fresh),
        n(Kind::Checkpoint)
    )
}

/// Operations attempted and failed (server refusals, saturation, and
/// answers that failed the parity check).
fn tally(runs: &[&ServedRun]) -> (usize, usize) {
    let mut attempted = 0;
    let mut failed = 0;
    for run in runs {
        for op in run.served.log.iter().filter(|op| op.phase != Phase::Warmup) {
            attempted += 1;
            failed += op.error.is_some() as usize;
        }
    }
    (attempted, failed)
}

fn print_table(title: &str, all: &BTreeMap<&'static str, f64>) {
    eprintln!("-- {title}");
    for (name, value) in all {
        eprintln!("   {name:<36} {value:>14.4}");
    }
}

/// Per tenant: fresh-query medians (from due time and from sending) and
/// what its ingests cost.
fn print_tenants(p: &Prepared, log: &[OpRec]) {
    for (ti, t) in p.tenants.iter().enumerate() {
        let fresh: Vec<&OpRec> = measured(log, Kind::Query)
            .filter(|op| op.fresh && op.tenant == Some(ti))
            .collect();
        let due: Vec<f64> = fresh.iter().map(|op| ms(op.latency_ns())).collect();
        let service: Vec<f64> = fresh.iter().map(|op| ms(op.done_ns - op.sent_ns)).collect();
        let ingests: Vec<&OpRec> = measured(log, Kind::Ingest)
            .filter(|op| op.tenant == Some(ti))
            .collect();
        let busy: u32 = ingests.iter().map(|op| op.busy).sum();
        let ingest_ms: f64 = ingests.iter().map(|op| ms(op.done_ns - op.sent_ns)).sum();
        eprintln!(
            "   tenant {:<8} fresh queries {:>4}: p50 {:>9.3} ms from due, {:>9.3} ms send to answer; \
             {} ingests, {busy} BUSY, {ingest_ms:.0} ms acking",
            t.name,
            fresh.len(),
            stats::median(&due).unwrap_or(f64::NAN),
            stats::median(&service).unwrap_or(f64::NAN),
            ingests.len(),
        );
    }
}

fn untraced(p: &Prepared, o: &Opts, work: &Path) -> Result<RunResult, String> {
    let run = serve_once(p, o, work, COLD_STARTS, o.seconds, false)?;
    let all = end_to_end(&run);
    print_table("end to end", &all);
    eprintln!("   {}", sample_counts(&run.served.log));
    print_tenants(p, &run.served.log);
    let (attempted, failed) = tally(&[&run]);
    eprintln!(
        "   parity: {} answers checked, {} mismatched; {failed} of {attempted} ops failed",
        run.parity.checked, run.parity.mismatched
    );
    let missing = END_TO_END.iter().any(|(name, _)| !all[name].is_finite());
    Ok(RunResult {
        correct: run.parity.mismatched == 0 && run.parity.checked > 0 && !missing,
        attempted,
        failed,
        list: END_TO_END,
        all,
    })
}

/// Mean request time (send to answer) over measured operations.
fn mean_request_ms(log: &[OpRec]) -> f64 {
    let xs: Vec<f64> = log
        .iter()
        .filter(|op| op.phase == Phase::Measure && op.error.is_none())
        .map(|op| ms(op.done_ns - op.sent_ns))
        .collect();
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

fn traced(p: &Prepared, o: &Opts, work: &Path) -> Result<RunResult, String> {
    // The same traffic twice on fresh servers, recorder off then on, half
    // the run each so a traced run costs about what an untraced one
    // does: the difference is what recording costs the served path.
    let plain = serve_once(p, o, work, 1, o.seconds / 2.0, false)?;
    let run = serve_once(p, o, work, 1, o.seconds / 2.0, true)?;
    let scratch = work.join("replay");
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("creating {}: {e}", scratch.display()))?;
    let t = Instant::now();
    let trace = replay::replay(p, &run.served.log, &scratch);
    eprintln!(
        "   replayed {} spans in {:.2}s",
        trace.spans.len(),
        t.elapsed().as_secs_f64()
    );
    let acct = account(&trace.spans);
    let mut all = per_layer(&run, &trace, &acct);
    all.extend(end_to_end(&plain));
    all.insert(
        "bench.trace_overhead_pct",
        (mean_request_ms(&run.served.log) / mean_request_ms(&plain.served.log) - 1.0) * 100.0,
    );
    print_table("per layer", &all);
    print_accounting(&acct);
    write_trace(&o.out.join("trace.jsonl"), p.workload, &trace.spans, &acct)?;
    let (attempted, failed) = tally(&[&plain, &run]);
    let checked = plain.parity.checked + run.parity.checked;
    let mismatched = plain.parity.mismatched + run.parity.mismatched;
    eprintln!(
        "   parity: {checked} answers checked, {mismatched} mismatched, {} replay mismatches; \
         {failed} of {attempted} ops failed",
        trace.replay_mismatches
    );
    Ok(RunResult {
        correct: mismatched == 0 && checked > 0 && trace.replay_mismatches == 0,
        attempted,
        failed,
        list: PER_LAYER,
        all,
    })
}

/// Layer accounting over the replayed operations.
struct Accounting {
    /// Σ of the replayed served spans' durations.
    e2e_ns: u64,
    /// Self time by span name, sync spans under replayed roots only; the
    /// served spans' self time is the remainder.
    self_ns: BTreeMap<&'static str, i64>,
    remainder_ns: i64,
    /// Per root kind: (Σ duration, Σ self, roots).
    by_kind: BTreeMap<&'static str, (u64, i64, usize)>,
}

fn account(spans: &[replay::Span]) -> Accounting {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.sync) {
        if let Some(parent) = s.parent {
            *child_ns.entry(parent).or_default() += s.dur();
        }
    }
    let replayed: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.sync)
        .map(|s| s.id)
        .collect();
    let mut acct = Accounting {
        e2e_ns: 0,
        self_ns: BTreeMap::new(),
        remainder_ns: 0,
        by_kind: BTreeMap::new(),
    };
    for s in spans.iter().filter(|s| s.sync && replayed.contains(&s.op)) {
        let own = s.dur() as i64 - child_ns.get(&s.id).copied().unwrap_or(0) as i64;
        if s.parent.is_none() {
            acct.e2e_ns += s.dur();
            acct.remainder_ns += own;
            let k = acct.by_kind.entry(s.name).or_default();
            k.0 += s.dur();
            k.1 += own;
            k.2 += 1;
        } else {
            *acct.self_ns.entry(s.name).or_default() += own;
        }
    }
    acct
}

fn print_accounting(a: &Accounting) {
    eprintln!("-- layer self times over replayed ops (sum + remainder = end to end)");
    for (name, ns) in &a.self_ns {
        eprintln!("   {name:<36} {:>12.3} ms", *ns as f64 / 1e6);
    }
    eprintln!(
        "   {:<36} {:>12.3} ms",
        "remainder",
        a.remainder_ns as f64 / 1e6
    );
    eprintln!("   {:<36} {:>12.3} ms", "end to end", a.e2e_ns as f64 / 1e6);
}

fn per_layer(run: &ServedRun, t: &replay::Trace, a: &Accounting) -> BTreeMap<&'static str, f64> {
    let sum = |name: &str| t.samples.get(name).map_or(0.0, |xs| xs.iter().sum::<f64>());
    let med_ms = |name: &str| {
        t.samples
            .get(name)
            .and_then(|xs| stats::median(xs))
            .map_or(f64::NAN, |ns| ns / 1e6)
    };
    let count = |name: &str| t.counts.get(name).copied().unwrap_or(0.0);
    let per = |x: f64, by: &str| x / count(by);
    let log = &run.served.log;
    let ingests: Vec<&OpRec> = measured(log, Kind::Ingest).collect();
    let attempts: u64 = ingests.iter().map(|op| op.busy as u64 + 1).sum();
    let busy: u64 = ingests.iter().map(|op| op.busy as u64).sum();
    let ingest_ns: u64 = ingests.iter().map(|op| op.done_ns - op.sent_ns).sum();
    let wait_ns: u64 = ingests.iter().map(|op| op.busy_wait_ns).sum();
    let queries = log.iter().filter(|op| op.kind == Kind::Query).count();
    let hits: u64 = run
        .stats
        .per_tenant
        .iter()
        .map(|t| t.decode_cache_hits)
        .sum();
    let late: Vec<f64> = log
        .iter()
        .filter(|op| op.phase == Phase::Measure)
        .map(|op| ms(op.sent_ns.saturating_sub(op.due_ns)))
        .collect();
    let (hash, fan, absorb) = (sum("field.hash"), sum("sketch.fan"), sum("core.absorb"));
    let groups = count("cache.groups_reused") + count("cache.groups_recomputed");
    let kind = |k: &str| a.by_kind.get(k).copied().unwrap_or((0, 0, 0));
    let (ingest_e2e, ingest_self, _) = kind(Kind::Ingest.name());
    let (_, query_self, query_roots) = kind(Kind::Query.name());
    BTreeMap::from([
        ("field.hash_ns_per_update", per(hash, "absorb.updates")),
        (
            "field.hash_calls_per_update",
            count("hash.calls_per_update"),
        ),
        ("sketch.fan_ns_per_update", per(fan, "absorb.updates")),
        (
            "sketch.fan_cells_per_update",
            per(count("fan.cells"), "absorb.updates"),
        ),
        ("sketch.clone_ms", med_ms("sketch.clone")),
        ("sketch.merge_ms", med_ms("sketch.merge")),
        (
            "sketch.cache_hit_ratio",
            hits as f64 / queries.max(1) as f64,
        ),
        (
            "sketch.cache_groups_reused_ratio",
            if groups > 0.0 {
                count("cache.groups_reused") / groups
            } else {
                0.0
            },
        ),
        ("core.absorb_ns_per_update", per(absorb, "absorb.updates")),
        (
            "core.absorb_glue_ns_per_update",
            per(absorb - hash - fan, "absorb.updates"),
        ),
        ("core.decode_fresh_ms", med_ms("core.decode_fresh")),
        ("core.decode_cached_miss_ms", med_ms("core.decode_cached")),
        ("core.answer_json_ms", med_ms("core.answer_json")),
        ("core.wire.delta_apply_ms", med_ms("core.wire.delta_apply")),
        (
            "core.wire.delta_encode_ms",
            med_ms("core.wire.delta_encode"),
        ),
        (
            "core.wire.delta_bytes_per_update",
            per(count("delta.bytes"), "delta.updates"),
        ),
        ("core.wire.v2_encode_ms", med_ms("core.wire.v2_encode")),
        (
            "core.wire.v2_mb",
            per(count("v2.bytes"), "v2.encodes") / (1u64 << 20) as f64,
        ),
        (
            "core.frame.encode_ns_per_update",
            per(sum("core.frame.encode"), "frame.updates"),
        ),
        (
            "core.frame.decode_ns_per_update",
            per(sum("core.frame.decode"), "frame.updates"),
        ),
        (
            "core.frame.bytes_per_update",
            per(count("frame.bytes"), "frame.updates"),
        ),
        ("stream.offer_ns_per_batch", med_ms("stream.offer") * 1e6),
        (
            "stream.ingest_blocked_ms",
            sum("stream.ingest_blocked")
                / 1e6
                / t.samples
                    .get("stream.ingest_blocked")
                    .map_or(1, |x| x.len().max(1)) as f64,
        ),
        ("stream.flush_ms", med_ms("stream.flush")),
        ("stream.snapshot_ms", med_ms("stream.snapshot")),
        ("stream.drain_ms", med_ms("stream.drain")),
        ("serve.busy_ratio", busy as f64 / attempts.max(1) as f64),
        (
            "serve.busy_wait_share",
            wait_ns as f64 / ingest_ns.max(1) as f64,
        ),
        (
            "serve.query_hit_rtt_ms",
            stats::median(&run.hit_rtt_ms).unwrap_or(f64::NAN),
        ),
        ("serve.checkpoint_io_ms", med_ms("serve.checkpoint_io")),
        (
            "serve.ingest_remainder_share",
            ingest_self as f64 / ingest_e2e.max(1) as f64,
        ),
        (
            "serve.query_remainder_ms",
            query_self as f64 / 1e6 / query_roots.max(1) as f64,
        ),
        (
            "bench.gen_late_p99_ms",
            stats::percentile(&late, 99.0).unwrap_or(f64::NAN),
        ),
    ])
}

/// Appends the workload's spans and its accounting summary to the
/// trace file.
fn write_trace(
    path: &Path,
    w: Workload,
    spans: &[replay::Span],
    a: &Accounting,
) -> Result<(), String> {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"workload\": \"{}\", \"op\": {}, \"span\": {}, \"parent\": {parent}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}, \"sync\": {}, \"clock\": \"{}\"}}",
            w.name(),
            s.op,
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            s.sync,
            s.clock
        );
    }
    let selfs: Vec<String> = a
        .self_ns
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let _ = writeln!(
        out,
        "{{\"workload\": \"{}\", \"summary\": {{\"e2e_ns\": {}, \"remainder_ns\": {}, \"self_ns\": {{{}}}}}}}",
        w.name(),
        a.e2e_ns,
        a.remainder_ns,
        selfs.join(", ")
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(out.as_bytes()))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The run's record: what the JSON line says plus the input digest, the
/// seed and the host (`--append` trajectories and `DIR/*.report.json`).
fn report_json(p: &Prepared, o: &Opts, r: &RunResult) -> String {
    let (nproc, cpu) = trajectory::host();
    format!(
        "{{\"sha\": \"{}\", \"date\": \"{}\", \"host\": {{\"nproc\": {nproc}, \"cpu\": {:?}}}, \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"inputs\": \"{:016x}\", \
         \"result\": {}, \"all\": {{{}}}}}",
        trajectory::git_sha(),
        trajectory::utc_date(),
        cpu,
        p.workload.name(),
        o.seed,
        o.seconds,
        o.trace,
        p.digest,
        r.json(),
        r.all
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
            .collect::<Vec<_>>()
            .join(", ")
    )
}
