//! The `serve` and `client` verbs: the resident multi-tenant service and
//! its scripting client.
//!
//! `serve` runs the [`gs_serve::Server`] daemon until killed; durability
//! comes from its periodic checkpoints plus explicit client-driven
//! `checkpoint` frames, so SIGKILL loses at most the increments since the
//! last checkpoint. `client` scripts one protocol frame per invocation —
//! the shape CI smoke tests and shell pipelines want. `client query`
//! renders answers through the same [`render_answer`] path as the
//! offline `decode` verb, so served and offline answers diff as bytes.

use crate::parse::parse_line;
use crate::{decode_plan, parse_spec_args, render_answer, usage, DEFAULT_CHUNK};
use graph_sketches::api::SketchAnswer;
use gs_serve::{Client, ClientError, ServeConfig, Server};
use gs_sketch::EdgeUpdate;
use serde::{Deserialize, Value};
use std::io::BufRead;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// How long `client ingest` keeps retrying `BUSY` backpressure before
/// giving up with a saturation error.
const INGEST_RETRY_DEADLINE: Duration = Duration::from_secs(10);

/// `graph-sketch serve --state-dir DIR (--tcp ADDR | --unix PATH)…` —
/// run the resident daemon. Prints one `serving …` line per listener
/// once they accept, then parks; stop it with a signal (durability =
/// last completed checkpoint).
pub(crate) fn cmd_serve(args: &[String]) -> ExitCode {
    let mut config = ServeConfig {
        quiet: false,
        ..ServeConfig::default()
    };
    let mut state_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = |flag: &str| {
            it.next()
                .cloned()
                .ok_or(format!("missing value for {flag}"))
        };
        let parsed: Result<(), String> = (|| {
            match arg.as_str() {
                "--state-dir" => state_dir = Some(PathBuf::from(val("--state-dir")?)),
                "--tcp" => config.tcp = Some(val("--tcp")?),
                "--unix" => config.unix = Some(PathBuf::from(val("--unix")?)),
                "--workers" => {
                    config.worker_budget = val("--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?
                }
                "--max-connections" => {
                    let n: usize = val("--max-connections")?
                        .parse()
                        .map_err(|e| format!("--max-connections: {e}"))?;
                    if n == 0 {
                        return Err("--max-connections must be at least 1".into());
                    }
                    config.max_connections = n;
                }
                "--checkpoint-secs" => {
                    let secs: f64 = val("--checkpoint-secs")?
                        .parse()
                        .map_err(|e| format!("--checkpoint-secs: {e}"))?;
                    if secs.is_nan() || secs < 0.0 {
                        return Err("--checkpoint-secs must be >= 0 (0 disables)".into());
                    }
                    config.checkpoint_every = Duration::from_secs_f64(secs);
                }
                "--retry-after-ms" => {
                    config.retry_after_ms = val("--retry-after-ms")?
                        .parse()
                        .map_err(|e| format!("--retry-after-ms: {e}"))?
                }
                "--quiet" => config.quiet = true,
                other => return Err(format!("unknown flag {other}")),
            }
            Ok(())
        })();
        if let Err(e) = parsed {
            eprintln!("error: {e}");
            return usage();
        }
    }
    let Some(state_dir) = state_dir else {
        eprintln!("error: serve needs --state-dir <dir> (the checkpoint directory)");
        return usage();
    };
    config.state_dir = state_dir;
    if config.tcp.is_none() && config.unix.is_none() {
        eprintln!("error: serve needs at least one listener (--tcp ADDR and/or --unix PATH)");
        return usage();
    }
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: starting server: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Readiness lines on stdout (flushed): scripts wait for these
    // instead of polling the socket.
    use std::io::Write;
    let mut out = std::io::stdout();
    if let Some(addr) = server.tcp_addr() {
        let _ = writeln!(out, "serving tcp {addr}");
    }
    if let Some(path) = server.unix_path() {
        let _ = writeln!(out, "serving unix {}", path.display());
    }
    let _ = out.flush();
    // Park until killed. The periodic checkpoint thread (and explicit
    // CHECKPOINT frames) provide durability; a signal here behaves like
    // the crash the recovery path is built for.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// The connection half of every `client` invocation.
fn connect(tcp: Option<&str>, unix: Option<&str>) -> Result<Client, String> {
    match (tcp, unix) {
        (Some(addr), None) => Client::connect_tcp(addr).map_err(|e| e.to_string()),
        #[cfg(unix)]
        (None, Some(path)) => {
            Client::connect_unix(std::path::Path::new(path)).map_err(|e| e.to_string())
        }
        #[cfg(not(unix))]
        (None, Some(_)) => Err("unix-socket clients need a unix platform".into()),
        (Some(_), Some(_)) => Err("--tcp and --unix are mutually exclusive".into()),
        (None, None) => Err("client needs --tcp <addr> or --unix <path>".into()),
    }
}

/// `graph-sketch client (--tcp ADDR | --unix PATH) <action> …` — one
/// protocol frame per invocation.
pub(crate) fn cmd_client(args: &[String]) -> ExitCode {
    // The connection flags may precede the action; everything after the
    // action belongs to it.
    let mut tcp: Option<String> = None;
    let mut unix: Option<String> = None;
    let mut action: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tcp" if action.is_none() => match it.next() {
                Some(v) => tcp = Some(v.clone()),
                None => {
                    eprintln!("error: missing value for --tcp");
                    return usage();
                }
            },
            "--unix" if action.is_none() => match it.next() {
                Some(v) => unix = Some(v.clone()),
                None => {
                    eprintln!("error: missing value for --unix");
                    return usage();
                }
            },
            other if action.is_none() => action = Some(other.to_string()),
            other => rest.push(other.to_string()),
        }
    }
    let Some(action) = action else {
        eprintln!(
            "error: client needs an action: ping | create | ingest | query | snapshot | \
             drop | stats | checkpoint"
        );
        return usage();
    };
    let mut client = match connect(tcp.as_deref(), unix.as_deref()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match action.as_str() {
        "ping" => client_ping(&mut client),
        "create" => client_create(&mut client, &rest),
        "ingest" => client_ingest(&mut client, &rest),
        "query" => return client_query(&mut client, &rest),
        "snapshot" => client_snapshot(&mut client, &rest),
        "drop" => client_drop(&mut client, &rest),
        "stats" => client_stats(&mut client, &rest),
        "checkpoint" => client_checkpoint(&mut client, &rest),
        other => {
            eprintln!("error: unknown client action {other:?}");
            return usage();
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(ClientUsage::Usage(e)) => {
            eprintln!("error: {e}");
            usage()
        }
        Err(ClientUsage::Failed(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A client action fails either by misuse (exit 2, with usage) or by a
/// transport/server refusal (exit 1).
enum ClientUsage {
    Usage(String),
    Failed(String),
}

impl From<ClientError> for ClientUsage {
    fn from(e: ClientError) -> Self {
        ClientUsage::Failed(e.to_string())
    }
}

/// The leading `<tenant>` operand of most actions.
fn take_tenant<'a>(
    rest: &'a [String],
    action: &str,
) -> Result<(&'a str, &'a [String]), ClientUsage> {
    match rest.first() {
        Some(t) if !t.starts_with("--") => Ok((t, &rest[1..])),
        _ => Err(ClientUsage::Usage(format!(
            "client {action} needs a leading <tenant> operand"
        ))),
    }
}

fn client_ping(client: &mut Client) -> Result<(), ClientUsage> {
    let echoed = client.ping(b"ping")?;
    if echoed != b"ping" {
        return Err(ClientUsage::Failed("ping payload came back mangled".into()));
    }
    println!("pong");
    Ok(())
}

fn client_create(client: &mut Client, rest: &[String]) -> Result<(), ClientUsage> {
    let (tenant, spec_args) = take_tenant(rest, "create")?;
    // The spec grammar is exactly the one-shot CLI's: a task command with
    // flags, or --spec '<json>'.
    let opts = parse_spec_args(spec_args).map_err(ClientUsage::Usage)?;
    client.create(tenant, &opts.spec.to_json())?;
    println!("created {tenant}");
    Ok(())
}

fn client_ingest(client: &mut Client, rest: &[String]) -> Result<(), ClientUsage> {
    let (tenant, flags) = take_tenant(rest, "ingest")?;
    let mut deltas: Vec<String> = Vec::new();
    let mut trace: Option<String> = None;
    let mut chunk = DEFAULT_CHUNK;
    let mut it = flags.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--delta" => match it.next() {
                Some(path) => deltas.push(path.clone()),
                None => return Err(ClientUsage::Usage("missing value for --delta".into())),
            },
            "--trace" => match it.next() {
                Some(path) => trace = Some(path.clone()),
                None => return Err(ClientUsage::Usage("missing value for --trace".into())),
            },
            "--chunk" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(c)) if c >= 1 => chunk = c,
                _ => return Err(ClientUsage::Usage("--chunk must be a positive int".into())),
            },
            other => return Err(ClientUsage::Usage(format!("unknown flag {other}"))),
        }
    }
    if trace.is_some() && !deltas.is_empty() {
        return Err(ClientUsage::Usage(
            "--trace and --delta are different ingest paths; use one".into(),
        ));
    }
    // Replay a gs-workloads trace file (binary or JSONL, sniffed by
    // content) as chunked retrying update batches.
    if let Some(path) = trace {
        let bytes =
            std::fs::read(&path).map_err(|e| ClientUsage::Failed(format!("{path}: {e}")))?;
        let trace = gs_workloads::Trace::from_any(&bytes)
            .map_err(|e| ClientUsage::Failed(format!("{path}: {e}")))?;
        client.ingest_chunked(tenant, &trace.updates, chunk, INGEST_RETRY_DEADLINE)?;
        eprintln!(
            "replayed {} trace update(s) from {path} into {tenant}",
            trace.updates.len()
        );
        return Ok(());
    }
    if !deltas.is_empty() {
        for path in &deltas {
            let bytes =
                std::fs::read(path).map_err(|e| ClientUsage::Failed(format!("{path}: {e}")))?;
            match client.ingest_bytes(tenant, bytes)? {
                gs_serve::client::Outcome::Ok(_) => {}
                gs_serve::client::Outcome::Busy { .. } => {
                    // Delta records fold into the checkpoint base, not the
                    // engine queues; BUSY here means the server is wedged.
                    return Err(ClientUsage::Failed(format!(
                        "{path}: server answered BUSY for a delta record"
                    )));
                }
            }
            eprintln!("ingested delta {path}");
        }
        return Ok(());
    }
    // No --delta: stream update lines from stdin in --chunk batches.
    // Endpoint range is the server's to enforce (it knows the tenant's
    // n), so lines are parsed with the range check disabled.
    let stdin = std::io::stdin();
    let mut batch: Vec<EdgeUpdate> = Vec::with_capacity(chunk);
    let mut total: u64 = 0;
    for (i, line) in stdin.lock().lines().enumerate() {
        let line = line.map_err(|e| ClientUsage::Failed(format!("reading stdin: {e}")))?;
        let Some(up) =
            parse_line(&line, i + 1, usize::MAX).map_err(|e| ClientUsage::Failed(e.to_string()))?
        else {
            continue;
        };
        batch.push(up);
        total += 1;
        if batch.len() >= chunk {
            client.ingest_retry(tenant, &batch, INGEST_RETRY_DEADLINE)?;
            batch.clear();
        }
    }
    if !batch.is_empty() {
        client.ingest_retry(tenant, &batch, INGEST_RETRY_DEADLINE)?;
    }
    eprintln!("ingested {total} update(s) into {tenant}");
    Ok(())
}

/// `client query` renders through [`render_answer`], so its stdout is
/// byte-identical to `decode` over the same sketch state — that equality
/// is the end-to-end parity check CI diffs.
fn client_query(client: &mut Client, rest: &[String]) -> ExitCode {
    let parsed = (|| -> Result<(String, u32, bool), ClientUsage> {
        let (tenant, flags) = take_tenant(rest, "query")?;
        let mut threads: u32 = 0;
        let mut json = false;
        let mut it = flags.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--json" => json = true,
                "--threads" => match it.next().map(|v| v.parse::<u32>()) {
                    Some(Ok(t)) if t >= 1 => threads = t,
                    _ => {
                        return Err(ClientUsage::Usage(
                            "--threads must be a positive int".into(),
                        ))
                    }
                },
                other => return Err(ClientUsage::Usage(format!("unknown flag {other}"))),
            }
        }
        Ok((tenant.to_string(), threads, json))
    })();
    let (tenant, threads, json) = match parsed {
        Ok(p) => p,
        Err(ClientUsage::Usage(e)) => {
            eprintln!("error: {e}");
            return usage();
        }
        Err(ClientUsage::Failed(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let threads = if threads == 0 {
        // Match the offline decode default: the machine's parallelism.
        // Answers are bit-identical at every thread count either way.
        decode_plan(None).threads() as u32
    } else {
        threads
    };
    let answer_json = match client.query(&tenant, threads) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        println!("{answer_json}");
        return ExitCode::SUCCESS;
    }
    let answer = Value::from_json(&answer_json)
        .ok()
        .as_ref()
        .and_then(|v| SketchAnswer::from_value(v).ok());
    match answer {
        Some(answer) => render_answer(&answer, None),
        None => {
            eprintln!("error: server answer is not a SketchAnswer document");
            ExitCode::FAILURE
        }
    }
}

fn client_snapshot(client: &mut Client, rest: &[String]) -> Result<(), ClientUsage> {
    let (tenant, flags) = take_tenant(rest, "snapshot")?;
    let mut out: Option<String> = None;
    let mut it = flags.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(path) => out = Some(path.clone()),
                None => return Err(ClientUsage::Usage("missing value for --out".into())),
            },
            other => return Err(ClientUsage::Usage(format!("unknown flag {other}"))),
        }
    }
    let Some(out) = out else {
        return Err(ClientUsage::Usage(
            "client snapshot needs --out <file> (the blob is binary)".into(),
        ));
    };
    let blob = client.snapshot(tenant)?;
    std::fs::write(&out, &blob).map_err(|e| ClientUsage::Failed(format!("{out}: {e}")))?;
    eprintln!("snapshot of {tenant}: {} bytes -> {out}", blob.len());
    Ok(())
}

fn client_drop(client: &mut Client, rest: &[String]) -> Result<(), ClientUsage> {
    let (tenant, flags) = take_tenant(rest, "drop")?;
    if let Some(extra) = flags.first() {
        return Err(ClientUsage::Usage(format!("unexpected operand {extra:?}")));
    }
    client.drop_tenant(tenant)?;
    println!("dropped {tenant}");
    Ok(())
}

fn client_stats(client: &mut Client, rest: &[String]) -> Result<(), ClientUsage> {
    let tenant = match rest.first() {
        Some(t) if !t.starts_with("--") => t.as_str(),
        Some(flag) => return Err(ClientUsage::Usage(format!("unknown flag {flag}"))),
        None => "",
    };
    let json = client.stats(tenant)?;
    println!("{json}");
    Ok(())
}

fn client_checkpoint(client: &mut Client, rest: &[String]) -> Result<(), ClientUsage> {
    let tenant = match rest.first() {
        Some(t) if !t.starts_with("--") => t.as_str(),
        Some(flag) => return Err(ClientUsage::Usage(format!("unknown flag {flag}"))),
        None => "",
    };
    let persisted = client.checkpoint(tenant)?;
    println!("checkpointed {persisted} tenant(s)");
    Ok(())
}
