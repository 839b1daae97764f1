//! Smoke test of the ladder: every workload at `--scale smoke` against
//! the self-spawned server. Checks the parity gate, that every metric
//! `BENCHMARK.json` names is printed with its unit, that the trace
//! accounts for the end-to-end time, that a wrong offline reference
//! fails the run, and that inputs are a function of the seed.
//!
//! Run with `cargo test --release --manifest-path ladder/Cargo.toml`.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = [
    "ingest-powerlaw",
    "query-window",
    "delta-sync-mst",
    "tenant-mix",
];

fn out_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("ladder-smoke-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ladder(args: &[&str], out: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gs-ladder"))
        .args(["--scale", "smoke", "--seconds", "2", "--out"])
        .arg(out)
        .args(args)
        .output()
        .expect("gs-ladder runs")
}

fn json(text: &str) -> Value {
    Value::from_json(text).unwrap_or_else(|e| panic!("not JSON ({e}): {text}"))
}

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no key {key:?}")),
        other => panic!("{key:?} looked up in a non-object {other:?}"),
    }
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

fn num_of(v: &Value) -> f64 {
    match v {
        Value::Float(x) => *x,
        Value::Int(x) => *x as f64,
        Value::UInt(x) => *x as f64,
        other => panic!("not a number: {other:?}"),
    }
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bench = json(&std::fs::read_to_string(path).expect("BENCHMARK.json"));
    match get(&bench, list) {
        Value::Seq(items) => items
            .iter()
            .map(|m| {
                (
                    str_of(get(m, "name")).to_string(),
                    str_of(get(m, "unit")).to_string(),
                )
            })
            .collect(),
        other => panic!("{list} is not a list: {other:?}"),
    }
}

/// Checks one run's JSON lines: one per workload, correct, nothing
/// failed, and every declared metric present with its unit.
fn check_lines(out: &Output, metrics: &[(String, String)]) {
    assert!(
        out.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout.clone()).expect("utf-8 stdout");
    let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(lines.len(), WORKLOADS.len(), "one JSON line per workload");
    for line in lines {
        let v = json(line);
        assert!(matches!(get(&v, "correct"), Value::Bool(true)), "{line}");
        assert_eq!(num_of(get(&v, "failed")), 0.0, "{line}");
        assert!(num_of(get(&v, "attempted")) >= 1.0, "{line}");
        let m = get(&v, "metrics");
        for (name, unit) in metrics {
            let metric = get(m, name);
            assert_eq!(str_of(get(metric, "unit")), unit, "{name}");
            assert!(num_of(get(metric, "value")).is_finite(), "{name}");
        }
    }
}

#[test]
fn every_workload_passes_parity_and_prints_its_metrics() {
    let out = out_dir("e2e");
    check_lines(
        &ladder(&["--workload", "all"], &out),
        &declared("end_to_end"),
    );
}

#[test]
fn trace_run_prints_layers_and_accounts_for_end_to_end_time() {
    let out = out_dir("trace");
    check_lines(
        &ladder(&["--workload", "all", "--trace", "1"], &out),
        &declared("per_layer"),
    );
    let trace = std::fs::read_to_string(out.join("trace.jsonl")).expect("trace.jsonl written");
    let mut summaries = 0;
    for line in trace.lines() {
        let v = json(line);
        if let Value::Map(fields) = &v {
            if fields.iter().any(|(k, _)| k == "summary") {
                let s = get(&v, "summary");
                let selfs: f64 = match get(s, "self_ns") {
                    Value::Map(layers) => layers.iter().map(|(_, ns)| num_of(ns)).sum(),
                    other => panic!("self_ns: {other:?}"),
                };
                let total = selfs + num_of(get(s, "remainder_ns"));
                assert_eq!(
                    total,
                    num_of(get(s, "e2e_ns")),
                    "layers + remainder = end to end"
                );
                summaries += 1;
                continue;
            }
        }
        for key in ["op", "span", "start_ns", "end_ns"] {
            num_of(get(&v, key));
        }
        str_of(get(&v, "name"));
        get(&v, "parent");
    }
    assert_eq!(summaries, WORKLOADS.len());
}

#[test]
fn a_wrong_offline_reference_fails_the_run() {
    let out = out_dir("corrupt");
    let run = ladder(&["--workload", "query-window", "--corrupt-reference"], &out);
    assert!(!run.status.success(), "a parity failure must exit non-zero");
    let stdout = String::from_utf8_lossy(&run.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(matches!(get(&json(last), "correct"), Value::Bool(false)));
}

#[test]
fn inputs_follow_the_seed() {
    let digest = |seed: &str, tag: &str| {
        let out = out_dir(tag);
        let run = ladder(&["--workload", "delta-sync-mst", "--seed", seed], &out);
        assert!(run.status.success());
        let report =
            std::fs::read_to_string(out.join("delta-sync-mst.report.json")).expect("report");
        str_of(get(&json(&report), "inputs")).to_string()
    };
    let a = digest("5", "seed-a");
    assert_eq!(a, digest("5", "seed-b"));
    assert_ne!(a, digest("6", "seed-c"));
}
