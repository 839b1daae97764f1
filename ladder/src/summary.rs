//! `--summarize FILE`: medians and quartiles of a trajectory file, per
//! workload, commit and metric — the comparison step after alternating
//! runs of two commits with `--append FILE`.

use crate::stats;
use serde::Value;
use std::collections::BTreeMap;

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn text(v: Option<&Value>) -> Option<&str> {
    match v? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Float(x) => Some(*x),
        Value::Int(x) => Some(*x as f64),
        Value::UInt(x) => Some(*x as f64),
        _ => None,
    }
}

/// Renders the summary table of the trajectory at `path`.
pub fn summarize(path: &str) -> Result<String, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let records = match Value::from_json(&raw).map_err(|e| format!("{path}: {e}"))? {
        Value::Seq(records) => records,
        _ => return Err(format!("{path} is not a JSON array of run records")),
    };
    // (workload, trace, metric) -> commit -> values
    let mut table: BTreeMap<(String, bool, String), BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for r in &records {
        let (Some(workload), Some(sha)) = (text(field(r, "workload")), text(field(r, "sha")))
        else {
            continue;
        };
        let trace = matches!(field(r, "trace"), Some(Value::Bool(true)));
        // Every measured candidate, not only the ones the JSON line
        // carries: the end-to-end metrics that are not gated are compared
        // the same way.
        let Some(Value::Map(metrics)) = field(r, "all") else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(x) = number(Some(m)) {
                table
                    .entry((workload.to_string(), trace, name.clone()))
                    .or_default()
                    .entry(sha.to_string())
                    .or_default()
                    .push(x);
            }
        }
    }
    let mut out = String::from(
        "workload         trace metric                               commit              runs      median          q1          q3  spread\n",
    );
    for ((workload, trace, metric), by_sha) in &table {
        let trace = u8::from(*trace);
        for (sha, xs) in by_sha {
            let med = stats::median(xs).unwrap_or(f64::NAN);
            let (q1, q3) = stats::quartiles(xs).unwrap_or((f64::NAN, f64::NAN));
            let spread = stats::relative_spread(xs).unwrap_or(f64::NAN);
            out.push_str(&format!(
                "{workload:<16} {trace:>5} {metric:<36} {sha:<18} {:>5} {med:>11.4} {q1:>11.4} {q3:>11.4} {spread:>7.3}\n",
                xs.len()
            ));
        }
    }
    Ok(out)
}
