//! The one bench harness: where every bench's numbers go, how they are
//! timed, and the update stream the kernel benches share.
//!
//! A trajectory is a committed `BENCH_<name>.json` at the workspace
//! root: a JSON array holding one record per run, oldest first. A run
//! appends its record as one line and never rewrites an earlier one, so
//! the file is the bench's history across commits. Every record opens
//! with the git sha (`-dirty` when the source differs from HEAD), the
//! UTC date and the host (`nproc`, `cpu`), so rows from different
//! commits and machines are never compared by accident.

use gs_sketch::EdgeUpdate;
use serde::Value;
use std::hint::black_box;
use std::io::{Error, ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Timed runs per [`time_ns`] measurement; the minimum is reported.
const RUNS: usize = 3;

/// Shortest run [`time_ns`] takes, in nanoseconds: quicker calls are
/// batched until a run lasts this long.
const MIN_RUN_NS: f64 = 100_000.0;

/// Appends one record to the workspace's `BENCH_<name>.json`: `sha`,
/// `date` and `host`, then `fields` in order. Returns the file's path.
///
/// A file that is not a JSON array is refused with an error naming it,
/// and left as it is.
pub fn append<'a>(
    name: &str,
    fields: impl IntoIterator<Item = (&'a str, Value)>,
) -> std::io::Result<PathBuf> {
    let root = workspace_root();
    let path = root.join(format!("BENCH_{name}.json"));
    append_record(&path, &record(root, fields))?;
    Ok(path)
}

/// A JSON object of `fields`, in order.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `x` rounded to `decimals` places, as a record stores it: an integer
/// at 0 places.
pub fn fixed(x: f64, decimals: i32) -> Value {
    if decimals == 0 {
        return Value::Int(x.round() as i64);
    }
    let scale = 10f64.powi(decimals);
    Value::Float((x * scale).round() / scale)
}

/// Nanoseconds per call of `f`: one warm-up call, then the minimum of
/// three timed runs. A call shorter than 100 µs is batched: the batch
/// doubles until one run of it lasts 100 µs, so the clock's own cost
/// does not swamp a nanosecond-scale row, and a run's time is divided
/// by its batch. What `f` returns is dropped inside the clock.
pub fn time_ns<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut batch = 1u32;
    while run_ns(&mut f, batch) < MIN_RUN_NS {
        batch *= 2;
    }
    (0..RUNS)
        .map(|_| run_ns(&mut f, batch) / f64::from(batch))
        .fold(f64::INFINITY, f64::min)
}

fn run_ns<T>(f: &mut impl FnMut() -> T, batch: u32) -> f64 {
    let t = Instant::now();
    for _ in 0..batch {
        black_box(f());
    }
    t.elapsed().as_nanos() as f64
}

/// The kernel benches' update stream: `len` updates over `n` vertices,
/// every fifth a deletion, self-loops dropped.
pub fn churn(n: usize, len: usize) -> Vec<EdgeUpdate> {
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

/// The checkout the benches were built from: `crates/bench`'s
/// grandparent.
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
}

fn record<'a>(root: &Path, fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    let head = [
        ("sha", Value::Str(git_sha(root))),
        ("date", Value::Str(utc_date())),
        ("host", host()),
    ];
    object(head.into_iter().chain(fields))
}

/// The short commit id of the checkout at `root`, with `-dirty` when
/// its source differs from HEAD; `unknown` outside a git checkout. The
/// `BENCH_*.json` trajectories do not count: a bench writes them, so
/// counting them would mark every run after the first dirty.
fn git_sha(root: &Path) -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .current_dir(root)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| o.stdout)
    };
    let sha = git(&["rev-parse", "--short=12", "HEAD"])
        .map(|out| String::from_utf8_lossy(&out).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let dirty = git(&["status", "--porcelain", "--", ":(exclude)BENCH_*.json"])
        .is_some_and(|out| !out.is_empty());
    if dirty {
        format!("{sha}-dirty")
    } else {
        sha
    }
}

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`, or `epoch:<secs>`
/// when `date` is unavailable.
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

/// The host a result depends on: `nproc` logical CPUs and the `cpu`
/// model.
fn host() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    object([
        ("nproc", Value::UInt(nproc as u64)),
        ("cpu", Value::Str(cpu)),
    ])
}

/// Appends `record` as one line to the JSON array in `path`, creating
/// the array if the file is missing. The earlier records' text is kept
/// byte for byte. A file that does not parse as a JSON array, such as a
/// truncated or conflict-marked one, is refused and left untouched. The
/// new array is written to a sibling staging file and renamed over the
/// old one, so an interrupted write cannot truncate the trajectory.
fn append_record(path: &Path, record: &Value) -> std::io::Result<()> {
    let line = record.to_json();
    let json = match std::fs::read_to_string(path) {
        Err(e) if e.kind() == ErrorKind::NotFound => format!("[\n{line}\n]\n"),
        Err(e) => return Err(e),
        Ok(prior) => match (Value::from_json(&prior), prior.trim_end().strip_suffix(']')) {
            (Ok(Value::Seq(records)), Some(head)) if !records.is_empty() => {
                format!("{},\n{line}\n]\n", head.trim_end())
            }
            (Ok(Value::Seq(records)), _) if records.is_empty() => format!("[\n{line}\n]\n"),
            _ => {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    format!(
                        "{}: not a JSON array of records; refusing to rewrite it",
                        path.display()
                    ),
                ))
            }
        },
    };
    let staging = path.with_extension("json.tmp");
    let mut file = std::fs::File::create(&staging)?;
    file.write_all(json.as_bytes())?;
    file.sync_all()?;
    std::fs::rename(&staging, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    /// A fresh directory for one test; tests run in parallel.
    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gs-bench-trajectory-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn run_record(run: u64) -> Value {
        record(workspace_root(), [("run", run.to_value())])
    }

    #[test]
    fn a_missing_file_becomes_a_one_record_array() {
        let dir = scratch("missing");
        let path = dir.join("BENCH_t.json");
        let rec = run_record(1);
        append_record(&path, &rec).expect("append");
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text, format!("[\n{}\n]\n", rec.to_json()));
        assert!(!path.with_extension("json.tmp").exists(), "staging left");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_second_append_leaves_the_first_record_text_unchanged() {
        let dir = scratch("second");
        let path = dir.join("BENCH_t.json");
        // A pretty-printed record, as the early ones were written.
        let kept = "[\n  {\n    \"sha\": \"abc\",\n    \"ns\": 12\n  }";
        std::fs::write(&path, format!("{kept}\n]\n")).expect("seed");
        append_record(&path, &run_record(2)).expect("append");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.starts_with(&format!("{kept},\n")), "{text}");
        let all = Value::from_json(&text).expect("json");
        let records = all.as_seq().expect("array");
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].get("run"), Some(&Value::UInt(2)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_file_that_is_not_an_array_is_refused_and_left_intact() {
        let dir = scratch("refused");
        let path = dir.join("BENCH_t.json");
        for prior in [
            "",
            "not json",
            "{\"sha\": \"abc\"}",
            "[\n  {\"sha\": \"abc\"},\n  {\"sha\": \"de",
            "[\n<<<<<<< HEAD\n{\"sha\": \"abc\"}\n=======\n{\"sha\": \"def\"}\n>>>>>>> b\n]\n",
        ] {
            std::fs::write(&path, prior).expect("seed");
            let err = append_record(&path, &run_record(3)).expect_err(prior);
            assert_eq!(err.kind(), ErrorKind::InvalidData);
            assert!(err.to_string().contains("BENCH_t.json"), "{err}");
            assert_eq!(std::fs::read(&path).expect("read"), prior.as_bytes());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_appended_record_parses_and_carries_sha_date_and_host() {
        let dir = scratch("fields");
        let path = dir.join("BENCH_t.json");
        for run in 0..3 {
            append_record(&path, &run_record(run)).expect("append");
        }
        let text = std::fs::read_to_string(&path).expect("read");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "one line per record: {text}");
        for (run, line) in lines[1..4].iter().enumerate() {
            let rec = Value::from_json(line.trim_end_matches(',')).expect("record parses");
            assert!(rec.get("sha").and_then(Value::as_str).is_some());
            assert!(rec.get("date").and_then(Value::as_str).is_some());
            let host = rec.get("host").expect("host");
            assert!(host.get("nproc").and_then(Value::as_u64).unwrap() >= 1);
            assert!(host.get("cpu").and_then(Value::as_str).is_some());
            assert_eq!(rec.get("run"), Some(&Value::UInt(run as u64)));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
