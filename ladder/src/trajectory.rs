//! Append-only trajectory files: one JSON record per run, each carrying
//! the commit and the host, so rows from different machines and commits
//! are never compared by accident.
//!
//! The record layout follows the repository's `BENCH_*.json` files: a
//! top-level JSON array whose existing entries are never rewritten.

use std::process::Command;

/// The short commit id, with `-dirty` when the tree has uncommitted
/// changes; `unknown` outside a git checkout.
pub fn git_sha() -> String {
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

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`, or `epoch:<secs>`
/// when `date` is unavailable.
pub fn utc_date() -> String {
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

/// The host a result depends on: logical CPUs and the CPU model.
pub fn host() -> (usize, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    (nproc, model)
}

/// Appends `record` to the JSON array in `path`, creating the array if
/// the file is missing or not in trajectory format. Existing records are
/// never modified or dropped.
pub fn append_record(path: &str, record: &str) -> std::io::Result<()> {
    let prior = std::fs::read_to_string(path).unwrap_or_default();
    let trimmed = prior.trim();
    let json = match trimmed
        .strip_prefix('[')
        .and_then(|rest| rest.strip_suffix(']'))
    {
        Some(body) if !body.trim_end().is_empty() => {
            format!("[{},\n{record}\n]\n", body.trim_end())
        }
        _ => format!("[\n{record}\n]\n"),
    };
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_append_and_never_rewrite() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.ladder_run")
            .join(format!("traj-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("t.json");
        let path = path.to_str().expect("utf-8 path");
        append_record(path, "{\"a\": 1}").expect("first append");
        assert_eq!(std::fs::read_to_string(path).unwrap(), "[\n{\"a\": 1}\n]\n");
        append_record(path, "{\"b\": 2}").expect("second append");
        assert_eq!(
            std::fs::read_to_string(path).unwrap(),
            "[\n{\"a\": 1},\n{\"b\": 2}\n]\n"
        );
        std::fs::write(path, "not json").unwrap();
        append_record(path, "{\"c\": 3}").expect("restart");
        assert_eq!(std::fs::read_to_string(path).unwrap(), "[\n{\"c\": 3}\n]\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}
