//! CLI for the workspace invariant linter.
//!
//! ```text
//! gs-analyze [--root <dir>]
//! ```
//!
//! Lints every `.rs` file under the root (default: the workspace root
//! inferred from this crate's manifest at build time, falling back to
//! the current directory). Prints one `file:line: rule: message` per
//! diagnostic and exits 1 if any fired — the blocking CI contract.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("gs-analyze: --root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: gs-analyze [--root <dir>]");
                println!("Lints every .rs file for project invariants; exits 1 on findings.");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("gs-analyze: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(default_root);
    ExitCode::from(gs_analyze::run_cli(&root))
}

/// The workspace root two levels above this crate's manifest, when that
/// layout holds; otherwise the current directory.
fn default_root() -> PathBuf {
    let compiled = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    compiled
        .parent()
        .and_then(|p| p.parent())
        .filter(|p| p.join("Cargo.toml").is_file())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}
