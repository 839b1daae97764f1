//! `gs-analyze` — the workspace-local invariant linter.
//!
//! A dependency-free static-analysis pass: [`lexer`] turns Rust source
//! into a comment/string/attribute-aware token stream (no `syn`), and
//! [`rules`] walks that stream enforcing the project's load-bearing
//! conventions as typed `file:line` diagnostics. See the module docs in
//! [`rules`] for the rule set and the pragma grammar, and DESIGN.md
//! §1.12 for the rationale.
//!
//! Entry points: [`analyze_source`] and [`public_items`] for one file
//! (used by the fixture tests) and [`analyze_workspace`] for a tree walk
//! (used by the CLI verb and the blocking CI job).

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;

pub use rules::{analyze_source, public_items, Diag, RULES};

use std::path::{Path, PathBuf};

/// Directories never descended into: build output, vendored facades
/// (external idiom, not ours to lint), and VCS metadata.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git"];

/// Walks `root` and lints every `.rs` file outside `SKIP_DIRS`.
/// Returns diagnostics sorted by path then line, and the files' total
/// [`public_items`]. I/O problems surface as `Err` — a partially-walked
/// tree must not read as "clean".
pub fn analyze_workspace(root: &Path) -> std::io::Result<(Vec<Diag>, usize)> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut diags = Vec::new();
    let mut items = 0;
    for path in &files {
        let src = std::fs::read_to_string(path)?;
        let label = workspace_label(root, path);
        diags.extend(analyze_source(&label, &src));
        items += public_items(&label, &src);
    }
    diags.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Ok((diags, items))
}

/// Shared driver for the `gs-analyze` binary and the `graph-sketch
/// analyze` verb: lints the tree under `root`, prints one
/// `file:line: rule: message` per finding, and returns the process exit
/// code — 0 clean, 1 violations (the blocking-CI contract), 2 walk
/// failure.
pub fn run_cli(root: &Path) -> u8 {
    match analyze_workspace(root) {
        Ok((diags, items)) if diags.is_empty() => {
            println!(
                "gs-analyze: clean ({} rules enforced, {items} public items)",
                RULES.len()
            );
            0
        }
        Ok((diags, _)) => {
            for d in &diags {
                println!("{d}");
            }
            eprintln!("gs-analyze: {} violation(s)", diags.len());
            1
        }
        Err(e) => {
            eprintln!("gs-analyze: walk failed under {}: {e}", root.display());
            2
        }
    }
}

/// Workspace-relative `/`-separated label for a file, as it appears in
/// diagnostics and zone tables.
fn workspace_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
