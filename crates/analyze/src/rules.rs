//! The rule engine: per-file context (attributes, test regions, comments,
//! pragmas), the four project-invariant rules, and the public-item
//! count.
//!
//! Every rule is grounded in a convention the rest of the workspace
//! relies on but nothing previously enforced:
//!
//! * **no-panic-paths** — untrusted wire/frame/trace bytes must never
//!   panic a worker: no `.unwrap()`/`.expect()`, no `panic!`-family
//!   macros, no slice indexing in the declared parser modules
//!   (refusals must be typed errors). Test code is exempt.
//! * **safety-comments** — every `unsafe` (block, fn, impl) needs an
//!   adjacent `// SAFETY:` comment stating the layout / length /
//!   ownership argument it relies on.
//! * **capped-alloc** — in wire-parsing modules, allocations sized from
//!   a *declared* (parsed) count must be clamped to what the payload
//!   can physically back (`.min(remaining/width + 1)`), so a hostile
//!   header can never force an unbacked allocation.
//! * **env-registry** — `GS_*` escape hatches may only be read through
//!   `gs_sketch::env`, so they stay enumerable (the README table) and
//!   typo-proof.
//!
//! [`public_items`] counts the public surface the same token-aware way:
//! `pub` followed by an item keyword, outside comments, strings,
//! attributes and test code.
//!
//! A diagnostic can be waived, with a recorded justification, by a
//! pragma on the same line or the line directly above:
//!
//! ```text
//! // gs-lint: allow(<rule>, "<justification>")
//! ```
//!
//! Pragmas are themselves checked: an unknown rule name or an empty
//! justification is a `bad-pragma` diagnostic, and a pragma that
//! suppresses nothing is `unused-pragma` — waivers cannot rot in place.

use crate::lexer::{lex, Tok, TokKind};

/// The enforced rule names, as they appear in diagnostics and pragmas.
pub const RULES: &[&str] = &[
    "no-panic-paths",
    "safety-comments",
    "capped-alloc",
    "env-registry",
];

/// Modules where untrusted bytes are parsed: the no-panic-paths zone.
/// Matched as path suffixes against `/`-separated workspace-relative
/// labels.
pub const NO_PANIC_ZONES: &[&str] = &[
    "crates/core/src/frame.rs",
    "crates/core/src/wire.rs",
    "crates/serve/src/server.rs",
    "crates/workloads/src/trace.rs",
];

/// Wire-parsing modules where the capped-alloc rule applies.
pub const CAPPED_ALLOC_ZONES: &[&str] = &[
    "crates/core/src/frame.rs",
    "crates/core/src/wire.rs",
    "crates/workloads/src/trace.rs",
];

/// The one module allowed to read `GS_*` environment variables.
pub const ENV_REGISTRY_HOME: &str = "crates/sketch/src/env.rs";

/// One finding: where, which rule, and what.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diag {
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// The rule name (one of [`RULES`], `bad-pragma`, or
    /// `unused-pragma`).
    pub rule: &'static str,
    /// What fired and how to fix or waive it.
    pub msg: String,
}

impl std::fmt::Display for Diag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

/// A parsed `gs-lint: allow(rule, "why")` pragma.
struct Pragma {
    /// The line the pragma waives (its own line, or the next when the
    /// comment stands alone).
    target: usize,
    /// The line the pragma text sits on (for unused-pragma reports).
    at: usize,
    rule: String,
    used: bool,
}

/// Everything the rules need to know about one file.
struct FileCtx<'a> {
    path: &'a str,
    toks: Vec<Tok<'a>>,
    /// Token indices that are part of an attribute (`#[...]`/`#![...]`),
    /// brackets included — so attribute brackets never read as indexing
    /// and attribute-only lines don't break SAFETY-comment adjacency.
    in_attr: Vec<bool>,
    /// Token indices inside `#[cfg(test)]` modules / `#[test]` fns.
    in_test: Vec<bool>,
    /// Whether the whole file is test/bench/example collateral.
    all_test: bool,
    /// Per line: does any non-comment, non-attribute token sit on it?
    has_code: Vec<bool>,
    /// Per line: does any non-comment token sit on it (attrs included)?
    has_any_code: Vec<bool>,
    /// Per line: concatenated comment text starting on that line.
    comment: Vec<String>,
}

/// Analyzes one file's source. `path` is the workspace-relative label
/// (zone membership and test-collateral detection key off it).
pub fn analyze_source(path: &str, src: &str) -> Vec<Diag> {
    let ctx = build_ctx(path, src);
    let mut pragmas = collect_pragmas(&ctx);
    let mut diags = Vec::new();
    rule_no_panic_paths(&ctx, &mut diags);
    rule_safety_comments(&ctx, &mut diags);
    rule_capped_alloc(&ctx, &mut diags);
    rule_env_registry(&ctx, &mut diags);
    // Waive diagnostics whose line carries (or follows) a matching
    // pragma; pragmas that fail to parse were already reported by
    // collect_pragmas as bad-pragma and waive nothing.
    diags.retain(|d| {
        !pragmas.0.iter_mut().any(|p| {
            let hit = p.target == d.line && p.rule == d.rule;
            if hit {
                p.used = true;
            }
            hit
        })
    });
    for p in &pragmas.0 {
        if !p.used {
            diags.push(Diag {
                path: path.to_string(),
                line: p.at,
                rule: "unused-pragma",
                msg: format!(
                    "pragma allows `{}` but nothing on line {} fires it; remove the stale waiver",
                    p.rule, p.target
                ),
            });
        }
    }
    diags.extend(pragmas.1);
    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    diags
}

/// `true` iff `path` falls in a zone list (suffix match on `/` labels).
fn in_zone(path: &str, zones: &[&str]) -> bool {
    zones
        .iter()
        .any(|z| path == *z || path.ends_with(&format!("/{z}")))
}

/// `true` for files that are test/bench/example collateral in their
/// entirety (integration tests, benches, examples, fixtures).
fn is_test_collateral(path: &str) -> bool {
    let parts: Vec<&str> = path.split('/').collect();
    parts
        .iter()
        .any(|p| matches!(*p, "tests" | "benches" | "examples"))
}

fn build_ctx<'a>(path: &'a str, src: &'a str) -> FileCtx<'a> {
    let toks = lex(src);
    let n = toks.len();
    let nlines = src.lines().count() + 1;
    let mut in_attr = vec![false; n];

    // Mark attribute spans: `#` (`!`)? `[` ... matching `]`.
    let mut i = 0;
    while i < n {
        if toks[i].is_punct('#') {
            let mut j = i + 1;
            if j < n && toks[j].is_punct('!') {
                j += 1;
            }
            if j < n && toks[j].is_punct('[') {
                let mut depth = 0usize;
                let mut k = j;
                while k < n {
                    if toks[k].is_punct('[') {
                        depth += 1;
                    } else if toks[k].is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                let end = k.min(n.saturating_sub(1));
                for flag in in_attr.iter_mut().take(end + 1).skip(i) {
                    *flag = true;
                }
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }

    // Mark test regions: the brace body following `#[cfg(test)]` or
    // `#[test]` attributes (skipping doc comments and further
    // attributes in between).
    let mut in_test = vec![false; n];
    let mut i = 0;
    while i < n {
        if toks[i].is_punct('#') && in_attr[i] {
            // Extent of this attribute.
            let mut end = i;
            while end + 1 < n && in_attr[end + 1] {
                // Stop at the next attribute's `#`.
                if toks[end + 1].is_punct('#') {
                    break;
                }
                end += 1;
            }
            let attr: Vec<&Tok> = toks[i..=end]
                .iter()
                .filter(|t| t.kind == TokKind::Ident)
                .collect();
            let has = |name: &str| attr.iter().any(|t| t.text == name);
            let is_test_attr =
                (has("cfg") && has("test") && !has("not")) || (attr.len() == 1 && has("test"));
            if is_test_attr {
                // Find the body: first `{` before a top-level `;`.
                let mut k = end + 1;
                let mut open = None;
                while k < n {
                    if in_attr[k] || toks[k].kind == TokKind::Comment {
                        k += 1;
                        continue;
                    }
                    if toks[k].is_punct('{') {
                        open = Some(k);
                        break;
                    }
                    if toks[k].is_punct(';') {
                        break;
                    }
                    k += 1;
                }
                if let Some(open) = open {
                    let mut depth = 0usize;
                    let mut k = open;
                    while k < n {
                        if toks[k].is_punct('{') {
                            depth += 1;
                        } else if toks[k].is_punct('}') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        k += 1;
                    }
                    let close = k.min(n.saturating_sub(1));
                    for flag in in_test.iter_mut().take(close + 1).skip(open) {
                        *flag = true;
                    }
                }
            }
            i = end + 1;
            continue;
        }
        i += 1;
    }

    let mut has_code = vec![false; nlines + 1];
    let mut has_any_code = vec![false; nlines + 1];
    let mut comment = vec![String::new(); nlines + 1];
    for (idx, t) in toks.iter().enumerate() {
        if t.line > nlines {
            continue;
        }
        if t.kind == TokKind::Comment {
            if !comment[t.line].is_empty() {
                comment[t.line].push(' ');
            }
            comment[t.line].push_str(t.text);
        } else {
            has_any_code[t.line] = true;
            if !in_attr[idx] {
                has_code[t.line] = true;
            }
        }
    }

    FileCtx {
        path,
        toks,
        in_attr,
        in_test,
        all_test: is_test_collateral(path),
        has_code,
        has_any_code,
        comment,
    }
}

/// Parses every `gs-lint:` pragma in the file. Returns the usable
/// pragmas plus bad-pragma diagnostics for malformed ones.
fn collect_pragmas(ctx: &FileCtx) -> (Vec<Pragma>, Vec<Diag>) {
    let mut pragmas = Vec::new();
    let mut bad = Vec::new();
    for t in &ctx.toks {
        if t.kind != TokKind::Comment || !t.text.contains("gs-lint:") {
            continue;
        }
        // Doc comments describe the grammar; only plain comments carry
        // directives.
        if ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|p| t.text.starts_with(p))
        {
            continue;
        }
        let mut report = |msg: String| {
            bad.push(Diag {
                path: ctx.path.to_string(),
                line: t.line,
                rule: "bad-pragma",
                msg,
            })
        };
        let Some(rest) = t.text.split("gs-lint:").nth(1) else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(args) = rest.strip_prefix("allow(") else {
            report("pragma grammar is `gs-lint: allow(<rule>, \"<justification>\")`".into());
            continue;
        };
        let Some((rule, just)) = args.split_once(',') else {
            report("pragma is missing the justification argument".into());
            continue;
        };
        let rule = rule.trim();
        if !RULES.contains(&rule) {
            report(format!(
                "pragma names unknown rule `{rule}` (known: {})",
                RULES.join(", ")
            ));
            continue;
        }
        let just = just.trim();
        let justified = just
            .strip_prefix('"')
            .and_then(|j| j.split_once('"'))
            .map(|(body, tail)| (!body.trim().is_empty(), tail.trim_start().starts_with(')')));
        match justified {
            Some((true, true)) => {}
            _ => {
                report(format!(
                    "pragma for `{rule}` needs a non-empty quoted justification ending in `)`"
                ));
                continue;
            }
        }
        // A trailing pragma waives its own line; a standalone comment
        // waives the next line.
        let target = if ctx.has_code.get(t.line).copied().unwrap_or(false) {
            t.line
        } else {
            t.line + 1
        };
        pragmas.push(Pragma {
            target,
            at: t.line,
            rule: rule.to_string(),
            used: false,
        });
    }
    (pragmas, bad)
}

/// Index of the previous non-comment token before `i`, if any.
fn prev_code(ctx: &FileCtx, i: usize) -> Option<usize> {
    (0..i).rev().find(|&j| ctx.toks[j].kind != TokKind::Comment)
}

/// Index of the next non-comment token after `i`, if any.
fn next_code(ctx: &FileCtx, i: usize) -> Option<usize> {
    (i + 1..ctx.toks.len()).find(|&j| ctx.toks[j].kind != TokKind::Comment)
}

/// The `panic!`-family macro names banned in no-panic zones.
/// `debug_assert*` stays legal: those guard internal invariants and the
/// overflow-checks CI job runs the suite with them enabled.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

fn rule_no_panic_paths(ctx: &FileCtx, out: &mut Vec<Diag>) {
    if ctx.all_test || !in_zone(ctx.path, NO_PANIC_ZONES) {
        return;
    }
    let diag = |out: &mut Vec<Diag>, line: usize, msg: String| {
        out.push(Diag {
            path: ctx.path.to_string(),
            line,
            rule: "no-panic-paths",
            msg,
        })
    };
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.in_test[i] {
            continue;
        }
        match t.kind {
            TokKind::Ident
                if (t.text == "unwrap" || t.text == "expect")
                    && prev_code(ctx, i).is_some_and(|j| ctx.toks[j].is_punct('.')) =>
            {
                diag(
                    out,
                    t.line,
                    format!(
                        ".{}() can panic a worker on untrusted input; \
                         return a typed error instead",
                        t.text
                    ),
                );
            }
            TokKind::Ident
                if PANIC_MACROS.contains(&t.text)
                    && next_code(ctx, i).is_some_and(|j| ctx.toks[j].is_punct('!')) =>
            {
                diag(
                    out,
                    t.line,
                    format!(
                        "{}! is a panic path in a module that parses untrusted \
                         bytes; refuse with a typed error",
                        t.text
                    ),
                );
            }
            TokKind::Punct if t.is_punct('[') && !ctx.in_attr[i] => {
                let postfix = prev_code(ctx, i).is_some_and(|j| {
                    let p = &ctx.toks[j];
                    match p.kind {
                        TokKind::Ident => !is_keyword(p.text),
                        TokKind::Num | TokKind::Str => true,
                        TokKind::Punct => (p.is_punct(')') || p.is_punct(']')) && !ctx.in_attr[j],
                        _ => false,
                    }
                });
                if postfix {
                    diag(
                        out,
                        t.line,
                        "slice/array indexing can panic on a hostile length; use \
                         .get()/typed bounds, or waive with the in-bounds argument"
                            .into(),
                    );
                }
            }
            _ => {}
        }
    }
}

/// Keywords that can directly precede `[` without it being indexing
/// (`return [..]`, `in [..]`, `= match x { .. }[..]` is indexing but via
/// `}` which we treat as non-postfix to avoid block-expression noise).
fn is_keyword(text: &str) -> bool {
    matches!(
        text,
        "return"
            | "in"
            | "if"
            | "else"
            | "match"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "as"
            | "box"
            | "break"
            | "continue"
            | "yield"
            | "where"
            | "dyn"
            | "impl"
            | "for"
            | "while"
            | "loop"
            | "const"
            | "static"
            | "type"
            | "fn"
            | "use"
            | "pub"
            | "struct"
            | "enum"
            | "union"
    )
}

fn rule_safety_comments(ctx: &FileCtx, out: &mut Vec<Diag>) {
    for (i, t) in ctx.toks.iter().enumerate() {
        if !(t.kind == TokKind::Ident && t.text == "unsafe") {
            continue;
        }
        // Same-line comment, or comment lines directly above — skipping
        // blank lines and attribute-only lines (an attribute may sit
        // between the SAFETY comment and its `unsafe fn`).
        let mut satisfied = ctx
            .comment
            .get(t.line)
            .is_some_and(|c| c.contains("SAFETY:"));
        let mut l = t.line;
        while !satisfied && l > 1 {
            l -= 1;
            let c = &ctx.comment[l];
            if c.contains("SAFETY:") {
                satisfied = true;
                break;
            }
            let attr_only = ctx.has_any_code[l] && !ctx.has_code[l];
            let blank_or_comment = !ctx.has_any_code[l];
            if !(attr_only || blank_or_comment) {
                break; // a real code line ends the adjacency window
            }
        }
        if !satisfied {
            out.push(Diag {
                path: ctx.path.to_string(),
                line: t.line,
                rule: "safety-comments",
                msg: "`unsafe` without an adjacent `// SAFETY:` comment stating the \
                      layout/length/ownership argument it relies on"
                    .into(),
            });
        }
        let _ = i;
    }
}

fn rule_capped_alloc(ctx: &FileCtx, out: &mut Vec<Diag>) {
    if ctx.all_test || !in_zone(ctx.path, CAPPED_ALLOC_ZONES) {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.in_test[i] {
            continue;
        }
        if !(t.kind == TokKind::Ident
            && matches!(t.text, "with_capacity" | "reserve" | "reserve_exact"))
        {
            continue;
        }
        let Some(open) = next_code(ctx, i).filter(|&j| ctx.toks[j].is_punct('(')) else {
            continue;
        };
        // Collect the argument tokens.
        let mut depth = 0usize;
        let mut args: Vec<&Tok> = Vec::new();
        for tok in &ctx.toks[open..] {
            if tok.is_punct('(') {
                depth += 1;
                if depth == 1 {
                    continue;
                }
            } else if tok.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if tok.kind != TokKind::Comment {
                args.push(tok);
            }
        }
        // Capped: the size is clamped (`.min(...)` / a `capped` helper),
        // or measures bytes that already exist in memory (`len`), or is
        // a compile-time constant expression.
        let capped = args
            .iter()
            .any(|a| a.kind == TokKind::Ident && (a.text == "min" || a.text.contains("capped")));
        let measured = args
            .iter()
            .any(|a| a.kind == TokKind::Ident && a.text == "len");
        let constant = !args.is_empty()
            && args
                .iter()
                .all(|a| a.kind == TokKind::Num || a.kind == TokKind::Punct);
        if !(capped || measured || constant) {
            out.push(Diag {
                path: ctx.path.to_string(),
                line: t.line,
                rule: "capped-alloc",
                msg: format!(
                    "{} sized from a parsed value: a hostile declared count can \
                     force an unbacked allocation; clamp with \
                     `.min(remaining/width + 1)`",
                    t.text
                ),
            });
        }
    }
}

fn rule_env_registry(ctx: &FileCtx, out: &mut Vec<Diag>) {
    if ctx.path == ENV_REGISTRY_HOME || ctx.path.ends_with(&format!("/{ENV_REGISTRY_HOME}")) {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if !(t.kind == TokKind::Ident && matches!(t.text, "var" | "var_os")) {
            continue;
        }
        let Some(open) = next_code(ctx, i).filter(|&j| ctx.toks[j].is_punct('(')) else {
            continue;
        };
        let Some(arg) = next_code(ctx, open) else {
            continue;
        };
        let arg = &ctx.toks[arg];
        if arg.kind == TokKind::Str
            && arg
                .text
                .trim_matches(|c| c == '"' || c == 'b')
                .starts_with("GS_")
        {
            out.push(Diag {
                path: ctx.path.to_string(),
                line: t.line,
                rule: "env-registry",
                msg: format!(
                    "read of {} outside gs_sketch::env; add the hatch to the \
                     registry and call its typed accessor so escape hatches stay \
                     enumerable and typo-proof",
                    arg.text
                ),
            });
        }
    }
}

/// Counts one file's public items: `pub` tokens whose next code token
/// is an item keyword (`fn`, `struct`, `enum`, `trait`, `type`, `const`,
/// `static`, `mod`, `use` or `union`). Comments, strings and attributes
/// are opaque tokens or marked spans, and test regions (and whole
/// test/bench/example files) are skipped, so `pub(crate)`, `pub(super)`,
/// struct fields and test helpers do not count.
pub fn public_items(path: &str, src: &str) -> usize {
    let ctx = build_ctx(path, src);
    if ctx.all_test {
        return 0;
    }
    (0..ctx.toks.len())
        .filter(|&i| ctx.toks[i].is_ident("pub") && !ctx.in_attr[i] && !ctx.in_test[i])
        .filter(|&i| {
            next_code(&ctx, i).is_some_and(|j| {
                let t = &ctx.toks[j];
                t.kind == TokKind::Ident
                    && matches!(
                        t.text,
                        "fn" | "struct"
                            | "enum"
                            | "trait"
                            | "type"
                            | "const"
                            | "static"
                            | "mod"
                            | "use"
                            | "union"
                    )
            })
        })
        .count()
}
