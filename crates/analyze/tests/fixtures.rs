//! Fixture tests: every rule must fire on a minimal positive snippet,
//! stay quiet on the negative twin, and honor a justified
//! `gs-lint: allow` pragma — plus the self-run test pinning the
//! committed tree violation-free.

use gs_analyze::{analyze_source, Diag};

/// A zone path the no-panic-paths and capped-alloc rules apply to.
const ZONE: &str = "crates/core/src/frame.rs";
/// A path outside every zone.
const FREE: &str = "crates/graph/src/lib.rs";

fn rules_fired(diags: &[Diag]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

// ------------------------------------------------------- no-panic-paths

#[test]
fn no_panic_paths_fires_on_unwrap_expect_panic_and_indexing() {
    let src = r#"
fn f(v: Vec<u8>, o: Option<u8>) -> u8 {
    let a = o.unwrap();
    let b = o.expect("present");
    if v.is_empty() { panic!("empty"); }
    v[0] + a + b
}
"#;
    let fired = rules_fired(&analyze_source(ZONE, src));
    assert_eq!(
        fired,
        vec!["no-panic-paths"; 4],
        "expected unwrap, expect, panic!, and indexing to each fire once"
    );
}

#[test]
fn no_panic_paths_is_quiet_on_typed_errors_and_get() {
    let src = r#"
fn f(v: &[u8], o: Option<u8>) -> Result<u8, String> {
    let a = o.ok_or("missing")?;
    let b = v.get(0).copied().unwrap_or(0);
    Ok(a + b)
}
"#;
    assert!(analyze_source(ZONE, src).is_empty());
}

#[test]
fn no_panic_paths_ignores_files_outside_the_zones() {
    let src = "fn f(o: Option<u8>) -> u8 { o.unwrap() }";
    assert!(analyze_source(FREE, src).is_empty());
}

#[test]
fn no_panic_paths_exempts_test_modules() {
    let src = r#"
fn parse(v: &[u8]) -> Option<u8> { v.first().copied() }

#[cfg(test)]
mod tests {
    #[test]
    fn roundtrip() {
        let v = vec![1u8];
        assert_eq!(super::parse(&v).unwrap(), v[0]);
    }
}
"#;
    assert!(analyze_source(ZONE, src).is_empty());
}

#[test]
fn no_panic_paths_is_not_fooled_by_strings_or_comments() {
    let src = r#"
fn f() -> &'static str {
    // this comment mentions .unwrap() and v[0] and panic!
    "a string with .unwrap() and panic! inside"
}
"#;
    assert!(analyze_source(ZONE, src).is_empty());
}

#[test]
fn no_panic_paths_respects_a_justified_pragma() {
    let src = r#"
fn f(v: &[u8], n: usize) -> u8 {
    // gs-lint: allow(no-panic-paths, "n is clamped to v.len() by the caller")
    v[n]
}
"#;
    assert!(analyze_source(ZONE, src).is_empty());
}

#[test]
fn same_line_pragma_waives_its_own_line() {
    let src = r#"
fn f(v: &[u8]) -> u8 {
    v[0] // gs-lint: allow(no-panic-paths, "callers pass non-empty slices")
}
"#;
    assert!(analyze_source(ZONE, src).is_empty());
}

// ------------------------------------------------------ safety-comments

#[test]
fn safety_comments_fires_on_bare_unsafe() {
    let src = r#"
fn f(p: *const u8) -> u8 {
    unsafe { *p }
}
"#;
    assert_eq!(
        rules_fired(&analyze_source(FREE, src)),
        vec!["safety-comments"]
    );
}

#[test]
fn safety_comments_accepts_adjacent_comment() {
    let src = r#"
fn f(p: *const u8) -> u8 {
    // SAFETY: p is non-null and points into a live allocation by contract.
    unsafe { *p }
}
"#;
    assert!(analyze_source(FREE, src).is_empty());
}

#[test]
fn safety_comments_sees_through_attribute_lines() {
    let src = r#"
// SAFETY: callers verified the avx2 feature at run time.
#[target_feature(enable = "avx2")]
unsafe fn kernel_avx2(x: u8) -> u8 { x }

unsafe fn kernel_scalar(x: u8) -> u8 { x }

#[cfg(test)]
mod tests {
    #[test]
    fn twin() { let _ = super::kernel_scalar as unsafe fn(u8) -> u8; }
}
"#;
    // The first fn's SAFETY comment sits above its attribute; only the
    // second fn's bare `unsafe` (and the test-module mention) may fire —
    // test regions are NOT exempt from safety-comments, so count
    // carefully: the second fn lacks a comment.
    let fired = rules_fired(&analyze_source(FREE, src));
    assert_eq!(fired, vec!["safety-comments", "safety-comments"]);
}

// --------------------------------------------------------- capped-alloc

#[test]
fn capped_alloc_fires_on_uncapped_parsed_count() {
    let src = r#"
fn parse(count: usize) -> Vec<u8> {
    Vec::with_capacity(count)
}
"#;
    assert_eq!(
        rules_fired(&analyze_source(ZONE, src)),
        vec!["capped-alloc"]
    );
}

#[test]
fn capped_alloc_accepts_min_clamped_and_measured_sizes() {
    let src = r#"
fn parse(count: usize, remaining: usize, existing: &[u8]) -> Vec<u8> {
    let mut a: Vec<u8> = Vec::with_capacity(count.min(remaining / 8 + 1));
    a.reserve(existing.len());
    let b: Vec<u8> = Vec::with_capacity(64);
    let _ = b;
    a
}
"#;
    assert!(analyze_source(ZONE, src).is_empty());
}

#[test]
fn capped_alloc_ignores_files_outside_wire_zones() {
    let src = "fn f(n: usize) -> Vec<u8> { Vec::with_capacity(n) }";
    assert!(analyze_source(FREE, src).is_empty());
}

#[test]
fn capped_alloc_respects_pragma() {
    let src = r#"
fn parse(count: usize) -> Vec<u8> {
    // gs-lint: allow(capped-alloc, "count was validated against the payload length above")
    Vec::with_capacity(count)
}
"#;
    assert!(analyze_source(ZONE, src).is_empty());
}

// --------------------------------------------------------- env-registry

#[test]
fn env_registry_fires_on_ad_hoc_gs_reads() {
    let src = r#"
fn f() -> bool {
    std::env::var_os("GS_NO_SIMD").is_some()
        || std::env::var("GS_DIFF_SEED").is_ok()
}
"#;
    assert_eq!(
        rules_fired(&analyze_source(FREE, src)),
        vec!["env-registry"; 2]
    );
}

#[test]
fn env_registry_ignores_non_gs_variables_and_the_registry_itself() {
    let outside = r#"fn f() -> bool { std::env::var("HOME").is_ok() }"#;
    assert!(analyze_source(FREE, outside).is_empty());
    let home = r#"fn raw() -> bool { std::env::var_os("GS_NO_SIMD").is_some() }"#;
    assert!(analyze_source("crates/sketch/src/env.rs", home).is_empty());
}

#[test]
fn env_registry_respects_pragma() {
    let src = r#"
fn f() -> bool {
    // gs-lint: allow(env-registry, "bootstrap read before gs_sketch is linked")
    std::env::var_os("GS_EXPERIMENT").is_some()
}
"#;
    assert!(analyze_source(FREE, src).is_empty());
}

// --------------------------------------------------------- public items

#[test]
fn public_items_count_only_public_item_keywords_outside_tests() {
    let src = r##"
// pub fn in a comment does not count
#[doc = "pub fn in an attribute does not count"]
pub fn counted() -> &'static str { "pub fn in a string does not count" }
pub(crate) fn crate_only() {}
pub struct Counted { pub field: u8 }
pub use std::fmt::Debug;

#[cfg(test)]
mod tests {
    pub fn helper() {}
}
"##;
    assert_eq!(gs_analyze::public_items(FREE, src), 3);
    assert_eq!(gs_analyze::public_items("crates/graph/tests/t.rs", src), 0);
}

// -------------------------------------------------------------- pragmas

#[test]
fn bad_pragmas_are_reported() {
    let unknown = "// gs-lint: allow(made-up-rule, \"x\")\nfn f() {}";
    assert_eq!(
        rules_fired(&analyze_source(FREE, unknown)),
        vec!["bad-pragma"]
    );
    let unjustified = "// gs-lint: allow(no-panic-paths)\nfn f() {}";
    assert_eq!(
        rules_fired(&analyze_source(FREE, unjustified)),
        vec!["bad-pragma"]
    );
    let empty = "// gs-lint: allow(no-panic-paths, \"\")\nfn f() {}";
    assert_eq!(
        rules_fired(&analyze_source(FREE, empty)),
        vec!["bad-pragma"]
    );
}

#[test]
fn unused_pragmas_are_reported() {
    let src = r#"
fn f(v: &[u8]) -> Option<u8> {
    // gs-lint: allow(no-panic-paths, "stale waiver: the line below uses get now")
    v.get(0).copied()
}
"#;
    assert_eq!(
        rules_fired(&analyze_source(ZONE, src)),
        vec!["unused-pragma"]
    );
}

#[test]
fn pragma_does_not_waive_a_different_rule() {
    let src = r#"
fn f(v: &[u8]) -> u8 {
    // gs-lint: allow(capped-alloc, "wrong rule name for this violation")
    v[0]
}
"#;
    let fired = rules_fired(&analyze_source(ZONE, src));
    assert!(fired.contains(&"no-panic-paths"), "got {fired:?}");
    assert!(fired.contains(&"unused-pragma"), "got {fired:?}");
}

// ------------------------------------------------------------- self-run

#[test]
fn the_committed_tree_is_violation_free() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let (diags, _) = gs_analyze::analyze_workspace(&root).expect("workspace walk");
    assert!(
        diags.is_empty(),
        "gs-analyze found {} violation(s) in the tree:\n{}",
        diags.len(),
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
