//! The `GS_*` escape-hatch registry: the one module allowed to read
//! process environment variables.
//!
//! Every behavioral escape hatch the suite honors is declared in
//! [`ESCAPE_HATCHES`] and read through a typed accessor here. That buys
//! two things the previous ad-hoc `std::env::var` reads lacked:
//!
//! * **Enumerable** — the README's "escape hatches" table is generated
//!   from [`markdown_table`] and pinned byte-exact by a test, so the
//!   docs can't drift from the code.
//! * **Typo-proof** — a hatch name exists in exactly one place; the
//!   `env-registry` lint (gs-analyze) rejects any `GS_*` read outside
//!   this module.
//!
//! Accessors read the process environment on every call.

/// One declared escape hatch, as rendered into the README table.
pub struct EscapeHatch {
    /// The environment variable name (always `GS_`-prefixed).
    pub name: &'static str,
    /// The accepted values, human-readable.
    pub values: &'static str,
    /// What setting it changes.
    pub effect: &'static str,
}

/// Every escape hatch the suite honors. Adding a variable here (and an
/// accessor below) is the only sanctioned way to introduce one.
pub const ESCAPE_HATCHES: &[EscapeHatch] = &[EscapeHatch {
    name: "GS_DIFF_SEED",
    values: "a `u64`",
    effect: "base seed for the differential test harness (default 1)",
}];

/// The differential-harness base seed, when `GS_DIFF_SEED` is set.
/// A set-but-unparsable value is an operator error worth failing loudly
/// over (the harness would silently test the wrong corpus otherwise),
/// so it returns `Err` with the offending text rather than defaulting.
pub fn diff_seed() -> Result<Option<u64>, String> {
    match std::env::var("GS_DIFF_SEED") {
        Ok(text) => text
            .parse()
            .map(Some)
            .map_err(|_| format!("GS_DIFF_SEED must be a u64, got {text:?}")),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(raw)) => {
            Err(format!("GS_DIFF_SEED must be a u64, got {raw:?}"))
        }
    }
}

/// The README "escape hatches" table, regenerated from
/// [`ESCAPE_HATCHES`]. A test pins the README copy byte-exact to this.
pub fn markdown_table() -> String {
    let mut out = String::from("| Variable | Accepted values | Effect |\n|---|---|---|\n");
    for h in ESCAPE_HATCHES {
        out.push_str(&format!("| `{}` | {} | {} |\n", h.name, h.values, h.effect));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_hatch_is_gs_prefixed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for h in ESCAPE_HATCHES {
            assert!(h.name.starts_with("GS_"), "{} lacks the GS_ prefix", h.name);
            assert!(seen.insert(h.name), "{} declared twice", h.name);
        }
    }

    #[test]
    fn table_lists_every_hatch() {
        let table = markdown_table();
        for h in ESCAPE_HATCHES {
            assert!(table.contains(h.name), "table is missing {}", h.name);
        }
    }

    #[test]
    fn readme_table_matches_registry() {
        // The README's escape-hatches section is generated from this
        // module; regenerate it (or fix the drift) whenever this fails.
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("README.md at the workspace root");
        let table = markdown_table();
        assert!(
            readme.contains(&table),
            "README escape-hatches table is stale; expected it verbatim:\n{table}"
        );
        // Exactly one copy, and no row of a retired hatch beside it.
        let rows = readme.lines().filter(|l| l.starts_with("| `GS_")).count();
        assert_eq!(
            rows,
            ESCAPE_HATCHES.len(),
            "README has a `GS_` row the registry does not declare"
        );
    }
}
