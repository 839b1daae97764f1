//! The `graph-sketch` stream format.
//!
//! One update per line, Definition 1 style:
//!
//! ```text
//! # comments and blank lines are ignored
//! + 0 5        insert edge {0,5}
//! - 0 5        delete edge {0,5}
//! + 3 7 12     insert edge {3,7} with weight 12 (weighted commands only)
//! ```
//!
//! Vertices are `0..n` with `n` given on the command line.
//!
//! A line parses to the value-carrying [`EdgeUpdate`] every sketch
//! ingests: `± u v w` is `delta = ±w` (`w` defaults to 1). Unit sketches
//! read `|delta|` as a multiplicity, mst and weighted-sparsify read it as
//! the edge weight.

use gs_sketch::EdgeUpdate;
use std::fmt;

/// A line-level parse error with context.
#[derive(Debug)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses one line; `Ok(None)` for blanks/comments.
pub fn parse_line(line: &str, lineno: usize, n: usize) -> Result<Option<EdgeUpdate>, ParseError> {
    let err = |message: String| ParseError {
        line: lineno,
        message,
    };
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let mut parts = trimmed.split_whitespace();
    let op = parts.next().expect("non-empty");
    let sign = match op {
        "+" => 1,
        "-" => -1,
        other => return Err(err(format!("expected '+' or '-', got {other:?}"))),
    };
    let mut field = |name: &str| -> Result<u64, ParseError> {
        parts
            .next()
            .ok_or_else(|| err(format!("missing {name}")))?
            .parse::<u64>()
            .map_err(|e| err(format!("bad {name}: {e}")))
    };
    let u = field("first endpoint")? as usize;
    let v = field("second endpoint")? as usize;
    let w = match parts.next() {
        Some(tok) => tok
            .parse::<u64>()
            .map_err(|e| err(format!("bad weight: {e}")))?,
        None => 1,
    };
    if parts.next().is_some() {
        return Err(err("trailing tokens".into()));
    }
    if u == v {
        return Err(err(format!("self-loop ({u},{u}) not allowed")));
    }
    if u >= n || v >= n {
        return Err(err(format!("endpoint out of range (n = {n})")));
    }
    if w == 0 {
        return Err(err("zero weight".into()));
    }
    // Weights travel as the magnitude of a signed i64 delta downstream.
    if w > i64::MAX as u64 {
        return Err(err(format!("weight {w} exceeds {}", i64::MAX)));
    }
    Ok(Some(EdgeUpdate::weighted(u, v, w, sign)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whole-buffer convenience for the tests; the CLI itself parses
    /// stdin line by line so memory stays O(chunk).
    fn parse_stream(input: &str, n: usize) -> Result<Vec<EdgeUpdate>, ParseError> {
        let mut out = Vec::new();
        for (i, line) in input.lines().enumerate() {
            if let Some(up) = parse_line(line, i + 1, n)? {
                out.push(up);
            }
        }
        Ok(out)
    }

    #[test]
    fn parses_inserts_and_deletes() {
        assert_eq!(
            parse_line("+ 0 5", 1, 10).unwrap(),
            Some(EdgeUpdate::insert(0, 5))
        );
        assert_eq!(
            parse_line("- 3 7 12", 1, 10).unwrap(),
            Some(EdgeUpdate::weighted(3, 7, 12, -1))
        );
    }

    #[test]
    fn skips_comments_and_blanks() {
        assert_eq!(parse_line("# hello", 1, 4).unwrap(), None);
        assert_eq!(parse_line("   ", 1, 4).unwrap(), None);
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "* 1 2",
            "+ 0 1 9223372036854775808", // weight > i64::MAX would wrap the delta
            "+ 1",
            "+ 1 2 3 4",
            "+ 1 1",
            "+ 0 99",
            "+ 0 1 0",
            "+ x y",
        ] {
            assert!(parse_line(bad, 3, 10).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn error_carries_line_number() {
        let e = parse_stream("+ 0 1\n+ 5 5\n", 10).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("self-loop"));
    }

    #[test]
    fn parses_whole_stream() {
        let ups = parse_stream("# g\n+ 0 1\n+ 1 2\n- 0 1\n", 5).unwrap();
        assert_eq!(ups.len(), 3);
        assert_eq!(ups[2].delta, -1);
    }
}
