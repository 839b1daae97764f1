//! Shared helpers for the experiment harness and criterion benches.
//!
//! The `experiments` binary (`src/bin/experiments.rs`) regenerates the
//! validation table for every figure/theorem of the paper (see DESIGN.md
//! §5 and EXPERIMENTS.md); the criterion benches under `benches/` measure
//! throughput of the same code paths.

#![forbid(unsafe_code)]

/// Prints a fixed-width table row from string cells.
pub fn row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Prints a header row plus separator.
pub fn header(cells: &[&str], widths: &[usize]) {
    row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
}

/// Median of a float sample (sorts a copy).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Maximum of a float sample.
pub fn fmax(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Mean of a float sample.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn fmax_and_mean() {
        assert_eq!(fmax(&[1.0, 5.0, 2.0]), 5.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }
}
