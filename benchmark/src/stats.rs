//! Order statistics.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `percent`% of the samples at or below it (rank
/// `⌈percent·n/100⌉`, 1-based). `percent` is in `1..=100`.
///
/// # Panics
///
/// On an empty slice or a `percent` outside `1..=100`.
pub fn nearest_rank(sorted: &[f64], percent: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(
        (1..=100).contains(&percent),
        "percentile {percent} out of range"
    );
    let rank = (percent * sorted.len()).div_ceil(100);
    sorted[rank - 1]
}

/// `values`, sorted ascending (total order on floats).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(&sorted(values), 50)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}
