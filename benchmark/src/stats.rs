//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest sample with at
/// least `p` (0 < p ≤ 1) of the samples at or below it. Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The latency of the fastest tenth of the samples (nearest-rank 10th percentile).
///
/// Interference from a shared host only ever adds time, and it comes in bursts that
/// last a few rounds. The low decile is what the program costs when it is left alone:
/// it repeats from run to run on a host where the median of the same samples moves by
/// a quarter. Panics on no samples.
pub fn fast_decile(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.10)
}

/// Median (mean of the two middle samples for an even count). Panics on no samples.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Geometric mean of positive values. Panics on no values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// How far apart the values lie: `(max - min) / min`. Zero when all are equal.
pub fn relative_spread(values: &[f64]) -> f64 {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max == min {
        0.0
    } else {
        (max - min) / min.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.50), 50.0);
        assert_eq!(percentile(&samples, 0.95), 95.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        assert_eq!(percentile(&samples, 0.001), 1.0);
        // Twenty samples lie beyond the p95 of four hundred.
        let many: Vec<f64> = (1..=400).map(f64::from).collect();
        let p95 = percentile(&many, 0.95);
        assert_eq!(many.iter().filter(|v| **v > p95).count(), 20);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn fast_decile_ignores_a_slow_majority() {
        // Two quiet rounds among eleven disturbed ones: rank ceil(1.3) = 2.
        let mut samples = vec![125.0, 124.0];
        samples.extend([
            160.0, 187.0, 169.0, 140.0, 139.0, 181.0, 134.0, 175.0, 161.0, 150.0, 155.0,
        ]);
        assert_eq!(fast_decile(&samples), 125.0);
        assert_eq!(fast_decile(&[3.0]), 3.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn geomean_and_spread() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((relative_spread(&[100.0, 110.0, 125.0]) - 0.25).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0]), 0.0);
        assert_eq!(relative_spread(&[0.0, 1.0]), f64::INFINITY);
    }
}
