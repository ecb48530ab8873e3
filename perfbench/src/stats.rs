//! Order statistics over latency samples.

/// The 1-based nearest rank `⌈p·n/100⌉` of the `p`th percentile among
/// `n` samples, clamped to `1..=n`. Computed in basis points so that
/// p99.9 of 10 000 samples is rank 9990 exactly, not one past it.
fn rank(n: usize, p: f64) -> usize {
    let bp = (p * 100.0).round().clamp(0.0, 10_000.0) as usize;
    (bp * n).div_ceil(10_000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p`% of the samples at or below it. `None` for
/// an empty sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), p) - 1])
}

/// Samples strictly beyond the nearest-rank `p`th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Percentiles the tail report may name, highest first.
const TAIL_LADDER: [f64; 4] = [99.99, 99.9, 99.0, 90.0];

/// The highest percentile of [`TAIL_LADDER`] that has at least ten
/// samples beyond it — the tail a sample of `n` supports — or `None`
/// when even p90 does not (fewer than 100 samples).
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| beyond(n, p) >= 10)
}

/// Median of unsorted `samples` (nearest rank), 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 50.0).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&s, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&s, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.5], 99.0), Some(7.5));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(999), Some(90.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(100_000), Some(99.99));
        for n in [100, 1000, 5000, 123_456] {
            let p = supported_tail(n).unwrap();
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn median_is_order_free() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
