//! Order statistics over timing samples.

/// Percentiles the tail helper may report, in per-mille, highest first.
const TAIL_LADDER: [u64; 4] = [999, 990, 900, 500];

/// Samples a percentile needs beyond it before it is reported as a tail.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`per_mille` / 1000) of ascending `sorted`:
/// the smallest sample with at least that share of samples at or below
/// it. Integer arithmetic, so p99 of 1000 samples is exactly rank 990.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], per_mille: u64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len() as u64;
    let rank = (per_mille * n).div_ceil(1000).max(1);
    sorted[(rank - 1) as usize]
}

/// Samples strictly beyond the nearest-rank `per_mille` percentile.
pub fn beyond(n: usize, per_mille: u64) -> usize {
    n - ((per_mille * n as u64).div_ceil(1000).max(1) as usize).min(n)
}

/// The highest ladder percentile (p99.9, p99, p90, p50) that has at least
/// ten samples beyond it, as `(per_mille, value)`; `None` below 20 samples.
pub fn tail(sorted: &[f64]) -> Option<(u64, f64)> {
    TAIL_LADDER
        .iter()
        .find(|&&pm| beyond(sorted.len(), pm) >= MIN_BEYOND)
        .map(|&pm| (pm, percentile(sorted, pm)))
}

/// Sorts a copy of `xs` ascending (timings are never NaN).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median by nearest rank (0 for no samples).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        percentile(&sorted(xs), 500)
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs = ramp(1000);
        assert_eq!(percentile(&xs, 500), 500.0);
        assert_eq!(percentile(&xs, 990), 990.0);
        assert_eq!(percentile(&xs, 999), 999.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
        assert_eq!(percentile(&ramp(3), 0), 1.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&ramp(20)), Some((500, 10.0)));
        assert_eq!(tail(&ramp(99)), Some((500, 50.0)));
        assert_eq!(tail(&ramp(100)), Some((900, 90.0)));
        assert_eq!(tail(&ramp(999)), Some((900, 900.0)));
        assert_eq!(tail(&ramp(1000)), Some((990, 990.0)));
        assert_eq!(tail(&ramp(10_000)), Some((999, 9990.0)));
        for n in [20, 100, 1000, 10_000] {
            let (pm, _) = tail(&ramp(n)).unwrap();
            assert!(beyond(n, pm) >= 10, "n={n} p={pm}");
        }
    }

    #[test]
    fn median_and_ratio_handle_empty_inputs() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
