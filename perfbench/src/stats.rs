//! Order statistics over measured samples.

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `p`-quantile of `values` by the nearest-rank rule (0 for an
/// empty slice). NaNs must not occur; callers pass timings and counts.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest percentile (in whole tenths of a percent, at most 99.9)
/// that still has at least ten samples beyond it, with its value, or
/// `None` when that percentile would be below the 90th (fewer than 100
/// samples), where it no longer describes a tail.
pub fn supported_tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 100 {
        return None;
    }
    let p = ((1.0 - 10.0 / n as f64) * 1000.0).floor().min(999.0) / 1000.0;
    Some((100.0 * p, percentile(values, p)))
}

/// A log₂-bucketed obskit histogram's `p`-quantile, interpolated
/// linearly inside the bucket that holds the target rank so the result
/// moves with the data instead of snapping to powers of two.
pub fn hist_quantile(buckets: &[(u64, u64)], p: f64) -> f64 {
    let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return 0.0;
    }
    let target = (p * total as f64).max(1.0);
    let mut seen = 0.0;
    for &(upper, count) in buckets {
        let lower = if upper == 0 {
            0.0
        } else {
            (upper / 2 + 1) as f64
        };
        let next = seen + count as f64;
        if next >= target {
            let frac = (target - seen) / count as f64;
            return lower + frac * (upper as f64 - lower);
        }
        seen = next;
    }
    buckets.last().map_or(0.0, |&(upper, _)| upper as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        assert!(supported_tail(&[1.0; 99]).is_none());
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, value) = supported_tail(&v).unwrap();
        assert_eq!(p, 99.0);
        assert_eq!(value, 990.0);
    }

    #[test]
    fn hist_quantile_interpolates_within_bucket() {
        // 10 observations in [512, 1023].
        let q = hist_quantile(&[(1023, 10)], 0.5);
        assert!(q > 512.0 && q < 1023.0, "{q}");
        assert_eq!(hist_quantile(&[], 0.5), 0.0);
    }
}
