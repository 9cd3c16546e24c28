//! Order statistics over measured samples.

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// The `q`-quantile, but only when at least `min_beyond` samples lie
/// above it, so a tail percentile is never read off a handful of points.
pub fn supported_quantile(values: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    let beyond = ((1.0 - q) * values.len() as f64).floor() as usize;
    (beyond >= min_beyond)
        .then(|| quantile(values, q))
        .flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), Some(5.0));
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        let values: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(supported_quantile(&values, 0.99, 10), None);
        let values: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(supported_quantile(&values, 0.99, 10).is_some());
    }
}
