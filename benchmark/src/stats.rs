//! Order statistics over per-op samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by linear interpolation between
/// the two nearest ranks; 0.0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// How many samples lie strictly beyond the `q`-quantile: the guide
/// asks for at least ten before a percentile is reported as such.
pub fn samples_beyond(xs: &[f64], q: f64) -> usize {
    let cut = quantile(xs, q);
    xs.iter().filter(|&&x| x > cut).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_hand_made_samples() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        // Rank 0.9 * 4 = 3.6: between the 4th and 5th order statistics.
        assert!((quantile(&xs, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn beyond_counts_the_tail() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(samples_beyond(&xs, 0.9), 10);
        assert_eq!(samples_beyond(&xs, 0.5), 50);
    }
}
