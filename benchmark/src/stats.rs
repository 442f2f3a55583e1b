//! Exact order statistics over full sample sets.

/// Sorted samples with nearest-rank percentiles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Sorts `values` (NaN-free) into a sample set.
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples(values)
    }

    /// The samples, ascending.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The nearest-rank `p`-quantile (`p` in `(0, 1]`): the smallest
    /// sample with at least `p · n` samples at or below it. Zero when
    /// empty.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let rank = (p * self.0.len() as f64).ceil() as usize;
        self.0[rank.clamp(1, self.0.len()) - 1]
    }
}

/// The median of `values` (mean of the middle pair for even counts).
/// Zero when empty.
pub fn median(values: &[f64]) -> f64 {
    let s = Samples::new(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s.0[n / 2],
        n => (s.0[n / 2 - 1] + s.0[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(Samples::default().quantile(0.5), 0.0);
    }

    #[test]
    fn distinct_quantiles_stay_distinct() {
        // A log-bucketed histogram can fold p50 and p95 into one bucket;
        // exact order statistics never do.
        let s = Samples::new((0..1000).map(|i| 111.0 + f64::from(i) * 1e-3).collect());
        assert!(s.quantile(0.5) < s.quantile(0.95));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
