//! Order statistics over measured samples.

/// Median of `values` (mean of the two middle values for an even count);
/// NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100] of `values`; NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let sorted = sorted(values);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of `values`; NaN when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The highest percentile that still has ten samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample with exactly ten larger samples ranked above it.
    pub value: f64,
    /// Which percentile that sample is, in percent.
    pub percentile: f64,
    /// How many samples the tail was taken from.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Picks the highest percentile with at least [`TAIL_BEYOND`] samples
/// beyond it: the `(n - 10)`-th smallest sample, i.e. percentile
/// `100 · (n - 10) / n`. `None` with ten samples or fewer.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let sorted = sorted(values);
    Some(Tail {
        value: sorted[n - TAIL_BEYOND - 1],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let v: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&v).expect("eleven samples give a tail");
        assert_eq!(t.value, 0.0);
        assert_eq!(t.samples, 11);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 1000 samples: the tail is p99, with ten samples above it.
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        v.reverse();
        let t = tail(&v).expect("enough samples");
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);

        // 50 samples: the tail falls back to p80.
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        let t = tail(&v).expect("enough samples");
        assert_eq!(t.percentile, 80.0);
        assert_eq!(t.value, 40.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }
}
