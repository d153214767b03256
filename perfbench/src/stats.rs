//! Order statistics for timing samples.

/// Percentiles the tail rule chooses from, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Linear-interpolated percentile `p` (0..=100) of `samples`; `None` when
/// empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The tail of a timing distribution as the benchmark reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile reported (e.g. 99.0).
    pub pct: f64,
    /// Value at that percentile.
    pub value: f64,
    /// Number of samples it was taken from.
    pub samples: usize,
}

/// The highest percentile of the ladder with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, with the sample count; `None`
/// when even the lowest rung has fewer.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    TAIL_LADDER
        .iter()
        .find(|&&pct| beyond(n, pct) >= TAIL_MIN_BEYOND)
        .map(|&pct| Tail {
            pct,
            value: percentile(samples, pct).expect("non-empty"),
            samples: n,
        })
}

/// Samples strictly above percentile `pct` of `n` samples.
fn beyond(n: usize, pct: f64) -> usize {
    ((n as f64) * (100.0 - pct) / 100.0 + 1e-9).floor() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 10 000 samples: 10 lie beyond p99.9.
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.pct, t.samples), (99.9, 10_000));
        // 9 999 samples: only 9 beyond p99.9, 99 beyond p99.
        assert_eq!(tail(&ramp(9_999)).unwrap().pct, 99.0);
        assert_eq!(tail(&ramp(1_000)).unwrap().pct, 99.0);
        assert_eq!(tail(&ramp(999)).unwrap().pct, 95.0);
        assert_eq!(tail(&ramp(200)).unwrap().pct, 95.0);
        assert_eq!(tail(&ramp(100)).unwrap().pct, 90.0);
        assert_eq!(tail(&ramp(40)).unwrap().pct, 75.0);
        // Fewer than 40 samples: no rung has ten samples beyond it.
        assert_eq!(tail(&ramp(39)), None);
    }

    #[test]
    fn tail_value_is_the_percentile() {
        let samples: Vec<f64> = (0..=1_000).map(|i| i as f64).collect();
        let t = tail(&samples).unwrap();
        assert_eq!(t.pct, 99.0);
        assert!((t.value - 990.0).abs() < 1e-9);
    }
}
