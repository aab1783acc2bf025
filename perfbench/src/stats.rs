//! Order statistics for latency samples.

/// A reported high percentile must have at least this many samples
/// above it; with fewer samples the percentile is lowered until it does.
pub const MIN_BEYOND: usize = 10;

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of the samples (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q` percentile of ascending `sorted`, lowered until at
/// least [`MIN_BEYOND`] samples lie above it. Returns the value and the
/// percentile actually reported; `None` when there are too few samples
/// for any percentile to have that many beyond it.
pub fn high_percentile(sorted: &[f64], q: f64) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n - MIN_BEYOND);
    Some((sorted[rank - 1], rank as f64 / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_of_a_large_sample_is_exact() {
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(high_percentile(&xs, 0.99), Some((9900.0, 0.99)));
    }

    #[test]
    fn high_percentile_always_leaves_ten_samples_beyond() {
        for n in 11..3000 {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (value, q) = high_percentile(&xs, 0.99).unwrap();
            let beyond = xs.iter().filter(|&&x| x > value).count();
            assert!(beyond >= MIN_BEYOND, "n={n}: {beyond} beyond");
            // Nearest rank: never more than one rank above p99.
            assert!(q <= 0.99 + 1.0 / n as f64);
        }
        assert_eq!(high_percentile(&[1.0; 10], 0.99), None);
    }

    #[test]
    fn small_samples_fall_back_to_a_lower_percentile() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(high_percentile(&xs, 0.99), Some((30.0, 0.75)));
    }
}
