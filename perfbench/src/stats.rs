//! Exact order statistics over raw samples.

/// Sort a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of sorted samples (mean of the two middle ones when the
/// count is even); NaN when empty.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile of sorted samples: the smallest sample with at
/// least a fraction `q` of the samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics_are_exact() {
        let v = sorted(&(1..=1000).rev().map(f64::from).collect::<Vec<_>>());
        assert_eq!(median(&v), 500.5);
        assert_eq!(quantile(&v, 0.99), 990.0);
        assert_eq!(quantile(&v, 1.0), 1000.0);
        assert_eq!(median(&[1.0, 2.0, 7.0]), 2.0);
    }
}
