//! Order statistics over timed samples.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; `NaN` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100); `NaN` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Samples a tail estimate must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it:
/// the sample with exactly that many above it, and its percentile
/// `100·(N − TAIL_BEYOND)/N`. Refuses (returns `None`) below
/// `TAIL_BEYOND + 1` samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let k = n - TAIL_BEYOND - 1;
    Some((100.0 * (k + 1) as f64 / n as f64, v[k]))
}

/// Least-squares slope of `y` on `x`.
pub fn slope(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let sxx: f64 = x.iter().map(|a| (a - mx) * (a - mx)).sum();
    sxy / sxx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_refuses_without_ten_samples_beyond() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        assert_eq!(tail(&[]), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let (pct, value) = tail(&eleven).unwrap();
        assert_eq!(value, 0.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_leaves_exactly_ten_beyond() {
        let samples: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let (pct, value) = tail(&samples).unwrap();
        assert_eq!(samples.iter().filter(|&&s| s > value).count(), TAIL_BEYOND);
        assert_eq!(pct, 99.0);
    }

    #[test]
    fn median_percentile_and_slope() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 100.0), 4.0);
        assert!((slope(&[0.0, 1.0, 2.0], &[1.0, 3.0, 5.0]) - 2.0).abs() < 1e-12);
    }
}
