//! Order statistics over timing samples.

/// Median of `xs` (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Geometric mean of the positive values in `xs`; 0 when there are none.
pub fn geomean(xs: &[f64]) -> f64 {
    let logs: Vec<f64> = xs.iter().filter(|x| **x > 0.0).map(|x| x.ln()).collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Arithmetic mean; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Percentiles a tail may be reported at, in thousandths, highest first.
const TAIL_LADDER: [(u32, &str); 6] = [
    (999, "p99.9"),
    (990, "p99"),
    (950, "p95"),
    (900, "p90"),
    (750, "p75"),
    (500, "p50"),
];

/// The highest percentile of the ladder that leaves at least ten of `n`
/// samples beyond it, or `max` when even the median leaves fewer.
pub fn tail_level(n: usize) -> (f64, &'static str) {
    TAIL_LADDER
        .iter()
        .find(|(k, _)| n as u64 * (1000 - *k as u64) >= 10_000)
        .map_or((1.0, "max"), |(k, name)| (f64::from(*k) / 1000.0, *name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_level(5).1, "max");
        assert_eq!(tail_level(20).1, "p50");
        assert_eq!(tail_level(100).1, "p90");
        assert_eq!(tail_level(1000).1, "p99");
    }
}
