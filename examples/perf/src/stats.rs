//! Order statistics the benchmark reports: medians, quartiles and
//! nearest-rank percentiles.

/// Sorts a sample in place. Timings and counts are never NaN.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are not NaN"));
}

/// Median of an unsorted sample; `0.0` for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The fastest of a sample of timings; `0.0` for an empty one. On a
/// shared host interference only ever adds time, and it comes in phases
/// that outlast several repetitions, so the fastest repetition repeats
/// from run to run where the median does not (measured on the 2-core
/// sandbox over 20 runs of 16 repetitions: quartile spread 5% for the
/// fastest, 11% for the median).
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them,
/// so that `compare` and the driver agree on what a spread is. A sample
/// of one has no spread: all three are that value.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Nearest-rank percentile of a **sorted** sample: the smallest value
/// with at least `p` percent of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile_matches_the_textbook_definition() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 10.0);
        assert_eq!(percentile(&v, 95.0), 19.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
        // 5 samples: p95 is the 5th (ceil(4.75)), p50 the 3rd.
        let w = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&w, 95.0), 50.0);
        assert_eq!(percentile(&w, 50.0), 30.0);
    }

    #[test]
    fn quartiles_agree_with_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
