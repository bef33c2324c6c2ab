//! Order statistics over raw samples.
//!
//! Every percentile the benchmark reports is computed here from the raw
//! per-request samples (never from a power-of-two histogram), with the
//! nearest-rank rule, and is only trusted when at least [`MIN_BEYOND`]
//! samples lie beyond it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` (in `0..=1`) in `n` sorted samples:
/// the smallest index whose sample covers at least `q * n` samples.
pub fn rank_index(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    let covered = (q * n as f64).ceil() as usize;
    covered.clamp(1, n) - 1
}

/// How many of `n` samples lie beyond the nearest-rank `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank_index(n, q) - 1
}

/// The smallest sample count with at least [`MIN_BEYOND`] samples beyond the
/// `q` percentile (100 for p90, 1000 for p99).
pub fn min_samples(q: f64) -> usize {
    (1..).find(|&n| beyond(n, q) >= MIN_BEYOND).expect("some count suffices")
}

/// The nearest-rank `q` percentile of `samples` (any order).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank_index(sorted.len(), q)]
}

/// Consecutive windows `samples` (in time order) is cut into for the `q`
/// percentile: as many as leave each window at least [`min_samples`]`(q)`
/// samples, and at least one.
pub fn windows(n: usize, q: f64) -> usize {
    (n / min_samples(q)).max(1)
}

/// The `q` percentile of `samples` (in time order) that one burst of host
/// noise cannot move: the samples are cut into [`windows`]`(n, q)`
/// consecutive windows of (nearly) equal size, and the median of the
/// windows' nearest-rank `q` percentiles is returned. Each window holds at
/// least ten samples beyond its percentile; a burst that slows the system
/// for less than half of the windows leaves the result where it was, while a
/// slowdown throughout moves every window and so the result.
pub fn windowed_percentile(samples: &[f64], q: f64) -> f64 {
    let n = samples.len();
    let w = windows(n, q);
    let per_window: Vec<f64> =
        (0..w).map(|k| percentile(&samples[k * n / w..(k + 1) * n / w], q)).collect();
    median(&per_window)
}

/// `pNN_ms=<value> n=<samples> windows=<w> beyond=<samples past it per
/// window>`, flagged when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_report(samples: &[f64], q: f64) -> String {
    if samples.is_empty() {
        return format!("p{:.0}_ms: no samples", q * 100.0);
    }
    let n = samples.len();
    let w = windows(n, q);
    let per_window = n / w;
    let flag = if beyond(per_window, q) < MIN_BEYOND { " (too few samples beyond it)" } else { "" };
    format!(
        "p{:.0}_ms={:.3} n={n} windows={w} beyond={} per window (pooled: {:.3}){flag}",
        q * 100.0,
        windowed_percentile(samples, q),
        beyond(per_window, q),
        percentile(samples, q),
    )
}

/// `p50 p90 p99 max (n)` of a sample, for human-readable reports.
pub fn profile(samples: &[f64]) -> String {
    if samples.is_empty() {
        return "no samples".to_owned();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| sorted[rank_index(sorted.len(), q)];
    format!(
        "p50={:.3} p90={:.3} p99={:.3} max={:.3} (n={})",
        at(0.5),
        at(0.9),
        at(0.99),
        sorted[sorted.len() - 1],
        sorted.len()
    )
}

/// The median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// `exclusive` method), so the spreads printed here are the ones the
/// benchmark's acceptance rule uses. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(min_samples(0.90), 100);
        assert_eq!(min_samples(0.99), 1000);
        assert_eq!(beyond(100, 0.90), 10);
        assert_eq!(beyond(99, 0.90), 9);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(min_samples(0.5), 20);
    }

    #[test]
    fn windowed_percentiles_shrug_off_a_burst_but_not_a_slowdown() {
        assert_eq!(windows(105, 0.90), 1);
        assert_eq!(windows(105, 0.50), 5);
        assert_eq!(windows(5250, 0.90), 52);
        // every window of 100 samples reads 1..=100 ms: p90 is 90
        let base: Vec<f64> = (0..1000).map(|i| f64::from(i % 100 + 1)).collect();
        assert_eq!(windowed_percentile(&base, 0.90), 90.0);
        assert_eq!(percentile(&base, 0.90), 90.0);
        // a stall multiplies the latency of two windows' worth of requests
        // by ten: the pooled p90 jumps, the windowed one stays put
        let mut burst = base.clone();
        for x in &mut burst[300..500] {
            *x *= 10.0;
        }
        assert!(percentile(&burst, 0.90) > 200.0);
        assert_eq!(windowed_percentile(&burst, 0.90), 90.0);
        // a program twice as slow throughout doubles it
        let slow: Vec<f64> = base.iter().map(|x| 2.0 * x).collect();
        assert_eq!(windowed_percentile(&slow, 0.90), 180.0);
        // with fewer samples than one window needs, it is the pooled value
        assert_eq!(windowed_percentile(&base[..99], 0.90), percentile(&base[..99], 0.90));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
