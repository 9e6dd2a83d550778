//! Sample summaries: percentiles, and medians read back from the
//! registry's log2 histograms.

/// Percentiles a timing may be reported at, lowest first, in tenths of
/// a percent (integers, so "ten samples beyond" is decided exactly).
const LADDER: [u64; 5] = [500, 900, 950, 990, 999];

/// The `p`-th percentile (0..=100) of `samples`, by linear interpolation
/// between closest ranks. `0.0` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The highest percentile on the reporting ladder that still has at
/// least ten samples beyond it, for `n` samples: the tail a report can
/// claim without resting on a handful of outliers. `None` below 20
/// samples, where not even the median has ten samples above it.
pub fn highest_admissible(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| n as u64 * (1000 - p) >= 10 * 1000)
        .map(|p| p as f64 / 10.0)
}

/// A report line giving a timing's sample count and the highest
/// percentile it supports, flagging a reported percentile beyond that.
pub fn sample_note(what: &str, n: usize, reported: f64) -> String {
    match highest_admissible(n) {
        Some(p) if p >= reported => format!("samples: {what} n={n}, highest admissible percentile p{p}"),
        Some(p) => format!(
            "samples: {what} n={n}, highest admissible percentile p{p}; the reported p{reported} has fewer than ten samples beyond it"
        ),
        None => format!("samples: {what} n={n}, fewer than ten beyond any percentile"),
    }
}

/// The median of a log2-bucketed registry histogram (bucket `b > 0`
/// holds values in `[2^(b-1), 2^b)`), read as the bucket's geometric
/// midpoint. `0.0` for an empty histogram.
pub fn log2_hist_median(buckets: &[u64]) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut seen = 0u64;
    for (b, &count) in buckets.iter().enumerate() {
        seen += count;
        if 2 * seen >= total {
            return if b == 0 {
                0.0
            } else {
                2f64.powf(b as f64 - 0.5)
            };
        }
    }
    unreachable!("the running sum reaches the total")
}

/// Geometric mean of positive values; `0.0` for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert_eq!(
            percentile(&[4.0, 1.0], 50.0),
            2.5,
            "input order does not matter"
        );
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn admissible_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_admissible(19), None);
        assert_eq!(highest_admissible(20), Some(50.0));
        assert_eq!(highest_admissible(99), Some(50.0));
        assert_eq!(highest_admissible(100), Some(90.0));
        // The benchmark's own sample counts: 112 points admit p90, the
        // 336 daemon jobs admit p95, and p99 needs a thousand samples.
        assert_eq!(highest_admissible(112), Some(90.0));
        assert_eq!(highest_admissible(336), Some(95.0));
        assert_eq!(highest_admissible(999), Some(95.0));
        assert_eq!(highest_admissible(1000), Some(99.0));
        assert_eq!(highest_admissible(10_000), Some(99.9));
    }

    #[test]
    fn sample_note_flags_an_undersampled_tail() {
        assert!(!sample_note("x", 112, 90.0).contains("fewer"));
        assert!(sample_note("x", 56, 90.0).contains("fewer than ten samples beyond it"));
    }

    #[test]
    fn histogram_median_is_the_bucket_midpoint() {
        let mut b = [0u64; 32];
        assert_eq!(log2_hist_median(&b), 0.0);
        b[11] = 3; // values in [1024, 2048)
        b[20] = 1;
        let m = log2_hist_median(&b);
        assert!((1024.0..2048.0).contains(&m), "{m}");
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
