//! Sample statistics: medians, quartiles and tail percentiles.

/// A tail percentile is reported only when at least this many samples lie
/// strictly beyond it; with fewer, one outlier decides the value.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Ascending copy of `values` (total order, so NaN cannot panic the sort).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The 1-based nearest rank of percentile `p` (in `0.0..=1.0`) among `n`
/// samples: the smallest rank with at least `p` of the samples at or below.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The largest of `values`; NaN when empty.
pub fn best_high(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::max)
}

/// The smallest of `values`; NaN when empty.
pub fn best_low(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

/// `values` to three decimals, space-separated, for the report.
pub fn list(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Nearest-rank percentile `p` of ascending `sorted`, or `None` when fewer
/// than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let r = rank(n, p);
    (n - r >= MIN_TAIL_SAMPLES).then(|| sorted[r - 1])
}

/// The highest of `candidates` (percentiles in `0.0..=1.0`) that `n`
/// samples support, i.e. with at least [`MIN_TAIL_SAMPLES`] samples beyond
/// it; `None` when no candidate qualifies.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| n > 0 && n - rank(n, p) >= MIN_TAIL_SAMPLES)
        .max_by(f64::total_cmp)
}

/// The tail percentiles the benchmark's tables try.
pub const TABLE_PERCENTILES: [f64; 3] = [0.999, 0.99, 0.9];

/// A one-line description of a sample set for the printed tables: count,
/// median and the highest supported tail percentile (or a note that none
/// qualifies).
pub fn describe(values: &[f64], unit: &str) -> String {
    let s = sorted(values);
    let med = median(&s).map_or("-".to_string(), |m| format!("{m:.4}"));
    let tail = match highest_supported(s.len(), &TABLE_PERCENTILES) {
        Some(p) => format!(
            "p{} {:.4} {unit}",
            p * 100.0,
            tail_percentile(&s, p).unwrap_or(f64::NAN)
        ),
        None => format!("no tail percentile has {MIN_TAIL_SAMPLES} samples beyond it"),
    };
    format!("n={} median {med} {unit}, {tail}", s.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 1000 samples: rank 990 leaves exactly 10 beyond it.
        assert_eq!(tail_percentile(&ramp(1000), 0.99), Some(990.0));
        // 999 samples: rank 990 leaves only 9 beyond it.
        assert_eq!(tail_percentile(&ramp(999), 0.99), None);
    }

    #[test]
    fn the_highest_supported_percentile_is_reported() {
        let all = [0.999, 0.99, 0.9, 0.5];
        assert_eq!(highest_supported(20_000, &all), Some(0.999));
        assert_eq!(highest_supported(1_000, &all), Some(0.99));
        assert_eq!(highest_supported(500, &all), Some(0.9));
        assert_eq!(highest_supported(20, &all), Some(0.5));
    }

    #[test]
    fn no_percentile_qualifies_for_tiny_sets() {
        let all = [0.999, 0.99, 0.9, 0.5];
        assert_eq!(highest_supported(19, &all), None);
        assert_eq!(highest_supported(0, &all), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
        assert!(describe(&ramp(5), "ms").contains("no tail percentile"));
    }

    #[test]
    fn best_values_skip_nothing_and_flag_empty_sets() {
        assert_eq!(best_high(&[2.0, 5.0, 3.0]), 5.0);
        assert_eq!(best_low(&[2.0, 5.0, 3.0]), 2.0);
        assert!(best_high(&[]).is_nan());
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
