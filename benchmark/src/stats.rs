//! Order statistics with a support rule.
//!
//! A percentile is only worth reporting when enough samples lie beyond
//! it to pin it down: with fewer than [`MIN_TAIL`] samples above the
//! rank, a single slow sample moves the figure. [`percentile`] refuses
//! such requests, so p99 needs at least 1000 samples.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Percentiles [`highest_supported`] chooses from, highest first.
const LADDER: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// 1-based nearest rank of quantile `q` in `n` samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether `n` samples support quantile `q`: at least [`MIN_TAIL`]
/// samples lie beyond its nearest rank.
pub fn supports(q: f64, n: usize) -> bool {
    n > 0 && n - rank(q, n) >= MIN_TAIL
}

/// Nearest-rank quantile `q` (in `0..1`) of `samples`, or `None` when
/// the sample count does not support it (see [`supports`]).
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if !supports(q, samples.len()) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(q, sorted.len()) - 1])
}

/// The highest percentile of `[99.9, 99, 90, 50]` that `n` samples
/// support, as a quantile in `0..1`.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&q| supports(q, n))
}

/// Median of `samples` (mean of the two middle values for an even
/// count). Used for repeated whole-phase timings, where a run holds a
/// handful of repeats rather than a distribution; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(samples.iter().sum::<f64>() / samples.len() as f64)
}

/// One line describing a latency distribution: median, the highest
/// supported percentile and the sample count.
pub fn describe(name: &str, unit: &str, samples: &[f64]) -> String {
    let n = samples.len();
    let mut line = format!("{name}: n={n}");
    if let Some(p50) = percentile(samples, 0.5) {
        line.push_str(&format!(" p50={p50:.4}{unit}"));
    }
    if let Some(q) = highest_supported(n).filter(|&q| q > 0.5) {
        let v = percentile(samples, q).expect("highest_supported checked the support");
        line.push_str(&format!(
            " p{}={v:.4}{unit} ({} beyond)",
            (q * 1000.0).round() / 10.0,
            n - rank(q, n)
        ));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled order, so sorting is exercised.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(percentile(&ramp(999), 0.99).is_none());
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(1024), 0.99), Some(1014.0));
    }

    #[test]
    fn median_needs_twenty_samples_as_a_percentile() {
        assert!(percentile(&ramp(19), 0.5).is_none());
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        // The plain median has no support rule.
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn highest_supported_percentile_has_ten_samples_beyond() {
        assert_eq!(highest_supported(5), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        for n in [20, 100, 1000, 1024, 10_000, 12_345] {
            let q = highest_supported(n).unwrap();
            assert!(n - rank(q, n) >= MIN_TAIL, "n={n} q={q}");
        }
    }

    #[test]
    fn describe_prints_the_sample_count() {
        let line = describe("commit", "ms", &ramp(1000));
        assert_eq!(
            line,
            "commit: n=1000 p50=500.0000ms p99=990.0000ms (10 beyond)"
        );
        assert_eq!(describe("solve", "s", &ramp(4)), "solve: n=4");
        assert!(describe("x", "ms", &ramp(10_000)).contains(" p99.9="));
    }
}
