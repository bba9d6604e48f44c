//! Small-sample statistics for the benchmark reports, and the naming rule
//! every metric and workload name must satisfy.

/// Median of `values` (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample: a report without samples is a
/// bug in the runner, not a value to print.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the same cut points
/// Python's `statistics.quantiles(values, n=4)` returns, which is what the
/// acceptance check computes its spread from. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let sorted = sorted(values);
    let cut = |quarter: usize| {
        let pos = quarter * (sorted.len() + 1);
        let j = (pos / 4).clamp(1, sorted.len() - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median: the run-to-run spread the
/// benchmark contract bounds.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// The highest of p50/p90/p95/p99 that still has at least ten samples
/// beyond it: p95 at n = 200, nothing above the median at n = 5. `None`
/// when even the median is unsupported (n < 20).
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90, 50]
        .into_iter()
        .find(|p| n * (100 - *p as usize) >= 1000)
}

/// Nearest-rank percentile (`p` in 1..=100) of `values`.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    assert!((1..=100).contains(&p), "percentile out of range");
    let sorted = sorted(values);
    let rank = (p as usize * sorted.len()).div_ceil(100);
    sorted[rank.max(1) - 1]
}

/// Failures as a share of attempts; an empty run counts as all-failed so a
/// workload that attempted nothing can never read as clean.
pub fn share_of_failures(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Whether `name` is a legal metric or workload name: starts with a letter
/// or digit, then letters, digits, `_`, `.`, `-`; at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_support_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(200), Some(95));
        assert_eq!(highest_supported_percentile(1000), Some(99));
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(20), Some(50));
        assert_eq!(highest_supported_percentile(5), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 100.0);
        assert_eq!(percentile(&v, 95), 190.0);
        assert_eq!(percentile(&v, 100), 200.0);
    }

    #[test]
    fn failure_share_counts_an_empty_run_as_failed() {
        assert_eq!(share_of_failures(0, 100), 0.0);
        assert_eq!(share_of_failures(5, 100), 0.05);
        assert_eq!(share_of_failures(0, 0), 1.0);
    }

    #[test]
    fn names_follow_the_contract_alphabet() {
        for ok in ["tcp_full", "netsim.fork_us.star64", "p95-ms", "7up"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
