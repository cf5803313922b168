//! Summary statistics, the percentile rule, failure accounting and the
//! metric-name rule.

/// Samples that must lie strictly beyond a percentile before it may be
/// reported: a tail read from fewer points is an anecdote, not a figure.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the two middle values for an even
/// count). Panics on an empty slice: every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// A nearest-rank percentile together with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile's value.
    pub value: f64,
    /// Samples the percentile was read from.
    pub n: usize,
    /// Samples ranked strictly above the percentile.
    pub beyond: usize,
}

/// The nearest-rank `p`-th percentile (0 < p < 100) of `samples`, or
/// `None` when fewer than [`MIN_BEYOND`] samples rank above it.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of (0, 100)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return None;
    }
    Some(Percentile {
        value: sorted(samples)[rank - 1],
        n,
        beyond,
    })
}

/// The tail to report for `samples`: the `p`-th percentile when it has
/// [`MIN_BEYOND`] samples beyond it, else the highest percentile that
/// does. `None` when no percentile of `samples` has that many beyond.
pub fn tail(samples: &[f64], p: f64) -> Option<(f64, Percentile)> {
    if let Some(q) = percentile(samples, p) {
        return Some((p, q));
    }
    let n = samples.len();
    let rank = n.checked_sub(MIN_BEYOND).filter(|&r| r > 0)?;
    let q = Percentile {
        value: sorted(samples)[rank - 1],
        n,
        beyond: MIN_BEYOND,
    };
    Some((100.0 * rank as f64 / n as f64, q))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Attempted/failed bookkeeping for one benchmark run. A run fails on a
/// panic or a k-bits mismatch; a served request fails on a reject, an
/// error frame or a payload mismatch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Outcomes {
    /// Count one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Mark an already counted operation as failed (a check that ran
    /// after the operation itself, e.g. a replay mismatch).
    pub fn fail_counted(&mut self) {
        assert!(self.failed < self.attempted, "more failures than attempts");
        self.failed += 1;
    }

    /// Failed operations ÷ attempted (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Metric names: start with a letter or digit, at most 64 characters
/// from `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(percentile(&ramp(999), 99.0), None);
        let p = percentile(&ramp(1000), 99.0).expect("1000 samples carry p99");
        assert_eq!(p.value, 990.0);
        assert_eq!((p.n, p.beyond), (1000, 10));
    }

    #[test]
    fn p50_needs_ten_samples_above_it() {
        assert_eq!(percentile(&ramp(19), 50.0), None);
        let p = percentile(&ramp(20), 50.0).expect("20 samples carry p50");
        assert_eq!((p.value, p.n, p.beyond), (10.0, 20, 10));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        let (p, q) = tail(&ramp(1000), 99.0).expect("p99 supported");
        assert_eq!((p, q.value), (99.0, 990.0));
        let (p, q) = tail(&ramp(60), 99.0).expect("some tail supported");
        assert_eq!((q.value, q.beyond), (50.0, 10));
        assert!((p - 100.0 * 50.0 / 60.0).abs() < 1e-9);
        assert_eq!(tail(&ramp(10), 99.0), None);
        for n in 11..300 {
            let (_, q) = tail(&ramp(n), 99.0).expect("some tail supported");
            assert!(q.beyond >= MIN_BEYOND, "n = {n}");
        }
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(40);
        v.reverse();
        assert_eq!(percentile(&v, 50.0), percentile(&ramp(40), 50.0));
    }

    #[test]
    fn failed_frac_counts_failures_against_attempts() {
        let mut o = Outcomes::default();
        assert_eq!(o.failed_frac(), 0.0);
        for i in 0..8 {
            o.record(i != 3);
        }
        assert_eq!((o.attempted, o.failed), (8, 1));
        o.fail_counted();
        assert_eq!(o.failed_frac(), 2.0 / 8.0);
    }

    #[test]
    #[should_panic(expected = "more failures than attempts")]
    fn a_failure_needs_an_attempt() {
        Outcomes::default().fail_counted();
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in [
            "wall_s",
            "event.xs_lookup_s",
            "serve.hit_p50_ms",
            "1x",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
