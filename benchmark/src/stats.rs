//! Robust summaries of a handful of timed passes.

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice: a metric with no samples must not be printed.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// `(max − min) / median`: how far the passes of one run disagree.
pub fn rel_spread(xs: &[f64]) -> f64 {
    let (lo, hi) = xs
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    (hi - lo) / median(xs)
}

/// Relative change from `a` to `b`, signed so that positive means *worse*
/// for a metric whose better direction is `higher_is_better`.
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let delta = (b - a) / a;
    if higher_is_better {
        -delta
    } else {
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One preempted pass does not move the median.
        assert_eq!(median(&[1.0, 1.0, 1.0, 1.0, 40.0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn median_of_nothing_panics() {
        median(&[]);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(rel_spread(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(rel_spread(&[1.0, 2.0, 4.0]), 1.5);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert_eq!(worsening(2.0, 3.0, false), 0.5); // slower
        assert_eq!(worsening(2.0, 3.0, true), -0.5); // more throughput
        assert_eq!(worsening(4.0, 3.0, true), 0.25);
    }
}
