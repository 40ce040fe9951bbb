//! Order statistics for the benchmark's samples.

/// The median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// The sorted index the tail rule reports for `n` samples: the highest
/// rank, at most the 99th percentile, with at least ten samples beyond it.
/// With fewer than twenty samples no such rank reaches the median, and the
/// rule falls back to the median rank.
pub fn tail_index(n: usize) -> usize {
    let median = n.saturating_sub(1) / 2;
    if n < 11 {
        return median;
    }
    let p99 = (n * 99).div_ceil(100) - 1;
    p99.min(n - 11).max(median)
}

/// A tail value with the percentile it sits at and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// The tail of `samples` by [`tail_index`]; where that rank is the median
/// (at most 21 samples), the median as [`median`] gives it.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= 21 {
        return median(samples).map(|value| Tail {
            value,
            percentile: 50.0,
            samples: n,
        });
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let i = tail_index(n);
    Some(Tail {
        value: s[i],
        percentile: 100.0 * (i + 1) as f64 / n as f64,
        samples: n,
    })
}

/// Integer nanosecond samples as `f64`.
pub fn as_f64(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&v| v as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beyond(n: usize) -> usize {
        n - 1 - tail_index(n)
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        for n in 20..5_000 {
            assert!(beyond(n) >= 10, "n = {n}");
        }
    }

    #[test]
    fn tail_is_the_highest_such_rank_up_to_p99() {
        // Exactly ten beyond until the 99th percentile caps the rank.
        assert_eq!(beyond(100), 10);
        assert_eq!(beyond(500), 10);
        assert_eq!(beyond(1_000), 10);
        assert_eq!(tail_index(1_000), 989);
        // Past 1 000 samples the cap is p99 and more than ten lie beyond.
        assert_eq!(tail_index(2_000), 1_979);
        assert_eq!(beyond(2_000), 20);
    }

    #[test]
    fn small_samples_fall_back_to_the_median() {
        assert_eq!(tail_index(1), 0);
        assert_eq!(tail_index(7), 3);
        assert_eq!(tail_index(15), 7);
        assert_eq!(tail_index(20), 9);
        let t = tail(&[5.0, 1.0, 3.0, 2.0]).expect("non-empty");
        assert_eq!(t.value, 2.5, "the median of an even count");
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.samples, 4);
    }

    #[test]
    fn tail_reports_its_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).expect("non-empty");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
