//! Order statistics and the regression-bound arithmetic `compare` and
//! `check` share.

/// Sort a sample ascending (NaNs are a harness bug, so they panic).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
    v
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p` percent of the sample at or below it. `p` in (0, 100].
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an ascending sample: the middle value, or the mean of the
/// two middle values for an even count.
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of an unsorted sample.
pub fn median_of(v: &[f64]) -> f64 {
    median(&sorted(v.to_vec()))
}

/// First quartile, median and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// driver's spread rule is written in. Needs at least two values.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    assert!(n >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median: the spread the driver
/// holds against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let (q1, q2, q3) = quartiles(&s);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// `compare`'s verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so
    /// a difference of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much `new` is worse than `base`, as a share of `base`
/// (negative when it is better), in the metric's own direction.
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// Judge `new` against `base` under `bound`. `spread` is the wider of the
/// two sides' spreads (0 when a side has a single run).
pub fn verdict(base: f64, new: f64, better: Better, bound: f64, spread: f64) -> Verdict {
    let w = worsening(base, new, better);
    if spread > bound {
        Verdict::Unresolved
    } else if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_a_sorted_reference() {
        // Nearest rank on 1..=200: the p-th percentile is ceil(p/100 * 200).
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        for p in [1.0, 25.0, 50.0, 90.0, 99.0, 99.5, 100.0] {
            let want = (p / 100.0 * 200.0_f64).ceil();
            assert_eq!(percentile(&v, p), want, "p{p}");
        }
        // Brute force on an irregular sample: the smallest element with at
        // least p% of the sample at or below it.
        let s = sorted(vec![9.0, 1.0, 4.0, 4.0, 7.0, 2.0, 8.0]);
        for p in [10.0, 33.0, 50.0, 75.0, 99.0] {
            let want = *s
                .iter()
                .find(|&&x| {
                    s.iter().filter(|&&y| y <= x).count() as f64 >= p / 100.0 * s.len() as f64
                })
                .unwrap();
            assert_eq!(percentile(&s, p), want, "p{p}");
        }
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn median_and_quartiles() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(median_of(&[9.0, 1.0, 2.0]), 2.0);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bound_arithmetic() {
        use Better::*;
        assert!((worsening(100.0, 110.0, Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Higher) + 0.10).abs() < 1e-12);
        assert_eq!(verdict(100.0, 104.0, Lower, 0.05, 0.01), Verdict::Same);
        assert_eq!(verdict(100.0, 106.0, Lower, 0.05, 0.01), Verdict::Worse);
        assert_eq!(verdict(100.0, 94.0, Lower, 0.05, 0.01), Verdict::Better);
        assert_eq!(verdict(100.0, 94.0, Higher, 0.05, 0.01), Verdict::Worse);
        assert_eq!(verdict(100.0, 106.0, Higher, 0.05, 0.01), Verdict::Better);
        // A zero bound makes any worsening a regression.
        assert_eq!(verdict(4.0, 4.001, Lower, 0.0, 0.0), Verdict::Worse);
        assert_eq!(verdict(4.0, 4.0, Lower, 0.0, 0.0), Verdict::Same);
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved() {
        // Even a large apparent gain is not resolved when the runs of one
        // side disagree by more than the bound.
        assert_eq!(
            verdict(100.0, 80.0, Better::Lower, 0.05, 0.08),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(100.0, 120.0, Better::Lower, 0.05, 0.08),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(100.0, 120.0, Better::Lower, 0.05, 0.05),
            Verdict::Worse
        );
    }
}
