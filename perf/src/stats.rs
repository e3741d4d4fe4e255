//! Order statistics for the report: median, quartiles (the rule of
//! Python's `statistics.quantiles(n=4)`, the one a driver applies to the
//! printed values), and the tail
//! percentile rule "the highest percentile with at least ten samples
//! beyond it".

/// Percentiles the tail rule chooses from, ascending.
const TAIL_CANDIDATES: [f64; 4] = [0.90, 0.95, 0.99, 0.999];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: f64 = 10.0;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median of a non-empty sample (mean of the two middle values for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First and third quartile by the exclusive method (`(n+1)·i/4` rank,
/// linear interpolation, clamped to the sample). A single sample is its
/// own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest candidate percentile that still has at least ten samples
/// beyond it, with its nearest-rank value; `None` below 100 samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len() as f64;
    let p = TAIL_CANDIDATES
        .iter()
        .copied()
        .rfind(|p| n * (1.0 - p) >= MIN_BEYOND - 1e-9)?;
    let v = sorted(values);
    let rank = ((p * n).ceil() as usize).clamp(1, v.len());
    Some((p, v[rank - 1]))
}

/// Everything the report prints about one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            n: values.len(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            median: median(values),
            q1,
            q3,
            tail: tail(values),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ramp = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        // 99 samples: 9.9 beyond p90 — not enough.
        assert_eq!(tail(&ramp(99)), None);
        // 100 samples: exactly ten beyond p90, five beyond p95.
        assert_eq!(tail(&ramp(100)), Some((0.90, 90.0)));
        assert_eq!(tail(&ramp(199)), Some((0.90, 180.0)));
        assert_eq!(tail(&ramp(200)), Some((0.95, 190.0)));
        assert_eq!(tail(&ramp(1000)), Some((0.99, 990.0)));
        assert_eq!(tail(&ramp(10_000)), Some((0.999, 9990.0)));
    }

    #[test]
    fn summary_collects_all_fields() {
        let s = Summary::of(&[2.0, 1.0, 3.0]);
        assert_eq!(
            (s.n, s.min, s.median, s.q1, s.q3, s.tail),
            (3, 1.0, 2.0, 1.0, 3.0, None)
        );
    }
}
