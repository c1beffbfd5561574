//! Order statistics the benchmark reports: medians, quartiles and the
//! tail rule.

/// `xs` sorted ascending (NaNs last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartile by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
/// `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    if v.len() < 2 {
        return None;
    }
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Samples a tail percentile needs beyond it to mean anything.
pub const TAIL_BEYOND: usize = 10;

/// A tail figure together with the percentile it sits at and the
/// evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at the tail percentile.
    pub value: f64,
    /// The percentile (0–100) of that sample.
    pub percentile: f64,
    /// Samples strictly above the value.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest percentile that has at least [`TAIL_BEYOND`] samples
/// strictly beyond it. `None` when there are not enough samples.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    (0..n).rev().find_map(|i| {
        let beyond = v.iter().filter(|&&x| x > v[i]).count();
        (beyond >= TAIL_BEYOND).then(|| Tail {
            value: v[i],
            percentile: 100.0 * (i + 1) as f64 / n as f64,
            beyond,
            samples: n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).expect("enough samples");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.value), Some(1.0));
    }

    #[test]
    fn tail_steps_below_ties() {
        // Twelve samples, the top three tied: the sample at index n-11
        // ties with nothing above it, so the rule still finds 10 beyond.
        let mut xs: Vec<f64> = (1..=9).map(f64::from).collect();
        xs.extend([50.0, 50.0, 50.0]);
        let t = tail(&xs).expect("enough samples");
        assert_eq!(t.value, 2.0);
        assert_eq!(t.beyond, 10);
        // With a tie straddling the cut the rule walks further down: 2.0
        // has only 9 samples strictly above it.
        let xs = [1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0];
        let t = tail(&xs).expect("enough samples");
        assert_eq!((t.value, t.beyond), (1.0, 11));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
