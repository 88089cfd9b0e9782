//! Order statistics over latency samples.

use std::time::Duration;

/// The percentile ladder the ledger reports from, each with the share of
/// the sample beyond it in parts per thousand.
const LADDER: [(f64, usize); 6] = [
    (50.0, 500),
    (75.0, 250),
    (90.0, 100),
    (95.0, 50),
    (99.0, 10),
    (99.9, 1),
];

/// The highest percentile of the ladder that still has at least ten samples
/// beyond it in a sample of `n` — the tail a sample this size can support.
/// `None` below twenty samples, where not even the median qualifies.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .find(|(_, beyond)| n * beyond >= 10 * 1000)
        .map(|(p, _)| *p)
}

/// Nearest-rank percentile of an ascending sample; 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartile by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them. `None` below two
/// values, where the method is undefined.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        // Position k(n+1)/4 on a 1-based scale; the index is clamped to the
        // sample but, as in Python, the interpolation may extrapolate.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median (0 below two values).
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1).abs() / med.abs(),
        _ => 0.0,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Latency samples of one operation kind.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(ms(d));
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum_ms(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean_ms(&self) -> f64 {
        mean(&self.0)
    }

    /// The samples of `passes` passes over one schedule, which took one
    /// sample at each of its positions in the same order every time, reduced
    /// to one pass: each position's fastest sample.
    pub fn fastest_by_position(&self, passes: usize) -> Samples {
        if self.0.is_empty() {
            return Samples::default();
        }
        assert!(
            passes > 0 && self.0.len().is_multiple_of(passes),
            "{} samples are not {passes} whole passes",
            self.0.len()
        );
        let positions = self.0.len() / passes;
        let mut fastest = self.0[..positions].to_vec();
        for pass in self.0.chunks(positions).skip(1) {
            for (f, &v) in fastest.iter_mut().zip(pass) {
                *f = f.min(v);
            }
        }
        Samples(fastest)
    }

    /// Nearest-rank percentile in milliseconds.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        percentile(&v, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_choice_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(39), Some(50.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn fastest_by_position_folds_passes_into_one() {
        let mut s = Samples::default();
        for ms in [10, 50, 12, 80, 11, 55] {
            s.push(Duration::from_millis(ms));
        }
        // Three passes over two positions.
        let quiet = s.fastest_by_position(3);
        assert_eq!(quiet.len(), 2);
        assert_eq!(quiet.sum_ms(), 10.0 + 50.0);
        assert_eq!(quiet.percentile_ms(100.0), 50.0);
        assert_eq!(s.fastest_by_position(1).sum_ms(), s.sum_ms());
        assert_eq!(Samples::default().fastest_by_position(4).len(), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert!(quartiles(&[1.0]).is_none());
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
