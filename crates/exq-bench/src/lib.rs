//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§7) plus the security-theorem demonstrations and ablations.
//!
//! The `experiments` binary drives [`experiments`]; Criterion microbenches
//! live under `benches/`. Every experiment returns [`report::Table`]s that
//! are printed and persisted as CSV under `results/`.

pub mod experiments;
pub mod report;
pub mod setup;

use std::path::PathBuf;

/// Shared experiment configuration.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Target document size in bytes for the scaling datasets.
    pub size_bytes: usize,
    /// Trials per measurement; the mean is taken after dropping the min and
    /// max (the paper's §7.1 protocol: 5 trials, drop extremes).
    pub trials: usize,
    /// Queries per query class (paper: 10).
    pub query_count: usize,
    pub seed: u64,
    /// Directory for CSV output.
    pub out_dir: PathBuf,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            size_bytes: 6 * 1024 * 1024,
            trials: 5,
            query_count: 10,
            seed: 2006,
            out_dir: PathBuf::from("results"),
        }
    }
}

/// Mean of a duration sample after dropping the min and max (for ≥3 samples).
pub fn robust_mean(samples: &[std::time::Duration]) -> std::time::Duration {
    assert!(!samples.is_empty());
    if samples.len() < 3 {
        return samples.iter().sum::<std::time::Duration>() / samples.len() as u32;
    }
    let mut v = samples.to_vec();
    v.sort();
    let kept = &v[1..v.len() - 1];
    kept.iter().sum::<std::time::Duration>() / kept.len() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn robust_mean_drops_extremes() {
        let s = [
            Duration::from_millis(100),
            Duration::from_millis(1),
            Duration::from_millis(10),
            Duration::from_millis(10),
            Duration::from_millis(10),
        ];
        assert_eq!(robust_mean(&s), Duration::from_millis(10));
    }

    #[test]
    fn robust_mean_small_samples() {
        let s = [Duration::from_millis(4), Duration::from_millis(8)];
        assert_eq!(robust_mean(&s), Duration::from_millis(6));
    }
}
