//! Order statistics for timing samples.
//!
//! Timings are reported as a median plus the highest percentile that still
//! has at least ten samples beyond it, with the sample count; never as a
//! minimum.

/// Percentiles considered for the tail figure, highest first.
const TAIL_PERCENTILES: [u32; 5] = [99, 95, 90, 75, 50];

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_SAMPLES: usize = 10;

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A timing summary: sample count, median, and the tail percentile.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median sample.
    pub median: f64,
    /// `(percentile, value)` of the highest percentile with at least ten
    /// samples beyond it (nearest-rank), if the count allows one.
    pub tail: Option<(u32, f64)>,
}

/// Summarises `v` as [`Summary`].
pub fn summarize(v: &[f64]) -> Summary {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let tail = TAIL_PERCENTILES.iter().find_map(|&p| {
        let rank = (p as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= TAIL_SAMPLES).then(|| (p, s[rank - 1]))
    });
    Summary {
        n,
        median: median(&s),
        tail,
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "median {:.6}", self.median)?;
        match self.tail {
            Some((p, v)) => write!(f, ", p{p} {v:.6}")?,
            None => write!(
                f,
                ", no tail percentile (needs >= {} samples)",
                TAIL_SAMPLES + 1
            )?,
        }
        write!(f, ", n={}", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(summarize(&few).tail, None);
        let some: Vec<f64> = (1..=20).map(f64::from).collect();
        // p50 is rank 10, leaving 10 beyond; p75 would leave only 5.
        assert_eq!(summarize(&some).tail, Some((50, 10.0)));
        let many: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(summarize(&many).tail, Some((95, 190.0)));
    }
}
