//! Order statistics: medians, quartiles and the percentile rule.

/// Median and quartiles of a set of per-repetition values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// Linear-interpolated quantile of an ascending slice, `q` in `[0, 1]`
/// (the "inclusive" method: q = 0 is the minimum, q = 1 the maximum).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median and quartiles of `values` (any order, NaN-free).
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Summary {
        median: quantile_sorted(&v, 0.5),
        q1: quantile_sorted(&v, 0.25),
        q3: quantile_sorted(&v, 0.75),
        n: v.len(),
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Nearest rank (1-based) of percentile `p` (0..=100, one decimal) among
/// `n` samples, in integer arithmetic: 99.9 % of 10 000 is rank 9 990
/// exactly, which floating point gets wrong.
fn rank_of(p: f64, n: usize) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (n * per_mille).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0..=100) of an ascending slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank_of(p, sorted.len()) - 1]
}

/// The percentile rule: the highest of 99.9 / 99 / 95 / 90 / 75 that
/// still has at least ten samples beyond it, capped at `want`. `None`
/// when even p75 is unsupported (fewer than 40 samples).
pub fn supported_percentile(samples: usize, want: f64) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .filter(|p| *p <= want)
        .find(|p| samples >= rank_of(*p, samples) + 10)
}

/// Median and tail of one repetition's latency samples (nanoseconds in,
/// microseconds out). The tail is `want` when the sample supports it,
/// otherwise the highest percentile that does; the percentile actually
/// used is returned so the report can say so.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub p50_us: f64,
    pub tail_us: f64,
    pub tail_p: f64,
    pub n: usize,
}

pub fn latency_of(samples_ns: &mut [u64], want: f64) -> Latency {
    samples_ns.sort_unstable();
    let tail_p = supported_percentile(samples_ns.len(), want).unwrap_or(50.0);
    Latency {
        p50_us: percentile_sorted(samples_ns, 50.0) as f64 / 1e3,
        tail_us: percentile_sorted(samples_ns, tail_p) as f64 / 1e3,
        tail_p,
        n: samples_ns.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 1000 samples: 10 lie beyond p99, only 1 beyond p99.9.
        assert_eq!(supported_percentile(1000, 99.9), Some(99.0));
        assert_eq!(supported_percentile(999, 99.0), Some(95.0));
        assert_eq!(supported_percentile(10_000, 99.9), Some(99.9));
        assert_eq!(supported_percentile(10_000, 99.0), Some(99.0));
        assert_eq!(supported_percentile(100, 99.0), Some(90.0));
        assert_eq!(supported_percentile(40, 99.0), Some(75.0));
        assert_eq!(supported_percentile(39, 99.0), None);
    }

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 3.25));
        assert_eq!(summarize(&[7.0]).median, 7.0);
        assert!((summarize(&[90.0, 100.0, 110.0]).spread() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
        let mut ns: Vec<u64> = (1..=2000).rev().map(|x| x * 1000).collect();
        let l = latency_of(&mut ns, 99.0);
        assert_eq!(
            (l.p50_us, l.tail_us, l.tail_p, l.n),
            (1000.0, 1980.0, 99.0, 2000)
        );
    }
}
