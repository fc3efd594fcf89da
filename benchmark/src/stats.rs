//! Order statistics for the benchmark's own samples, a log-bucketed
//! span-duration histogram, and an interpolated quantile over
//! `ps_sim`'s latency histogram.

use ps_sim::stats::Histogram;

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of `xs`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// `|a − b| / min(a, b)`: the relative distance `check.sh` prints
/// for two runs of one metric (0 when both are 0).
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let base = a.abs().min(b.abs());
    if base == 0.0 {
        if a == b {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (a - b).abs() / base
    }
}

/// Power-of-two histogram of span durations: bucket `i` counts
/// durations in `[2^(i-1), 2^i)` ns (bucket 0 counts zero).
#[derive(Clone, Copy)]
pub struct LogHist(pub [u64; 40]);

impl Default for LogHist {
    fn default() -> Self {
        LogHist([0; 40])
    }
}

impl LogHist {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        let b = (64 - ns.leading_zeros()) as usize;
        self.0[b.min(self.0.len() - 1)] += 1;
    }

    /// Upper bound (ns) of the bucket holding quantile `q`.
    pub fn quantile_upper_ns(&self, q: f64) -> u64 {
        let total: u64 = self.0.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.0.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        u64::MAX
    }
}

/// Quantile `q` of a `ps_sim` histogram, interpolated linearly inside
/// the bucket that holds it.
///
/// `Histogram::quantile` answers with a bucket's upper bound, so it
/// moves in ~9 % steps: two seeds either read identically or jump a
/// whole bucket. The bucket array is private, but `quantile(k / n)`
/// is a monotone function of the rank `k`, so the first and last rank
/// that land in the bucket are found by bisection and the value is
/// placed between the neighbouring bucket bounds in proportion.
pub fn quantile_interp(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let at = |rank: u64| h.quantile(rank as f64 / n as f64);
    let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
    let hi = at(target);
    // Lowest rank in [1, target] whose bucket bound is `hi`.
    let (mut lo_r, mut hi_r) = (1, target);
    while lo_r < hi_r {
        let mid = lo_r + (hi_r - lo_r) / 2;
        if at(mid) >= hi {
            hi_r = mid;
        } else {
            lo_r = mid + 1;
        }
    }
    let first = lo_r;
    // Highest rank in [target, n] whose bucket bound is `hi`.
    let (mut lo_r, mut hi_r) = (target, n);
    while lo_r < hi_r {
        let mid = lo_r + (hi_r - lo_r).div_ceil(2);
        if at(mid) <= hi {
            lo_r = mid;
        } else {
            hi_r = mid - 1;
        }
    }
    let last = lo_r;
    let below = if first > 1 {
        at(first - 1) as f64
    } else {
        h.min() as f64
    };
    let frac = (target - first + 1) as f64 / (last - first + 1) as f64;
    below + (hi as f64 - below) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[5.0], 0.95), 5.0);
    }

    #[test]
    fn rel_diff_cases() {
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert!((rel_diff(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!(rel_diff(0.0, 1.0).is_infinite());
    }

    #[test]
    fn log_hist_buckets_and_quantiles() {
        let mut h = LogHist::default();
        for ns in [0, 1, 2, 3, 1000, 1000, 1000, 1000, 1000, 1_000_000] {
            h.record(ns);
        }
        assert_eq!(h.0[0], 1);
        assert_eq!(h.0[1], 1); // 1
        assert_eq!(h.0[2], 2); // 2, 3
        assert_eq!(h.0[10], 5); // 512..1024
        assert_eq!(h.quantile_upper_ns(0.5), 1024);
        assert_eq!(h.quantile_upper_ns(1.0), 1 << 20);
    }

    #[test]
    fn interpolated_quantile_stays_inside_the_bucket_and_moves_with_rank() {
        let mut h = Histogram::new();
        // 1000 values spread uniformly over one coarse bucket region.
        for i in 0..1000u64 {
            h.record(10_000 + i * 3);
        }
        let p50 = quantile_interp(&h, 0.50);
        let p51 = quantile_interp(&h, 0.51);
        let coarse = h.p50() as f64;
        assert!(p50 <= coarse, "interpolation never exceeds the bound");
        assert!(p50 > coarse * 0.88, "and stays inside the ~9% bucket");
        assert!(p51 > p50, "a higher rank reads higher inside a bucket");
        // True median is 11_498.5; bucket resolution is ~9 %.
        assert!((p50 - 11_498.5).abs() / 11_498.5 < 0.03, "p50 {p50}");
    }

    #[test]
    fn interpolated_quantile_edges() {
        let h = Histogram::new();
        assert_eq!(quantile_interp(&h, 0.99), 0.0);
        let mut h = Histogram::new();
        h.record(500);
        assert_eq!(quantile_interp(&h, 0.5), 500.0);
        assert_eq!(quantile_interp(&h, 1.0), 500.0);
    }
}
