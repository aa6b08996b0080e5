//! Fixed-bucket histograms.
//!
//! A [`Histogram`] is plain atomics: recording is wait-free, never
//! locks, and never loses counts under concurrency (`fetch_add` on
//! relaxed atomics). Bucket bounds are fixed powers of two, so recording
//! is a binary search + one `fetch_add`; percentile summaries are computed
//! from one bucket snapshot, which makes `p50 <= p90 <= p99` monotone by
//! construction. The serve stats block embeds one directly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Plain-data percentile summary of a [`Histogram`].
///
/// Percentiles are bucket upper bounds (clamped to the observed
/// maximum), so they are conservative: the true quantile is ≤ the
/// reported value.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// 50th percentile (bucket-resolved).
    pub p50: u64,
    /// 90th percentile (bucket-resolved).
    pub p90: u64,
    /// 99th percentile (bucket-resolved).
    pub p99: u64,
}

impl HistSummary {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// A fixed-bucket histogram. `bounds` are inclusive upper bounds of the
/// first `bounds.len()` buckets; one implicit overflow bucket catches
/// everything larger.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// A histogram over explicit bucket upper bounds (sorted and
    /// deduplicated; an overflow bucket is added automatically).
    pub fn with_bounds(mut bounds: Vec<u64>) -> Self {
        bounds.sort_unstable();
        bounds.dedup();
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The standard latency histogram: power-of-two nanosecond buckets
    /// from 256 ns to ~64 s (30 buckets), resolving sub-microsecond
    /// primitives and multi-second guard timeouts alike.
    pub fn latency_ns() -> Self {
        Histogram::with_bounds((8..=36).map(|shift| 1u64 << shift).collect())
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| value > b);
        if let Some(bucket) = self.buckets.get(idx) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// One-snapshot percentile summary (monotone across quantiles).
    pub fn summary(&self) -> HistSummary {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        let max = self.max.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            if total == 0 {
                return 0;
            }
            let target = ((q * total as f64).ceil() as u64).clamp(1, total);
            let mut cum = 0u64;
            for (idx, &c) in counts.iter().enumerate() {
                cum += c;
                if cum >= target {
                    return match self.bounds.get(idx) {
                        Some(&bound) => bound.min(max),
                        None => max, // overflow bucket
                    };
                }
            }
            max
        };
        HistSummary {
            count: total,
            sum: self.sum.load(Ordering::Relaxed),
            max,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }
}

impl Default for Histogram {
    /// Defaults to the standard latency bucket layout ([`Histogram::latency_ns`]).
    fn default() -> Self {
        Histogram::latency_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_bucket_bounds() {
        let h = Histogram::with_bounds(vec![10, 100, 1000]);
        for v in [1u64, 2, 3, 4, 5, 50, 60, 70, 500, 5000] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 10);
        assert_eq!(s.max, 5000);
        assert_eq!(s.p50, 10, "5th of 10 samples lands in the <=10 bucket");
        assert_eq!(s.p90, 1000, "9th sample lands in the <=1000 bucket");
        assert_eq!(s.p99, 5000, "10th sample is in the overflow bucket -> max");
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
        assert_eq!(
            s.mean(),
            (1 + 2 + 3 + 4 + 5 + 50 + 60 + 70 + 500 + 5000) / 10
        );
    }

    #[test]
    fn empty_histogram_summary_is_zero() {
        let s = Histogram::latency_ns().summary();
        assert_eq!(s, HistSummary::default());
    }
}
