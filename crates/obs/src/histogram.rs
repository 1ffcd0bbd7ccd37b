//! Atomic log-bucketed latency histograms.
//!
//! A [`Histogram`] is 64 `AtomicU64` buckets over nanoseconds where bucket
//! `i` covers `[2^i, 2^(i+1))` (bucket 0 also absorbs 0 ns). Recording is
//! one relaxed `fetch_add` per bucket plus running count/sum/max — no
//! locks, no allocation — so it is safe to call from every hot path of
//! both engines concurrently. Reads go through [`Histogram::snapshot`],
//! which yields a plain [`HistSnapshot`] that can be merged with others
//! and queried for percentiles.
//!
//! Percentiles are bucket-resolution: a reported pXX is the upper bound of
//! the bucket containing the true pXX (clamped to the observed maximum),
//! so it is always ≥ the true value and within 2× of it. That is exactly
//! the fidelity a latency report needs and what the property tests pin
//! against a sorted-vector reference.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two buckets (covers the full `u64` nanosecond range).
pub const BUCKETS: usize = 64;

/// Bucket index for a nanosecond value: `floor(log2(ns))`, with 0 and 1 ns
/// both landing in bucket 0.
pub fn bucket_index(ns: u64) -> usize {
    if ns <= 1 {
        0
    } else {
        63 - ns.leading_zeros() as usize
    }
}

/// Largest nanosecond value bucket `i` can hold.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// A lock-free log-bucketed histogram over nanoseconds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one nanosecond observation. Lock-free; relaxed ordering is
    /// enough because snapshots only need eventual per-bucket consistency.
    /// A zero (a free lock) is one add; the max is loaded before its
    /// `fetch_max`, a CAS loop that a new maximum alone needs.
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        if ns > 0 {
            self.sum.fetch_add(ns, Ordering::Relaxed);
            if ns > self.max.load(Ordering::Relaxed) {
                self.max.fetch_max(ns, Ordering::Relaxed);
            }
        }
    }

    /// Record a [`Duration`] (saturating at `u64::MAX` ns).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total observations recorded so far (relaxed read).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Copy the current state into a mergeable, queryable snapshot.
    ///
    /// Under concurrent recording the bucket array, sum and max are read
    /// independently, so a snapshot is a consistent *approximation* — each
    /// field individually reflects some recent state.
    pub fn snapshot(&self) -> HistSnapshot {
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        HistSnapshot {
            count: buckets.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Shorthand for `snapshot().summary()`.
    pub fn summary(&self) -> HistSummary {
        self.snapshot().summary()
    }

    /// Zero every bucket and the running sum/max.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of a [`Histogram`], mergeable and queryable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket observation counts.
    pub buckets: [u64; BUCKETS],
    /// Total observations (sum of `buckets`).
    pub count: u64,
    /// Sum of all observed nanosecond values.
    pub sum: u64,
    /// Largest observed nanosecond value.
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Fold another snapshot into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The `p`-th percentile (`0.0 < p <= 1.0`) in nanoseconds: the upper
    /// bound of the bucket holding the `ceil(p·count)`-th smallest
    /// observation, clamped to the observed maximum. Returns 0 for an
    /// empty snapshot.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper_bound(i).min(self.max.max(1));
            }
        }
        self.max
    }

    /// Mean observation in nanoseconds (0 for an empty snapshot).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Reduce to the fixed percentile set reports and the wire carry. The
    /// max reads bucket 0 as 1 ns, as the percentiles do, so all-zero
    /// observations (free locks) still report `p50 ≤ … ≤ max`.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            p50_ns: self.percentile(0.50),
            p90_ns: self.percentile(0.90),
            p99_ns: self.percentile(0.99),
            p999_ns: self.percentile(0.999),
            max_ns: self.max.max(u64::from(self.count > 0)),
        }
    }
}

/// The fixed percentile set every report and wire frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistSummary {
    /// Total observations.
    pub count: u64,
    /// Median, nanoseconds (bucket upper bound).
    pub p50_ns: u64,
    /// 90th percentile, nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th percentile, nanoseconds.
    pub p999_ns: u64,
    /// Largest observation, nanoseconds.
    pub max_ns: u64,
}

impl HistSummary {
    /// Render a percentile field in microseconds for human-facing tables.
    pub fn us(ns: u64) -> f64 {
        ns as f64 / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_workload::rng::StdRng;
    use std::sync::Arc;

    #[test]
    fn bucket_bounds_partition_the_u64_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(u64::MAX), 63);
        for i in 0..BUCKETS {
            let hi = bucket_upper_bound(i);
            assert_eq!(bucket_index(hi), i, "upper bound stays in bucket {i}");
            if i < 63 {
                assert_eq!(bucket_index(hi + 1), i + 1);
            }
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_ns, 0);
        assert_eq!(s.p999_ns, 0);
        assert_eq!(s.max_ns, 0);
        assert_eq!(h.snapshot().mean(), 0.0);
    }

    /// Property: across randomized distributions, every reported
    /// percentile lands in the same bucket as the true percentile from a
    /// sorted-vector reference, never under-reports it, and stays within
    /// one bucket (2×) of it. Merging two histograms must agree with
    /// recording the concatenated stream.
    #[test]
    fn percentiles_track_a_sorted_vec_reference() {
        let mut rng = StdRng::seed_from_u64(0xC1D2_2013);
        for case in 0..40u32 {
            let n = 1 + rng.gen_range(0..3000);
            let h = Histogram::new();
            let mut vals = Vec::with_capacity(n);
            for _ in 0..n {
                // Mix of scales: sub-µs, µs, ms, and heavy-tail seconds.
                let v = match rng.gen_range(0..4) {
                    0 => rng.gen_range(0..1_000) as u64,
                    1 => rng.gen_range(0..1_000_000) as u64,
                    2 => rng.gen_range(0..1_000_000_000) as u64,
                    _ => rng.gen_range(0..60_000_000_000) as u64,
                };
                h.record(v);
                vals.push(v);
            }
            vals.sort_unstable();
            let snap = h.snapshot();
            assert_eq!(snap.count, n as u64, "case {case}");
            assert_eq!(snap.max, *vals.last().unwrap(), "case {case}");
            assert_eq!(snap.sum, vals.iter().sum::<u64>(), "case {case}");
            for &p in &[0.5, 0.9, 0.99, 0.999, 1.0] {
                let reported = snap.percentile(p);
                let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
                let truth = vals[rank - 1];
                assert_eq!(
                    bucket_index(reported),
                    bucket_index(truth),
                    "case {case}: p{p} reported {reported} vs true {truth}"
                );
                assert!(reported >= truth, "case {case}: p{p} under-reported");
                assert!(
                    reported <= truth.saturating_mul(2).max(1),
                    "case {case}: p{p} off by more than one bucket"
                );
            }
        }
    }

    #[test]
    fn merged_snapshots_match_the_concatenated_stream() {
        let mut rng = StdRng::seed_from_u64(7);
        let (a, b, both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for i in 0..2000u64 {
            let v = rng.gen_range(0..1_000_000) as u64;
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            both.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
        assert_eq!(merged.summary(), both.summary());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + i % 512);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 80_000);
        assert_eq!(h.snapshot().count, 80_000);
    }

    #[test]
    fn reset_empties_the_histogram() {
        let h = Histogram::new();
        h.record(42);
        h.record(4200);
        assert_eq!(h.count(), 2);
        h.reset();
        assert_eq!(h.summary(), HistSummary::default());
    }
}
