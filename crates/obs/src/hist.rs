//! Lock-free metric primitives: counters, gauges and the log-bucketed
//! latency histogram.
//!
//! See the crate docs for the hot-path cost model. The histogram's
//! bucket layout is fixed at compile time: [`BUCKETS`] buckets whose
//! upper bounds grow geometrically by ×1.35 from 16 ns, spanning
//! ~16 ns … ~1.9 s, plus one unbounded overflow bucket. The layout is
//! identical in every histogram, which is what makes per-shard
//! instances mergeable by plain bucket-count addition (merging is
//! associative and commutative — it is integer vector addition).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of histogram buckets (the last one is unbounded).
pub const BUCKETS: usize = 64;

/// Number of finite bucket upper bounds (`BUCKETS - 1`; the last
/// bucket catches everything above the top bound).
const FINITE: usize = BUCKETS - 1;

/// The finite bucket upper bounds, in nanoseconds: `BOUNDS[i]` is the
/// largest value bucket `i` holds. Geometric ×1.35 from 16 ns.
const BOUNDS: [u64; FINITE] = build_bounds();

const fn build_bounds() -> [u64; FINITE] {
    let mut b = [0u64; FINITE];
    let mut v: u64 = 16;
    let mut i = 0;
    while i < FINITE {
        b[i] = v;
        // ×1.35, rounding down but always advancing.
        let next = v + v * 7 / 20;
        v = if next > v { next } else { v + 1 };
        i += 1;
    }
    b
}

/// The fixed bucket upper bounds shared by every [`Histogram`]
/// (nanoseconds; the final bucket is unbounded and has no entry here).
pub fn bucket_bounds() -> &'static [u64; FINITE] {
    &BOUNDS
}

/// Bucket index for a sample: the first bucket whose upper bound holds
/// it, or the overflow bucket. Pure arithmetic — a binary search over
/// the compile-time bound table.
#[inline]
fn bucket_index(v: u64) -> usize {
    BOUNDS.partition_point(|&b| b < v)
}

/// A monotone event counter: one relaxed `fetch_add` per increment.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add `n` (relaxed).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one (relaxed).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (relaxed).
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge: one relaxed store per update.
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrite the value (relaxed).
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value (relaxed).
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free log-bucketed latency histogram.
///
/// Recording is **one relaxed atomic add** to the sample's bucket
/// counter — the index is computed from the compile-time bound table,
/// nothing else is written, so concurrent writers from any number of
/// threads never contend beyond cache-line traffic on the same bucket.
/// Derived figures (count, percentiles, max) are computed from a
/// [`snapshot`](Histogram::snapshot) on the read side.
///
/// Resolution follows the ×1.35 bucket ratio: any reported quantile is
/// the *upper bound* of the bucket holding it, so it overestimates by
/// at most 35%. Samples below 16 ns land in the first bucket; samples
/// above the top finite bound (~1.9 s) land in the unbounded overflow
/// bucket and saturate quantile extraction at that top bound.
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one sample (nanoseconds). One relaxed atomic add.
    #[inline]
    pub fn record(&self, nanos: u64) {
        self.record_n(nanos, 1);
    }

    /// Record `n` samples of the same value (nanoseconds) — e.g. one
    /// timing that stands for every event of a batch. One relaxed
    /// atomic add; the count grows by `n`.
    #[inline]
    pub fn record_n(&self, nanos: u64, n: u64) {
        self.counts[bucket_index(nanos)].fetch_add(n, Ordering::Relaxed);
    }

    /// Record a [`Duration`] sample, saturating at `u64::MAX` ns.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A point-in-time copy of the bucket counts. Each bucket is read
    /// relaxed, so a snapshot racing concurrent writers is a *plausible*
    /// state (every counted sample was recorded), not a linearizable
    /// cut — fine for monitoring.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKETS];
        for (out, c) in counts.iter_mut().zip(&self.counts) {
            *out = c.load(Ordering::Relaxed);
        }
        HistogramSnapshot { counts }
    }

    /// Total samples recorded so far (sum of the buckets, relaxed).
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// An owned copy of a histogram's bucket counts: mergeable, queryable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (`BUCKETS` entries; the last is the
    /// unbounded overflow bucket).
    pub counts: [u64; BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: [0; BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Total samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Merge another snapshot into this one (bucket-count addition —
    /// associative and commutative, so shard merge order never matters).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// The reporting value of bucket `i`: its upper bound, with the
    /// unbounded overflow bucket saturating at the top finite bound.
    fn bucket_value(i: usize) -> u64 {
        BOUNDS[i.min(FINITE - 1)]
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in nanoseconds: the upper bound
    /// of the bucket containing the sample at rank `ceil(q·count)`.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(i);
            }
        }
        Self::bucket_value(BUCKETS - 1)
    }

    /// Median (see [`quantile`](Self::quantile) for semantics).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Largest recorded sample, as its bucket's upper bound (0 when
    /// empty; saturates at the top finite bound).
    pub fn max(&self) -> u64 {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map(Self::bucket_value)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_strictly_increasing_and_roughly_geometric() {
        let b = bucket_bounds();
        assert_eq!(b[0], 16);
        for w in b.windows(2) {
            assert!(w[1] > w[0]);
            // ×1.35 with integer floor: never more than exact, never
            // less than ×1.3 (the floor costs at most one part in v).
            assert!(w[1] <= w[0] + w[0] * 7 / 20);
            assert!(w[1] as f64 >= w[0] as f64 * 1.3, "{} -> {}", w[0], w[1]);
        }
        // The table spans sub-microsecond to over a second.
        assert!(b[FINITE - 1] > 1_000_000_000, "top bound {}", b[FINITE - 1]);
    }

    #[test]
    fn bucket_index_respects_boundaries_exactly() {
        let b = bucket_bounds();
        // A bound value lands in its own bucket; one past it in the next.
        for (i, &bound) in b.iter().enumerate() {
            assert_eq!(bucket_index(bound), i, "at bound {bound}");
            assert_eq!(bucket_index(bound + 1), i + 1, "past bound {bound}");
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn record_n_weights_one_bucket() {
        let h = Histogram::new();
        h.record_n(1_000, 5);
        h.record_n(1_000_000, 0);
        h.record(50);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 6);
        assert_eq!(snap.counts[bucket_index(1_000)], 5);
        assert_eq!(snap.p50(), bucket_bounds()[bucket_index(1_000)]);
        assert_eq!(snap.max(), bucket_bounds()[bucket_index(1_000)]);
    }
}
