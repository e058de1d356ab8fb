//! Lightweight statistics collection for simulation runs.

use core::fmt;
use core::time::Duration;

/// An online accumulator of latency samples with logarithmic buckets for
/// percentile estimation.
///
/// Buckets span 1 ns to ~18 s in ×2 steps (64 buckets), which is ample for
/// metadata-operation latencies ranging from microsecond memory probes to
/// multi-millisecond disk storms.
///
/// # Examples
///
/// ```
/// use core::time::Duration;
/// use ghba_simnet::LatencyStats;
///
/// let mut stats = LatencyStats::new();
/// stats.record(Duration::from_micros(100));
/// stats.record(Duration::from_micros(300));
/// assert_eq!(stats.count(), 2);
/// assert_eq!(stats.mean(), Duration::from_micros(200));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyStats {
    count: u64,
    sum_nanos: u128,
    min_nanos: u64,
    max_nanos: u64,
    buckets: [u64; 64],
}

impl Default for LatencyStats {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        LatencyStats {
            count: 0,
            sum_nanos: 0,
            min_nanos: u64::MAX,
            max_nanos: 0,
            buckets: [0; 64],
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: Duration) {
        let nanos = u64::try_from(sample.as_nanos()).unwrap_or(u64::MAX);
        self.count += 1;
        self.sum_nanos += u128::from(nanos);
        self.min_nanos = self.min_nanos.min(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
        let bucket = if nanos == 0 {
            0
        } else {
            (63 - nanos.leading_zeros()) as usize
        };
        self.buckets[bucket.min(63)] += 1;
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or zero when empty.
    #[must_use]
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(
            u64::try_from(self.sum_nanos / u128::from(self.count)).unwrap_or(u64::MAX),
        )
    }

    /// Smallest sample, or zero when empty.
    #[must_use]
    pub fn min(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(self.min_nanos)
        }
    }

    /// Largest sample, or zero when empty.
    #[must_use]
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos)
    }

    /// Bucketed percentile estimate (`p` in `[0, 100]`): upper bound of the
    /// bucket containing the `p`-th percentile sample, clamped into
    /// `[min, max]` of the recorded samples. Returns zero when empty.
    ///
    /// Monotone in `p`, with `percentile(0) == min` and
    /// `percentile(100) <= max` exact at the edges: rank 1 *is* the
    /// recorded minimum, so the estimate must not report its bucket's
    /// upper bound (which can exceed the minimum by almost 2×).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Duration {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        if rank <= 1 {
            // The rank-1 sample is known exactly: it is the minimum.
            return Duration::from_nanos(self.min_nanos);
        }
        let mut cumulative = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                // Upper bound of bucket i is 2^{i+1} − 1.
                let upper = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                // Clamp the low edge to the recorded minimum so the
                // estimate never dips below it (the min's bucket spans
                // values smaller than the min itself).
                return Duration::from_nanos(upper.clamp(self.min_nanos, self.max_nanos));
            }
        }
        self.max()
    }

    /// Merges raw accumulator fields collected elsewhere — the bridge for
    /// atomic (lock-free) recorders that mirror this accumulator's layout
    /// word by word and fold into the owning `LatencyStats` at a drain
    /// point. `min_nanos` must be `u64::MAX` (not zero) when `count == 0`,
    /// matching [`LatencyStats::new`]; `buckets` uses the same ×2
    /// logarithmic geometry as [`record`](LatencyStats::record).
    pub fn merge_parts(
        &mut self,
        count: u64,
        sum_nanos: u128,
        min_nanos: u64,
        max_nanos: u64,
        buckets: &[u64; 64],
    ) {
        if count == 0 {
            return;
        }
        self.count += count;
        self.sum_nanos += sum_nanos;
        self.min_nanos = self.min_nanos.min(min_nanos);
        self.max_nanos = self.max_nanos.max(max_nanos);
        for (a, b) in self.buckets.iter_mut().zip(buckets) {
            *a += b;
        }
    }

    /// The raw accumulator fields, in
    /// [`merge_parts`](LatencyStats::merge_parts) order — how a locally
    /// filled accumulator folds into an atomic recorder.
    #[must_use]
    pub fn parts(&self) -> (u64, u128, u64, u64, &[u64; 64]) {
        (
            self.count,
            self.sum_nanos,
            self.min_nanos,
            self.max_nanos,
            &self.buckets,
        )
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
        self.min_nanos = self.min_nanos.min(other.min_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

impl fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "no samples");
        }
        write!(
            f,
            "n={} mean={:?} min={:?} p50≈{:?} p99≈{:?} max={:?}",
            self.count,
            self.mean(),
            self.min(),
            self.percentile(50.0),
            self.percentile(99.0),
            self.max()
        )
    }
}

/// A labelled monotonic counter set, used for message and event counting.
///
/// Lives on per-lookup hot paths (`l1_false_hits` and friends fire on
/// every query), so label resolution is an O(1) hash lookup into the
/// entry list rather than a linear scan; iteration still reports counters
/// in first-touch order.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// `(label, value)` in first-touch order (the reporting order).
    entries: Vec<(String, u64)>,
    /// label → position in `entries`.
    index: std::collections::HashMap<String, usize>,
}

impl Counters {
    /// Creates an empty counter set.
    #[must_use]
    pub fn new() -> Self {
        Counters::default()
    }

    /// Adds `amount` to the counter under `label`, creating it at zero.
    pub fn add(&mut self, label: &str, amount: u64) {
        if let Some(&at) = self.index.get(label) {
            self.entries[at].1 += amount;
        } else {
            self.index.insert(label.to_owned(), self.entries.len());
            self.entries.push((label.to_owned(), amount));
        }
    }

    /// Increments the counter under `label` by one.
    pub fn incr(&mut self, label: &str) {
        self.add(label, 1);
    }

    /// Current value of `label` (zero if never touched).
    #[must_use]
    pub fn get(&self, label: &str) -> u64 {
        self.index.get(label).map_or(0, |&at| self.entries[at].1)
    }

    /// Sum over all counters.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|(_, v)| v).sum()
    }

    /// Iterates `(label, value)` pairs in first-touch order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries.iter().map(|(l, v)| (l.as_str(), *v))
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &Counters) {
        for (label, value) in other.iter() {
            self.add(label, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = LatencyStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), Duration::ZERO);
        assert_eq!(s.min(), Duration::ZERO);
        assert_eq!(s.max(), Duration::ZERO);
        assert_eq!(s.percentile(99.0), Duration::ZERO);
        assert_eq!(s.to_string(), "no samples");
    }

    #[test]
    fn mean_min_max() {
        let mut s = LatencyStats::new();
        for us in [100u64, 200, 300] {
            s.record(Duration::from_micros(us));
        }
        assert_eq!(s.mean(), Duration::from_micros(200));
        assert_eq!(s.min(), Duration::from_micros(100));
        assert_eq!(s.max(), Duration::from_micros(300));
    }

    #[test]
    fn percentile_bounds_sample() {
        let mut s = LatencyStats::new();
        for us in 1..=1000u64 {
            s.record(Duration::from_micros(us));
        }
        let p50 = s.percentile(50.0);
        // True median is 500 µs; bucketed estimate must bracket it within
        // a power of two.
        assert!(p50 >= Duration::from_micros(250), "{p50:?}");
        assert!(p50 <= Duration::from_micros(1100), "{p50:?}");
        assert!(s.percentile(100.0) >= s.percentile(50.0));
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_rejects_out_of_range() {
        let _ = LatencyStats::new().percentile(101.0);
    }

    #[test]
    fn percentile_zero_is_exactly_min() {
        let mut s = LatencyStats::new();
        // 300 ns lands in bucket [256, 511]; the bug returned the bucket's
        // upper bound (511 ns) for p=0, exceeding the recorded minimum.
        for ns in [300u64, 320, 10_000] {
            s.record(Duration::from_nanos(ns));
        }
        assert_eq!(s.percentile(0.0), s.min());
        assert!(s.percentile(0.0) <= s.min());
        assert!(s.min() <= s.percentile(100.0));
    }

    #[test]
    fn single_sample_percentiles_collapse_to_it() {
        let mut s = LatencyStats::new();
        s.record(Duration::from_nanos(300));
        for p in [0.0, 25.0, 50.0, 99.0, 100.0] {
            assert_eq!(s.percentile(p), Duration::from_nanos(300), "p={p}");
        }
    }

    #[test]
    fn percentiles_are_monotone_and_bracketed() {
        let mut s = LatencyStats::new();
        for ns in (1..=999u64).map(|i| i * 37 % 50_000 + 3) {
            s.record(Duration::from_nanos(ns));
        }
        let mut last = Duration::ZERO;
        for p in 0..=100 {
            let v = s.percentile(f64::from(p));
            assert!(v >= last, "percentile dipped at p={p}");
            assert!(v >= s.min() || p == 0);
            assert!(v <= s.max());
            last = v;
        }
        assert_eq!(s.percentile(0.0), s.min());
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyStats::new();
        a.record(Duration::from_micros(10));
        let mut b = LatencyStats::new();
        b.record(Duration::from_micros(30));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), Duration::from_micros(20));
        assert_eq!(a.max(), Duration::from_micros(30));
    }

    #[test]
    fn zero_duration_sample() {
        let mut s = LatencyStats::new();
        s.record(Duration::ZERO);
        assert_eq!(s.count(), 1);
        assert_eq!(s.min(), Duration::ZERO);
    }

    #[test]
    fn counters_basics() {
        let mut c = Counters::new();
        c.incr("msg");
        c.add("msg", 4);
        c.incr("other");
        assert_eq!(c.get("msg"), 5);
        assert_eq!(c.get("other"), 1);
        assert_eq!(c.get("ghost"), 0);
        assert_eq!(c.total(), 6);
    }

    #[test]
    fn counters_merge() {
        let mut a = Counters::new();
        a.add("x", 2);
        let mut b = Counters::new();
        b.add("x", 3);
        b.add("y", 1);
        a.merge(&b);
        assert_eq!(a.get("x"), 5);
        assert_eq!(a.get("y"), 1);
    }

    #[test]
    fn counters_preserve_first_touch_order() {
        let mut c = Counters::new();
        c.incr("b");
        c.incr("a");
        let labels: Vec<&str> = c.iter().map(|(l, _)| l).collect();
        assert_eq!(labels, vec!["b", "a"]);
    }

    #[test]
    fn counters_order_stable_under_interleaved_updates() {
        let mut c = Counters::new();
        for label in ["z", "m", "a", "z", "a", "q", "m", "z"] {
            c.incr(label);
        }
        let entries: Vec<(&str, u64)> = c.iter().collect();
        assert_eq!(entries, vec![("z", 3), ("m", 2), ("a", 2), ("q", 1)]);
        assert_eq!(c.get("z"), 3);
        assert_eq!(c.get("never"), 0);
    }
}
