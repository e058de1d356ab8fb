//! Exact-sample latency recording.
//!
//! `ghba_simnet::LatencyStats` keeps power-of-two buckets, so every
//! percentile it reports is a bucket edge (262 µs or 524 µs for anything
//! between them). The harness keeps every sample instead — a run records a
//! few ten thousand batches — and reads percentiles off the sorted list.

use std::time::Duration;

/// The percentiles a tail may be reported at, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Every sample of one timing, in nanoseconds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Samples {
    ns: Vec<u64>,
}

/// The highest percentile a sample set supports, and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (50, 90, 99, 99.9 or 99.99).
    pub percentile: f64,
    /// Its nearest-rank value in nanoseconds.
    pub ns: u64,
    /// Samples in the set.
    pub n: usize,
}

impl Samples {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        Samples::default()
    }

    /// Records one sample.
    pub fn push(&mut self, sample: Duration) {
        self.ns
            .push(u64::try_from(sample.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one sample given in nanoseconds.
    pub fn push_ns(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// Sum of all samples in nanoseconds.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// The samples in recording order.
    #[must_use]
    pub fn as_slice(&self) -> &[u64] {
        &self.ns
    }

    fn sorted(&self) -> Vec<u64> {
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        sorted
    }

    /// Nearest-rank percentile (`p` in `(0, 100]`) in nanoseconds; 0 when
    /// empty.
    #[must_use]
    pub fn percentile_ns(&self, p: f64) -> u64 {
        nearest_rank(&self.sorted(), p)
    }

    /// The median in nanoseconds (nearest rank); 0 when empty.
    #[must_use]
    pub fn median_ns(&self) -> u64 {
        self.percentile_ns(50.0)
    }

    /// The highest percentile of the ladder, not above `cap`, that still
    /// has [`MIN_BEYOND`] samples beyond it. With fewer than
    /// `2 * MIN_BEYOND` samples only the median is defensible, and that is
    /// what is returned.
    #[must_use]
    pub fn tail(&self, cap: f64) -> Tail {
        let sorted = self.sorted();
        let n = sorted.len();
        let percentile = LADDER
            .iter()
            .copied()
            .rfind(|&p| p <= cap && samples_beyond(n, p) >= MIN_BEYOND)
            .unwrap_or(50.0);
        Tail {
            percentile,
            ns: nearest_rank(&sorted, percentile),
            n,
        }
    }
}

fn rank(n: usize, p: f64) -> usize {
    // 99.9 % of 10 000 is 9990.000000000002 in floating point: shave the
    // rounding error off before rounding up.
    (((p / 100.0 * n as f64) - 1e-6).ceil() as usize).clamp(1, n.max(1))
}

fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}
