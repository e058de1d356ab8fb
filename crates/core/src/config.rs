//! Configuration of a G-HBA cluster.

use ghba_simnet::LatencyModel;

/// Tunable parameters of a [`GhbaCluster`](crate::GhbaCluster).
///
/// Defaults follow the paper's recommended operating point; override
/// builder-style:
///
/// ```
/// use ghba_core::GhbaConfig;
///
/// let config = GhbaConfig::default()
///     .with_max_group_size(7)
///     .with_bits_per_file(16.0)
///     .with_seed(42);
/// assert_eq!(config.max_group_size, 7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GhbaConfig {
    /// Maximum MDSs per group (`M` in the paper). A join into a full group
    /// triggers a split; departures can trigger merges.
    pub max_group_size: usize,
    /// Bloom filter bits per file (`m/n`). The paper's premise: G-HBA's
    /// memory savings let it afford a higher ratio than HBA, shrinking
    /// Eq. (1)'s false-hit rate.
    pub bits_per_file: f64,
    /// Expected files per MDS — sizes each server's local filter.
    pub filter_capacity: usize,
    /// Files resident in the L1 LRU array per MDS.
    pub lru_capacity: usize,
    /// Counters per home filter in the L1 array.
    pub lru_bits: usize,
    /// Hash functions in the L1 array filters.
    pub lru_hashes: u32,
    /// XOR-distance (in bits) between a live filter and its published
    /// snapshot that triggers a replica refresh (§3.4).
    pub update_threshold_bits: usize,
    /// Seed for all deterministic randomness (placement, entry-MDS
    /// choice, jitter).
    pub seed: u64,
    /// Latency model for simulated operation timing.
    pub latency: LatencyModel,
    /// Per-MDS memory budget in bytes; `None` disables spill modelling.
    pub memory_per_mds: Option<usize>,
    /// Contention model: per-message server utilization. Each query's
    /// latency is inflated by `1/(1 − min(0.9, c·messages))`, modelling
    /// the queueing delay multicast fan-out induces under load (the
    /// "queuing" the paper folds into `U(laten.)`). Zero disables it.
    pub contention_per_message: f64,
    /// Number of namespace write shards for the pin-once concurrent
    /// pipeline (rounded up to a power of two; minimum 1). Writes on
    /// distinct shards apply concurrently under independent locks.
    pub write_shards: usize,
}

impl Default for GhbaConfig {
    /// `M = 6` (the paper's optimum at N = 30), 16 bits/file, 100 k files
    /// per server, 4 k-entry LRU, 2 k-bit update threshold, unlimited
    /// memory.
    fn default() -> Self {
        GhbaConfig {
            max_group_size: 6,
            bits_per_file: 16.0,
            filter_capacity: 100_000,
            lru_capacity: 4_096,
            lru_bits: 65_536,
            lru_hashes: 5,
            update_threshold_bits: 2_048,
            seed: 0x67BA,
            latency: LatencyModel::default(),
            memory_per_mds: None,
            contention_per_message: 0.0,
            write_shards: 16,
        }
    }
}

impl GhbaConfig {
    /// Returns `self` with a different maximum group size `M`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    #[must_use]
    pub fn with_max_group_size(mut self, m: usize) -> Self {
        assert!(m > 0, "group size must be positive");
        self.max_group_size = m;
        self
    }

    /// Returns `self` with a different bits-per-file ratio.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not finite and positive.
    #[must_use]
    pub fn with_bits_per_file(mut self, ratio: f64) -> Self {
        assert!(
            ratio.is_finite() && ratio > 0.0,
            "bits per file must be positive"
        );
        self.bits_per_file = ratio;
        self
    }

    /// Returns `self` with a different per-MDS expected file count.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn with_filter_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "filter capacity must be positive");
        self.filter_capacity = capacity;
        self
    }

    /// Returns `self` with a different L1 LRU capacity (0 disables L1).
    #[must_use]
    pub fn with_lru_capacity(mut self, capacity: usize) -> Self {
        self.lru_capacity = capacity;
        self
    }

    /// Returns `self` with a different update threshold in bits.
    #[must_use]
    pub fn with_update_threshold(mut self, bits: usize) -> Self {
        self.update_threshold_bits = bits;
        self
    }

    /// Returns `self` re-seeded.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns `self` with a per-MDS memory budget in bytes.
    #[must_use]
    pub fn with_memory_per_mds(mut self, bytes: usize) -> Self {
        self.memory_per_mds = Some(bytes);
        self
    }

    /// Returns `self` with a different namespace write-shard count
    /// (rounded up to a power of two at cluster construction; 0 is
    /// treated as 1).
    #[must_use]
    pub fn with_write_shards(mut self, shards: usize) -> Self {
        self.write_shards = shards;
        self
    }

    /// Returns `self` with the given per-message contention factor.
    ///
    /// # Panics
    ///
    /// Panics if `c` is negative or not finite.
    #[must_use]
    pub fn with_contention(mut self, c: f64) -> Self {
        assert!(c.is_finite() && c >= 0.0, "contention must be non-negative");
        self.contention_per_message = c;
        self
    }

    /// The queueing inflation factor for a query that exchanged
    /// `messages` messages.
    #[must_use]
    pub fn contention_factor(&self, messages: u32) -> f64 {
        if self.contention_per_message == 0.0 {
            return 1.0;
        }
        let rho = (self.contention_per_message * f64::from(messages)).min(0.9);
        1.0 / (1.0 - rho)
    }

    /// Size in bits of each server's published Bloom filter under this
    /// configuration.
    #[must_use]
    pub fn filter_bits(&self) -> usize {
        ((self.filter_capacity as f64) * self.bits_per_file).ceil() as usize
    }

    /// Hash count used by the per-server filters (optimal for the ratio).
    #[must_use]
    pub fn filter_hashes(&self) -> u32 {
        ghba_bloom::analysis::optimal_hash_count(self.bits_per_file)
    }

    /// Mutations that must accumulate before the publish gate pays for an
    /// exact drift check. Each new file sets at most `k` bits, so fewer
    /// than `threshold / k` mutations cannot have crossed the update
    /// threshold; checking at half that rate keeps the O(m) distance
    /// computation rare. Shared by every scheme's publish gate.
    #[must_use]
    pub fn publish_gate(&self) -> u64 {
        let hashes = self.filter_hashes() as usize;
        (self.update_threshold_bits / hashes.max(1) / 2).max(1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_papers_operating_point() {
        let c = GhbaConfig::default();
        assert_eq!(c.max_group_size, 6);
        assert_eq!(c.bits_per_file, 16.0);
        assert!(c.memory_per_mds.is_none());
    }

    #[test]
    fn builders_chain() {
        let c = GhbaConfig::default()
            .with_max_group_size(9)
            .with_bits_per_file(8.0)
            .with_filter_capacity(10)
            .with_lru_capacity(0)
            .with_update_threshold(64)
            .with_seed(1)
            .with_memory_per_mds(1024);
        assert_eq!(c.max_group_size, 9);
        assert_eq!(c.bits_per_file, 8.0);
        assert_eq!(c.filter_capacity, 10);
        assert_eq!(c.lru_capacity, 0);
        assert_eq!(c.update_threshold_bits, 64);
        assert_eq!(c.seed, 1);
        assert_eq!(c.memory_per_mds, Some(1024));
    }

    #[test]
    fn filter_geometry_derives_from_ratio() {
        let c = GhbaConfig::default()
            .with_filter_capacity(1_000)
            .with_bits_per_file(8.0);
        assert_eq!(c.filter_bits(), 8_000);
        assert_eq!(c.filter_hashes(), 6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_group_size_rejected() {
        let _ = GhbaConfig::default().with_max_group_size(0);
    }
}
