//! Pure Bloom Filter Arrays — the BFA8/BFA16 baselines of Table 5.
//!
//! A BFA is HBA without the LRU level: each server replicates its filter
//! to everyone and queries probe the full array directly. The suffix is
//! the bit/file ratio (BFA8 = 8 bits per file, BFA16 = 16).

use ghba_core::{EntryPolicy, GhbaConfig, OpBatch, OpOutcome};

use crate::hba::HbaCluster;

/// A pure Bloom filter array cluster (no LRU level).
#[derive(Debug, Clone)]
pub struct BfaCluster {
    inner: HbaCluster,
    name: &'static str,
}

impl BfaCluster {
    /// Creates a BFA cluster with the given bits-per-file ratio; ratios of
    /// 8 and 16 reproduce the paper's BFA8/BFA16 columns.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0` or `bits_per_file` is not positive.
    #[must_use]
    pub fn with_servers(config: GhbaConfig, servers: usize, bits_per_file: f64) -> Self {
        let name = if (bits_per_file - 8.0).abs() < f64::EPSILON {
            "BFA8"
        } else if (bits_per_file - 16.0).abs() < f64::EPSILON {
            "BFA16"
        } else {
            "BFA"
        };
        let config = config
            .with_bits_per_file(bits_per_file)
            .with_lru_capacity(0);
        BfaCluster {
            inner: HbaCluster::with_servers(config, servers),
            name,
        }
    }

    /// Access to the underlying cluster for population, updates and
    /// membership changes.
    pub fn inner_mut(&mut self) -> &mut HbaCluster {
        &mut self.inner
    }
}

impl ghba_core::MetadataService for BfaCluster {
    fn scheme_name(&self) -> &'static str {
        self.name
    }

    fn server_count(&self) -> usize {
        self.inner.server_count()
    }

    fn execute(&mut self, batch: &OpBatch) -> Vec<OpOutcome> {
        // A BFA is HBA without the LRU level (disabled by construction),
        // so the native batched pipeline is inherited wholesale.
        self.inner.execute(batch)
    }

    fn execute_concurrent(&self, batch: &OpBatch) -> Vec<OpOutcome> {
        // Same inheritance for the pin-once concurrent pipeline.
        self.inner.execute_concurrent(batch)
    }

    fn filter_memory_per_mds(&self) -> usize {
        self.inner.filter_memory_per_mds()
    }

    fn set_shim_policy(&mut self, policy: EntryPolicy) {
        ghba_core::MetadataService::set_shim_policy(&mut self.inner, policy);
    }

    fn next_shim_policy(&mut self, ops: usize) -> EntryPolicy {
        ghba_core::MetadataService::next_shim_policy(&mut self.inner, ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghba_core::{MetadataService, QueryLevel};

    fn config() -> GhbaConfig {
        GhbaConfig::default()
            .with_filter_capacity(2_000)
            .with_seed(23)
    }

    #[test]
    fn names_follow_ratio() {
        assert_eq!(
            BfaCluster::with_servers(config(), 4, 8.0).scheme_name(),
            "BFA8"
        );
        assert_eq!(
            BfaCluster::with_servers(config(), 4, 16.0).scheme_name(),
            "BFA16"
        );
        assert_eq!(
            BfaCluster::with_servers(config(), 4, 12.0).scheme_name(),
            "BFA"
        );
    }

    #[test]
    fn no_lru_level_ever() {
        let mut bfa = BfaCluster::with_servers(config(), 6, 8.0);
        bfa.create("/x");
        bfa.inner_mut().flush_all_updates();
        for _ in 0..10 {
            let outcome = bfa.lookup("/x");
            assert_ne!(outcome.level, QueryLevel::L1Lru);
            assert!(outcome.found());
        }
    }

    #[test]
    fn bfa16_uses_twice_the_memory_of_bfa8() {
        let bfa8 = BfaCluster::with_servers(config(), 10, 8.0);
        let bfa16 = BfaCluster::with_servers(config(), 10, 16.0);
        let m8 = bfa8.filter_memory_per_mds();
        let m16 = bfa16.filter_memory_per_mds();
        let ratio = m16 as f64 / m8 as f64;
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }
}
