//! HBA — Hierarchical Bloom filter Arrays (Zhu, Jiang & Wang, 2004), the
//! paper's primary baseline.
//!
//! Every MDS replicates its Bloom filter to **every** other MDS, so each
//! server holds a complete mirror; queries are L1 (LRU), the full array,
//! then a system-wide broadcast. [`HbaCluster`] is `ghba_core`'s cluster
//! engine under the full-mirror layout (`ghba_core::FullMirror`): the
//! pinned walk, op pipeline, update cadence and drain are the
//! very code G-HBA runs, so the comparison is like-for-like by
//! construction. This module re-exports it and keeps the baseline's unit
//! tests.

pub use ghba_core::HbaCluster;

#[cfg(test)]
mod tests {
    use super::*;
    use ghba_core::{
        EntryPolicy, GhbaConfig, MdsId, MetadataService, OpBatch, OpOutcome, QueryLevel,
        ReconfigError,
    };

    fn config() -> GhbaConfig {
        GhbaConfig::default()
            .with_filter_capacity(2_000)
            .with_seed(17)
    }

    #[test]
    fn files_are_findable() {
        let mut hba = HbaCluster::with_servers(config(), 8);
        for i in 0..100 {
            hba.create_file(&format!("/h/f{i}"));
        }
        hba.flush_all_updates();
        for i in 0..100 {
            let path = format!("/h/f{i}");
            let truth = hba.true_home(&path);
            let outcome = hba.lookup(&path);
            assert_eq!(outcome.home, truth);
            // Full mirror, freshly flushed: one verify round trip at
            // most, never a group multicast.
            assert!(outcome.messages <= 2, "{path}: {outcome:?}");
        }
    }

    #[test]
    fn join_migrates_all_n_replicas() {
        let mut hba = HbaCluster::with_servers(config(), 10);
        hba.reset_stats();
        let (_, report) = hba.add_mds_reported();
        assert_eq!(report.migrated_replicas, 10);
        assert_eq!(report.messages, 20);
    }

    #[test]
    fn update_broadcasts_to_everyone() {
        let mut hba = HbaCluster::with_servers(config(), 12);
        let home = hba.server_ids()[0];
        for i in 0..50 {
            hba.create_file_at(&format!("/u/f{i}"), home);
        }
        let report = hba.push_update(home);
        assert!(report.refreshed);
        assert_eq!(report.messages, 11);
    }

    #[test]
    fn memory_per_mds_scales_with_n() {
        let small = HbaCluster::with_servers(config(), 5);
        let large = HbaCluster::with_servers(config(), 20);
        assert!(large.filter_memory_per_mds() > small.filter_memory_per_mds() * 3);
    }

    #[test]
    fn repeated_lookup_hits_l1() {
        let mut hba = HbaCluster::with_servers(config(), 8);
        hba.create_file("/hot/file");
        hba.flush_all_updates();
        let entry = MdsId(0);
        let _ = hba.lookup_from(entry, "/hot/file");
        let second = hba.lookup_from(entry, "/hot/file");
        assert_eq!(second.level, QueryLevel::L1Lru);
    }

    #[test]
    fn removal_preserves_files() {
        let mut hba = HbaCluster::with_servers(config(), 6);
        for i in 0..60 {
            hba.create_file(&format!("/r/f{i}"));
        }
        let before = hba.total_files();
        assert_eq!(
            hba.remove_mds(MdsId(99)),
            Err(ReconfigError::UnknownMds(MdsId(99)))
        );
        hba.remove_mds(MdsId(2)).expect("known, not last");
        assert_eq!(hba.total_files(), before);
        assert_eq!(hba.server_count(), 5);
        hba.flush_all_updates();
        for i in 0..60 {
            assert!(hba.lookup(&format!("/r/f{i}")).found());
        }
        let mut lone = HbaCluster::with_servers(config(), 1);
        assert_eq!(lone.remove_mds(MdsId(0)), Err(ReconfigError::LastServer));
    }

    /// A fused lookup batch resolves like the same lookups one by one
    /// from the same entries.
    #[test]
    fn fused_lookups_match_sequential_lookups() {
        let build = || {
            let mut hba = HbaCluster::with_servers(config(), 8);
            for i in 0..120 {
                hba.create_file(&format!("/batch/f{i}"));
            }
            hba.flush_all_updates();
            hba
        };
        let mut sequential = build();
        let mut batched = build();
        // Round robin over 8 servers: op `i` enters at `MdsId(i % 8)`.
        let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 0 });
        let mut expected = Vec::new();
        for i in 0..32 {
            let path = if i % 8 == 7 {
                format!("/absent/f{i}")
            } else {
                format!("/batch/f{}", i * 3 % 120)
            };
            expected.push(OpOutcome::Resolved(
                sequential.lookup_from(MdsId(i % 8), &path),
            ));
            batch.push_lookup(path);
        }
        assert_eq!(batched.execute(&batch), expected);
    }

    #[test]
    fn nonexistent_resolves_to_miss() {
        let mut hba = HbaCluster::with_servers(config(), 6);
        let outcome = hba.lookup("/ghost");
        assert!(!outcome.found());
        assert_eq!(outcome.level, QueryLevel::Nonexistent);
    }
}
