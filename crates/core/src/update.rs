//! The replica-update protocol (§3.4).
//!
//! Each home MDS tracks how far its live column has drifted from the
//! published column its peers hold, via the XOR (Hamming) distance of the
//! two. Once the drift crosses the configured threshold, the home pushes
//! the changed 64-bit words of its filter (a sparse delta of
//! `24 + 12 × changed words` bytes). The protocol is written once on the
//! generic [`Cluster`]; who receives the delta is the layout's decision
//! ([`Topology::update_fanout`]): HBA broadcasts system-wide, G-HBA
//! addresses **one server per group** — the replica holder, located
//! through the group's IDBFA (a multi-hit there costs only extra dropped
//! messages, the paper's "light false positive penalty").
//!
//! There is one publisher, `publish_columns`: [`Cluster::push_update`]
//! hands it one origin, [`Cluster::flush_all_updates`] every server, and
//! either way the origins reach the published slab as **one** successor
//! snapshot — the modelled traffic is per origin (each pays its own
//! fan-out), the snapshot machinery per call. Nothing else on a live
//! cluster writes a published column's cells (checkpoint restore, in
//! [`crate::wal`], loads every column of a cluster that is not serving
//! yet in one bulk pass).
//!
//! # The masked copy
//!
//! A server's live and published columns sit at one slot of two slabs of
//! one shape, and differ only in the 64-row blocks its dirty-block bitmap
//! marks. A publish is therefore one pass over the blocks its origins
//! dirtied ([`SharedShapeArray::copy_blocks_from`]): per block, one
//! masked store per row copies every origin's cells at once, and the
//! bits it flipped count each origin's changed words — the delta's size,
//! with no per-server delta built, applied or diffed. The same copy,
//! one [`SlabOp::Copy`], catches the recycled spare slab up. The drift
//! check reads the same blocks ([`Cluster::drift_bits`]).
//!
//! [`SharedShapeArray::copy_blocks_from`]: ghba_bloom::SharedShapeArray::copy_blocks_from

use core::time::Duration;
use std::sync::Arc;

use crate::cluster::{Cluster, Topology};
use crate::ids::MdsId;
use crate::snapshot::{RouteEdit, SlabOp};

/// Bytes a replica-update delta of `words` changed 64-bit words occupies
/// on the wire: 4 (index) + 8 (word) per word plus a 24-byte header.
fn delta_wire_bytes(words: u32) -> u64 {
    24 + 12 * u64::from(words)
}

/// Cost accounting for one replica-update push.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Messages sent (G-HBA: one per IDBFA candidate per group,
    /// non-holders drop theirs; HBA: one per other server).
    pub messages: u64,
    /// Bytes of delta traffic.
    pub bytes: u64,
    /// Simulated latency of the push (recipients are contacted in
    /// parallel).
    pub latency: Duration,
    /// Whether a refresh actually happened (`false` when the live filter
    /// had not changed).
    pub refreshed: bool,
}

impl<T: Topology> Cluster<T> {
    /// Cheap drift gate called after every mutation: publishes only when
    /// the mutation count suggests the XOR distance may have crossed the
    /// threshold, and the exact distance confirms it.
    ///
    /// The exact distance runs at the gated *cadence*, not on every
    /// mutation: after a check comes up under threshold, another `gate`
    /// mutations must accumulate before the next one (the
    /// `drift_exact_checks` counter makes the cadence observable). It
    /// reads only the origin's dirty blocks ([`drift_bits`]).
    ///
    /// [`drift_bits`]: Cluster::drift_bits
    pub(crate) fn maybe_publish(&mut self, origin: MdsId) -> Option<UpdateReport> {
        let threshold = self.config.update_threshold_bits;
        let gate = self.config.publish_gate();
        if !self.mdss.get(&origin)?.drift_check_due(gate) {
            return None;
        }
        let drift = self.drift_bits(origin)?;
        self.stats.counters.drift_exact_checks += 1;
        if drift < threshold {
            self.mdss.get_mut(&origin)?.note_drift_checked();
            None
        } else {
            Some(self.push_update(origin))
        }
    }

    /// Unconditionally refreshes `origin`'s replicas — one holder per
    /// foreign group under G-HBA, **all** other servers under HBA (the
    /// Figure 12 contrast) — returning the cost report. A no-op (with
    /// `refreshed: false`) when the live column matches the published
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is not in the cluster.
    pub fn push_update(&mut self, origin: MdsId) -> UpdateReport {
        self.maybe_drain();
        self.publish_columns(&[origin], false)
    }

    /// Pushes updates for every server whose live column drifted at all —
    /// a barrier used by experiments that need fresh replicas (and by
    /// departures) — as **one** successor snapshot. Returns the summed
    /// cost (latency: the slowest push).
    pub fn flush_all_updates(&mut self) -> UpdateReport {
        // Write-ahead: drain (and log) pending concurrent writes first so
        // the flush record lands *after* the drain whose effects it
        // publishes.
        self.maybe_drain();
        self.publish_columns(&self.server_ids(), true)
    }

    /// The one column publisher: copies the live cells of every server of
    /// `origins` (ascending) into its published column, over the blocks
    /// it dirtied, through one routing edit — one writer lock, one masked
    /// pass per slab (the successor's and the recycled spare's), one
    /// pointer swap however many servers drifted — then accounts each
    /// origin whose copy changed a word against that one successor.
    /// Every origin restarts its cadence, moved or not. Returns the
    /// summed cost (latency: the slowest push; the default report when
    /// no word changed, and then nothing is published either). A flush
    /// barrier (`logged`) is written ahead to the attached WAL first (see
    /// [`log_flush`](Cluster::log_flush)).
    fn publish_columns(&mut self, origins: &[MdsId], logged: bool) -> UpdateReport {
        let routes = Arc::clone(&self.routes);
        let mut edit = RouteEdit::begin(&routes);
        if logged {
            self.log_flush(origins);
        }
        let (mut dirty, mut copies) = (Vec::new(), Vec::new());
        for &origin in origins {
            let mds = self.mdss.get(&origin).expect("origin must exist");
            debug_assert_eq!(edit.work.slab.slot_of(origin), Some(mds.slot()));
            if mds.dirty_blocks().iter().any(|&blocks| blocks != 0) {
                dirty.push(origin);
                copies.push((mds.slot(), mds.dirty_blocks(), mds.item_count()));
            }
        }
        let changed = if copies.is_empty() {
            // Nothing to copy: the edit ends here, unpublished.
            drop(edit);
            Vec::new()
        } else {
            // No epoch bump: a publish refreshes filter *content* under
            // the same layout, so every plan carries over, and in-flight
            // pinned walks keep probing the exact bits they admitted
            // against.
            edit.push_op(SlabOp::Copy(&self.live, copies));
            edit.commit()
        };
        for origin in origins {
            self.mdss
                .get_mut(origin)
                .expect("origin must exist")
                .mark_published();
        }
        let snap = self.routes.pin();
        #[cfg(debug_assertions)]
        for &origin in origins {
            let mds = &self.mdss[&origin];
            let all = vec![u64::MAX; mds.dirty_blocks().len()];
            debug_assert_eq!(
                snap.slab.column_distance(&self.live, mds.slot(), &all),
                0,
                "the masked copy left {origin}'s published column behind its live one"
            );
        }
        let refreshed = dirty
            .into_iter()
            .zip(changed)
            .filter(|&(_, words)| words != 0);
        let mut total = UpdateReport::default();
        for (origin, words) in refreshed {
            let report = T::update_fanout(self, &snap, origin, delta_wire_bytes(words));
            self.stats.update_messages += report.messages;
            self.stats.update_bytes += report.bytes;
            self.stats.update_latency.record(report.latency);
            total.messages += report.messages;
            total.bytes += report.bytes;
            total.latency = total.latency.max(report.latency);
            total.refreshed |= report.refreshed;
        }
        total
    }

    /// Write-ahead for a flush barrier over `origins`, decided before
    /// any server or column changes: the record is appended only when
    /// the flush will change durable state — some origin whose publish
    /// restarts its drift cadence (the counters a checkpoint captures; a
    /// server with none to restart is clean and has no drift to publish
    /// either). A flush that changes nothing
    /// logs nothing, so an idle tick leaves the log as it was; it only
    /// lets a [`GroupCommit`](crate::SyncPolicy::GroupCommit) tail reach
    /// disk once its interval has passed ([`Wal::sync_if_due`]).
    ///
    /// [`Wal::sync_if_due`]: crate::Wal::sync_if_due
    fn log_flush(&mut self, origins: &[MdsId]) {
        let Some(wal) = self.wal.as_mut() else {
            return;
        };
        let changes = origins
            .iter()
            .any(|&id| self.mdss[&id].publish_changes_state());
        if changes {
            wal.append_flush()
                .expect("WAL append failed: cannot publish unlogged flush");
        } else {
            wal.sync_if_due()
                .expect("WAL sync failed: the group-commit tail cannot reach disk");
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use ghba_bloom::BloomFilter;

    use super::UpdateReport;
    use crate::cluster::{Cluster, ClusterStats, GhbaCluster, Topology};
    use crate::config::GhbaConfig;
    use crate::ids::MdsId;
    use crate::mirror::HbaCluster;
    use crate::op::{EntryPolicy, OpBatch};
    use crate::service::MetadataService;

    const SERVERS: u16 = 9;
    /// Never written to: the server with no drift.
    const QUIET: MdsId = MdsId(4);

    /// A cluster whose every server but [`QUIET`] drifted (files created
    /// and some removed again under a threshold nothing crosses).
    fn drifted<T: Topology>() -> Cluster<T> {
        let config = GhbaConfig::default()
            .with_filter_capacity(2_000)
            .with_max_group_size(4)
            .with_update_threshold(usize::MAX)
            .with_seed(23);
        let mut cluster = Cluster::with_servers(config, usize::from(SERVERS));
        for i in 0..120u16 {
            let home = MdsId(i % SERVERS);
            if home != QUIET {
                cluster.create_file_at(&format!("/flush/f{i}"), home);
            }
        }
        for i in 0..20u16 {
            cluster.remove(&format!("/flush/f{}", i * 5));
        }
        assert_eq!(cluster.stats().update_messages, 0, "nothing published yet");
        cluster
    }

    /// One `flush_all_updates` against the same drift as one
    /// `push_update` per server on a twin: same summed report, same
    /// update statistics, same columns — through exactly one successor
    /// snapshot, which carries every delta while a pin taken before it
    /// carries none.
    fn flush_equals_pushes<T: Topology>(mut flushed: Cluster<T>, mut pushed: Cluster<T>) {
        let ids = flushed.server_ids();
        let stale: BTreeMap<MdsId, _> = ids
            .iter()
            .map(|&id| (id, flushed.published_filter(id)))
            .collect();
        let before = flushed.routes.pin();
        let swaps = flushed.routes.publishes();

        let total = flushed.flush_all_updates();
        assert_eq!(flushed.routes.publishes(), swaps + 1, "one flush, one swap");

        let pushed_swaps = pushed.routes.publishes();
        let mut summed = UpdateReport::default();
        for &id in &ids {
            let report = pushed.push_update(id);
            assert_eq!(report.refreshed, id != QUIET, "{id}");
            summed.messages += report.messages;
            summed.bytes += report.bytes;
            summed.latency = summed.latency.max(report.latency);
            summed.refreshed |= report.refreshed;
        }
        let refreshed = ids.len() - 1;
        assert_eq!(pushed.routes.publishes(), pushed_swaps + refreshed as u64);
        assert!(total.refreshed && total.messages > 0);
        assert_eq!(total, summed);

        let (got, want) = (flushed.stats(), pushed.stats());
        assert_eq!(got.update_messages, want.update_messages);
        assert_eq!(got.update_bytes, want.update_bytes);
        assert_eq!(got.update_latency, want.update_latency);
        assert_eq!(got.update_latency.count(), refreshed as u64);
        assert_eq!(got.counters, want.counters);

        let after = flushed.routes.pin();
        assert!(!Arc::ptr_eq(&before, &after));
        for &id in &ids {
            let published = after.slab.extract(id);
            assert_eq!(before.slab.extract(id), stale[&id], "{id}");
            assert_eq!(flushed.drift_bits(id), Some(0), "{id}");
            assert_eq!(published == stale[&id], id == QUIET, "{id}");
            assert_eq!(
                pushed.published_filter(id),
                published,
                "{id}: twins diverged"
            );
        }
    }

    #[test]
    fn one_flush_publishes_what_a_push_per_server_would_grouped() {
        let flushed = drifted::<crate::Grouped>();
        flush_equals_pushes(flushed.clone(), flushed.clone());
        let mut flushed = flushed;
        flushed.flush_all_updates();
        flushed.check_invariants().expect("slab mirrors published");
        // Nothing drifted since: no successor, no traffic.
        let swaps = flushed.routes.publishes();
        assert_eq!(flushed.flush_all_updates(), UpdateReport::default());
        assert_eq!(flushed.routes.publishes(), swaps);
        // A create and a remove of one path flip cells and move no bit:
        // the flush copies the marked blocks, changes no word and swaps
        // nothing in.
        flushed.create_file_at("/flush/ghost", QUIET);
        assert_eq!(flushed.remove("/flush/ghost"), Some(QUIET));
        assert!(flushed
            .mds(QUIET)
            .expect("live")
            .dirty_blocks()
            .iter()
            .any(|&w| w != 0));
        assert_eq!(flushed.flush_all_updates(), UpdateReport::default());
        assert_eq!(flushed.routes.publishes(), swaps);
        assert!(flushed.mds(QUIET).expect("live").is_clean());
        flushed.check_invariants().expect("nothing moved");
    }

    #[test]
    fn one_flush_publishes_what_a_push_per_server_would_mirrored() {
        let flushed: HbaCluster = drifted();
        flush_equals_pushes(flushed.clone(), flushed.clone());
        let mut flushed = flushed;
        flushed.flush_all_updates();
        flushed.check_invariants().expect("slab mirrors published");
    }

    /// Regression: once `mutations_since_publish` passed the gate but
    /// drift stayed under threshold, the seed recomputed the exact O(m)
    /// XOR distance on **every** subsequent mutation. The exact check must
    /// instead run once per `gate` mutations.
    #[test]
    fn exact_drift_checks_run_at_gated_cadence() {
        let config = GhbaConfig::default()
            .with_filter_capacity(10_000)
            .with_bits_per_file(12.0)
            .with_update_threshold(1_600)
            .with_seed(3);
        let hashes = u64::from(config.filter_hashes());
        let gate = (1_600 / hashes.max(1) / 2).max(1);
        let mut cluster = GhbaCluster::with_servers(config, 1);
        // Enough mutations to pass the gate several times over, few
        // enough that the drift (≈ k bits per create) stays under the
        // threshold, so no publish ever resolves the pressure.
        let mutations = gate * 2 - 10;
        for i in 0..mutations {
            cluster.create(&format!("/cadence/f{i}"));
        }
        let checks = cluster.stats().counters.drift_exact_checks;
        assert!(checks >= 1, "the gate passed; at least one exact check");
        assert!(
            checks <= mutations / gate + 1,
            "{checks} exact checks for {mutations} mutations (gate {gate}): \
             the O(m) distance is being recomputed per mutation"
        );
        assert_eq!(
            cluster.stats().update_messages,
            0,
            "drift must have stayed under threshold for this test to bite"
        );
    }

    /// Every flush leaves each server clean with its published column
    /// equal to its live one, through creates and removes.
    #[test]
    fn flushes_keep_the_published_slab_in_sync() {
        let config = GhbaConfig::default()
            .with_filter_capacity(2_000)
            .with_max_group_size(4)
            .with_update_threshold(usize::MAX)
            .with_seed(11);
        let mut cluster = GhbaCluster::with_servers(config, 12);
        for round in 0..3 {
            for i in 0..40 {
                cluster.create(&format!("/sync/r{round}/f{i}"));
            }
            if round == 1 {
                for i in 0..10 {
                    cluster.remove(&format!("/sync/r0/f{i}"));
                }
            }
            cluster.flush_all_updates();
            cluster
                .check_invariants()
                .expect("published slab mirrors every snapshot");
            for id in cluster.server_ids() {
                assert!(cluster.mds(id).expect("live").is_clean(), "{id}");
            }
        }
    }

    /// Bytes of a serialized filter before its words.
    const HEADER: usize = 32;

    /// The publish the masked copy replaced, as a reference: for every
    /// server with a published column, extract that column and the live
    /// one and diff them word by word; where a word changed, the live
    /// column with the server's item count is the expected published one,
    /// and `24 + 12 × changed words` bytes go through the layout's
    /// fan-out. Returns the expected columns and the statistics a twin
    /// accumulated.
    fn reference_publish<T: Topology>(
        cluster: &Cluster<T>,
    ) -> (BTreeMap<MdsId, BloomFilter>, ClusterStats) {
        let mut twin = cluster.clone();
        let snap = cluster.routes.pin();
        let mut columns = BTreeMap::new();
        for (&id, mds) in &cluster.mdss {
            let Some(old) = snap.slab.extract(id) else {
                continue;
            };
            let mut new = cluster.live.extract(id).expect("a live column").to_bytes();
            let old_words = old.to_bytes()[HEADER..].to_vec();
            let words = old_words
                .chunks(8)
                .zip(new[HEADER..].chunks(8))
                .filter(|(a, b)| a != b)
                .count() as u64;
            if words == 0 {
                columns.insert(id, old);
                continue;
            }
            new[24..HEADER].copy_from_slice(&(mds.item_count() as u64).to_le_bytes());
            columns.insert(id, BloomFilter::from_bytes(&new).expect("valid"));
            let report = T::update_fanout(&mut twin, &snap, id, 24 + 12 * words);
            twin.stats.update_messages += report.messages;
            twin.stats.update_bytes += report.bytes;
            twin.stats.update_latency.record(report.latency);
        }
        (columns, twin.stats.clone())
    }

    /// Drains, then holds one `flush_all_updates` to
    /// [`reference_publish`]: every published column (bits and item
    /// count), the update messages, bytes and latency statistics and the
    /// counters the fan-out keeps. Returns the expected columns.
    fn publish_matches_reference<T: Topology>(
        cluster: &mut Cluster<T>,
    ) -> BTreeMap<MdsId, BloomFilter> {
        cluster.drain_concurrent();
        let (columns, want) = reference_publish(cluster);
        cluster.flush_all_updates();
        for (&id, column) in &columns {
            assert_eq!(cluster.published_filter(id).as_ref(), Some(column), "{id}");
        }
        let got = cluster.stats();
        assert_eq!(got.update_messages, want.update_messages);
        assert_eq!(got.update_bytes, want.update_bytes);
        assert_eq!(got.update_latency, want.update_latency);
        assert_eq!(got.counters, want.counters);
        cluster
            .check_invariants()
            .expect("the publish keeps both slabs exact");
        columns
    }

    /// Re-creates a stored path: dirty, no bit moved.
    const RECREATED: MdsId = MdsId(5);
    /// Creates and removes one path: blocks marked, no bit moved.
    const GHOST: MdsId = MdsId(6);

    /// Two rounds of writes through both entries on 70 servers (two slab
    /// words), each published by one flush held to the reference. Round
    /// two has an origin whose only write was a re-create and one whose
    /// create and remove cancel out — neither is refreshed.
    fn masked_publish_matches_the_reference<T: Topology>(
    ) -> (Cluster<T>, BTreeMap<MdsId, BloomFilter>) {
        let config = GhbaConfig::default()
            .with_filter_capacity(400)
            .with_max_group_size(8)
            .with_update_threshold(usize::MAX)
            .with_write_shards(4)
            .with_seed(31);
        let mut cluster: Cluster<T> = Cluster::with_servers(config, 70);
        let concurrent = |cluster: &mut Cluster<T>, round: u16, entry| {
            let mut batch = OpBatch::new().with_entry(entry);
            for i in 0..140 {
                batch.push_create(format!("/ref/r{round}/c{i}"));
            }
            for i in (0..140).step_by(7) {
                batch.push_remove(format!("/ref/r{round}/c{i}"));
            }
            cluster.execute_concurrent(&batch);
        };
        for i in 0..700u16 {
            let home = MdsId(i % 70);
            if home != QUIET {
                cluster.create_file_at(&format!("/ref/f{i}"), home);
            }
        }
        concurrent(&mut cluster, 0, EntryPolicy::RoundRobin { start: 0 });
        publish_matches_reference(&mut cluster);

        // Round two leaves RECREATED and GHOST to their one write each.
        cluster.create_file_at("/ref/f5", RECREATED);
        cluster.create_file_at("/ref/ghost", GHOST);
        assert_eq!(cluster.remove("/ref/ghost"), Some(GHOST));
        for i in (0..700u16)
            .step_by(9)
            .filter(|i| ![5, 6].contains(&(i % 70)))
        {
            cluster.remove(&format!("/ref/f{i}"));
        }
        concurrent(&mut cluster, 1, EntryPolicy::Pinned(MdsId(66)));
        cluster.drain_concurrent();
        let dirty = |cluster: &Cluster<T>, id| !cluster.mds(id).expect("live").is_clean();
        assert!(dirty(&cluster, RECREATED) && dirty(&cluster, GHOST));
        let stale = [RECREATED, GHOST].map(|id| cluster.published_filter(id));
        let columns = publish_matches_reference(&mut cluster);
        assert_eq!(
            [RECREATED, GHOST].map(|id| cluster.published_filter(id)),
            stale
        );
        assert!(!dirty(&cluster, RECREATED) && !dirty(&cluster, GHOST));
        (cluster, columns)
    }

    /// A checkpoint captured after the stream writes exactly the bytes
    /// of a checkpoint whose published filters are the reference's.
    #[test]
    fn masked_publish_matches_the_reference_grouped() {
        let (mut cluster, columns) = masked_publish_matches_the_reference::<crate::Grouped>();
        let capture = cluster.capture_checkpoint();
        let mut expected = capture.clone();
        for server in &mut expected.servers {
            server.published = columns[&server.id].to_bytes();
        }
        assert_eq!(capture.to_bytes(), expected.to_bytes());
    }

    #[test]
    fn masked_publish_matches_the_reference_mirrored() {
        masked_publish_matches_the_reference::<crate::FullMirror>();
    }
}
