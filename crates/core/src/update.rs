//! The replica-update protocol (§3.4).
//!
//! Each home MDS tracks how far its live filter has drifted from the
//! published snapshot its peers hold, via the XOR (Hamming) distance of the
//! two bit vectors. Once the drift crosses the configured threshold, the
//! home pushes a sparse `FilterDelta`. The protocol is written once on
//! the generic [`Cluster`]; who receives the delta is the layout's
//! decision ([`Topology::update_fanout`]): HBA broadcasts system-wide,
//! G-HBA addresses **one server per group** — the replica holder,
//! located through the group's IDBFA (a multi-hit there costs only extra
//! dropped messages, the paper's "light false positive penalty").
//!
//! There is one publisher, `publish_columns`: [`Cluster::push_update`]
//! hands it one origin, [`Cluster::flush_all_updates`] every server, and
//! either way the deltas it collects reach the published slab as **one**
//! successor snapshot — the modelled traffic is per origin (each pays
//! its own fan-out), the snapshot machinery per call. Nothing else on a
//! live cluster writes a filter delta into a published column
//! (checkpoint restore, in [`crate::wal`], loads every column of a
//! cluster that is not serving yet in one bulk pass, with no delta).

use core::time::Duration;
use std::sync::Arc;

use ghba_bloom::SharedShapeArray;

use crate::cluster::{Cluster, Topology};
use crate::ids::MdsId;
use crate::snapshot::{RouteEdit, SlabOp};

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
    /// The exact O(m) distance runs at the gated *cadence*, not on every
    /// mutation: after a check comes up under threshold, another `gate`
    /// mutations must accumulate before the next one (the
    /// `drift_exact_checks` counter makes the cadence observable).
    pub(crate) fn maybe_publish(&mut self, origin: MdsId) -> Option<UpdateReport> {
        let threshold = self.config.update_threshold_bits;
        let gate = self.config.publish_gate();
        let exceeded = self.mdss.get_mut(&origin)?.drift_exceeds(gate, threshold)?;
        self.stats.counters.incr("drift_exact_checks");
        if exceeded {
            Some(self.push_update(origin))
        } else {
            None
        }
    }

    /// Unconditionally refreshes `origin`'s replicas — one holder per
    /// foreign group under G-HBA, **all** other servers under HBA (the
    /// Figure 12 contrast) — returning the cost report. A no-op (with
    /// `refreshed: false`) when the live filter matches the published
    /// snapshot, or when a handle retired `origin`'s mirror: the delta
    /// then stays unconsumed, so the first push after the restore folds
    /// the accumulated drift into the restored column.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is not in the cluster.
    pub fn push_update(&mut self, origin: MdsId) -> UpdateReport {
        self.maybe_drain();
        self.publish_columns(&[origin], false)
    }

    /// Pushes updates for every server whose live filter drifted at all —
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

    /// The one column publisher: folds the drift of every server of
    /// `origins` (ascending) into its published column through one
    /// routing edit — one writer lock, one working copy, one spare-slab
    /// recycle, one pointer swap however many servers drifted — then
    /// accounts each refreshed origin's fan-out against that one
    /// successor. Returns the summed cost (latency: the slowest push;
    /// the default report when nothing was refreshed, and then nothing
    /// is published either). A flush barrier (`logged`) is written ahead
    /// to the attached WAL first (see [`log_flush`](Cluster::log_flush)).
    fn publish_columns(&mut self, origins: &[MdsId], logged: bool) -> UpdateReport {
        let routes = Arc::clone(&self.routes);
        // Take the writer lock *before* consuming a delta, so a
        // concurrent retire cannot drop an origin's column between the
        // check and the publish.
        let mut edit = RouteEdit::begin(&routes);
        if logged {
            self.log_flush(origins, &edit.work.slab);
        }
        let mut refreshed = Vec::new();
        for &origin in origins {
            let mds = self.mdss.get_mut(&origin).expect("origin must exist");
            if !edit.work.slab.contains_id(origin) {
                continue;
            }
            // The sparse delta touches only the bit-rows of changed words
            // — cost scales with churn since the last publish, not with
            // the O(m) filter width.
            if let Some(delta) = mds.publish() {
                refreshed.push((origin, delta.wire_bytes() as u64));
                edit.push_op(SlabOp::Delta(origin, delta));
            }
        }
        if refreshed.is_empty() {
            return UpdateReport::default();
        }
        // No epoch bump: a publish refreshes filter *content* under the
        // same layout, so cached masks stay valid, and in-flight pinned
        // walks keep probing the exact bits they admitted against.
        edit.commit();
        let snap = self.routes.pin();
        let mut total = UpdateReport::default();
        for (origin, delta_bytes) in refreshed {
            debug_assert_eq!(
                snap.slab.extract(origin).as_ref(),
                self.mdss.get(&origin).map(|mds| mds.published()),
                "sparse delta application diverged from the published snapshot"
            );
            let report = T::update_fanout(self, &snap, origin, delta_bytes);
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
    /// the flush will change durable state — some origin with a column in
    /// `slab` whose publish refreshes it or restarts its drift cadence
    /// (the counters a checkpoint captures). A flush that changes nothing
    /// logs nothing, so an idle tick leaves the log as it was; it only
    /// lets a [`GroupCommit`](crate::SyncPolicy::GroupCommit) tail reach
    /// disk once its interval has passed ([`Wal::sync_if_due`]).
    ///
    /// [`Wal::sync_if_due`]: crate::Wal::sync_if_due
    fn log_flush(&mut self, origins: &[MdsId], slab: &SharedShapeArray<MdsId>) {
        let Some(wal) = self.wal.as_mut() else {
            return;
        };
        let changes = origins
            .iter()
            .any(|&id| slab.contains_id(id) && self.mdss[&id].publish_changes_state());
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

    use super::UpdateReport;
    use crate::cluster::{Cluster, GhbaCluster, Topology};
    use crate::config::GhbaConfig;
    use crate::ids::MdsId;
    use crate::mirror::HbaCluster;

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
            cluster.remove_file(&format!("/flush/f{}", i * 5));
        }
        assert_eq!(cluster.stats().update_messages, 0, "nothing published yet");
        cluster
    }

    /// One `flush_all_updates` against the same drift as one
    /// `push_update` per server on a twin: same summed report, same
    /// update statistics, same columns — through exactly one successor
    /// snapshot, which carries every delta while a pin taken before it
    /// carries none. `retired` names servers whose mirror a handle
    /// dropped (no column: their drift must stay unconsumed on both).
    fn flush_equals_pushes<T: Topology>(
        mut flushed: Cluster<T>,
        mut pushed: Cluster<T>,
        retired: &[MdsId],
    ) {
        let ids = flushed.server_ids();
        let stale: BTreeMap<MdsId, _> = ids
            .iter()
            .map(|&id| (id, flushed.mds(id).expect("live").published().clone()))
            .collect();
        let before = flushed.routes.pin();
        let swaps = flushed.routes.publishes();

        let total = flushed.flush_all_updates();
        assert_eq!(flushed.routes.publishes(), swaps + 1, "one flush, one swap");

        let pushed_swaps = pushed.routes.publishes();
        let mut summed = UpdateReport::default();
        for &id in &ids {
            let report = pushed.push_update(id);
            let expect_refresh = id != QUIET && !retired.contains(&id);
            assert_eq!(report.refreshed, expect_refresh, "{id}");
            summed.messages += report.messages;
            summed.bytes += report.bytes;
            summed.latency = summed.latency.max(report.latency);
            summed.refreshed |= report.refreshed;
        }
        let refreshed = ids.len() - 1 - retired.len();
        assert_eq!(pushed.routes.publishes(), pushed_swaps + refreshed as u64);
        assert!(total.refreshed && total.messages > 0);
        assert_eq!(total, summed);

        let (got, want) = (flushed.stats(), pushed.stats());
        assert_eq!(got.update_messages, want.update_messages);
        assert_eq!(got.update_bytes, want.update_bytes);
        assert_eq!(got.update_latency, want.update_latency);
        assert_eq!(got.update_latency.count(), refreshed as u64);
        let counters = |cluster: &Cluster<T>| -> BTreeMap<String, u64> {
            let counters = cluster.stats().counters.iter();
            counters.map(|(label, n)| (label.to_owned(), n)).collect()
        };
        assert_eq!(counters(&flushed), counters(&pushed));

        let after = flushed.routes.pin();
        assert!(!Arc::ptr_eq(&before, &after));
        for &id in &ids {
            let mds = flushed.mds(id).expect("live");
            if retired.contains(&id) {
                assert_eq!(mds.published(), &stale[&id], "{id}: delta consumed");
                assert!(after.slab.extract(id).is_none());
                continue;
            }
            assert_eq!(before.slab.extract(id).as_ref(), Some(&stale[&id]), "{id}");
            assert_eq!(
                after.slab.extract(id).as_ref(),
                Some(mds.published()),
                "{id}"
            );
            assert_eq!(mds.drift_bits(), 0, "{id}");
            assert_eq!(mds.published() == &stale[&id], id == QUIET, "{id}");
            assert_eq!(
                pushed.routes.pin().slab.extract(id).as_ref(),
                Some(mds.published()),
                "{id}: twins diverged"
            );
        }
    }

    #[test]
    fn one_flush_publishes_what_a_push_per_server_would_grouped() {
        let flushed = drifted::<crate::Grouped>();
        flush_equals_pushes(flushed.clone(), flushed.clone(), &[]);
        let mut flushed = flushed;
        flushed.flush_all_updates();
        flushed.check_invariants().expect("slab mirrors published");
        // Nothing drifted since: no successor, no traffic.
        let swaps = flushed.routes.publishes();
        assert_eq!(flushed.flush_all_updates(), UpdateReport::default());
        assert_eq!(flushed.routes.publishes(), swaps);
    }

    #[test]
    fn one_flush_publishes_what_a_push_per_server_would_mirrored() {
        let retired = MdsId(2);
        let build = || {
            let cluster: HbaCluster = drifted();
            let handle = cluster.reconfig_handle();
            let filter = handle.retire_mds(retired).expect("published");
            (cluster, handle, filter)
        };
        let (flushed, ..) = build();
        let (pushed, ..) = build();
        flush_equals_pushes(flushed, pushed, &[retired]);
        // The retired server's drift waited for its column to come back.
        let (mut cluster, handle, filter) = build();
        cluster.flush_all_updates();
        assert!(handle.restore_mds(retired, &filter));
        assert!(cluster.push_update(retired).refreshed);
        cluster.check_invariants().expect("slab mirrors published");
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
            cluster.create_file(&format!("/cadence/f{i}"));
        }
        let checks = cluster.stats().counters.get("drift_exact_checks");
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

    /// The published slab is refreshed by sparse delta application; it
    /// must stay bit-identical to every server's published snapshot.
    #[test]
    fn push_update_keeps_slab_in_sync_via_deltas() {
        let config = GhbaConfig::default()
            .with_filter_capacity(2_000)
            .with_max_group_size(4)
            .with_update_threshold(usize::MAX)
            .with_seed(11);
        let mut cluster = GhbaCluster::with_servers(config, 12);
        for round in 0..3 {
            for i in 0..40 {
                cluster.create_file(&format!("/sync/r{round}/f{i}"));
            }
            if round == 1 {
                for i in 0..10 {
                    cluster.remove_file(&format!("/sync/r0/f{i}"));
                }
            }
            cluster.flush_all_updates();
            cluster
                .check_invariants()
                .expect("published slab mirrors every snapshot");
        }
    }
}
