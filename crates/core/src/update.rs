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

use core::time::Duration;
use std::sync::Arc;

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
        let routes = Arc::clone(&self.routes);
        // Take the writer lock *before* consuming the delta, so a
        // concurrent retire cannot drop `origin`'s column between the
        // check and the publish.
        let writer = routes.edit();
        let mds = self.mdss.get_mut(&origin).expect("origin must exist");
        if !writer.base().slab.contains_id(origin) {
            return UpdateReport::default();
        }
        let delta = match mds.publish() {
            Some(delta) => delta,
            None => return UpdateReport::default(),
        };
        // Refresh the origin's column of the bit-sliced published slab the
        // hash-once L2/L3 probes read, as its own snapshot publish. The
        // sparse delta touches only the bit-rows of changed words — cost
        // scales with churn since the last publish, not with the O(m)
        // filter width. No epoch bump: a publish refreshes filter
        // *content* under the same layout, so cached masks stay valid,
        // and in-flight pinned walks keep probing the exact bits they
        // admitted against.
        let delta_bytes = delta.wire_bytes() as u64;
        let mut edit = RouteEdit::over(writer);
        edit.push_op(SlabOp::Delta(origin, delta));
        edit.commit();
        let snap = self.routes.pin();
        debug_assert_eq!(
            snap.slab.extract(origin).as_ref(),
            self.mdss.get(&origin).map(|mds| mds.published()),
            "sparse delta application diverged from the published snapshot"
        );
        let report = T::update_fanout(self, &snap, origin, delta_bytes);
        self.stats.update_messages += report.messages;
        self.stats.update_bytes += report.bytes;
        self.stats.update_latency.record(report.latency);
        report
    }

    /// Pushes updates for every server whose live filter drifted at all —
    /// a barrier used by experiments that need fresh replicas (and by
    /// departures). Returns the summed cost (latency: the slowest push).
    pub fn flush_all_updates(&mut self) -> UpdateReport {
        // Write-ahead: drain (and log) pending concurrent writes first so
        // the flush record lands *after* the drain whose effects it
        // publishes; the per-server `push_update` drains below are then
        // clean no-ops.
        self.maybe_drain();
        if let Some(wal) = self.wal.as_mut() {
            wal.append_flush()
                .expect("WAL append failed: cannot publish unlogged flush");
        }
        let ids = self.server_ids();
        let mut total = UpdateReport::default();
        for id in ids {
            let report = self.push_update(id);
            total.messages += report.messages;
            total.bytes += report.bytes;
            total.latency = total.latency.max(report.latency);
            total.refreshed |= report.refreshed;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::GhbaCluster;
    use crate::config::GhbaConfig;

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
