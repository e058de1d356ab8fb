//! The full-mirror replica layout — HBA (Zhu, Jiang & Wang, 2004), the
//! paper's primary baseline — as the second [`Topology`] of the one
//! cluster engine.
//!
//! Every MDS replicates its Bloom filter to **every** other MDS, so each
//! server holds a complete mirror: `N − 1` replicas plus its own filter,
//! plus an LRU array for hot files. Queries are two-level — L1 (LRU) then
//! the full array — with a system-wide broadcast as the fallback. The cost
//! is memory: at scale the `N − 1` replicas outgrow RAM and probes hit
//! disk, which is exactly the regime Figures 8–10 of the G-HBA paper
//! explore.
//!
//! Everything else — the pinned walk, the op pipeline, the update
//! cadence and the drain — is the engine G-HBA runs on, so a
//! difference in the numbers is a difference in layout. The published
//! state is a [`RouteSnapshot`] with no groups: just the slab and the
//! membership epoch.

use std::sync::Arc;

use ghba_bloom::BloomFilter;

use crate::cluster::{Cluster, Topology};
use crate::ids::{GroupEpoch, GroupId, MdsId, MembershipEpoch};
use crate::reconfig::ReconfigReport;
use crate::snapshot::{RouteCell, RouteEdit, RouteSnapshot, SharedL2, SharedL3, SlabOp};
use crate::update::UpdateReport;

/// The full-mirror replica layout of HBA: every server holds every other
/// server's filter. Names the layout of [`HbaCluster`]; never
/// constructed.
#[derive(Debug, Clone, Copy)]
pub struct FullMirror;

/// A simulated HBA metadata cluster (complete replica mirror per
/// server): the engine of [`GhbaCluster`](crate::GhbaCluster) under the
/// [`FullMirror`] layout.
///
/// # Examples
///
/// ```
/// use ghba_core::{GhbaConfig, HbaCluster};
///
/// let mut hba = HbaCluster::with_servers(
///     GhbaConfig::default().with_filter_capacity(1_000),
///     8,
/// );
/// let home = hba.create_file("/a/b");
/// assert_eq!(hba.lookup("/a/b").home, Some(home));
/// ```
pub type HbaCluster = Cluster<FullMirror>;

/// HBA has no groups: walks, mask consults and load all report under
/// this one pseudo-group.
const EVERYONE: GroupId = GroupId(0);

impl Topology for FullMirror {
    const NAME: &'static str = "HBA";
    const RNG_FORK: u64 = 0x4BA;

    fn walk_group(_: &RouteSnapshot, _: MdsId) -> GroupId {
        EVERYONE
    }

    /// Every published column but the entry's own (its fresher live
    /// filter stands in for that one): built per plan, never cached — so
    /// HBA's mask-miss count is one per entry per pin: per
    /// `execute_concurrent` batch (it was per fused run before the
    /// batch kept its plans across writes), per run on the `&mut` entry.
    fn l2(
        cluster: &HbaCluster,
        snap: &RouteSnapshot,
        entry: MdsId,
        gid: GroupId,
    ) -> (Arc<SharedL2>, bool) {
        let built = SharedL2 {
            gid,
            tag: GroupEpoch::default(),
            mask: snap.slab.mask_all_except(entry),
            held: cluster.mdss.len() - 1,
        };
        (Arc::new(built), false)
    }

    fn l3(_: &HbaCluster, _: &RouteSnapshot, _: GroupId) -> Option<(Arc<SharedL3>, bool)> {
        None
    }

    fn held_replicas(cluster: &HbaCluster, _: &RouteSnapshot, _: MdsId) -> usize {
        cluster.mdss.len().saturating_sub(1)
    }

    fn load_shape(cluster: &HbaCluster, _: &RouteSnapshot) -> Vec<(GroupId, Vec<MdsId>)> {
        vec![(EVERYONE, cluster.server_ids())]
    }

    /// HBA's system-wide broadcast: one message per other server.
    fn update_fanout(
        cluster: &mut HbaCluster,
        _: &RouteSnapshot,
        _: MdsId,
        delta_bytes: u64,
    ) -> UpdateReport {
        let recipients = cluster.mdss.len().saturating_sub(1);
        UpdateReport {
            messages: recipients as u64,
            bytes: delta_bytes * recipients as u64,
            latency: cluster.config.latency.multicast_rtt(recipients),
            refreshed: true,
        }
    }

    fn join(cluster: &mut HbaCluster, id: MdsId) -> ReconfigReport {
        let existing = cluster.mdss.len() as u64 - 1;
        // One successor snapshot: the newcomer's column and the epoch
        // bump land atomically for concurrent readers.
        let slot = cluster.mdss[&id].slot();
        publish(RouteEdit::begin(&cluster.routes), SlabOp::Push(id, slot));
        ReconfigReport {
            // The newcomer pulls every existing filter…
            migrated_replicas: existing,
            // …one transfer message each, plus broadcasting its own filter
            // to every existing server.
            messages: existing * 2,
            ..ReconfigReport::default()
        }
    }

    fn leave(cluster: &mut HbaCluster, id: MdsId) -> ReconfigReport {
        let files = cluster.mdss.get_mut(&id).expect("exists").evacuate();
        let mut report = ReconfigReport {
            rehomed_files: files.len() as u64,
            ..ReconfigReport::default()
        };
        cluster.forget_mds(id);
        // One successor snapshot: column drop + epoch bump together.
        publish(RouteEdit::begin(&cluster.routes), SlabOp::Remove(id));
        if !files.is_empty() {
            let target = cluster
                .mdss
                .iter()
                .min_by_key(|(&mid, mds)| (mds.file_count(), mid))
                .map(|(&mid, _)| mid)
                .expect("another server exists");
            report.messages += cluster.rehome_files(files, target);
        }
        // Drop notices to every remaining server.
        report.messages += cluster.mdss.len() as u64;
        report
    }

    fn check_layout(_: &HbaCluster, snap: &RouteSnapshot) -> Result<(), String> {
        if snap.groups.is_empty() && snap.group_of.is_empty() {
            Ok(())
        } else {
            Err("full mirror grew a group".to_owned())
        }
    }
}

/// Publishes `edit` as one successor snapshot applying `op` to the
/// mirror under a bumped membership epoch.
fn publish<'a>(mut edit: RouteEdit<'a>, op: SlabOp<'a>) {
    edit.bump_epoch();
    edit.push_op(op);
    edit.commit();
}

impl HbaCluster {
    /// A cloneable handle that retires/restores published mirrors
    /// concurrently with lookups (see [`HbaReconfigHandle`]).
    #[must_use]
    pub fn reconfig_handle(&self) -> HbaReconfigHandle {
        HbaReconfigHandle {
            routes: Arc::clone(&self.routes),
        }
    }
}

/// A cloneable, thread-safe handle that retires and restores servers'
/// published mirrors **concurrently with lookups** — HBA's analogue of
/// the G-HBA [`ReconfigHandle`](crate::ReconfigHandle). Retiring a
/// server drops its column from the published slab (probes skip it; the
/// broadcast fallback still resolves its files), restoring puts the
/// retired column back where it was; each publishes one successor
/// snapshot with a bumped epoch, so pinned walks finish against the
/// mirror they admitted under.
///
/// Owner pushes for a retired server (its slab column is gone) are
/// safe: `push_update` checks the published mirror under the writer
/// lock and no-ops, leaving the drift to publish after the restore.
#[derive(Debug, Clone)]
pub struct HbaReconfigHandle {
    routes: RouteCell,
}

/// A published column [`HbaReconfigHandle::retire_mds`] took out of the
/// mirror: the filter and the slot it held, which is the server's slot
/// in the cluster's live slab too. Hand it back to
/// [`restore_mds`](HbaReconfigHandle::restore_mds), and the column
/// returns to that slot — the two slabs keep one layout. Nothing can
/// publish a retired column, so the restored one is exactly what the
/// server last published.
#[derive(Debug, Clone)]
pub struct RetiredColumn {
    id: MdsId,
    slot: usize,
    filter: BloomFilter,
}

impl HbaReconfigHandle {
    /// The membership epoch of the currently published snapshot.
    #[must_use]
    pub fn epoch(&self) -> MembershipEpoch {
        self.routes.pin().epoch
    }

    /// Drops `id`'s column from the published mirror and returns it
    /// (hand it back to
    /// [`restore_mds`](HbaReconfigHandle::restore_mds)), or `None` if
    /// the mirror holds no such column.
    #[must_use]
    pub fn retire_mds(&self, id: MdsId) -> Option<RetiredColumn> {
        // Checked under the edit's writer lock, so racing handles
        // cannot both retire (or both restore) one column.
        let edit = RouteEdit::begin(&self.routes);
        let slot = edit.work.slab.slot_of(id)?;
        let filter = edit.work.slab.extract(id)?;
        publish(edit, SlabOp::Remove(id));
        Some(RetiredColumn { id, slot, filter })
    }

    /// Restores `id`'s retired column at the slot it held. Returns
    /// `false` (without publishing) when `column` was retired from
    /// another server, when the mirror already has a column for `id`, or
    /// when its slot went to another server (the retired one left and a
    /// newcomer took its place).
    pub fn restore_mds(&self, id: MdsId, column: &RetiredColumn) -> bool {
        let edit = RouteEdit::begin(&self.routes);
        let slab = &edit.work.slab;
        if column.id != id || slab.contains_id(id) || slab.id_at(column.slot).is_some() {
            return false;
        }
        let RetiredColumn { slot, filter, .. } = column;
        publish(edit, SlabOp::PushFilter(id, *slot, filter.clone()));
        true
    }
}
