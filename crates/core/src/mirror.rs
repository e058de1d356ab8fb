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

use ghba_simnet::LatencyModel;

use crate::cluster::{Cluster, Topology};
use crate::ids::{GroupId, MdsId};
use crate::reconfig::ReconfigReport;
use crate::snapshot::{L2Plan, RouteEdit, RouteSnapshot, SlabOp};
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
/// use ghba_core::{GhbaConfig, HbaCluster, MetadataService};
///
/// let mut hba = HbaCluster::with_servers(
///     GhbaConfig::default().with_filter_capacity(1_000),
///     8,
/// );
/// let home = hba.create("/a/b");
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
    /// filter stands in for that one).
    fn l2(snap: &RouteSnapshot, entry: MdsId, gid: GroupId, model: &LatencyModel) -> L2Plan {
        let held = snap.slab.len() - 1;
        L2Plan::new(gid, snap.slab.mask_all_except(entry), held, model)
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
