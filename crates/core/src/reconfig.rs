//! Dynamic reconfiguration: MDS join/leave, light-weight replica
//! migration, and group splitting/merging (§3.1–3.2 of the paper).
//!
//! The headline property reproduced here (Figure 11): a join migrates only
//! `(N − M′)/(M′ + 1)` replicas — the share handed to the new member —
//! versus `N` for HBA (full mirror copy) and up to `N − M′` for modular
//! hash placement.
//!
//! The membership entry points (`add_mds`, `remove_mds`) are written once
//! on the generic [`Cluster`]; what a join or a leave *places* is the
//! layout's decision — the grouped one is the [`Topology`] impl at the
//! bottom of this file, the full mirror's lives in [`crate::mirror`].
//!
//! Every operation here is a **routing edit**: it opens a
//! [`RouteEdit`] against the published snapshot, builds the successor
//! configuration off to the side (copy-on-write per group, slab
//! mutations queued as [`SlabOp`]s), and publishes it with one pointer
//! swap. Pinned lookups keep resolving against the epoch they admitted
//! under for the whole duration — an open edit never blocks reads.

use core::fmt;

use std::sync::Arc;

use ghba_bloom::{Fingerprint, Hit};

use crate::cluster::{Cluster, GhbaCluster, Grouped, Topology};
use crate::group::Group;
use crate::ids::{GroupId, MdsId};
use crate::mds::Mds;
use crate::snapshot::{RouteEdit, RouteSnapshot, SharedL2, SharedL3, SlabOp};
use crate::update::UpdateReport;

/// What one reconfiguration operation cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReconfigReport {
    /// Replica filters copied or moved between servers.
    pub migrated_replicas: u64,
    /// Network messages exchanged (replica transfers, IDBFA multicasts,
    /// replica-placement and deletion notices).
    pub messages: u64,
    /// Whether the operation triggered a group split.
    pub split: bool,
    /// Whether the operation triggered one or more group merges.
    pub merged: bool,
    /// Files re-homed (only on departures).
    pub rehomed_files: u64,
}

/// Errors from reconfiguration requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconfigError {
    /// The named server is not part of the cluster.
    UnknownMds(MdsId),
    /// The last server cannot be removed.
    LastServer,
}

impl fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconfigError::UnknownMds(id) => write!(f, "unknown server {id}"),
            ReconfigError::LastServer => write!(f, "cannot remove the last server"),
        }
    }
}

impl std::error::Error for ReconfigError {}

/// The pure routing algorithms of §3.1–3.2, expressed against an open
/// edit's working snapshot. Shared by the owner's compound operations
/// (`add_mds`, `remove_mds`, `fail_mds`) and the concurrent
/// [`ReconfigHandle`](crate::ReconfigHandle) paths, so both publish
/// byte-identical successor configurations for the same move.
impl RouteEdit<'_> {
    /// Moves replicas from the heaviest to the lightest member until the
    /// spread is at most one. Returns the number of moves.
    ///
    /// # Panics
    ///
    /// Panics if `gid` is not a live group.
    pub(crate) fn rebalance(&mut self, gid: GroupId) -> u64 {
        let group = self.group_mut(gid);
        let mut moves = 0;
        loop {
            let members = group.members().to_vec();
            if members.len() < 2 {
                break;
            }
            let heaviest = members
                .iter()
                .copied()
                .max_by_key(|&m| (group.replicas_held_by(m).len(), m))
                .expect("non-empty");
            let lightest = members
                .iter()
                .copied()
                .min_by_key(|&m| (group.replicas_held_by(m).len(), m))
                .expect("non-empty");
            let heavy_count = group.replicas_held_by(heaviest).len();
            let light_count = group.replicas_held_by(lightest).len();
            if heavy_count <= light_count + 1 {
                break;
            }
            let origin = group.replicas_held_by(heaviest)[0];
            group.move_replica(origin, lightest);
            moves += 1;
        }
        moves
    }

    /// [`rebalance_bumping`](Self::rebalance_bumping), its moves (one
    /// message each) added to `report`.
    pub(crate) fn rebalance_into(&mut self, gid: GroupId, report: &mut ReconfigReport) {
        let moves = self.rebalance_bumping(gid);
        report.migrated_replicas += moves;
        report.messages += moves;
    }

    /// A rebalance carrying its own invalidation: advances the
    /// membership epoch and `gid`'s [`GroupEpoch`](crate::GroupEpoch)
    /// (placement moved, so the group's derived masks are stale), then
    /// rebalances. Every rebalance step of a compound reconfiguration
    /// goes through this, keeping epoch advancement a deterministic
    /// function of the operation sequence.
    pub(crate) fn rebalance_bumping(&mut self, gid: GroupId) -> u64 {
        self.bump_epoch();
        self.touch_group(gid);
        self.rebalance(gid)
    }

    /// Splits an over-full group into two per §3.2: the original keeps
    /// `M − ⌊M/2⌋` members, the new group takes `⌊M/2⌋ + 1` (including
    /// the most recent joiner). Both sides rebuild full system coverage;
    /// each migrating member *keeps* the replicas it already holds
    /// (Figure 5's "keep migrated replicas"), so only the coverage gaps
    /// cost copies. Returns the new group's id and the cost report.
    pub(crate) fn split(
        &mut self,
        gid: GroupId,
        max_group_size: usize,
    ) -> (GroupId, ReconfigReport) {
        let mut report = ReconfigReport::default();
        let moving: Vec<MdsId> = {
            let group = &self.work.groups[&gid];
            let take = max_group_size / 2 + 1;
            group.members()[group.len() - take..].to_vec()
        };

        let new_gid = self.alloc_group_id();
        let mut new_group = Group::new(new_gid);
        for &member in &moving {
            new_group.add_member(member);
            self.work.group_of.insert(member, new_gid);
        }

        // Members moving out keep their held replicas: seed the new
        // group's placement with them, free of charge.
        {
            let old_group = self.group_mut(gid);
            for &member in &moving {
                for origin in old_group.replicas_held_by(member) {
                    old_group.drop_replica(origin);
                    if !new_group.contains(origin) {
                        new_group.place_replica(origin, member);
                    }
                }
                old_group.remove_member(member);
            }
        }
        self.insert_group(new_group);

        // Both halves now rebuild complete coverage (every origin outside
        // the group must have exactly one replica inside it).
        for g in [gid, new_gid] {
            let (copies, msgs) = self.rebuild_coverage(g);
            report.migrated_replicas += copies;
            report.messages += msgs;
            self.rebalance_into(g, &mut report);
            // New IDBFA multicast within the group.
            report.messages += (self.work.groups[&g].len() as u64).saturating_sub(1);
        }

        // Only the two halves changed: their membership and placements
        // moved, every other group's replica layout is untouched — the
        // per-group epochs keep those masks warm.
        self.touch_group(gid);
        self.touch_group(new_gid);
        self.bump_epoch();
        report.split = true;
        (new_gid, report)
    }

    /// Merges group `b` into group `a` (light-weight: holders keep their
    /// replicas; only duplicate and now-internal replicas are dropped).
    /// `b`'s id (and its stale cache entries, which can never validate
    /// again) retires.
    pub(crate) fn merge(&mut self, a: GroupId, b: GroupId) -> ReconfigReport {
        let mut report = ReconfigReport::default();
        let b_group = self.remove_group(b).expect("merge source exists");
        let b_members: Vec<MdsId> = b_group.members().to_vec();
        let b_placements: Vec<(MdsId, MdsId)> = b_group
            .replica_origins()
            .into_iter()
            .filter_map(|origin| b_group.holder_of(origin).map(|holder| (origin, holder)))
            .collect();

        for &member in &b_members {
            self.work.group_of.insert(member, a);
        }
        {
            let a_group = self.group_mut(a);
            for &member in &b_members {
                a_group.add_member(member);
            }
            // Import b's placements where a lacks coverage; holders kept
            // their filters, so imports are free (no copy over the wire).
            for (origin, holder) in b_placements {
                if a_group.contains(origin) || a_group.holder_of(origin).is_some() {
                    continue; // now internal, or duplicate — drop silently
                }
                a_group.place_replica(origin, holder);
            }
            // Replicas of servers that are now members are internal: drop.
            for member in a_group.members().to_vec() {
                a_group.drop_replica(member);
            }
        }

        let (copies, msgs) = self.rebuild_coverage(a);
        report.migrated_replicas += copies;
        report.messages += msgs;
        self.rebalance_into(a, &mut report);
        report.messages += (self.work.groups[&a].len() as u64).saturating_sub(1);

        // Only the surviving group's layout changed.
        self.touch_group(a);
        self.bump_epoch();
        report.merged = true;
        report
    }

    /// Ensures the group holds exactly one replica of every server outside
    /// it: drops stale/internal placements, adds missing ones on the
    /// lightest members. Returns `(replicas copied, messages)`. The
    /// working snapshot's membership index is the server roster, so
    /// departures must be unindexed before coverage is rebuilt.
    pub(crate) fn rebuild_coverage(&mut self, gid: GroupId) -> (u64, u64) {
        let all: Vec<MdsId> = self.work.group_of.keys().copied().collect();
        let group = self.group_mut(gid);
        let mut copies = 0;
        let mut messages = 0;
        for origin in group.replica_origins() {
            if group.contains(origin) || !all.contains(&origin) {
                group.drop_replica(origin);
            }
        }
        for &origin in &all {
            if group.contains(origin) || group.holder_of(origin).is_some() {
                continue;
            }
            let lightest = group.lightest_member().expect("group is non-empty");
            group.place_replica(origin, lightest);
            copies += 1;
            messages += 1;
        }
        (copies, messages)
    }

    /// Ids of every live group but `gid`, ascending.
    pub(crate) fn groups_except(&self, gid: GroupId) -> Vec<GroupId> {
        let gids = self.work.groups.keys().copied();
        gids.filter(|&g| g != gid).collect()
    }

    /// The pair of distinct groups with the smallest combined size, if
    /// that size fits within `max_group_size`.
    pub(crate) fn mergeable_pair(&self, max_group_size: usize) -> Option<(GroupId, GroupId)> {
        let mut sizes: Vec<(usize, GroupId)> = self
            .work
            .groups
            .values()
            .map(|g| (g.len(), g.id()))
            .collect();
        sizes.sort_unstable();
        if sizes.len() >= 2 && sizes[0].0 + sizes[1].0 <= max_group_size {
            Some((sizes[0].1, sizes[1].1))
        } else {
            None
        }
    }

    /// Merges while two groups fit in one (§3.2), adding the costs to
    /// `report`. Returns the number of merges.
    pub(crate) fn merge_while_fitting(
        &mut self,
        max_group_size: usize,
        report: &mut ReconfigReport,
    ) -> u64 {
        let mut merges = 0;
        while let Some((a, b)) = self.mergeable_pair(max_group_size) {
            let merge_report = self.merge(a, b);
            report.migrated_replicas += merge_report.migrated_replicas;
            report.messages += merge_report.messages;
            report.merged = true;
            merges += 1;
        }
        merges
    }
}

impl<T: Topology> Cluster<T> {
    /// Adds a new MDS to the cluster. Under G-HBA it joins the most
    /// suitable group (§3.1), splitting it if it overflows `M` (§3.2);
    /// under HBA the newcomer receives **all `N` existing replicas** (to
    /// hold the full mirror) and broadcasts its own filter to everyone —
    /// the cost Figures 11/15 contrast. Returns the new server's id;
    /// per-operation costs are in the accumulated
    /// [`stats`](Cluster::stats) and the returned report of
    /// [`add_mds_reported`].
    ///
    /// [`add_mds_reported`]: Cluster::add_mds_reported
    pub fn add_mds(&mut self) -> MdsId {
        self.add_mds_reported().0
    }

    /// Like [`add_mds`](Cluster::add_mds), also returning the cost
    /// report for this single operation.
    pub fn add_mds_reported(&mut self) -> (MdsId, ReconfigReport) {
        self.maybe_drain();
        let id = MdsId(self.next_mds);
        self.next_mds += 1;
        self.mdss.insert(id, Mds::new(id, &self.config));
        let report = T::join(self, id);
        self.account_reconfig(&report);
        (id, report)
    }

    /// Removes an MDS: re-homes its files to the lightest peer
    /// (group-mate when the layout has groups), unplaces it — G-HBA
    /// migrates its held replicas within the group, deletes its replica
    /// everywhere, and merges groups that now fit together (§3.1–3.2);
    /// HBA notifies everyone to drop its replica — and purges hot-cache
    /// entries pointing at it.
    ///
    /// # Errors
    ///
    /// [`ReconfigError::UnknownMds`] if `id` is not in the cluster;
    /// [`ReconfigError::LastServer`] when only one server remains.
    pub fn remove_mds(&mut self, id: MdsId) -> Result<ReconfigReport, ReconfigError> {
        self.check_departure(id)?;
        self.maybe_drain();
        let report = T::leave(self, id);
        self.account_reconfig(&report);
        Ok(report)
    }

    fn check_departure(&self, id: MdsId) -> Result<(), ReconfigError> {
        if !self.mdss.contains_key(&id) {
            return Err(ReconfigError::UnknownMds(id));
        }
        if self.mdss.len() == 1 {
            return Err(ReconfigError::LastServer);
        }
        Ok(())
    }

    /// The common epilogue of every membership change: memory charges
    /// follow the new placement, the report joins the lifetime stats.
    fn account_reconfig(&mut self, report: &ReconfigReport) {
        self.refresh_replica_charges();
        self.stats.migrated_replicas += report.migrated_replicas;
        self.stats.reconfig_messages += report.messages;
    }

    /// Re-homes a departing server's `files` at `target` and publishes
    /// the target's grown filter; returns the messages that cost. The
    /// paper focuses on replica migration; file re-homing is our
    /// documented completion of the departure path.
    pub(crate) fn rehome_files(&mut self, files: Vec<String>, target: MdsId) -> u64 {
        let moved = files.len() as u64;
        let target_mds = self.mdss.get_mut(&target).expect("target exists");
        for path in files {
            // An evacuated store hands over paths, not fingerprints.
            let fp = Fingerprint::of(path.as_str());
            target_mds.create_local_fp(path, &fp);
        }
        moved + self.push_update(target).messages
    }

    /// Drops a departed server from the cluster and purges hot-cache
    /// entries pointing at it (the fail-over rule of §4.5).
    pub(crate) fn forget_mds(&mut self, id: MdsId) {
        self.mdss.remove(&id);
        for mds in self.mdss.values_mut() {
            if let Some(lru) = mds.lru_mut() {
                lru.purge_home(id);
            }
        }
    }

    /// Re-derives every server's replica memory charge from the published
    /// placement (called after any reconfiguration).
    pub(crate) fn refresh_replica_charges(&mut self) {
        let snap = self.routes.pin();
        let held: Vec<(MdsId, usize)> = self
            .mdss
            .keys()
            .map(|&id| (id, T::held_replicas(self, &snap, id)))
            .collect();
        for (id, count) in held {
            self.mdss
                .get_mut(&id)
                .expect("listed server exists")
                .set_replica_charge(count);
        }
    }
}

impl Topology for Grouped {
    const NAME: &'static str = "G-HBA";
    const RNG_FORK: u64 = 0xC105;

    fn walk_group(snap: &RouteSnapshot, entry: MdsId) -> GroupId {
        snap.group_of(entry).expect("entry has a group")
    }

    /// The θ replicas `entry` holds, from the snapshot-resident shared
    /// cache when its `(gid, GroupEpoch)` tag is still valid.
    fn l2(
        _: &GhbaCluster,
        snap: &RouteSnapshot,
        entry: MdsId,
        gid: GroupId,
    ) -> (Arc<SharedL2>, bool) {
        match snap.masks.l2(entry, gid, snap.group_epoch(gid)) {
            Some(cached) => (cached, true),
            None => (snap.masks.put_l2(entry, snap.build_l2(entry, gid)), false),
        }
    }

    fn l3(_: &GhbaCluster, snap: &RouteSnapshot, gid: GroupId) -> Option<(Arc<SharedL3>, bool)> {
        Some(match snap.masks.l3(gid, snap.group_epoch(gid)) {
            Some(cached) => (cached, true),
            None => (snap.masks.put_l3(gid, snap.build_l3(gid)), false),
        })
    }

    fn held_replicas(_: &GhbaCluster, snap: &RouteSnapshot, id: MdsId) -> usize {
        snap.replicas_held_by(id).len()
    }

    fn load_shape(_: &GhbaCluster, snap: &RouteSnapshot) -> Vec<(GroupId, Vec<MdsId>)> {
        snap.groups
            .iter()
            .map(|(&gid, group)| (gid, group.members().to_vec()))
            .collect()
    }

    /// Unlike HBA's system-wide broadcast, G-HBA addresses **one server
    /// per group**: the replica holder, located through the group's
    /// IDBFA. A multi-hit in the IDBFA costs only extra dropped messages
    /// (the paper's "light false positive penalty", §3.4).
    fn update_fanout(
        cluster: &mut GhbaCluster,
        snap: &RouteSnapshot,
        origin: MdsId,
        delta_bytes: u64,
    ) -> UpdateReport {
        let own_group = snap.group_of(origin);
        let mut report = UpdateReport {
            refreshed: true,
            ..UpdateReport::default()
        };
        let mut recipient_groups = 0usize;
        for group in snap.groups.values() {
            if Some(group.id()) == own_group {
                continue;
            }
            recipient_groups += 1;
            match group.locate_via_idbfa(origin) {
                Hit::Unique(_) => {
                    report.messages += 1;
                }
                Hit::Multiple(candidates) => {
                    // Send to every candidate; the non-holders drop it.
                    report.messages += candidates.len() as u64;
                    cluster
                        .stats
                        .counters
                        .add("idbfa_dropped_updates", candidates.len() as u64 - 1);
                }
                Hit::None => {
                    // Counting filters have no false negatives, so this
                    // means the group holds no replica (e.g. mid-
                    // reconfiguration); fall back to a group multicast.
                    report.messages += group.len() as u64;
                    cluster.stats.counters.incr("idbfa_fallback_multicasts");
                }
            }
            report.bytes += delta_bytes;
        }
        // All groups are contacted in parallel: one multicast round over
        // the recipient set.
        report.latency = cluster.config.latency.multicast_rtt(recipient_groups);
        report
    }

    fn join(cluster: &mut GhbaCluster, id: MdsId) -> ReconfigReport {
        let mut report = ReconfigReport::default();
        let max_group_size = cluster.config.max_group_size;
        let routes = Arc::clone(&cluster.routes);
        let mut edit = RouteEdit::begin(&routes);
        edit.push_op(SlabOp::Push(id));

        // Choose the smallest group with room; otherwise the smallest
        // group outright (it will split).
        let target = edit
            .work
            .groups
            .values()
            .min_by_key(|g| (g.len() >= max_group_size, g.len(), g.id()))
            .map(|g| g.id());
        let gid = match target {
            Some(gid) => gid,
            None => {
                let gid = edit.alloc_group_id();
                edit.insert_group(Group::new(gid));
                gid
            }
        };
        edit.group_mut(gid).add_member(id);
        edit.work.group_of.insert(id, gid);

        // The newcomer's (empty) filter becomes a replica in every other
        // group: one message per group, placed on the lightest member.
        for g in edit.groups_except(gid) {
            let group = edit.group_mut(g);
            let lightest = group.lightest_member().expect("groups are non-empty");
            group.place_replica(id, lightest);
            report.messages += 1;
        }

        // Light-weight migration: heavy members offload replicas to the
        // newcomer until the group is balanced (±1).
        edit.rebalance_into(gid, &mut report);

        // The updated IDBFA is multicast to the other group members.
        let group_len = edit.work.groups[&gid].len() as u64;
        report.messages += group_len.saturating_sub(1);

        if edit.work.groups[&gid].len() > max_group_size {
            let (_new_gid, split_report) = edit.split(gid, max_group_size);
            report.migrated_replicas += split_report.migrated_replicas;
            report.messages += split_report.messages;
            report.split = true;
            cluster.stats.splits += 1;
        }

        // A join places the newcomer's replica in *every* group (and may
        // have grown the published slab), so every group's derived masks
        // are stale — the one reconfiguration class that cannot be
        // confined to the touched group.
        edit.touch_all_groups();
        edit.bump_epoch();
        edit.commit();
        report
    }

    fn leave(cluster: &mut GhbaCluster, id: MdsId) -> ReconfigReport {
        let mut report = ReconfigReport::default();
        let gid = Self::walk_group(&cluster.routes.pin(), id);

        // 1. Re-home the departing server's files to the lightest peer
        //    (group-mate when possible). This publishes the target's
        //    grown filter as its own edit, *before* the removal edit
        //    below.
        let files = cluster.mdss.get_mut(&id).expect("exists").evacuate();
        if !files.is_empty() {
            let snap = cluster.routes.pin();
            let target = cluster
                .mdss
                .iter()
                .filter(|(&mid, _)| mid != id)
                .min_by_key(|(&mid, mds)| {
                    let same_group = snap.group_of(mid) == Some(gid);
                    (!same_group, mds.file_count(), mid)
                })
                .map(|(&mid, _)| mid)
                .expect("another server exists");
            drop(snap);
            report.rehomed_files = files.len() as u64;
            report.messages += cluster.rehome_files(files, target);
        }

        let routes = Arc::clone(&cluster.routes);
        let mut edit = RouteEdit::begin(&routes);
        edit.push_op(SlabOp::Remove(id));

        // 2. Migrate the replicas the departing member held to the other
        //    members of its group.
        {
            let group = edit.group_mut(gid);
            let held = group.replicas_held_by(id);
            if group.len() > 1 {
                for origin in held {
                    let lightest = group
                        .members()
                        .iter()
                        .copied()
                        .filter(|&m| m != id)
                        .min_by_key(|&m| (group.replicas_held_by(m).len(), m))
                        .expect("another member exists");
                    group.move_replica(origin, lightest);
                    report.migrated_replicas += 1;
                    report.messages += 1;
                }
            } else {
                for origin in held {
                    group.drop_replica(origin);
                }
            }
            group.remove_member(id);
        }

        // 3. Every other group drops the departed server's replica (one
        //    deletion notice each), then rebalances: the drop can leave
        //    the former holder one light.
        for g in edit.groups_except(gid) {
            if edit.group_mut(g).drop_replica(id).is_some() {
                report.messages += 1;
            }
            edit.rebalance_into(g, &mut report);
        }

        // 4. Forget the server (and its cached mask).
        edit.forget_server(id);
        cluster.forget_mds(id);
        if edit.work.groups[&gid].is_empty() {
            edit.remove_group(gid);
        } else {
            edit.rebalance_into(gid, &mut report);
        }

        // 5. Merge while two groups fit in one (§3.2).
        cluster.stats.merges +=
            edit.merge_while_fitting(cluster.config.max_group_size, &mut report);

        // Every group dropped the departed server's replica, so every
        // group's origin masks (and the former holders' held sets) moved.
        edit.touch_all_groups();
        edit.bump_epoch();
        edit.commit();
        report
    }

    /// Invariants 1–6 and 8 of [`Cluster::check_invariants`].
    fn check_layout(cluster: &GhbaCluster, snap: &RouteSnapshot) -> Result<(), String> {
        for (&id, &gid) in &snap.group_of {
            let group = snap
                .groups
                .get(&gid)
                .ok_or_else(|| format!("{id} maps to missing {gid}"))?;
            if !group.contains(id) {
                return Err(format!("{id} not a member of its {gid}"));
            }
        }
        let all: Vec<MdsId> = cluster.server_ids();
        for group in snap.groups.values() {
            if group.len() > cluster.config.max_group_size {
                return Err(format!(
                    "{} has {} members (max {})",
                    group.id(),
                    group.len(),
                    cluster.config.max_group_size
                ));
            }
            for &member in group.members() {
                if snap.group_of.get(&member) != Some(&group.id()) {
                    return Err(format!("{member} membership index inconsistent"));
                }
            }
            let expected: Vec<MdsId> = all
                .iter()
                .copied()
                .filter(|id| !group.contains(*id))
                .collect();
            let origins = group.replica_origins();
            if origins != expected {
                return Err(format!(
                    "{} mirror incomplete: has {} replicas, expected {}",
                    group.id(),
                    origins.len(),
                    expected.len()
                ));
            }
            for origin in origins {
                let holder = group
                    .holder_of(origin)
                    .ok_or_else(|| format!("{} lost holder of {origin}", group.id()))?;
                if !group.contains(holder) {
                    return Err(format!("{} replica held by non-member", group.id()));
                }
                if !group
                    .locate_via_idbfa(origin)
                    .candidates()
                    .contains(&holder)
                {
                    return Err(format!(
                        "{} IDBFA cannot locate replica of {origin}",
                        group.id()
                    ));
                }
            }
            if !group.is_empty() && group.balance_spread() > 1 {
                return Err(format!(
                    "{} unbalanced: spread {}",
                    group.id(),
                    group.balance_spread()
                ));
            }
        }
        snap.masks.check_against(snap)
    }
}

impl GhbaCluster {
    /// Fail-stops an MDS (§4.5): heart-beat detection removes its Bloom
    /// filters from every survivor so false positives stop pointing at it,
    /// but — unlike a graceful [`remove_mds`](Cluster::remove_mds) —
    /// its files are **lost** until higher-level recovery re-creates them;
    /// the metadata service itself stays functional at degraded coverage.
    ///
    /// # Errors
    ///
    /// [`ReconfigError::UnknownMds`] if `id` is not in the cluster;
    /// [`ReconfigError::LastServer`] when only one server remains.
    pub fn fail_mds(&mut self, id: MdsId) -> Result<ReconfigReport, ReconfigError> {
        self.check_departure(id)?;
        self.maybe_drain();
        let mut report = ReconfigReport::default();
        let routes = Arc::clone(&self.routes);
        let mut edit = RouteEdit::begin(&routes);
        let gid = Grouped::walk_group(&edit.work, id);
        edit.push_op(SlabOp::Remove(id));

        // The crash takes its files and its held replicas with it; the
        // group re-acquires coverage for the lost replicas from the
        // origins' published snapshots.
        {
            let group = edit.group_mut(gid);
            let held = group.replicas_held_by(id);
            for origin in held {
                group.drop_replica(origin);
            }
            group.remove_member(id);
        }
        edit.forget_server(id);

        // Survivors drop the dead server's replica and hot-cache entries
        // (one heartbeat-timeout notice per group).
        for g in edit.groups_except(gid) {
            if edit.group_mut(g).drop_replica(id).is_some() {
                report.messages += 1;
            }
        }
        self.forget_mds(id);

        // Restore the mirror invariant: re-fetch lost replicas, rebalance,
        // merge shrunken groups.
        if edit.work.groups[&gid].is_empty() {
            edit.remove_group(gid);
        } else {
            let (copies, msgs) = edit.rebuild_coverage(gid);
            report.migrated_replicas += copies;
            report.messages += msgs;
            edit.rebalance_into(gid, &mut report);
        }
        self.stats.merges += edit.merge_while_fitting(self.config.max_group_size, &mut report);
        // Other groups may have been left one replica light.
        let gids: Vec<GroupId> = edit.work.groups.keys().copied().collect();
        for g in gids {
            edit.rebalance_into(g, &mut report);
        }

        // Every survivor dropped the dead server's replica: all origin
        // masks moved.
        edit.touch_all_groups();
        edit.bump_epoch();
        edit.commit();
        self.account_reconfig(&report);
        Ok(report)
    }

    /// Moves replicas from the heaviest to the lightest member until the
    /// spread is at most one. Returns the number of moves. Placement
    /// moved, so the membership epoch advances — but only **this
    /// group's** [`GroupEpoch`](crate::GroupEpoch): a rebalance shuffles
    /// held replicas among the group's members and touches nothing any
    /// other group's masks depend on, which is exactly the case the
    /// per-group invalidation keeps warm.
    ///
    /// Public so churn workloads and operator-driven re-balancing can
    /// trigger the single-group reconfiguration path directly.
    ///
    /// # Panics
    ///
    /// Panics if `gid` is not a live group.
    pub fn rebalance_group(&mut self, gid: GroupId) -> u64 {
        let moves = self
            .reconfig_handle()
            .rebalance_group(gid)
            .unwrap_or_else(|| panic!("{gid} is not live"));
        if moves > 0 {
            // Unlike a handle-driven rebalance, the owner's leaves the
            // memory charges correct on its own; only this group's
            // members' held counts moved.
            let snap = self.routes.pin();
            for &member in snap.group(gid).expect("group is live").members() {
                let held = snap.replicas_held_by(member).len();
                self.mdss
                    .get_mut(&member)
                    .expect("group member exists")
                    .set_replica_charge(held);
            }
        }
        moves
    }
}
