//! Epoch snapshots: immutable routing state replaced whole behind one
//! pointer, so lookups are served *through* reconfiguration.
//!
//! * All published probe state — the bit-sliced replica slab, the
//!   group/membership tables, the per-group epochs — lives in one
//!   **immutable** [`RouteSnapshot`] behind a [`SnapshotCell`].
//! * A lookup **pins** the current snapshot — an `Arc` clone under a
//!   read lock held for that clone only — and walks L1–L4 against it end
//!   to end; any number of threads may walk their own pins at once.
//! * A reconfiguration builds the **successor** snapshot off to the
//!   side — copy-on-write per group via [`Arc::make_mut`], sparse
//!   [`SlabOp`]s against a writer-private spare slab — and publishes it
//!   with one pointer swap under the write lock. Readers pinned to the
//!   old snapshot finish undisturbed; new lookups see the new epoch.
//! * Writers serialise on a writer mutex that readers never touch, so a
//!   reader waits at most one pointer swap and a publisher at most one
//!   `Arc` clone; neither ever waits for a *pin* or an open *edit*.
//!
//! Both replica layouts of the cluster engine publish through the same
//! snapshot type — the full mirror's is a [`RouteSnapshot`] with no
//! groups.

use core::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use ghba_bloom::{BloomFilter, SharedShapeArray, SlotMask};

use crate::group::Group;
use crate::ids::{GroupEpoch, GroupId, IdMap, MdsId, MembershipEpoch};
use std::collections::HashMap;

/// A publication cell: readers [`pin`](SnapshotCell::pin) the current
/// immutable snapshot, a writer (serialised by an internal mutex that
/// also guards the writer-private scratch state `W`) replaces it whole.
///
/// `current` is locked only for an `Arc` clone (a pin) or one pointer
/// swap (a publish); the successor is allocated before the write lock is
/// taken and the displaced `Arc` is dropped or recycled after it is
/// released. [`edit`](SnapshotCell::edit) takes `writer` and never
/// `current`, so an edit held open for a whole migration delays no pin.
/// Neither critical section can panic, and a poisoned `current` would
/// still hold a whole `Arc`, so poison on it is ignored.
pub struct SnapshotCell<T, W = ()> {
    current: RwLock<Arc<T>>,
    writer: Mutex<W>,
    /// Successors published so far — how the unit tests hold "one flush,
    /// one swap"; not a statistic anything else may read.
    #[cfg(test)]
    publishes: core::sync::atomic::AtomicU64,
}

impl<T, W> fmt::Debug for SnapshotCell<T, W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotCell").finish_non_exhaustive()
    }
}

impl<T, W> SnapshotCell<T, W> {
    /// Creates a cell publishing `initial`, with `writer_state` as the
    /// scratch the writer lock protects (spare slabs, pending ops; `()`
    /// when the writer needs none).
    pub fn new(initial: T, writer_state: W) -> Self {
        SnapshotCell {
            current: RwLock::new(Arc::new(initial)),
            writer: Mutex::new(writer_state),
            #[cfg(test)]
            publishes: core::sync::atomic::AtomicU64::new(0),
        }
    }

    #[cfg(test)]
    pub(crate) fn publishes(&self) -> u64 {
        self.publishes.load(core::sync::atomic::Ordering::Relaxed)
    }

    /// Pins the current snapshot. The returned `Arc` stays valid — and
    /// immutable — for as long as the caller holds it, however many
    /// successors are published meanwhile.
    pub fn pin(&self) -> Arc<T> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Opens the writer side: takes the writer lock (serializing
    /// against other publishers) and returns a handle that can read the
    /// scratch state, the current snapshot, and publish successors.
    pub fn edit(&self) -> CellWriter<'_, T, W> {
        CellWriter {
            cell: self,
            state: self.writer.lock().expect("snapshot writer poisoned"),
        }
    }
}

/// The writer side of a [`SnapshotCell`]: holds the writer lock for its
/// lifetime, so publishes through it are serialized and the scratch
/// state `W` is exclusively owned.
pub struct CellWriter<'a, T, W> {
    cell: &'a SnapshotCell<T, W>,
    state: MutexGuard<'a, W>,
}

impl<T, W> fmt::Debug for CellWriter<'_, T, W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CellWriter").finish_non_exhaustive()
    }
}

impl<T, W> CellWriter<'_, T, W> {
    /// The snapshot currently published (stable while this writer is
    /// open: only the holder of the writer lock can publish).
    pub fn base(&self) -> Arc<T> {
        self.cell.pin()
    }

    /// The writer-private scratch state.
    pub fn state(&mut self) -> &mut W {
        &mut self.state
    }

    /// Publishes `next` with one pointer swap and returns the displaced
    /// snapshot. Readers pinned to the displaced snapshot keep it alive
    /// through their own `Arc`s; once those drop, the returned `Arc` is
    /// the last reference and the caller may recycle its storage.
    pub fn publish(&mut self, next: T) -> Arc<T> {
        #[cfg(test)]
        self.cell
            .publishes
            .fetch_add(1, core::sync::atomic::Ordering::Relaxed);
        let next = Arc::new(next);
        let mut current = self
            .cell
            .current
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        core::mem::replace(&mut *current, next)
    }
}

/// One deferred mutation of the published slab, recorded during a
/// routing edit and applied to both the successor and the recycled
/// spare slab (see [`SlabSpare`]). Sparse by construction — a push or
/// remove touches one column, a publish the blocks its origins dirtied —
/// except a restore's load, which writes every column it names in one
/// pass. A publish borrows what it copies from (`'a`): the edit is
/// committed while the cluster's live slab is still borrowed.
#[derive(Debug, Clone)]
pub(crate) enum SlabOp<'a> {
    /// Give a joining server an empty column at its live slab's slot.
    Push(MdsId, usize),
    /// Give a server back its column at `slot`, holding `filter` (a
    /// retired server's published snapshot).
    PushFilter(MdsId, usize, BloomFilter),
    /// Drop a departing server's column.
    Remove(MdsId),
    /// Publish: copy the origins' live cells into their published ones
    /// over the blocks they dirtied — `(slot, dirty blocks, item count)`
    /// each, from the live slab — in one masked pass
    /// ([`SharedShapeArray::copy_blocks_from`]).
    Copy(&'a SharedShapeArray<MdsId>, Vec<(usize, &'a [u64], usize)>),
    /// Replace the columns of many servers at once (checkpoint restore:
    /// every restored published filter, one transposed pass).
    Load(Vec<(MdsId, BloomFilter)>),
}

/// Applies `ops` in order; returns the changed-word counts the edit's
/// [`SlabOp::Copy`] reported, one per origin (empty without one).
fn apply_slab_ops(slab: &mut SharedShapeArray<MdsId>, ops: &[SlabOp<'_>]) -> Vec<u32> {
    let mut changed = Vec::new();
    for op in ops {
        match op {
            SlabOp::Push(id, slot) => slab
                .push_at(*id, *slot)
                .expect("a joining server's live slot is free in the published slab"),
            SlabOp::PushFilter(id, slot, filter) => {
                slab.push_at(*id, *slot)
                    .expect("a restored column's slot is free");
                slab.replace_filter(*id, filter)
                    .expect("restored column matches the slab shape");
            }
            SlabOp::Remove(id) => {
                slab.remove(*id);
            }
            SlabOp::Copy(live, origins) => {
                changed = slab
                    .copy_blocks_from(live, origins)
                    .expect("every origin has its column at one slot of both slabs");
            }
            SlabOp::Load(columns) => slab
                .load_filters(columns.iter().map(|(id, filter)| (*id, filter)))
                .expect("restored columns match the slab shape and roster"),
        }
    }
    changed
}

/// The writer-private spare slab that keeps slab-touching publishes
/// cheap: instead of deep-copying the O(servers × filter bits) slab for
/// every successor snapshot, the writer keeps **one** spare mirror of
/// the published slab, applies the edit's sparse [`SlabOp`]s to it, and
/// publishes it; the displaced snapshot's slab — once its readers drain
/// — is caught up with the same ops and becomes the next spare. Only
/// when a long-lived pin still holds the displaced slab does the spare
/// fall back to a deep copy.
#[derive(Debug)]
pub(crate) struct SlabSpare {
    /// `None` only between [`advance`](SlabSpare::advance) and
    /// [`recycle`](SlabSpare::recycle) or
    /// [`restock`](SlabSpare::restock), while the successor is being
    /// built and published.
    slab: Option<SharedShapeArray<MdsId>>,
}

impl SlabSpare {
    /// Wraps a mirror of the currently published slab.
    pub(crate) fn new(mirror: SharedShapeArray<MdsId>) -> Self {
        SlabSpare { slab: Some(mirror) }
    }

    /// Applies `ops` to the spare and hands it out as the successor
    /// snapshot's slab, with what [`apply_slab_ops`] reported. The caller
    /// must publish it and then call [`recycle`](SlabSpare::recycle) with
    /// the displaced slab — or, when the ops left it equal to the
    /// published slab, hand it back through
    /// [`restock`](SlabSpare::restock).
    pub(crate) fn advance(&mut self, ops: &[SlabOp<'_>]) -> (SharedShapeArray<MdsId>, Vec<u32>) {
        let mut slab = self.slab.take().expect("spare restocked after a publish");
        let changed = apply_slab_ops(&mut slab, ops);
        (slab, changed)
    }

    /// Takes back a slab [`advance`](SlabSpare::advance) handed out whose
    /// ops changed nothing: it still mirrors the published slab.
    pub(crate) fn restock(&mut self, slab: SharedShapeArray<MdsId>) {
        debug_assert!(self.slab.is_none(), "one spare at a time");
        self.slab = Some(slab);
    }

    /// Restocks the spare after a publish: catches the displaced slab
    /// up with the edit's ops (cheap, sparse) when its storage came
    /// back exclusively, or deep-copies the published slab when a
    /// reader still pins it (rare: pins last one batch).
    pub(crate) fn recycle(
        &mut self,
        displaced: Option<SharedShapeArray<MdsId>>,
        ops: &[SlabOp<'_>],
        published: &SharedShapeArray<MdsId>,
    ) {
        let slab = match displaced {
            Some(mut slab) => {
                apply_slab_ops(&mut slab, ops);
                slab
            }
            None => published.clone(),
        };
        debug_assert_eq!(
            slab.len(),
            published.len(),
            "recycled spare diverged from the published slab"
        );
        self.slab = Some(slab);
    }
}

/// One entry server's shared L2 state: its held-replica candidate mask
/// plus the held count the probe-latency model needs, tagged with the
/// `(gid, GroupEpoch)` it was built under: the tag (plus the `gid`
/// check covering servers that changed groups in a split or merge) is
/// the entry's entire validity condition.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct SharedL2 {
    pub(crate) gid: GroupId,
    pub(crate) tag: GroupEpoch,
    pub(crate) mask: SlotMask,
    pub(crate) held: usize,
}

/// One group's shared L3 state: the member list with held counts (the
/// multicast latency inputs) and the group-mirror candidate mask,
/// tagged like [`SharedL2`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct SharedL3 {
    pub(crate) tag: GroupEpoch,
    pub(crate) mask: SlotMask,
    pub(crate) member_held: Vec<(MdsId, usize)>,
}

/// Cross-snapshot shared candidate-mask cache for the pinned walk.
///
/// Slot masks and membership snapshots depend only on cluster layout
/// (slot assignment, group placement) — state that **writes never
/// touch**; only reconfiguration invalidates them. Anything budget- or
/// filter-dependent is deliberately *not* cached here: live-filter
/// verdicts are recomputed per walk, probe durations once per pin's
/// plan — which is sound because no `Mds` (and so no memory budget)
/// mutates while the plan's owner holds the cluster by reference, and
/// a plan never outlives its pin (the `&mut` entry, whose writes do
/// mutate `Mds` state, plans per run).
///
/// The cache object is shared (one `Arc`, cloned into every successor
/// [`RouteSnapshot`]), so masks built by one reader warm every later
/// reader on any snapshot generation. Validity is per entry: each
/// cached mask carries the `(gid, GroupEpoch)` it was built under, and
/// a consulting reader accepts it only when its *own* pinned snapshot
/// reports the same group epoch. Group epochs bump exactly when an
/// edit changes state masks depend on (`touch_group`; membership
/// events touch every group because they shift slab layout), so:
///
/// * groups untouched by a split/merge/rebalance keep their masks warm
///   through the publish — the observable form of the per-group-epoch
///   contract on the concurrent path, and what the adaptive
///   controller's reconfigurations rely on to leave cold groups'
///   serving costs alone;
/// * a reader pinned to a pre-edit snapshot that races a post-edit
///   reader can at worst overwrite the other's entry with one tagged
///   for its own epoch (both remain correct for their consumers; the
///   loser rebuilds — a miss, never a wrong mask).
///
/// Entries are keyed by ids that are never recycled and evicted with
/// their key: a merge drops its dissolved group's L3 entry
/// ([`RouteEdit::remove_group`]), a departure the departed server's L2
/// entry ([`RouteEdit::forget_server`]), so the maps stay bounded by the
/// live layout.
#[derive(Debug, Default)]
pub(crate) struct SharedMaskCache {
    l2: RwLock<HashMap<MdsId, Arc<SharedL2>>>,
    l3: RwLock<HashMap<GroupId, Arc<SharedL3>>>,
}

impl SharedMaskCache {
    /// The cached L2 state of `entry` if it was built under `(gid,
    /// tag)` — the consulting snapshot's view of the entry's group.
    pub(crate) fn l2(&self, entry: MdsId, gid: GroupId, tag: GroupEpoch) -> Option<Arc<SharedL2>> {
        let map = self.l2.read().expect("mask cache poisoned");
        map.get(&entry)
            .filter(|e| e.gid == gid && e.tag == tag)
            .cloned()
    }

    /// Publishes a freshly built L2 state (last writer wins).
    pub(crate) fn put_l2(&self, entry: MdsId, fresh: SharedL2) -> Arc<SharedL2> {
        let fresh = Arc::new(fresh);
        self.l2
            .write()
            .expect("mask cache poisoned")
            .insert(entry, Arc::clone(&fresh));
        fresh
    }

    /// The cached L3 state of `gid` if it was built under `tag`.
    pub(crate) fn l3(&self, gid: GroupId, tag: GroupEpoch) -> Option<Arc<SharedL3>> {
        let map = self.l3.read().expect("mask cache poisoned");
        map.get(&gid).filter(|e| e.tag == tag).cloned()
    }

    /// Publishes a freshly built L3 state (last writer wins).
    pub(crate) fn put_l3(&self, gid: GroupId, fresh: SharedL3) -> Arc<SharedL3> {
        let fresh = Arc::new(fresh);
        self.l3
            .write()
            .expect("mask cache poisoned")
            .insert(gid, Arc::clone(&fresh));
        fresh
    }

    /// Evicts a dissolved group's L3 state. Its former members' L2
    /// entries self-invalidate by tag and are overwritten on their next
    /// consultation.
    fn evict_group(&self, gid: GroupId) {
        self.l3.write().expect("mask cache poisoned").remove(&gid);
    }

    /// Evicts a departed server's L2 state (no walk can enter there
    /// again: server ids are never recycled).
    fn evict_entry(&self, entry: MdsId) {
        self.l2.write().expect("mask cache poisoned").remove(&entry);
    }

    /// Checks every cached entry that is valid under `snap` — its
    /// `(gid, tag)` matches what `snap` reports — against the state
    /// rebuilt from `snap`: a mismatch is a stale mask a pinned walk
    /// would have served. Entries tagged for another epoch are skipped;
    /// no walk pinned to `snap` accepts them. An L2 entry of a server
    /// `snap` no longer lists is a leak: departures evict theirs.
    pub(crate) fn check_against(&self, snap: &RouteSnapshot) -> Result<(), String> {
        for (&entry, cached) in self.l2.read().expect("mask cache poisoned").iter() {
            if snap.group_of(entry).is_none() {
                return Err(format!(
                    "cached L2 mask of departed {entry} was never evicted"
                ));
            }
            let valid = snap.group_of(entry) == Some(cached.gid)
                && snap.group_epoch(cached.gid) == cached.tag;
            if valid && **cached != snap.build_l2(entry, cached.gid) {
                return Err(format!("cached L2 mask of {entry} is stale"));
            }
        }
        for (&gid, cached) in self.l3.read().expect("mask cache poisoned").iter() {
            let valid = snap.group(gid).is_some() && snap.group_epoch(gid) == cached.tag;
            if valid && **cached != snap.build_l3(gid) {
                return Err(format!("cached L3 mask of {gid} is stale"));
            }
        }
        Ok(())
    }
}

/// The immutable routing state one lookup walks against: everything the
/// L1–L4 escalation reads that reconfiguration can move. Snapshots are
/// only ever replaced wholesale (via [`SnapshotCell`]), never mutated,
/// so a pinned snapshot observes one consistent epoch end to end.
#[derive(Debug, Clone)]
pub struct RouteSnapshot {
    /// Every server's published filter, bit-sliced for hash-once array
    /// probes. Shared (not copied) by successor snapshots whose edits
    /// leave filter content alone — rebalances, splits, and merges move
    /// *placement*, not filter bits.
    pub(crate) slab: Arc<SharedShapeArray<MdsId>>,
    /// Live groups; copy-on-write per group, so an edit touching one
    /// group shares every other group's storage with its predecessor.
    pub(crate) groups: IdMap<GroupId, Arc<Group>>,
    /// Server → group membership index.
    pub(crate) group_of: IdMap<MdsId, GroupId>,
    /// Per-group configuration versions (see [`GroupEpoch`]).
    pub(crate) group_epochs: IdMap<GroupId, GroupEpoch>,
    /// The membership epoch this snapshot was published under.
    pub(crate) epoch: MembershipEpoch,
    /// Monotonic group-id allocator (ids are never recycled); lives in
    /// the snapshot so concurrent reconfiguration handles allocate
    /// consistently under the writer lock.
    pub(crate) next_group: u16,
    /// The shared candidate-mask cache for pinned walks — one object
    /// per cluster, cloned (shared) into every successor snapshot so
    /// masks stay warm across publishes for groups whose epoch did not
    /// move. See [`SharedMaskCache`].
    pub(crate) masks: Arc<SharedMaskCache>,
}

impl RouteSnapshot {
    /// An empty routing state (no servers, no groups).
    pub(crate) fn empty(slab: SharedShapeArray<MdsId>) -> Self {
        RouteSnapshot {
            slab: Arc::new(slab),
            groups: IdMap::new(),
            group_of: IdMap::new(),
            group_epochs: IdMap::new(),
            epoch: MembershipEpoch::default(),
            next_group: 0,
            masks: Arc::new(SharedMaskCache::default()),
        }
    }

    /// The configuration version of `gid` under this snapshot (default
    /// for groups never touched — including groups that do not exist,
    /// which no valid cache entry can name).
    #[must_use]
    pub fn group_epoch(&self, gid: GroupId) -> GroupEpoch {
        self.group_epochs.get(&gid).copied().unwrap_or_default()
    }

    /// The group a server belongs to.
    #[must_use]
    pub fn group_of(&self, id: MdsId) -> Option<GroupId> {
        self.group_of.get(&id).copied()
    }

    /// Borrow a group.
    #[must_use]
    pub fn group(&self, gid: GroupId) -> Option<&Group> {
        self.groups.get(&gid).map(|g| &**g)
    }

    /// Replicas held by `id` under this snapshot's placement.
    #[must_use]
    pub fn replicas_held_by(&self, id: MdsId) -> Vec<MdsId> {
        match self.group_of(id).and_then(|g| self.groups.get(&g)) {
            Some(group) => group.replicas_held_by(id),
            None => Vec::new(),
        }
    }

    /// Builds `entry`'s L2 state from this snapshot: the candidate mask
    /// over the replicas it holds, tagged with its group's epoch.
    pub(crate) fn build_l2(&self, entry: MdsId, gid: GroupId) -> SharedL2 {
        let held = self.replicas_held_by(entry);
        SharedL2 {
            gid,
            tag: self.group_epoch(gid),
            mask: self.slab.subset_mask(held.iter().copied()),
            held: held.len(),
        }
    }

    /// Builds `gid`'s L3 state from this snapshot. The group's replicas
    /// collectively mirror every server outside it, so one masked slab
    /// probe covers all of them.
    ///
    /// # Panics
    ///
    /// Panics if `gid` is not a live group.
    pub(crate) fn build_l3(&self, gid: GroupId) -> SharedL3 {
        let group = self.group(gid).expect("group is live");
        SharedL3 {
            tag: self.group_epoch(gid),
            mask: self
                .slab
                .subset_mask(group.replica_origins().iter().copied()),
            member_held: group
                .members()
                .iter()
                .map(|&member| (member, group.replicas_held_by(member).len()))
                .collect(),
        }
    }
}

/// The cell type a cluster publishes its routing snapshots through.
pub(crate) type RouteCell = Arc<SnapshotCell<RouteSnapshot, SlabSpare>>;

/// Builds a fresh cell around `snapshot` (spare slab mirrored from it).
pub(crate) fn route_cell(snapshot: RouteSnapshot) -> RouteCell {
    let spare = SlabSpare::new((*snapshot.slab).clone());
    Arc::new(SnapshotCell::new(snapshot, spare))
}

/// One open routing edit: a working copy of the current snapshot
/// (cheap: `Arc` clones per group plus the index maps) being mutated
/// off to the side, plus the slab ops to fold in at commit. Holds the
/// cell's writer lock, so edits — owner-driven or from a
/// [`ReconfigHandle`] — serialize; an open edit delays no pin.
pub(crate) struct RouteEdit<'a> {
    writer: CellWriter<'a, RouteSnapshot, SlabSpare>,
    pub(crate) work: RouteSnapshot,
    ops: Vec<SlabOp<'a>>,
}

impl fmt::Debug for RouteEdit<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RouteEdit")
            .field("ops", &self.ops.len())
            .finish_non_exhaustive()
    }
}

impl<'a> RouteEdit<'a> {
    /// Opens an edit against the cell's current snapshot. Dropping it
    /// uncommitted publishes nothing.
    pub(crate) fn begin(cell: &'a SnapshotCell<RouteSnapshot, SlabSpare>) -> Self {
        let writer = cell.edit();
        let work = (*writer.base()).clone();
        RouteEdit {
            writer,
            work,
            ops: Vec::new(),
        }
    }

    /// Queues a slab mutation for commit. Edits never read the slab
    /// back, so deferred application is invisible to them.
    pub(crate) fn push_op(&mut self, op: SlabOp<'a>) {
        self.ops.push(op);
    }

    /// Mutable access to a group, copy-on-write: the first touch clones
    /// the group out of the shared predecessor.
    ///
    /// # Panics
    ///
    /// Panics if `gid` is not a live group.
    pub(crate) fn group_mut(&mut self, gid: GroupId) -> &mut Group {
        Arc::make_mut(self.work.groups.get_mut(&gid).expect("group exists"))
    }

    /// Inserts a brand-new group.
    pub(crate) fn insert_group(&mut self, group: Group) {
        self.work.groups.insert(group.id(), Arc::new(group));
    }

    /// Allocates the next group id (monotonic, never recycled).
    pub(crate) fn alloc_group_id(&mut self) -> GroupId {
        let gid = GroupId(self.work.next_group);
        self.work.next_group += 1;
        gid
    }

    /// Removes a dissolved group, its epoch entry and its cached L3
    /// mask.
    pub(crate) fn remove_group(&mut self, gid: GroupId) -> Option<Arc<Group>> {
        let group = self.work.groups.remove(&gid);
        self.work.group_epochs.remove(&gid);
        if group.is_some() {
            self.work.masks.evict_group(gid);
        }
        group
    }

    /// Unindexes a departed server and evicts its cached L2 mask.
    pub(crate) fn forget_server(&mut self, id: MdsId) {
        self.work.group_of.remove(&id);
        self.work.masks.evict_entry(id);
    }

    /// Advances the membership epoch (see
    /// [`MembershipEpoch`](crate::MembershipEpoch)).
    pub(crate) fn bump_epoch(&mut self) {
        self.work.epoch.bump();
    }

    /// Records that this edit changed state `gid`'s derived masks
    /// depend on (membership, replica placement, or held counts): only
    /// that group's cached masks go cold, every other group's stay warm
    /// through the publish.
    pub(crate) fn touch_group(&mut self, gid: GroupId) {
        self.work.group_epochs.get_or_default(gid).bump();
    }

    /// Bumps every live group's epoch — the invalidation scope of
    /// reconfigurations that place or drop a replica in every group.
    pub(crate) fn touch_all_groups(&mut self) {
        let gids: Vec<GroupId> = self.work.groups.keys().copied().collect();
        for gid in gids {
            self.work.group_epochs.get_or_default(gid).bump();
        }
    }

    /// Publishes the successor snapshot with one pointer swap, folding
    /// the queued slab ops through the spare-slab recycling protocol.
    /// Returns the changed-word counts of the edit's [`SlabOp::Copy`], one
    /// per origin (empty without one). A copy that came alone and changed
    /// no word publishes nothing: the spare still mirrors the published
    /// slab and is kept as it is.
    pub(crate) fn commit(mut self) -> Vec<u32> {
        if self.ops.is_empty() {
            // The slab is untouched: the successor shares the published
            // slab's storage and the spare stays a valid mirror.
            self.writer.publish(self.work);
            return Vec::new();
        }
        let (slab, changed) = self.writer.state().advance(&self.ops);
        if matches!(self.ops[..], [SlabOp::Copy(..)]) && changed.iter().all(|&words| words == 0) {
            self.writer.state().restock(slab);
            return changed;
        }
        let published = Arc::new(slab);
        self.work.slab = Arc::clone(&published);
        let prev = self.writer.publish(self.work);
        let displaced = match Arc::try_unwrap(prev) {
            Ok(snapshot) => Arc::try_unwrap(snapshot.slab).ok(),
            Err(_) => None,
        };
        self.writer
            .state()
            .recycle(displaced, &self.ops, &published);
        changed
    }
}

/// A cloneable, thread-safe handle that drives G-HBA group
/// reconfigurations **concurrently with lookups**: rebalances, splits,
/// and merges are pure routing edits (they move replica *placement*,
/// not server state), so a background thread can publish them through
/// the snapshot cell while pinned readers keep resolving against the
/// epoch they admitted under.
///
/// Handle-driven operations do not update the owner's aggregate
/// [`ClusterStats`](crate::ClusterStats) (the owner may be mid-batch on
/// another thread); they return their own move/report counts instead.
#[derive(Debug, Clone)]
pub struct ReconfigHandle {
    pub(crate) routes: RouteCell,
    pub(crate) max_group_size: usize,
}

impl ReconfigHandle {
    /// The membership epoch of the currently published snapshot.
    #[must_use]
    pub fn epoch(&self) -> MembershipEpoch {
        self.routes.pin().epoch
    }

    /// Ids of the live groups under the current snapshot.
    #[must_use]
    pub fn group_ids(&self) -> Vec<GroupId> {
        self.routes.pin().groups.keys().copied().collect()
    }

    /// The configured maximum group size this handle enforces — the
    /// split rule keeps `max/2 + 1` members behind, merges refuse
    /// combined sizes past it. Controllers size their plans with this.
    #[must_use]
    pub fn max_group_size(&self) -> usize {
        self.max_group_size
    }

    /// Members of `gid` under the current snapshot, if it is live.
    #[must_use]
    pub fn group_members(&self, gid: GroupId) -> Option<Vec<MdsId>> {
        self.routes
            .pin()
            .groups
            .get(&gid)
            .map(|g| g.members().to_vec())
    }

    /// Rebalances `gid` (heaviest-to-lightest replica moves until the
    /// spread is ≤ 1) and publishes the result. Returns the number of
    /// moves, or `None` if the group is no longer live.
    #[must_use]
    pub fn rebalance_group(&self, gid: GroupId) -> Option<u64> {
        let mut edit = RouteEdit::begin(&self.routes);
        if !edit.work.groups.contains_key(&gid) {
            return None;
        }
        edit.bump_epoch();
        edit.touch_group(gid);
        let moves = edit.rebalance(gid);
        edit.commit();
        Some(moves)
    }

    /// Splits `gid` per §3.2 and publishes the result. Returns the new
    /// group's id, or `None` when the group is missing or too small for
    /// the split rule to leave both halves non-empty.
    #[must_use]
    pub fn split_group(&self, gid: GroupId) -> Option<GroupId> {
        let mut edit = RouteEdit::begin(&self.routes);
        let take = self.max_group_size / 2 + 1;
        let len = edit.work.groups.get(&gid).map(|g| g.len())?;
        if len <= take {
            return None;
        }
        let (new_gid, _report) = edit.split(gid, self.max_group_size);
        edit.commit();
        Some(new_gid)
    }

    /// Merges group `b` into group `a` and publishes the result.
    /// Returns `false` (without publishing) unless both groups are live,
    /// distinct, and fit within the configured maximum together.
    pub fn merge_groups(&self, a: GroupId, b: GroupId) -> bool {
        let mut edit = RouteEdit::begin(&self.routes);
        if a == b {
            return false;
        }
        let Some(len_a) = edit.work.groups.get(&a).map(|g| g.len()) else {
            return false;
        };
        let Some(len_b) = edit.work.groups.get(&b).map(|g| g.len()) else {
            return false;
        };
        if len_a + len_b > self.max_group_size {
            return false;
        }
        let _report = edit.merge(a, b);
        edit.commit();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn pin_returns_published_value() {
        let cell: SnapshotCell<u32> = SnapshotCell::new(7, ());
        assert_eq!(*cell.pin(), 7);
        let mut writer = cell.edit();
        assert_eq!(*writer.base(), 7);
        let displaced = writer.publish(8);
        assert_eq!(*displaced, 7);
        drop(writer);
        assert_eq!(*cell.pin(), 8);
    }

    #[test]
    fn pins_outlive_publishes() {
        let cell: SnapshotCell<u32> = SnapshotCell::new(0, ());
        let old = cell.pin();
        for round in 1..10 {
            let mut writer = cell.edit();
            writer.publish(round);
        }
        assert_eq!(*old, 0, "a pinned snapshot is immutable across swaps");
        assert_eq!(*cell.pin(), 9);
    }

    #[test]
    fn displaced_arc_becomes_exclusive_once_pins_drop() {
        let cell: SnapshotCell<Vec<u8>> = SnapshotCell::new(vec![1], ());
        let pin = cell.pin();
        let mut writer = cell.edit();
        let displaced = writer.publish(vec![2]);
        assert!(
            Arc::try_unwrap(displaced.clone()).is_err(),
            "the pin still shares the displaced snapshot"
        );
        drop(pin);
        drop(displaced.clone());
        assert_eq!(Arc::strong_count(&displaced), 1);
        assert_eq!(Arc::try_unwrap(displaced).expect("exclusive"), vec![1]);
    }

    /// An edit held open on another thread delays no pin: `edit` takes
    /// the writer mutex only. A cell that held `current` across the edit
    /// would hang the pins until the editor's watchdog gives up.
    #[test]
    fn pins_do_not_wait_for_an_open_edit() {
        use std::sync::mpsc;
        use std::time::Duration;
        let cell: Arc<SnapshotCell<u32>> = Arc::new(SnapshotCell::new(7, ()));
        let (opened_tx, opened_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let editor = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                let mut writer = cell.edit();
                opened_tx.send(()).expect("main thread waits for the edit");
                let released = release_rx.recv_timeout(Duration::from_secs(10));
                writer.publish(8);
                released.is_ok()
            })
        };
        opened_rx.recv().expect("editor opened its edit");
        let all_base = (0..1_000).all(|_| *cell.pin() == 7);
        let _ = release_tx.send(());
        let released = editor.join().expect("editor panicked");
        assert!(released, "pins blocked behind an open edit");
        assert!(all_base, "an unpublished edit was visible to a pin");
        assert_eq!(*cell.pin(), 8);
    }

    /// Readers hammering `pin` observe only fully-formed, monotonically
    /// advancing snapshots while a writer publishes continuously.
    #[test]
    fn concurrent_readers_see_monotonic_snapshots() {
        let cell: Arc<SnapshotCell<(u64, u64)>> = Arc::new(SnapshotCell::new((0, 0), ()));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut last = 0u64;
                    let mut seen = 0u64;
                    // Pin at least once even if this thread is first
                    // scheduled after the writer finished (single-core
                    // machines).
                    loop {
                        let snap = cell.pin();
                        assert_eq!(snap.0, snap.1, "torn snapshot observed");
                        assert!(snap.0 >= last, "snapshot went backwards");
                        last = snap.0;
                        seen += 1;
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    seen
                })
            })
            .collect();
        for value in 1..=500u64 {
            let mut writer = cell.edit();
            writer.publish((value, value));
        }
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            assert!(reader.join().expect("reader panicked") > 0);
        }
        assert_eq!(*cell.pin(), (500, 500));
    }

    /// Under reader/writer contention every published snapshot is
    /// dropped exactly once and never observed torn: a publish racing a
    /// reader's clone would show up here as a payload-canary failure, a
    /// refcount crash, or a drop-count mismatch.
    #[test]
    fn every_snapshot_dropped_exactly_once_under_contention() {
        const CANARY: u64 = 0x5EED_CAFE;
        struct Counted {
            value: u64,
            canary: u64,
            drops: Arc<AtomicUsize>,
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                assert_eq!(self.canary, self.value ^ CANARY, "payload torn");
                self.drops.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let make = |value: u64| Counted {
            value,
            canary: value ^ CANARY,
            drops: Arc::clone(&drops),
        };
        const PUBLISHES: u64 = 2_000;
        let cell: Arc<SnapshotCell<Counted>> = Arc::new(SnapshotCell::new(make(0), ()));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                thread::spawn(move || loop {
                    let snap = cell.pin();
                    assert_eq!(snap.canary, snap.value ^ CANARY, "pinned payload torn");
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                })
            })
            .collect();
        for value in 1..=PUBLISHES {
            let mut writer = cell.edit();
            let _displaced = writer.publish(make(value));
        }
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            reader.join().expect("reader panicked");
        }
        drop(cell);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            PUBLISHES as usize + 1,
            "each snapshot reclaimed exactly once"
        );
    }

    #[test]
    fn slab_spare_recycles_through_the_publish_protocol() {
        use ghba_bloom::FilterShape;
        let shape = FilterShape {
            bits: 256,
            hashes: 3,
            seed: 9,
        };
        let mut published = Arc::new(SharedShapeArray::<MdsId>::new(shape));
        let mut spare = SlabSpare::new((*published).clone());
        let mut filter = BloomFilter::new(shape.bits, shape.hashes, shape.seed);
        filter.insert("hello");
        let rounds: Vec<Vec<SlabOp>> = vec![
            vec![SlabOp::Push(MdsId(0), 0), SlabOp::Push(MdsId(1), 1)],
            vec![SlabOp::PushFilter(MdsId(2), 2, filter)],
            vec![SlabOp::Remove(MdsId(1))],
        ];
        for ops in &rounds {
            let next = Arc::new(spare.advance(ops).0);
            let displaced = Arc::try_unwrap(core::mem::replace(&mut published, next)).ok();
            spare.recycle(displaced, ops, &published);
        }
        let ids: Vec<MdsId> = published.ids().collect();
        assert_eq!(ids, vec![MdsId(0), MdsId(2)]);
        let spare_ids = |spare: &SlabSpare| {
            let slab = spare.slab.as_ref().expect("restocked");
            slab.ids().collect::<Vec<_>>()
        };
        assert_eq!(spare_ids(&spare), ids, "spare mirrors the published slab");
        // A held reference forces the deep-copy fallback; the spare must
        // still mirror the published slab afterwards.
        let hold = Arc::clone(&published);
        let ops = vec![SlabOp::Push(MdsId(3), 1)];
        let next = Arc::new(spare.advance(&ops).0);
        let displaced = Arc::try_unwrap(core::mem::replace(&mut published, next)).ok();
        assert!(
            displaced.is_none(),
            "the held pin blocks in-place recycling"
        );
        spare.recycle(displaced, &ops, &published);
        // The push reuses the slot the removal tombstoned, so slot order
        // is [0, 3, 2]; what matters is spare == published.
        assert_eq!(spare_ids(&spare), published.ids().collect::<Vec<_>>());
        assert_eq!(spare_ids(&spare), vec![MdsId(0), MdsId(3), MdsId(2)]);
        drop(hold);
    }
}
