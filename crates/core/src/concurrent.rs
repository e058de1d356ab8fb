//! Shared-reference execution support: what the walks counted, and
//! sharded write ownership.
//!
//! Pinned walks run from `&self` on any number of threads while
//! reconfiguration publishes successor snapshots. What they leave for the
//! cluster's owner lives here:
//!
//! * **Counts** — a pin's runs count levels, latency, false hits, mask
//!   consults and per-group load into a plain [`WalkTally`], and the
//!   pin's owner adds it once, under one lock, to the cluster's
//!   [`Telemetry`]: the one tally of what the walks counted that nobody
//!   has folded yet, beside the decayed load windows it feeds. The owner
//!   folds the tally into `ClusterStats` at its next `&mut` entry point,
//!   through `Mutex::get_mut` with no lock taken; a load report closes
//!   the load window under the lock.
//! * **Writes from `&self`** — [`NamespaceShards`] partitions the
//!   namespace by fingerprint hash into independently locked shards.
//!   Creates and removes append ordered *write records* to their shard's
//!   log under that shard's lock alone, so mutations on distinct shards
//!   proceed concurrently while reads consult a per-path overlay. The
//!   owner replays the logs against the real stores at the next `&mut`
//!   entry point (the *drain*), in shard-index order; per-path ordering
//!   is preserved because a path always hashes to the same shard, and
//!   records for distinct paths commute on the underlying stores.
//!   Recording takes nothing global and publishes nothing: published
//!   columns move only at the owner's `push_update`, after the drain.
//!   The overlay is keyed by the admission fingerprint (hash-once runs
//!   admission → filters → overlay → store; trust model in
//!   [`ghba_bloom::hash`]) and owns no copy of a path: an entry is the
//!   index of the fingerprint's latest record, verified against that
//!   record's path on every hit, so two pending paths sharing all 128
//!   bits cost a scan of their shard's log, never an answer.
//! * **A short recorded write allocates nothing.** A record's path is a
//!   [`CompactPath`] copied by value out of the op's key (32 bytes; a
//!   path over [`INLINE_PATH_BYTES`](crate::metadata::INLINE_PATH_BYTES)
//!   is boxed once here), the drain moves it into the store bucket, and
//!   an overlay hit compares its bytes in the record it already read.
//!
//! Draining the shards requires the caller to hold `&mut` on the owning
//! cluster (or otherwise guarantee that no write is being recorded
//! concurrently), which is exactly what the drain hooks on the clusters'
//! `&mut` entry points provide.

use core::sync::atomic::{AtomicBool, Ordering};
use core::time::Duration;
use std::collections::HashMap;
use std::sync::Mutex;

use ghba_bloom::{BuildLaneHasher, Fingerprint};
use ghba_simnet::LatencyStats;

use crate::cluster::ClusterStats;
use crate::ids::{GroupId, MdsId, MembershipEpoch};
use crate::load::{LoadReport, LoadTally, LoadWindows, MaskCacheStats};
use crate::mds::Mds;
use crate::metadata::CompactPath;
use crate::op::PathKey;
use crate::query::QueryLevel;

/// What the fused runs of one pin counted, in plain words: each run's
/// splice records every lookup **occurrence** (level, latency, false
/// hits, load attribution) and every walk's mask consults here, and the
/// pin's owner adds the lot to the cluster's [`Telemetry`] once
/// ([`Telemetry::absorb`]) after its last run returned — so a batch one
/// of whose walks panics has recorded nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct WalkTally {
    levels: [u64; 5],
    lookup: LatencyStats,
    /// `[l1, l2, l3, l4 disk checks]`.
    falses: [u64; 4],
    /// Mask consults `[hits, misses]`.
    mask: [u64; 2],
    load: LoadTally,
}

impl WalkTally {
    /// Counts one resolved lookup entering through `entry` of group
    /// `gid`: the level that served it, its modeled latency, and the
    /// false hits `[l1, l2, l3, l4 disk checks]` its walk paid.
    pub fn lookup(
        &mut self,
        gid: GroupId,
        entry: MdsId,
        level: QueryLevel,
        latency: Duration,
        falses: [u64; 4],
    ) {
        let idx = match level {
            QueryLevel::L1Lru => 0,
            QueryLevel::L2Segment => 1,
            QueryLevel::L3Group => 2,
            QueryLevel::L4Global => 3,
            QueryLevel::Nonexistent => 4,
        };
        self.levels[idx] += 1;
        self.lookup.record(latency);
        for (total, n) in self.falses.iter_mut().zip(falses) {
            *total += n;
        }
        self.load.walk(gid, entry, level, falses.iter().sum());
    }

    /// Counts one L2/L3 mask consult of group `gid` (a plan or cache
    /// answer is a hit, a fresh build a miss).
    pub fn mask(&mut self, gid: GroupId, hit: bool) {
        self.mask[usize::from(!hit)] += 1;
        self.load.mask(gid, hit);
    }

    /// Adds `other`'s counts, word by word.
    fn add(&mut self, other: &WalkTally) {
        for (total, n) in self.levels.iter_mut().zip(other.levels) {
            *total += n;
        }
        self.lookup.merge(&other.lookup);
        for (total, n) in self.falses.iter_mut().zip(other.falses) {
            *total += n;
        }
        for (total, n) in self.mask.iter_mut().zip(other.mask) {
            *total += n;
        }
        self.load.add(&other.load);
    }
}

/// What the walks counted that nobody has folded yet, beside the decayed
/// load windows its load part folds into. The cluster keeps one behind a
/// mutex: a pin's owner adds its tally under the lock
/// ([`absorb`](Telemetry::absorb)), the owner moves the rest into
/// `ClusterStats` through `&mut` ([`fold_into`](Telemetry::fold_into)),
/// and a load report closes the load window under the lock
/// ([`load_report`](Telemetry::load_report)).
#[derive(Debug, Clone, Default)]
pub(crate) struct Telemetry {
    /// Every absorbed pin's counts, summed.
    pending: WalkTally,
    /// Decayed per-group rates, one window per load report.
    windows: LoadWindows,
    /// Lifetime `(hits, misses)` of the mask consults already folded.
    mask_lifetime: (u64, u64),
}

impl Telemetry {
    /// Adds one pin's tally: one plain add per word.
    pub fn absorb(&mut self, tally: &WalkTally) {
        self.pending.add(tally);
    }

    /// Moves the pending levels, latency and false hits into `stats` and
    /// the mask consults into the lifetime counts. The load part stays:
    /// it is the open window of the next load report.
    pub fn fold_into(&mut self, stats: &mut ClusterStats) {
        let pending = &mut self.pending;
        if pending.lookup.count() == 0 && pending.mask == [0, 0] {
            return;
        }
        let [l1, l2, l3, l4, nonexistent] = core::mem::take(&mut pending.levels);
        stats.levels.l1 += l1;
        stats.levels.l2 += l2;
        stats.levels.l3 += l3;
        stats.levels.l4 += l4;
        stats.levels.nonexistent += nonexistent;
        stats
            .lookup_latency
            .merge(&core::mem::take(&mut pending.lookup));
        let [l1, l2, l3, l4] = core::mem::take(&mut pending.falses);
        let counters = &mut stats.counters;
        counters.l1_false_hits += l1;
        counters.l2_false_hits += l2;
        counters.l3_false_hits += l3;
        counters.l4_false_positive_disk_checks += l4;
        let [hits, misses] = core::mem::take(&mut pending.mask);
        self.mask_lifetime.0 += hits;
        self.mask_lifetime.1 += misses;
    }

    /// Closes the open load window — folds the pending load into the
    /// decayed rates and clears it — and reports the rates under the
    /// live `shape`. The decayed rows of groups `shape` does not list go,
    /// so a group that reuses a dissolved group's id starts with no load
    /// history.
    pub fn load_report(
        &mut self,
        epoch: MembershipEpoch,
        shape: &[(GroupId, Vec<MdsId>)],
    ) -> LoadReport {
        let closed = &mut self.pending.load;
        let fresh = closed.lookups();
        self.windows.fold(closed, shape);
        closed.clear();
        self.windows.report(epoch, fresh, shape)
    }

    /// The lifetime mask-consult counts, pending consults included.
    pub fn mask_cache_stats(&self) -> MaskCacheStats {
        let [hits, misses] = self.pending.mask;
        MaskCacheStats::assemble(self.mask_lifetime, (hits, misses))
    }
}

/// What the write overlay knows about a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OverlayEntry {
    /// No pending write touches this path; the real stores are
    /// authoritative.
    Untracked,
    /// The latest pending write removed this path.
    Removed,
    /// The latest pending write created this path at the given home.
    Created(MdsId),
}

impl OverlayEntry {
    /// Whether `mds` stores `path`, overlaid with this era's pending
    /// writes: a pending create is stored at its recorded home, a
    /// pending remove nowhere.
    #[must_use]
    pub fn stores(self, mds: &Mds, path: &[u8], fp: &Fingerprint) -> bool {
        match self {
            OverlayEntry::Created(home) => mds.id() == home,
            OverlayEntry::Removed => false,
            OverlayEntry::Untracked => mds.stores_fp(path, fp),
        }
    }
}

/// The kind of a pending write, tagged with the home server it targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteKind {
    /// Create the path at this home.
    Create(MdsId),
    /// Remove the path from this home.
    Remove(MdsId),
}

/// One pending write, replayed verbatim against the real stores at
/// drain time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteRecord {
    /// The path the write targets.
    pub path: CompactPath,
    /// The path's fingerprint (precomputed at record time).
    pub fp: Fingerprint,
    /// Create-at-home or remove-from-home.
    pub kind: WriteKind,
}

/// One namespace shard: an ordered log of pending writes plus an index
/// of the latest record per fingerprint (the overlay).
#[derive(Debug, Default)]
struct Shard {
    log: Vec<WriteRecord>,
    /// Fingerprint → index in `log` of the latest record carrying it.
    latest: HashMap<Fingerprint, usize, BuildLaneHasher>,
}

impl Shard {
    /// The latest pending record for `path`. The indexed record is it
    /// unless another pending path shares all 128 bits of `fp`; then the
    /// records before it are scanned, newest first.
    fn latest_for(&self, path: &[u8], fp: &Fingerprint) -> Option<&WriteRecord> {
        let &idx = self.latest.get(fp)?;
        self.log[..=idx]
            .iter()
            .rev()
            .find(|record| record.fp == *fp && record.path.as_bytes() == path)
    }
}

/// Namespace partitioned into independently locked write shards.
///
/// The shard of a path is a mask of its fingerprint's first hash lane,
/// so the mapping is stable across calls and across servers. Writes on
/// distinct shards contend only on their own shard's mutex; reads take
/// at most one shard lock (and none at all while the structure is
/// clean — the common case — thanks to the `dirty` fast path).
#[derive(Debug)]
pub(crate) struct NamespaceShards {
    shards: Vec<Mutex<Shard>>,
    mask: usize,
    dirty: AtomicBool,
}

impl NamespaceShards {
    /// Creates `shard_count` shards, rounded up to a power of two
    /// (minimum 1).
    pub fn new(shard_count: usize) -> Self {
        let n = shard_count.max(1).next_power_of_two();
        NamespaceShards {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            mask: n - 1,
            dirty: AtomicBool::new(false),
        }
    }

    /// Whether any pending write exists.
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Acquire)
    }

    fn shard_of(&self, fp: &Fingerprint) -> usize {
        (fp.lanes().0 as usize) & self.mask
    }

    fn lock_for(&self, fp: &Fingerprint) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[self.shard_of(fp)]
            .lock()
            .expect("namespace shard poisoned")
    }

    /// Consults the overlay for `key`. Lock-free when clean.
    pub fn overlay(&self, key: &PathKey) -> OverlayEntry {
        self.overlay_keyed(key.compact_path().as_bytes(), key.fingerprint())
    }

    /// [`overlay`](NamespaceShards::overlay) for callers holding the
    /// path and its precomputed fingerprint separately (the pinned walk
    /// never re-hashes).
    pub fn overlay_keyed(&self, path: &[u8], fp: &Fingerprint) -> OverlayEntry {
        if !self.is_dirty() {
            return OverlayEntry::Untracked;
        }
        match self.lock_for(fp).latest_for(path, fp).map(|r| &r.kind) {
            None => OverlayEntry::Untracked,
            Some(&WriteKind::Create(home)) => OverlayEntry::Created(home),
            Some(WriteKind::Remove(_)) => OverlayEntry::Removed,
        }
    }

    /// Pending write records across all shards, awaiting the next
    /// drain. Lock-free (zero) when clean; long-running `&self`-only
    /// servers use this to observe whether their background reconciler
    /// is keeping the logs bounded.
    pub fn pending_record_count(&self) -> u64 {
        if !self.is_dirty() {
            return 0;
        }
        self.shards
            .iter()
            .map(|slot| slot.lock().expect("namespace shard poisoned").log.len() as u64)
            .sum()
    }

    fn record(&self, key: &PathKey, kind: WriteKind) {
        let mut shard = self.lock_for(key.fingerprint());
        let idx = shard.log.len();
        shard.log.push(WriteRecord {
            path: key.compact_path().clone(),
            fp: *key.fingerprint(),
            kind,
        });
        shard.latest.insert(*key.fingerprint(), idx);
        drop(shard);
        self.dirty.store(true, Ordering::Release);
    }

    /// Appends a pending create of `key` at `home`.
    pub fn record_create(&self, key: &PathKey, home: MdsId) {
        self.record(key, WriteKind::Create(home));
    }

    /// Appends a pending removal of `key` from `home`.
    pub fn record_remove(&self, key: &PathKey, home: MdsId) {
        self.record(key, WriteKind::Remove(home));
    }

    /// Drains every pending write (shard-index order, log order within
    /// a shard), resetting the structure to clean. Per-path ordering is
    /// total because a path always lands in the same shard.
    ///
    /// Requires external synchronization (the owner's `&mut`): a
    /// concurrent `record_*` during the drain would land in an
    /// arbitrary position.
    pub fn take_all(&self) -> Vec<WriteRecord> {
        let mut records = Vec::new();
        for slot in &self.shards {
            let mut shard = slot.lock().expect("namespace shard poisoned");
            records.append(&mut shard.log);
            shard.latest.clear();
        }
        self.dirty.store(false, Ordering::Release);
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlay_tracks_latest_write_per_path() {
        let shards = NamespaceShards::new(4);
        let key = PathKey::new("/a/b");
        assert_eq!(shards.overlay(&key), OverlayEntry::Untracked);
        assert!(!shards.is_dirty());

        shards.record_create(&key, MdsId(3));
        assert_eq!(shards.overlay(&key), OverlayEntry::Created(MdsId(3)));
        shards.record_remove(&key, MdsId(3));
        assert_eq!(shards.overlay(&key), OverlayEntry::Removed);
        assert!(shards.is_dirty());

        // Per-path order survives the drain; a second drain finds nothing.
        let kinds: Vec<WriteKind> = shards.take_all().into_iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            [WriteKind::Create(MdsId(3)), WriteKind::Remove(MdsId(3))]
        );
        assert!(!shards.is_dirty());
        assert_eq!(shards.overlay(&key), OverlayEntry::Untracked);
        assert!(shards.take_all().is_empty());
    }

    /// Two pending paths sharing all 128 fingerprint bits (forged: no
    /// such pair is known) each read their own overlay entry through
    /// create → remove → re-create, a third path on that fingerprint is
    /// untracked, and the drain loses and reorders nothing.
    #[test]
    fn forged_fingerprint_collisions_cannot_change_an_answer() {
        let shards = NamespaceShards::new(4);
        let fp = Fingerprint::from_lanes(7, 9);
        let a = PathKey::forged("/a", fp);
        let b = PathKey::forged("/b", fp);
        let c = PathKey::forged("/c", fp);
        let read = |key: &PathKey| shards.overlay(key);

        shards.record_create(&a, MdsId(1));
        assert_eq!(read(&a), OverlayEntry::Created(MdsId(1)));
        assert_eq!(read(&b), OverlayEntry::Untracked);
        shards.record_create(&b, MdsId(2));
        assert_eq!(read(&a), OverlayEntry::Created(MdsId(1)), "behind b's");
        assert_eq!(read(&b), OverlayEntry::Created(MdsId(2)));
        shards.record_remove(&a, MdsId(1));
        assert_eq!(read(&a), OverlayEntry::Removed);
        assert_eq!(read(&b), OverlayEntry::Created(MdsId(2)), "behind a's");
        shards.record_create(&a, MdsId(3));
        shards.record_remove(&b, MdsId(2));
        assert_eq!(read(&a), OverlayEntry::Created(MdsId(3)));
        assert_eq!(read(&b), OverlayEntry::Removed);
        assert_eq!(read(&c), OverlayEntry::Untracked);

        let drained: Vec<(String, WriteKind)> = shards
            .take_all()
            .into_iter()
            .map(|record| (record.path.into_string(), record.kind))
            .collect();
        let expected = [
            ("/a", WriteKind::Create(MdsId(1))),
            ("/b", WriteKind::Create(MdsId(2))),
            ("/a", WriteKind::Remove(MdsId(1))),
            ("/a", WriteKind::Create(MdsId(3))),
            ("/b", WriteKind::Remove(MdsId(2))),
        ]
        .map(|(path, kind)| (path.to_owned(), kind));
        assert_eq!(drained, expected);
        assert_eq!(read(&a), OverlayEntry::Untracked);
    }

    /// A record holds its path (inline when short), the lanes and the
    /// kind, and nothing else.
    #[test]
    fn a_write_record_is_no_larger_than_its_path_lanes_and_kind() {
        assert!(core::mem::size_of::<WriteRecord>() <= 56);
    }
}
