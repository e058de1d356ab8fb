//! Shared-reference execution support: atomic statistics and sharded
//! write ownership.
//!
//! PR 6 made individual lookups flow through reconfiguration (each pins
//! an immutable snapshot), but left two gaps that this module closes:
//!
//! * **Stats from `&self`** — [`ConcurrentStats`] mirrors the hot
//!   counters of `ClusterStats` (level counts, lookup latency,
//!   mask-cache hits, false-hit counters) word-for-word in atomics, so
//!   pinned walks running from a shared reference can record accounting
//!   that the owner later folds into the authoritative `ClusterStats`
//!   at a drain point.
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
//!
//! Neither type performs any synchronization beyond its own locks and
//! atomics: folding or draining requires the caller to hold `&mut` on
//! the owning cluster (or otherwise guarantee that no concurrent
//! recorder is live), which is exactly what the drain hooks on the
//! clusters' `&mut` entry points provide.

use core::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use core::time::Duration;
use std::collections::HashMap;
use std::sync::Mutex;

use ghba_bloom::{BuildLaneHasher, Fingerprint};
use ghba_simnet::LatencyStats;

use crate::cluster::ClusterStats;
use crate::ids::{GroupId, MdsId};
use crate::load::{add_nonzero, LoadRecorder, LoadTally};
use crate::mds::Mds;
use crate::op::PathKey;
use crate::query::QueryLevel;

/// Lock-free mirror of `LatencyStats`: same bucket geometry, atomic
/// words, drained wholesale into the real accumulator via
/// `LatencyStats::merge_parts`.
#[derive(Debug)]
struct AtomicLatency {
    count: AtomicU64,
    sum_nanos: AtomicU64,
    min_nanos: AtomicU64,
    max_nanos: AtomicU64,
    buckets: [AtomicU64; 64],
}

impl AtomicLatency {
    fn new() -> Self {
        AtomicLatency {
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            min_nanos: AtomicU64::new(u64::MAX),
            max_nanos: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Adds locally accumulated samples: one RMW per non-zero word.
    fn absorb(&self, samples: &LatencyStats) {
        let (count, sum_nanos, min_nanos, max_nanos, buckets) = samples.parts();
        if count == 0 {
            return;
        }
        self.count.fetch_add(count, Ordering::Relaxed);
        // Truncating: the atomic word wraps the same way.
        self.sum_nanos
            .fetch_add(sum_nanos as u64, Ordering::Relaxed);
        self.min_nanos.fetch_min(min_nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(max_nanos, Ordering::Relaxed);
        for (bucket, &n) in self.buckets.iter().zip(buckets) {
            add_nonzero(bucket, n);
        }
    }

    /// Resets the accumulator and returns the drained parts in
    /// `merge_parts` order. Every `&mut` read folds right after its
    /// walk, so the common drain holds one sample: only non-zero words
    /// pay an atomic swap (the caller guarantees no live recorder, so a
    /// word read as zero stays zero).
    fn drain(&self) -> (u64, u128, u64, u64, [u64; 64]) {
        let mut buckets = [0u64; 64];
        if self.count.load(Ordering::Relaxed) == 0 {
            return (0, 0, u64::MAX, 0, buckets);
        }
        let count = self.count.swap(0, Ordering::Relaxed);
        let sum = u128::from(self.sum_nanos.swap(0, Ordering::Relaxed));
        let min = self.min_nanos.swap(u64::MAX, Ordering::Relaxed);
        let max = self.max_nanos.swap(0, Ordering::Relaxed);
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            if bucket.load(Ordering::Relaxed) != 0 {
                *slot = bucket.swap(0, Ordering::Relaxed);
            }
        }
        (count, sum, min, max, buckets)
    }
}

/// What the fused runs of one pin counted, in plain words: each run's
/// splice records every lookup **occurrence** (level, latency, false
/// hits, load attribution) and every walk's mask consults here, and the
/// pin's owner folds the lot into the atomics once
/// ([`ConcurrentStats::absorb`]) after its last run returned — so a
/// batch one of whose walks panics has recorded nothing.
#[derive(Debug, Default)]
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
}

/// Atomic accounting for walks performed from `&self`.
///
/// Every counter mirrors a field (or named counter) of `ClusterStats`.
/// Recording is wait-free ([`absorb`](ConcurrentStats::absorb) once per
/// pin: per `execute_concurrent` batch, per run elsewhere);
/// [`fold_into`](ConcurrentStats::fold_into)
/// drains everything into the owner's stats and must only run once the
/// caller holds `&mut` on the owning cluster (no live recorders).
#[derive(Debug)]
pub(crate) struct ConcurrentStats {
    dirty: AtomicBool,
    levels: [AtomicU64; 5],
    lookup: AtomicLatency,
    mask_hits: AtomicU64,
    mask_misses: AtomicU64,
    l1_false: AtomicU64,
    l2_false: AtomicU64,
    l3_false: AtomicU64,
    l4_disk: AtomicU64,
    /// Per-group load telemetry (see [`crate::load`]). Deliberately
    /// outside the `dirty` protocol: it is drained by the load report,
    /// not by the stats fold, so recording load never forces the
    /// `maybe_drain` slow path on the next `&mut` entry.
    load: LoadRecorder,
}

impl Default for ConcurrentStats {
    fn default() -> Self {
        ConcurrentStats::new()
    }
}

impl ConcurrentStats {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        ConcurrentStats {
            dirty: AtomicBool::new(false),
            levels: std::array::from_fn(|_| AtomicU64::new(0)),
            lookup: AtomicLatency::new(),
            mask_hits: AtomicU64::new(0),
            mask_misses: AtomicU64::new(0),
            l1_false: AtomicU64::new(0),
            l2_false: AtomicU64::new(0),
            l3_false: AtomicU64::new(0),
            l4_disk: AtomicU64::new(0),
            load: LoadRecorder::new(),
        }
    }

    /// Whether anything has been recorded since the last fold.
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Acquire)
    }

    /// Folds one pin's [`WalkTally`] in: one RMW per non-zero word.
    /// Load telemetry deliberately stays outside the `dirty` protocol —
    /// its windows are closed by
    /// [`LoadFold::close_window`](crate::load::LoadFold::close_window),
    /// not by the stats fold.
    pub fn absorb(&self, tally: &WalkTally) {
        for (word, &n) in self.levels.iter().zip(&tally.levels) {
            add_nonzero(word, n);
        }
        self.lookup.absorb(&tally.lookup);
        let [l1, l2, l3, l4_disk] = tally.falses;
        add_nonzero(&self.l1_false, l1);
        add_nonzero(&self.l2_false, l2);
        add_nonzero(&self.l3_false, l3);
        add_nonzero(&self.l4_disk, l4_disk);
        let [hits, misses] = tally.mask;
        add_nonzero(&self.mask_hits, hits);
        add_nonzero(&self.mask_misses, misses);
        if tally.lookup.count() + hits + misses > 0 {
            self.dirty.store(true, Ordering::Release);
        }
        self.load.absorb(&tally.load);
    }

    /// Not-yet-folded mask consults `(hits, misses)` — peeked, not
    /// drained, so a `&self` reader can assemble an up-to-date
    /// [`MaskCacheStats`](crate::load::MaskCacheStats) view without a
    /// drain barrier.
    pub fn pending_mask(&self) -> (u64, u64) {
        (
            self.mask_hits.load(Ordering::Relaxed),
            self.mask_misses.load(Ordering::Relaxed),
        )
    }

    pub(crate) fn load_recorder(&self) -> &LoadRecorder {
        &self.load
    }

    /// Drains every counter into `stats` and returns the folded
    /// `(mask_hits, mask_misses)` pair so callers with a separate
    /// lifetime view of the mask cache can absorb it too.
    ///
    /// Requires external synchronization: no recorder may be live.
    pub fn fold_into(&self, stats: &mut ClusterStats) -> (u64, u64) {
        self.dirty.store(false, Ordering::Release);
        stats.levels.l1 += self.levels[0].swap(0, Ordering::Relaxed);
        stats.levels.l2 += self.levels[1].swap(0, Ordering::Relaxed);
        stats.levels.l3 += self.levels[2].swap(0, Ordering::Relaxed);
        stats.levels.l4 += self.levels[3].swap(0, Ordering::Relaxed);
        stats.levels.nonexistent += self.levels[4].swap(0, Ordering::Relaxed);

        let (count, sum, min, max, buckets) = self.lookup.drain();
        stats
            .lookup_latency
            .merge_parts(count, sum, min, max, &buckets);

        for (label, counter) in [
            ("l1_false_hits", &self.l1_false),
            ("l2_false_hits", &self.l2_false),
            ("l3_false_hits", &self.l3_false),
            ("l4_false_positive_disk_checks", &self.l4_disk),
        ] {
            let n = counter.swap(0, Ordering::Relaxed);
            if n > 0 {
                stats.counters.add(label, n);
            }
        }

        let hits = self.mask_hits.swap(0, Ordering::Relaxed);
        let misses = self.mask_misses.swap(0, Ordering::Relaxed);
        stats.mask_cache_hits += hits;
        stats.mask_cache_misses += misses;
        (hits, misses)
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
    pub fn stores(self, mds: &Mds, path: &str, fp: &Fingerprint) -> bool {
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
    pub path: String,
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
    fn latest_for(&self, path: &str, fp: &Fingerprint) -> Option<&WriteRecord> {
        let &idx = self.latest.get(fp)?;
        self.log[..=idx]
            .iter()
            .rev()
            .find(|record| record.fp == *fp && record.path == path)
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
        self.overlay_keyed(key.path(), key.fingerprint())
    }

    /// [`overlay`](NamespaceShards::overlay) for callers holding the
    /// path and its precomputed fingerprint separately (the pinned walk
    /// never re-hashes).
    pub fn overlay_keyed(&self, path: &str, fp: &Fingerprint) -> OverlayEntry {
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
            path: key.path().to_owned(),
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

    #[test]
    fn atomic_latency_matches_latency_stats_geometry() {
        let atomic = AtomicLatency::new();
        let mut reference = LatencyStats::new();
        for nanos in [0u64, 1, 7, 1024, 65_537, 1_000_000_000] {
            let mut one = LatencyStats::new();
            one.record(Duration::from_nanos(nanos));
            atomic.absorb(&one);
            reference.record(Duration::from_nanos(nanos));
        }
        let (count, sum, min, max, buckets) = atomic.drain();
        let mut folded = LatencyStats::new();
        folded.merge_parts(count, sum, min, max, &buckets);
        assert_eq!(folded, reference);
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
            .map(|record| (record.path, record.kind))
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

    /// A record holds one copy of its path and nothing else grew.
    #[test]
    fn a_write_record_is_no_larger_than_its_path_lanes_and_kind() {
        assert!(core::mem::size_of::<WriteRecord>() <= 48);
    }
}
