//! The cluster engine: construction, the one pinned L1→L4 walk, and the
//! one write path — the pin-once `&self` pipeline's write records and
//! their drain, which an owner's create or remove takes too, drained at
//! once — written once, generic over the replica layout.
//!
//! [`Cluster`] is everything that does not depend on where replicas
//! live; its [`Topology`] parameter decides the rest. There are exactly
//! two layouts: [`Grouped`] (G-HBA, [`GhbaCluster`]; placement in
//! [`crate::reconfig`]) and [`FullMirror`](crate::FullMirror) (HBA,
//! [`HbaCluster`](crate::HbaCluster); in [`crate::mirror`]). The
//! membership wrappers live in [`crate::reconfig`], the replica-update
//! protocol in [`crate::update`].
//!
//! # What a pin pays once
//!
//! A batch runs on the thread that submitted it; a replica serves
//! batches concurrently on its connection threads, each under its own
//! pin. A run of lookups (`lookup_fused_pinned`) is deduplicated,
//! walked, and spliced back per occurrence — through a `WalkArena` that
//! lives as long as the pin it serves: one `execute_concurrent` batch,
//! however many writes cut it into runs; one run for the entries whose
//! pin lasts one run (`lookup_concurrent`, and the `&mut` entry, whose
//! writes mutate `Mds` state between runs). A one-item run walks with
//! no dedup map.
//!
//! * **Plans.** What a walk needs that depends only on the snapshot —
//!   the entry's group, L2 candidate mask and held count; its group's L3
//!   mask with each member's slot and held count — is planned once per
//!   *snapshot*, not per pin: the pinned [`RouteSnapshot`]'s plan table
//!   keeps it for every later walk pinned there, on any thread, and
//!   hands what still holds to the successor. The overlay, which a
//!   batch's own writes do move, is consulted per walk, and so is how
//!   many of the planned held replicas a memory budget keeps resident
//!   (see `array_probe`).
//! * **Where live verdicts come from.** Every server's live filter is one
//!   column of the cluster's *live slab*, at the slot its published
//!   filter has in the pinned slab. When every server is clean, the two
//!   columns are one, and the published row-AND the walk takes anyway
//!   answers every live probe. Otherwise
//!   the pin *reads live*: each walk ANDs its rows over the live slab
//!   once too, and reads every verdict — L2's entry, L3's members, L4's
//!   sweep — from that word. The arena decides this once per pin
//!   (`reads_live`: one pass over the servers, no id hashed; the slots
//!   are shared, so no id is mapped to a slot either — a server keeps
//!   its own).
//! * **Rows.** `walk_chunk` derives every item's `k` probe rows in one
//!   pass and prefetches them two items ahead — in the pinned slab, and
//!   in the live slab when the pin reads live. It ANDs them over each
//!   slab once ([`SharedShapeArray::and_rows`]) one item ahead of the
//!   walk, and asks every server the item's verdict word names to
//!   prefetch the store bucket the item is homed at
//!   ([`MetadataStore::prefetch`](crate::MetadataStore)): the
//!   verification the walk ends with then finds its line in cache. The
//!   walk reads L2 and L3 as the published result under each level's
//!   mask. A slab row is a
//!   few words however many servers there are, so a walk's scattered
//!   reads stay within a working set a shared cache is less likely to
//!   evict. On `write_churn`, where every server stays dirty, a walk
//!   that reached L4 loaded one cold live-filter word per server, and so
//!   did a remove's `locate_home`; both now load `k` live-slab rows for
//!   all of them. With timers around each (averages over 200,000 calls,
//!   3–6 sets, one 2-core host; ≈ 40–50 ns of each is timer): the L4
//!   sweep ≈ 430 → ≈ 115 ns, `locate_home` ≈ 380 → ≈ 280 ns, and the
//!   traced `cluster.execute_ns_per_op` 450 → 366 (seed 11).
//! * **Tally.** The splice counts lookups per occurrence and mask
//!   consults per walk into the arena's plain `WalkTally`, which its
//!   owner adds to the cluster's one unfolded tally once per arena,
//!   under one lock, after its last run returned: one plain add per
//!   word, nothing if a run panicked.

use core::fmt;
use core::marker::PhantomData;
use core::time::Duration;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ghba_bloom::{BloomFilter, Fingerprint, Hit, RowDeriver, SharedShapeArray};
use ghba_simnet::{DetRng, LatencyModel, LatencyStats};

use crate::concurrent::{
    NamespaceShards, OverlayEntry, Telemetry, WalkTally, WriteKind, WriteRecord,
};
use crate::config::GhbaConfig;
use crate::group::Group;
use crate::ids::{GroupEpoch, GroupId, IdMap, MdsId, MembershipEpoch};
use crate::mds::{published_shape, row_indices, LiveSlab, Mds};
use crate::op::{resolve_unique, EntryPolicy, PathKey, WalkItem, WalkKey};
use crate::query::{LevelCounts, QueryLevel, QueryOutcome};
use crate::reconfig::ReconfigReport;
use crate::snapshot::{
    plan, route_cell, L2Plan, PlanTable, ReconfigHandle, RouteCell, RouteSnapshot,
};
use crate::update::UpdateReport;

/// Aggregate statistics of a cluster's lifetime.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Per-level query hit counts (Figure 13).
    pub levels: LevelCounts,
    /// Lookup latency distribution.
    pub lookup_latency: LatencyStats,
    /// Replica-update latency distribution (Figure 12).
    pub update_latency: LatencyStats,
    /// Replicas moved between servers by reconfiguration (Figure 11).
    pub migrated_replicas: u64,
    /// Messages exchanged during reconfigurations (Figure 15).
    pub reconfig_messages: u64,
    /// Messages carrying replica updates.
    pub update_messages: u64,
    /// Bytes of replica-update traffic.
    pub update_bytes: u64,
    /// Group splits performed.
    pub splits: u64,
    /// Group merges performed.
    pub merges: u64,
    /// The cluster's event counts: false hits, drift checks, IDBFA
    /// update misroutes.
    pub counters: EventCounts,
}

/// Events [`ClusterStats`] counts beside its series, one field each.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// L1 hits whose predicted home did not store the file.
    pub l1_false_hits: u64,
    /// L2 hits whose predicted home did not store the file.
    pub l2_false_hits: u64,
    /// L3 hits whose predicted home did not store the file.
    pub l3_false_hits: u64,
    /// L4 positives a disk check found not to store the file.
    pub l4_false_positive_disk_checks: u64,
    /// Exact drift distances computed by the publish gate.
    pub drift_exact_checks: u64,
    /// G-HBA replica updates sent to an IDBFA candidate that holds no
    /// replica of the origin, which drops them.
    pub idbfa_dropped_updates: u64,
    /// G-HBA replica updates multicast to a whole group because its
    /// IDBFA named no holder.
    pub idbfa_fallback_multicasts: u64,
}

/// Everything the pinned walk keeps between the fused runs of one pin:
/// whether the pin reads live verdicts from the live slab (decided by its
/// first run), the current run's probe rows, the row-ANDs of the item
/// being walked and of the next one, and the tally every run's splice
/// counts into. (The walk's plans are the pinned snapshot's: see
/// [`PlanTable`].)
/// Whoever owns the pin owns the arena and hands the tally over once,
/// when the pin's last run has returned ([`Cluster::absorb_walks`]) —
/// an arena dropped without that (its batch panicked) has recorded
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct WalkArena {
    reads_live: Option<bool>,
    /// `k` rows per walked item, item-major.
    rows: Vec<u32>,
    /// The row-ANDs of the item being walked.
    ands: RowAnds,
    /// The row-ANDs of the next item, computed one item ahead.
    ahead: RowAnds,
    tally: WalkTally,
}

/// One item's row-ANDs: of the pinned slab, and of the live slab when
/// the pin reads live.
#[derive(Debug, Default)]
struct RowAnds {
    published: Vec<u64>,
    live: Vec<u64>,
}

impl RowAnds {
    /// The word every live verdict is read from: the published row-AND
    /// when every live column is its published one, the live slab's own
    /// otherwise (see `reads_live`).
    fn verdicts(&self, reads_live: bool) -> &[u64] {
        if reads_live {
            &self.live
        } else {
            &self.published
        }
    }
}

/// One pinned walk's result: the outcome, the group it is attributed to
/// and the false-hit tallies `[l1, l2, l3, l4 disk checks]`, recorded
/// per occurrence by the run's splice — plus how its `[L2, L3]` plan
/// consults were answered (`None` = level not reached, `Some(false)` =
/// built), recorded once per walk: a plan some walk already built counts
/// as a mask-cache hit, only the walk that builds it as a miss.
#[derive(Debug)]
struct Walked {
    outcome: QueryOutcome,
    gid: GroupId,
    falses: [u64; 4],
    consults: [Option<bool>; 2],
}

/// What a replica layout decides for the [`Cluster`] engine — and
/// nothing else: everything not listed here is written once, in this
/// module, [`crate::update`], [`crate::reconfig`] and
/// [`crate::service`]. Crate-private and implemented exactly twice
/// ([`Grouped`], [`FullMirror`](crate::FullMirror)), which seals it.
pub(crate) trait Topology: fmt::Debug + Send + Sync + Sized + 'static {
    /// Scheme name for reports.
    const NAME: &'static str;
    /// Fork constant of the cluster's deterministic rng stream.
    const RNG_FORK: u64;

    /// The (pseudo-)group a walk entering at `entry` belongs to: its
    /// mask consults and load telemetry are attributed there.
    fn walk_group(snap: &RouteSnapshot, entry: MdsId) -> GroupId;

    /// Builds `entry`'s L2 plan under `snap` — which published columns
    /// it probes locally and how many replicas that is — priced by
    /// `model`. Called once per entry and snapshot: the snapshot's
    /// [`PlanTable`] keeps the plan. (The L3 group-multicast stage is the
    /// snapshot's own [`build_l3`](RouteSnapshot::build_l3); a layout
    /// without groups has no L3 slot, so no level between the entry's
    /// own array and the broadcast.)
    fn l2(snap: &RouteSnapshot, entry: MdsId, gid: GroupId, model: &LatencyModel) -> L2Plan;

    /// Replicas `id` holds (its filter memory behind Table 5).
    fn held_replicas(cluster: &Cluster<Self>, snap: &RouteSnapshot, id: MdsId) -> usize;

    /// The `(group, members)` rows of a load report.
    fn load_shape(cluster: &Cluster<Self>, snap: &RouteSnapshot) -> Vec<(GroupId, Vec<MdsId>)>;

    /// Cost accounting of one `push_update` of `origin`'s
    /// `delta_bytes`-sized delta (the slab column is already refreshed).
    fn update_fanout(
        cluster: &mut Cluster<Self>,
        snap: &RouteSnapshot,
        origin: MdsId,
        delta_bytes: u64,
    ) -> UpdateReport;

    /// Places the just-inserted server `id` (slab column, replicas,
    /// groups) and publishes the result.
    fn join(cluster: &mut Cluster<Self>, id: MdsId) -> ReconfigReport;

    /// Re-homes `id`'s files, unplaces it and publishes the result; the
    /// server is gone from the cluster when this returns.
    fn leave(cluster: &mut Cluster<Self>, id: MdsId) -> ReconfigReport;

    /// The layout's own structural invariants under `snap`.
    fn check_layout(cluster: &Cluster<Self>, snap: &RouteSnapshot) -> Result<(), String>;
}

/// The grouped replica layout of G-HBA (§2.2): servers in groups of at
/// most `M`, each group collectively mirroring the system. Names the
/// layout of [`GhbaCluster`]; never constructed.
#[derive(Debug, Clone, Copy)]
pub struct Grouped;

/// A simulated G-HBA metadata server cluster.
///
/// # Examples
///
/// ```
/// use ghba_core::{GhbaCluster, GhbaConfig, MetadataService};
///
/// let mut cluster = GhbaCluster::with_servers(
///     GhbaConfig::default().with_filter_capacity(1_000),
///     12,
/// );
/// let home = cluster.create("/projects/paper.tex");
/// let outcome = cluster.lookup("/projects/paper.tex");
/// assert_eq!(outcome.home, Some(home));
/// ```
pub type GhbaCluster = Cluster<Grouped>;

/// A simulated metadata server cluster: the scheme-agnostic engine
/// behind [`GhbaCluster`] and [`HbaCluster`](crate::HbaCluster), which
/// differ only in the replica layout `T` (see the crate docs for what a
/// layout decides). Name it through those aliases.
#[derive(Debug)]
pub struct Cluster<T: Topology> {
    pub(crate) config: GhbaConfig,
    /// Every server, indexed by its id: one slot per id ever issued up to
    /// the highest (server ids are never reused, so a departure leaves a
    /// 360-byte hole on x86-64).
    pub(crate) mdss: IdMap<MdsId, Mds>,
    /// Every server's live filter, bit-sliced: the one copy of it,
    /// written only on `&mut` paths (the drain, the owner's creates and
    /// removes, restore, join, leave) and read by `&self` walks. It
    /// allocates the slots; the published slab follows, so a server's
    /// live and published columns share its [`Mds::slot`].
    pub(crate) live: LiveSlab,
    /// The published routing state — the bit-sliced slab of every
    /// server's published snapshot, the group/membership tables, and the
    /// per-group epochs — as an immutable [`RouteSnapshot`] behind a
    /// snapshot cell. Lookups pin one snapshot at admission and walk
    /// L1–L4 against it end to end; reconfiguration builds the successor
    /// off to the side and publishes it with one pointer swap, so a pin
    /// never waits for an edit or another pin (see [`crate::snapshot`]).
    pub(crate) routes: RouteCell,
    pub(crate) next_mds: u16,
    /// Behind a mutex so [`EntryPolicy::Random`] can draw from the one
    /// deterministic stream from `&self` (the pin-once pipeline) as well
    /// as from `&mut` paths — single-threaded replays of the same op
    /// sequence consume the stream identically either way.
    pub(crate) rng: Mutex<DetRng>,
    pub(crate) stats: ClusterStats,
    /// Namespace write shards of the pin-once pipeline: pending creates
    /// and removes recorded from `&self`, replayed into `mdss` by
    /// [`drain_concurrent`](Cluster::drain_concurrent) at the next
    /// `&mut` entry point.
    pub(crate) shards: NamespaceShards,
    /// What the walks counted that nobody has folded yet, the decayed
    /// load windows and the lifetime mask counts (see
    /// [`crate::load`]). A pin's owner adds its tally under the lock
    /// once per pin; the `&mut` entry points fold it into
    /// [`Cluster::stats`] at the same drain points, without locking; a
    /// [`load_report`](Cluster::load_report) from `&self` closes its load
    /// window under the lock (a controller samples while lookups run).
    telemetry: Mutex<Telemetry>,
    /// The attached write-ahead log, if any (see [`crate::wal`]): every
    /// shard-log drain and flush barrier is appended here before its
    /// effects apply. Boxed to keep the common (undurable) cluster
    /// layout compact; deliberately **not** cloned — a clone is an
    /// independent in-memory twin, not a second writer of the same log.
    pub(crate) wal: Option<Box<crate::wal::Wal>>,
    /// The probe-row derivation of [`published_shape`], its fastmod magic
    /// computed once: the write path (drain, replay, remove, re-homing)
    /// never divides to place a row.
    pub(crate) rows: RowDeriver,
    /// The drain's scratch: the `k` probe rows of the record being
    /// applied (and of each file a departure re-homes).
    pub(crate) row_scratch: Vec<u32>,
    topology: PhantomData<T>,
}

impl<T: Topology> Clone for Cluster<T> {
    /// Clones the cluster into an **independent** instance: the clone
    /// gets its own snapshot cell seeded with the currently published
    /// snapshot and its own (cold) plan table. Immutable storage (the
    /// slab, per-group placement) is shared structurally via `Arc` until
    /// either side's next edit copies-on-write, so the clone is cheap
    /// and the two clusters can never observe each other's subsequent
    /// reconfigurations. The clone carries what the walks counted: the
    /// unfolded tally, the load windows and the lifetime mask counts, so
    /// once both sides fold, their statistics, mask accounting and load
    /// reports agree.
    fn clone(&self) -> Self {
        // Pending `&self`-path writes are not cloned: drain them (any
        // `&mut` entry point) before cloning a cluster that executed
        // concurrent batches.
        debug_assert!(
            !self.shards.is_dirty(),
            "clone with undrained concurrent writes pending"
        );
        let mut snapshot = (*self.routes.pin()).clone();
        // Cold, not shared: one twin's walks must not answer the other's
        // plan consults.
        snapshot.plans = Arc::new(PlanTable::cold(&snapshot));
        Cluster {
            config: self.config.clone(),
            mdss: self.mdss.clone(),
            live: self.live.clone(),
            routes: route_cell(snapshot),
            next_mds: self.next_mds,
            rng: Mutex::new(self.rng.lock().expect("rng poisoned").clone()),
            stats: self.stats.clone(),
            shards: NamespaceShards::new(self.config.write_shards),
            telemetry: Mutex::new(self.telemetry().clone()),
            wal: None,
            rows: self.rows,
            row_scratch: Default::default(),
            topology: PhantomData,
        }
    }
}

impl<T: Topology> Cluster<T> {
    /// Creates an empty cluster.
    #[must_use]
    pub fn new(config: GhbaConfig) -> Self {
        let rng = DetRng::new(config.seed).fork(T::RNG_FORK);
        let shape = published_shape(&config);
        let slab = SharedShapeArray::new(shape);
        let shards = NamespaceShards::new(config.write_shards);
        Cluster {
            config,
            mdss: IdMap::new(),
            live: LiveSlab::new(shape),
            routes: route_cell(RouteSnapshot::empty(slab)),
            next_mds: 0,
            rng: Mutex::new(rng),
            stats: ClusterStats::default(),
            shards,
            telemetry: Mutex::default(),
            wal: None,
            rows: RowDeriver::new(shape),
            row_scratch: Default::default(),
            topology: PhantomData,
        }
    }

    /// Creates a cluster of `servers` MDSs joined one by one (grouped
    /// into groups of at most `config.max_group_size` with balanced
    /// replica placement under G-HBA; fully mirrored under HBA). The
    /// build-time reconfiguration traffic is *not* counted in the stats.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    #[must_use]
    pub fn with_servers(config: GhbaConfig, servers: usize) -> Self {
        assert!(servers > 0, "cluster needs at least one server");
        let mut cluster = Cluster::new(config);
        for _ in 0..servers {
            cluster.add_mds();
        }
        cluster.reset_stats();
        cluster
    }

    /// The current membership epoch. Advanced at least once by every
    /// reconfiguration path (join, leave, fail-stop, split, merge,
    /// rebalance — compound operations advance it per internal step, so
    /// this is an invalidation fence, not an operation counter); derived
    /// routing state cached under an older epoch is stale and must be
    /// rebuilt.
    #[must_use]
    pub fn membership_epoch(&self) -> MembershipEpoch {
        self.routes.pin().epoch
    }

    /// L2/L3 mask-cache accounting over the cluster's whole life (not
    /// cleared by [`reset_stats`](Cluster::reset_stats)) — a hit is a
    /// walk that read a plan some walk already built on its snapshot, a
    /// miss the walk that built it. Consults recorded on `&self` walks
    /// but not yet drained are counted, so this is exact at any moment
    /// without a drain barrier.
    #[must_use]
    pub fn mask_cache_stats(&self) -> crate::load::MaskCacheStats {
        self.telemetry().mask_cache_stats()
    }

    /// Closes the open telemetry window and returns a
    /// [`LoadReport`](crate::load::LoadReport)
    /// snapshot: one row per live group under the currently published
    /// snapshot (HBA has no groups: every server reports under the
    /// pseudo-group `GroupId(0)`, one row whose share is 1.0 by
    /// construction), rates window-decayed across successive calls (see
    /// [`crate::load`]). Works from `&self` — a controller samples on
    /// its own cadence while lookups and reconfigurations run — and
    /// deliberately does **not** drain the pending write shards or fold
    /// the pending statistics; those still fold at the owner's next
    /// `&mut` entry.
    #[must_use]
    pub fn load_report(&self) -> crate::load::LoadReport {
        let snap = self.routes.pin();
        let shape = T::load_shape(self, &snap);
        self.telemetry().load_report(snap.epoch, &shape)
    }

    /// The telemetry, locked. A poisoned lock is taken as it is: the
    /// tally is plain sums, so a panic under the lock leaves at worst
    /// one pin's counts partly added, and every other count stands.
    fn telemetry(&self) -> MutexGuard<'_, Telemetry> {
        self.telemetry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &GhbaConfig {
        &self.config
    }

    /// Number of metadata servers.
    #[must_use]
    pub fn server_count(&self) -> usize {
        self.mdss.len()
    }

    /// All server ids, ascending.
    #[must_use]
    pub fn server_ids(&self) -> Vec<MdsId> {
        self.mdss.keys().copied().collect()
    }

    /// Borrow a server.
    #[must_use]
    pub fn mds(&self, id: MdsId) -> Option<&Mds> {
        self.mdss.get(&id)
    }

    /// Lifetime statistics.
    #[must_use]
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// Clears all statistics (e.g. after warm-up). Pending concurrent
    /// writes are drained (replayed into the stores) first, so the reset
    /// discards their accounting but never their effects.
    pub fn reset_stats(&mut self) {
        self.maybe_drain();
        self.stats = ClusterStats::default();
    }

    /// Total files homed across the cluster.
    #[must_use]
    pub fn total_files(&self) -> usize {
        self.mdss.values().map(Mds::file_count).sum()
    }

    /// Per-MDS filter memory (own filter + LRU + held replicas) in bytes —
    /// the Table 5 quantity.
    #[must_use]
    pub fn filter_memory_bytes(&self, id: MdsId) -> usize {
        let held = T::held_replicas(self, &self.routes.pin(), id);
        self.mdss
            .get(&id)
            .map_or(0, |mds| mds.filter_memory_bytes(held))
    }

    /// `id`'s published filter as its replicas hold it: its column in the
    /// current snapshot's slab, copied out (O(m); nothing keeps the
    /// copy). `None` for an unknown server.
    #[must_use]
    pub fn published_filter(&self, id: MdsId) -> Option<BloomFilter> {
        self.routes.pin().slab.extract(id)
    }

    /// The servers whose published filter answers positive for `fp`,
    /// ascending — one probe of the current snapshot's slab, the answer a
    /// group probe asks of a replica.
    #[must_use]
    pub fn published_positives(&self, fp: &Fingerprint) -> Vec<MdsId> {
        let mut positives = self.routes.pin().slab.query_fp(fp).candidates().to_vec();
        positives.sort_unstable();
        positives
    }

    /// Hamming distance between `id`'s live filter and its published
    /// snapshot — Eq. §3.4's update trigger. Exact, and read only where
    /// the two can differ: the blocks of rows the server's dirty-block
    /// bitmap marks, so a server that changed little pays little. `None`
    /// for an unknown server.
    #[must_use]
    pub fn drift_bits(&self, id: MdsId) -> Option<usize> {
        let mds = self.mdss.get(&id)?;
        let snap = self.routes.pin();
        debug_assert_eq!(
            snap.slab.slot_of(id),
            Some(mds.slot()),
            "{id}'s columns share a slot"
        );
        Some(
            snap.slab
                .column_distance(&self.live, mds.slot(), mds.dirty_blocks()),
        )
    }

    /// Resolves the serving MDS for op `op_index` of a batch under
    /// `policy` (see [`EntryPolicy`]) among `ids` — this cluster's
    /// [`server_ids`](Cluster::server_ids), listed once per batch.
    /// Callable from `&self`: the random policy draws from the
    /// mutex-guarded deterministic stream.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no servers or a pinned server is absent.
    pub(crate) fn entry_for(&self, ids: &[MdsId], policy: EntryPolicy, op_index: usize) -> MdsId {
        policy
            .resolve_deterministic(ids, op_index)
            .unwrap_or_else(|| {
                let mut rng = self.rng.lock().expect("rng poisoned");
                *rng.choose(ids).expect("cluster is never empty here")
            })
    }

    /// Creates metadata for `path` at a specific home (used by tests and
    /// by re-homing during departures).
    ///
    /// # Panics
    ///
    /// Panics if `home` is not a member of the cluster.
    pub fn create_file_at(&mut self, path: &str, home: MdsId) {
        self.create_drained(&PathKey::new(path), home);
    }

    /// The owner's create: the pin-once pipeline's write record, drained
    /// at once — so it reaches the WAL, when one is attached, like any
    /// drain — then the gated publish of its home.
    ///
    /// # Panics
    ///
    /// Panics if `home` is not a member of the cluster (before anything
    /// is recorded or logged).
    pub(crate) fn create_drained(&mut self, key: &PathKey, home: MdsId) {
        assert!(self.mdss.contains_key(&home), "home must exist");
        self.maybe_drain();
        self.apply_create_shared(key, home);
        self.drain_concurrent();
        self.maybe_publish(home);
    }

    /// The owner's remove: [`create_drained`](Self::create_drained)'s
    /// epilogue around the `&self` remove, whose home the live slab
    /// locates.
    pub(crate) fn remove_drained(&mut self, key: &PathKey) -> Option<MdsId> {
        self.maybe_drain();
        let home = self.apply_remove_shared(key, &mut WalkArena::default())?;
        self.drain_concurrent();
        self.maybe_publish(home);
        Some(home)
    }

    /// Ground-truth home of `path` (authoritative store sweep, no filter
    /// involvement) — for verification and tests.
    #[must_use]
    pub fn true_home(&self, path: &str) -> Option<MdsId> {
        self.mdss
            .iter()
            .find(|(_, mds)| mds.stores(path))
            .map(|(&id, _)| id)
    }

    /// The home a remove of `path` targets, found through the live slab:
    /// the path's `k` rows are derived once — into `rows`, the caller's
    /// scratch, through the cluster's precomputed fastmod — and ANDed
    /// over the slab once (into `anded`), and only the servers whose bit
    /// survives are asked for a keyed store lookup. Bloom filters have no
    /// false negatives, so the lowest id among them that stores the path
    /// is [`true_home`](Cluster::true_home)'s answer — for `k` row loads
    /// and about one store lookup, with no allocation, division or
    /// byte-wise hash. A path stored at two homes is removed from the
    /// **lowest** id first (a walk that sweeps both reports the highest;
    /// see [`walk_pinned`](Self::walk_pinned)).
    fn locate_home(
        &self,
        path: &[u8],
        fp: &Fingerprint,
        rows: &mut Vec<u32>,
        anded: &mut Vec<u64>,
    ) -> Option<MdsId> {
        rows.clear();
        self.rows.rows_into(fp, rows);
        self.live.and_rows(row_indices(rows), anded);
        let home = self
            .live
            .ids_in(anded)
            .filter(|id| self.mdss[id].stores_fp(path, fp))
            .min();
        debug_assert_eq!(
            home,
            self.true_home(core::str::from_utf8(path).expect("a path is UTF-8")),
            "live filter missed a stored path"
        );
        home
    }

    /// Looks `path` up starting from a chosen entry MDS, walking the
    /// hierarchy of §2.3 — L1 → L2 → L3 → L4 under G-HBA; L1 → full
    /// mirror → broadcast under HBA — against one pinned routing
    /// snapshot. A found home fills the entry server's L1 LRU array, and
    /// level, latency and false-hit statistics are in
    /// [`stats`](Cluster::stats) when the call returns.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is not a member of the cluster.
    pub fn lookup_from(&mut self, entry: MdsId, path: &str) -> QueryOutcome {
        let mut outcomes = self.lookup_items(&[(entry, path.as_bytes(), Fingerprint::of(path))]);
        outcomes.pop().expect("one query, one outcome")
    }

    /// Looks `path` up from `entry` through a **shared reference**: the
    /// same pinned walk as [`lookup_from`](Cluster::lookup_from)
    /// without its `&mut` epilogue. Level and latency statistics are
    /// added to the cluster's unfolded tally once, under its lock
    /// (folded into [`stats`](Cluster::stats) at the next `&mut` drain
    /// point), pending same-era writes are observed through the
    /// namespace-shard overlay, and **no L1 cache fill is performed** (the walk is
    /// read-only on `Mds` state) — so any number of threads may call it
    /// while a reconfiguration handle publishes successor snapshots and
    /// other threads execute concurrent write batches.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is not a member of the cluster.
    #[must_use]
    pub fn lookup_concurrent(&self, entry: MdsId, path: &str) -> QueryOutcome {
        let snap = self.routes.pin();
        let mut outcomes =
            self.lookup_run(&snap, &[(entry, path.as_bytes(), Fingerprint::of(path))]);
        outcomes.pop().expect("one query, one outcome")
    }

    /// Whether a pin on `slab` reads live verdicts from the live slab:
    /// yes when some server is dirty — its live column is not its
    /// published one. Otherwise every server's live column *is* its
    /// published column, at the same slot (every server has one), and the
    /// published row-AND answers every live probe. One pass over the
    /// servers; no id is hashed. A pure function of `(pin, cluster)`: no
    /// `Mds` mutates and no column is published while the arena's owner
    /// borrows the cluster.
    fn reads_live(&self, slab: &SharedShapeArray<MdsId>) -> bool {
        debug_assert!(
            slab.len() == self.mdss.len()
                && slab
                    .slot_ids()
                    .all(|(slot, id)| self.mdss.get(&id).is_some_and(|mds| mds.slot() == slot)),
            "the published slab is not every server at its live slot"
        );
        !self.mdss.values().all(Mds::is_clean)
    }

    /// The modelled cost of `id`'s probe of the `held` replicas it holds
    /// and its own filter: `resident`, the plan's all-in-memory cost —
    /// unless a memory budget spills some. How many spill follows the
    /// server's charges, which every drain can move, so it is priced from
    /// the server at each use.
    fn array_probe(&self, id: MdsId, held: usize, resident: Duration) -> Duration {
        if self.config.memory_per_mds.is_none() {
            return resident;
        }
        let spilled = held - self.mdss[&id].resident_replicas(held);
        self.config.latency.array_probe(held + 1, spilled)
    }

    /// The L1 → L2 → \[L3\] → L4 escalation of walked item `at` against a
    /// pinned snapshot, from `&self` — **the** walk: every read entry of
    /// every scheme, `&mut` or `&self`, single or batched, resolves
    /// through it. What depends only on the snapshot comes from its plan
    /// table (the topology builds the L2 plan and, iff the layout has
    /// groups, the snapshot the L3 plan, each once per snapshot); the
    /// item's probe rows
    /// serve every level: one unmasked row-AND of the slab that L2 and L3
    /// each read under their own mask — `(mask ∧ live) ∧ rows =
    /// mask ∧ (live ∧ rows)` — and every live-filter probe. The walk
    /// reads `Mds` state only; what a finished walk records is decided
    /// per occurrence by
    /// [`lookup_fused_pinned`](Self::lookup_fused_pinned)'s splice.
    ///
    /// # What a walk reads
    ///
    /// Its published row-AND, which [`walk_chunk`](Self::walk_chunk)
    /// computed an item ahead from `k` rows it prefetched two items
    /// ahead, the L1 LRU array if any, its
    /// entry's L2 plan slot and, past L2, its group's L3 slot — each a
    /// bounds-checked index and one `OnceLock::get` into the pinned
    /// snapshot's [`PlanTable`], once the first walk needing it built it
    /// — and one live verdict per server it asks at L2 (the entry), L3
    /// (the group's members, at the slots their plan lists) and L4
    /// (everyone). Every verdict is one bit of
    /// one word: the server's [`Mds::slot`] of the published row-AND when
    /// the pin has only clean servers, of the live slab's
    /// row-AND — `k` more rows, prefetched beside the published ones and
    /// ANDed an item ahead too — otherwise. No server's own filter word
    /// is loaded, and L4 visits only the servers whose bit survived (plus
    /// a pending create's home), in slot order, keeping the highest id
    /// that stores the path. A verification and each store check of the
    /// L4 sweep reach their server by index into the cluster's [`IdMap`]
    /// — a bounds check, no tree search (the drain reaches each record's
    /// home the same way) — and read the tag and the store bucket of the
    /// slot the path is homed at, which the same one-ahead pass
    /// prefetched for every server whose bit is set.
    /// On `read_hot`, where every server is clean, a walk went from ≈ 680
    /// cycles to ≈ 560 when clean servers started answering from the
    /// published row-AND (the entry probe ≈ 68 → 43, the L3
    /// member probes ≈ 183 → 67, the L4 sweep ≈ 1,520 → 380; each figure
    /// includes ≈ 40 cycles of timer). On `write_churn`, where no server
    /// stays clean, the L4 sweep loaded 48 cold live-filter words; it now
    /// reads the set bits of the live row-AND — ≈ 430 → ≈ 115 ns a sweep
    /// (averages of 200,000 sweeps, ≈ 40–50 ns of timer each).
    ///
    /// # A path stored twice
    ///
    /// Nothing refuses a create of a path another server already stores
    /// (a second `Create` from another entry makes one), so a path can
    /// have two homes. A level reports a home only when it has exactly
    /// one candidate; a walk that reaches L4 with both copies visible
    /// reports the **highest-id** server that stores it
    /// ([`locate_home`](Self::locate_home), the remove's locator, takes
    /// the lowest first).
    fn walk_pinned(
        &self,
        snap: &RouteSnapshot,
        (entry, path, fp): WalkItem<'_>,
        anded: &[u64],
        verdicts: &[u64],
    ) -> Walked {
        let model = &self.config.latency;

        let entry_mds = self.mdss.get(&entry).expect("unknown entry MDS");
        let l2_slot = snap.plans.l2(entry);
        let planned = l2_slot.get();
        let gid = planned.map_or_else(|| T::walk_group(snap, entry), |l2| l2.gid);

        let overlay = self.shards.overlay_keyed(path, &fp);
        let mut latency = model.dispatch;
        let mut messages = 0u32;
        let mut falses = [0u64; 4];
        let mut consults = [None; 2];
        // Forwards the query to a level's unique candidate and verifies
        // against its store, accounting the round trip and the metadata
        // access; `None` on a false positive.
        let verify = |candidate: MdsId, latency: &mut Duration, messages: &mut u32| {
            if candidate != entry {
                *messages += 2;
                *latency += model.unicast_rtt();
            }
            let mds = self.mdss.get(&candidate)?;
            *latency += mds.metadata_access_cost(model);
            overlay.stores(mds, path, &fp).then_some(candidate)
        };
        let done =
            |home: Option<MdsId>, level, latency: Duration, messages, falses, consults| Walked {
                outcome: QueryOutcome {
                    home,
                    level,
                    latency: latency.mul_f64(self.config.contention_factor(messages)),
                    messages,
                    entry,
                    epoch: snap.epoch,
                },
                gid,
                falses,
                consults,
            };

        // ---- L1: the entry server's LRU Bloom filter array. ----
        if let Some(hit) = entry_mds.lru().map(|lru| lru.query_fp(&fp)) {
            latency += model.memory_probe;
            if let Hit::Unique(candidate) = hit {
                if let Some(home) = verify(candidate, &mut latency, &mut messages) {
                    return done(
                        Some(home),
                        QueryLevel::L1Lru,
                        latency,
                        messages,
                        falses,
                        consults,
                    );
                }
                falses[0] += 1;
            }
        }

        // ---- L2: the entry's own array (its held replicas — θ of them
        // under G-HBA, all N − 1 under HBA) plus its live filter. ----
        let (l2, built) = match planned {
            Some(l2) => (&**l2, false),
            None => plan(l2_slot, || T::l2(snap, entry, gid, model)),
        };
        consults[0] = Some(!built);
        latency += self.array_probe(entry, l2.held, l2.probe);
        // Whether `id`'s live filter answers positive, overlaid with this
        // era's pending writes: a pending create at `id` probes positive
        // even though the real filter has not been touched yet. A pending
        // *remove* cannot be reflected (the counting filter only
        // decrements at drain), so a stale positive survives until the
        // drain — it fails verification and costs accounting, never a
        // wrong home.
        let probes_live = |id: MdsId, slot: usize| {
            if overlay == OverlayEntry::Created(id) {
                return true;
            }
            let positive = verdicts[slot / 64] >> (slot % 64) & 1 == 1;
            debug_assert_eq!(
                positive,
                self.mdss[&id].counts().contains_fp(&fp),
                "{id}'s verdict differs from its counting filter"
            );
            positive
        };
        let (mut positives, mut candidate) = snap.slab.positives_under(anded, &l2.mask);
        let entry_live = probes_live(entry, entry_mds.slot());
        if entry_live {
            positives += 1;
            candidate = Some(entry);
        }
        if let (1, Some(candidate)) = (positives, candidate) {
            if let Some(home) = verify(candidate, &mut latency, &mut messages) {
                return done(
                    Some(home),
                    QueryLevel::L2Segment,
                    latency,
                    messages,
                    falses,
                    consults,
                );
            }
            falses[1] += 1;
        }

        // ---- L3: multicast within the entry's group, if any. ----
        let group = snap.plans.l3(gid).map(|slot| {
            let (l3, built) = plan(slot, || snap.build_l3(gid, model));
            consults[1] = Some(!built);
            l3
        });
        if let Some(l3) = group {
            let peer_count = l3.members.len().saturating_sub(1);
            // Peers probe their held replicas in parallel: pay the slowest.
            let worst_probe = l3
                .members
                .iter()
                .filter(|member| member.id != entry)
                .map(|member| self.array_probe(member.id, member.held, member.probe))
                .max()
                .unwrap_or(Duration::ZERO);
            messages += 2 * peer_count as u32;
            latency += model.multicast_rtt(peer_count) + worst_probe;
            let (mut positives, mut candidate) = snap.slab.positives_under(anded, &l3.mask);
            for member in &l3.members {
                // The entry's own verdict stands from L2.
                let live = if member.id == entry {
                    entry_live
                } else {
                    probes_live(member.id, member.slot)
                };
                if live {
                    positives += 1;
                    candidate = Some(member.id);
                }
            }
            if let (1, Some(candidate)) = (positives, candidate) {
                if let Some(home) = verify(candidate, &mut latency, &mut messages) {
                    return done(
                        Some(home),
                        QueryLevel::L3Group,
                        latency,
                        messages,
                        falses,
                        consults,
                    );
                }
                falses[2] += 1;
            }
        }

        // ---- L4: system-wide multicast; authoritative. ----
        let others = self.server_count().saturating_sub(1);
        messages += 2 * others as u32;
        latency += model.multicast_rtt(others) + model.memory_probe;
        // Every server whose verdict survived, and a pending create's
        // home: each pays a disk check, and the highest id that stores
        // the path is the answer.
        let pending = match overlay {
            OverlayEntry::Created(home) => Some(home),
            _ => None,
        };
        debug_assert!(
            self.mdss.values().all(|mds| {
                let slot = mds.slot();
                let bit = verdicts[slot / 64] >> (slot % 64) & 1 == 1;
                bit == mds.counts().contains_fp(&fp)
            }),
            "a verdict of the L4 sweep differs from its counting filter"
        );
        let mut found: Option<MdsId> = None;
        let mut verify_cost = Duration::ZERO;
        let positives = self.live.ids_in(verdicts).filter(|&id| Some(id) != pending);
        for id in positives.chain(pending) {
            let mds = &self.mdss[&id];
            verify_cost = verify_cost.max(mds.metadata_access_cost(model));
            if overlay.stores(mds, path, &fp) {
                found = found.max(Some(id));
            } else {
                falses[3] += 1;
            }
        }
        latency += verify_cost;
        let level = match found {
            Some(_) => QueryLevel::L4Global,
            None => QueryLevel::Nonexistent,
        };
        done(found, level, latency, messages, falses, consults)
    }

    /// Walks the distinct items of a run: derives every item's `k` probe
    /// rows up front through the cluster's [`RowDeriver`] (the write
    /// path's: its fastmod magic computed once, no hardware division),
    /// then runs [`walk_pinned`](Self::walk_pinned) per item
    /// against `arena`'s plans, with the slab rows of the item two ahead
    /// prefetched and the row-ANDs of the item one ahead computed
    /// ([`and_ahead`](Self::and_ahead)): the walk is bound by its
    /// scattered reads — rows, then the bucket its verification checks —
    /// and a host that shares its cache decides from moment to moment how
    /// many of them miss; asking early takes most of that out of an
    /// item's time. Those `k` rows — and, when the pin reads live, the
    /// same rows of the live slab — are all a walk reads from filters:
    /// every live verdict comes out of their AND (see
    /// [`walk_pinned`](Self::walk_pinned)'s *What a walk reads*).
    fn walk_chunk(
        &self,
        snap: &RouteSnapshot,
        items: &[WalkItem<'_>],
        arena: &mut WalkArena,
    ) -> Vec<Walked> {
        let k = snap.slab.shape().hashes as usize;
        arena.rows.clear();
        arena.rows.reserve(items.len() * k);
        for (_, _, fp) in items {
            self.rows.rows_into(fp, &mut arena.rows);
        }
        let reads_live = *arena
            .reads_live
            .get_or_insert_with(|| self.reads_live(&snap.slab));
        let WalkArena {
            rows, ands, ahead, ..
        } = arena;
        let rows_of = |at: usize| &rows[at * k..(at + 1) * k];
        if let Some((_, _, fp)) = items.first() {
            self.and_ahead(snap, fp, rows_of(0), reads_live, ahead);
        }
        let mut out = Vec::with_capacity(items.len());
        for (at, &item) in items.iter().enumerate() {
            if let Some(later) = rows.get((at + 2) * k..(at + 3) * k) {
                snap.slab.prefetch_rows(later);
                if reads_live {
                    self.live.prefetch_rows(later);
                }
            }
            core::mem::swap(ands, ahead);
            if let Some((_, _, fp)) = items.get(at + 1) {
                self.and_ahead(snap, fp, rows_of(at + 1), reads_live, ahead);
            }
            let verdicts = ands.verdicts(reads_live);
            out.push(self.walk_pinned(snap, item, &ands.published, verdicts));
        }
        out
    }

    /// An item's row-ANDs, computed an item before its walk: `rows` over
    /// the pinned slab, and over the live slab when the pin reads live —
    /// the word its verdicts come from. Every server that word names is
    /// one the walk may verify at, so each one's store is asked to
    /// prefetch the tag and bucket of the slot `fp` is homed at: the
    /// verification then finds its lines in cache.
    fn and_ahead(
        &self,
        snap: &RouteSnapshot,
        fp: &Fingerprint,
        rows: &[u32],
        reads_live: bool,
        ands: &mut RowAnds,
    ) {
        snap.slab.and_rows(row_indices(rows), &mut ands.published);
        if reads_live {
            self.live.and_rows(row_indices(rows), &mut ands.live);
        }
        for id in self.live.ids_in(ands.verdicts(reads_live)) {
            self.mdss[&id].store().prefetch(fp);
        }
    }

    /// Resolves a fused run of lookups against one pinned snapshot from
    /// `&self`, on the calling thread — the read engine of every entry:
    /// `(entry, path)` dedup ([`resolve_unique`]; the walk is a pure
    /// function of the pair under the pin, so a Zipf-head run walks each
    /// distinct pair once), one
    /// [`walk_chunk`](Self::walk_chunk) over the distinct items through
    /// `arena`'s plans, which earlier runs of the same pin already
    /// filled, then a stream-order splice that counts level, latency,
    /// false-hit and per-group load statistics **per occurrence** —
    /// duplicates are real traffic, and the group controller must see the
    /// flash crowd it exists to split — and mask consults per walk into
    /// `arena`'s [`WalkTally`]. Nothing reaches the cluster's tally
    /// here: the arena's owner adds the arena's in once
    /// ([`absorb_walks`](Self::absorb_walks)), so a run whose walk panics
    /// records nothing.
    ///
    /// `arena` must have served only runs of this cluster under `snap`.
    pub(crate) fn lookup_fused_pinned(
        &self,
        snap: &RouteSnapshot,
        items: &[WalkItem<'_>],
        arena: &mut WalkArena,
    ) -> Vec<QueryOutcome> {
        let (resolved, assign) = if items.len() == 1 {
            (self.walk_chunk(snap, items, arena), vec![0])
        } else {
            let (uniques, assign) = resolve_unique(items, WalkKey::of);
            let distinct: Vec<WalkItem<'_>> =
                uniques.iter().map(|&first| items[first as usize]).collect();
            (self.walk_chunk(snap, &distinct, arena), assign)
        };
        let tally = &mut arena.tally;
        for walked in &resolved {
            for cached in walked.consults.into_iter().flatten() {
                tally.mask(walked.gid, cached);
            }
        }
        assign
            .iter()
            .map(|&slot| {
                let Walked {
                    outcome,
                    gid,
                    falses,
                    ..
                } = &resolved[slot as usize];
                tally.lookup(*gid, outcome.entry, outcome.level, outcome.latency, *falses);
                outcome.clone()
            })
            .collect()
    }

    /// Adds what `arena`'s runs counted to the cluster's unfolded tally:
    /// the one hand-over per pin, one lock.
    pub(crate) fn absorb_walks(&self, arena: &WalkArena) {
        self.telemetry().absorb(&arena.tally);
    }

    /// One fused run under its own arena, absorbed on return: the entries
    /// whose pin lasts one run (`lookup_concurrent`, and the `&mut`
    /// entry, whose writes mutate `Mds` state between runs).
    fn lookup_run(&self, snap: &RouteSnapshot, items: &[WalkItem<'_>]) -> Vec<QueryOutcome> {
        let mut arena = WalkArena::default();
        let outcomes = self.lookup_fused_pinned(snap, items, &mut arena);
        self.absorb_walks(&arena);
        outcomes
    }

    /// Records a pending create of `key` at `home` from `&self` (the
    /// pin-once pipeline's write primitive). The real store and live
    /// filter are touched at drain time.
    pub(crate) fn apply_create_shared(&self, key: &PathKey, home: MdsId) {
        debug_assert!(self.mdss.contains_key(&home), "home must exist");
        self.shards.record_create(key, home);
    }

    /// Records a pending removal of `key` from `&self`, returning the
    /// home it will be removed from: the overlay answers for paths this
    /// era already wrote, [`locate_home`](Self::locate_home) for the rest
    /// (safe from `&self` — `mdss` only mutates under `&mut`, which cannot
    /// run concurrently), with the batch's arena lending the row scratch
    /// no run is using.
    pub(crate) fn apply_remove_shared(
        &self,
        key: &PathKey,
        arena: &mut WalkArena,
    ) -> Option<MdsId> {
        let home = match self.shards.overlay(key) {
            OverlayEntry::Created(home) => home,
            OverlayEntry::Removed => return None,
            OverlayEntry::Untracked => self.locate_home(
                key.compact_path().as_bytes(),
                key.fingerprint(),
                &mut arena.rows,
                &mut arena.ands.live,
            )?,
        };
        self.shards.record_remove(key, home);
        Some(home)
    }

    /// Folds the pending statistics and drains pending writes if any
    /// exist: the cheap gate every `&mut` entry point passes through (an
    /// unlocked look at the tally, one atomic load).
    pub(crate) fn maybe_drain(&mut self) {
        self.fold_stats();
        if self.shards.is_dirty() {
            self.drain_concurrent();
        }
    }

    /// Moves what the walks counted into [`stats`](Cluster::stats) and
    /// the lifetime mask counts: `&mut`, so the tally is read through
    /// `Mutex::get_mut`, with no lock taken.
    fn fold_stats(&mut self) {
        // Poison is taken as it is: see `telemetry`.
        let telemetry = self.telemetry.get_mut();
        let telemetry = telemetry.unwrap_or_else(PoisonError::into_inner);
        telemetry.fold_into(&mut self.stats);
    }

    /// Reconciles everything the `&self` pipeline deferred: folds the
    /// pending statistics into [`stats`](Cluster::stats), takes the
    /// namespace shards' ordered write logs, appends them to the WAL if
    /// one is attached, and replays them against the authoritative
    /// stores and live filters (shard-index order; per-path order is
    /// total because a path always hashes to the same shard). It
    /// publishes nothing: the replayed drift reaches the published
    /// columns at the next `push_update`/`flush_all_updates`, like any
    /// owner-side write's.
    ///
    /// Runs automatically at every `&mut` entry point (lookups, writes,
    /// updates, reconfigurations, stat resets); call it explicitly
    /// before inspecting the stores through `&self` views such as
    /// [`true_home`](Cluster::true_home) after concurrent batches.
    /// Returns the number of write records it replayed.
    pub fn drain_concurrent(&mut self) -> u64 {
        self.fold_stats();
        if !self.shards.is_dirty() {
            return 0;
        }
        let records = self.shards.take_all();
        let replayed = records.len() as u64;
        // Write-ahead: the drained batch is logged (and, per policy,
        // synced) before any of its effects publish — recovery can then
        // never observe an effect the log is missing.
        if let Some(wal) = self.wal.as_mut() {
            wal.append_drain(&records)
                .expect("WAL append failed: cannot publish unlogged effects");
        }
        self.apply_write_records(records);
        self.maybe_checkpoint();
        replayed
    }

    /// Replays drained write records against the authoritative stores
    /// and live filters (shard-index order; per-path order is total
    /// because a path always hashes to the same shard). Each record's
    /// probe rows are derived once, division-free, and serve its home's
    /// counters and live column; each record is consumed: a create's
    /// [`CompactPath`](crate::CompactPath) moves into its store's bucket,
    /// a remove's is dropped — a short path is never allocated on the
    /// way, and a long one's box made when the write was recorded is the
    /// only one it gets.
    pub(crate) fn apply_write_records(&mut self, records: Vec<WriteRecord>) {
        let rows = &mut self.row_scratch;
        for WriteRecord { path, fp, kind } in records {
            rows.clear();
            self.rows.rows_into(&fp, rows);
            match kind {
                WriteKind::Create(home) => {
                    self.mdss
                        .get_mut(&home)
                        .expect("pending create targets a live home")
                        .create_local_rows(&mut self.live, path, &fp, row_indices(rows));
                }
                WriteKind::Remove(home) => {
                    // The home may have left since the record was
                    // appended; its store went with it.
                    if let Some(mds) = self.mdss.get_mut(&home) {
                        mds.remove_local_rows(
                            &mut self.live,
                            path.as_bytes(),
                            &fp,
                            row_indices(rows),
                        );
                    }
                }
            }
        }
    }

    /// Pending concurrent write records awaiting the next
    /// [`drain_concurrent`](Cluster::drain_concurrent) — the
    /// namespace shard logs' combined length. Zero (lock-free) when the
    /// cluster is clean. Network replicas report this through their
    /// drain acknowledgements so tests can observe the background
    /// reconciler keeping the logs bounded.
    #[must_use]
    pub fn pending_concurrent_writes(&self) -> u64 {
        self.shards.pending_record_count()
    }

    /// Every `&mut` read entry: drain, pin one snapshot, run the pinned
    /// walk, then apply the one thing the `&self` entries cannot — the
    /// L1 LRU fill, per occurrence in stream order — and fold the
    /// pending statistics so [`stats`](Cluster::stats) is current when
    /// the call returns.
    pub(crate) fn lookup_items(&mut self, items: &[WalkItem<'_>]) -> Vec<QueryOutcome> {
        self.maybe_drain();
        let snap = self.routes.pin();
        let outcomes = self.lookup_run(&snap, items);
        for (&(entry, _, fp), outcome) in items.iter().zip(&outcomes) {
            if let Some(home) = outcome.home {
                if let Some(lru) = self.mdss.get_mut(&entry).and_then(Mds::lru_mut) {
                    lru.record_fp(&fp, home);
                }
            }
        }
        self.fold_stats();
        outcomes
    }

    /// Checks every structural invariant of the cluster; returns a
    /// description of the first violation.
    ///
    /// Shared by both layouts (checked first): the two bit-sliced slabs
    /// track exactly the live servers, each server's live column is
    /// exactly what its counters say, and its published column differs
    /// from it only where the server's dirty-block bitmap says it may
    /// (the walk's live verdicts and every publish depend on it;
    /// invariants 7, 9 and 10 below).
    ///
    /// The grouped layout adds the properties §2.2 and §3.1–3.2 argue
    /// for:
    /// 1. every server belongs to exactly one group, consistently indexed;
    /// 2. no group exceeds `M` members;
    /// 3. **mirror**: each group stores replicas of exactly the servers
    ///    outside it, so group replicas + member filters cover the system;
    /// 4. every replica's holder is a member of that group;
    /// 5. replica load within each group is balanced within one replica;
    /// 6. the IDBFA locates every replica (its candidates include the true
    ///    holder — counting filters have no false negatives);
    /// 7. **live == counters, published ≈ live** (both layouts): a
    ///    server's live column is its counting filter's projection (bit
    ///    set ⇔ counter > 0), and its published column equals its live
    ///    one outside the blocks of rows its dirty-block bitmap marks.
    ///    Only the drain and the owner's writes move a live column (each
    ///    mutation keeps it exact and marks what it flipped), and only
    ///    `push_update` / `flush_all_updates` (a masked copy of the marked
    ///    blocks), membership changes and checkpoint restore (every
    ///    column in one bulk load, every block of a dirty server marked)
    ///    write a published column, so this holds from `&self` with
    ///    undrained concurrent writes pending too. O(m) per server;
    /// 8. **no stale plan** (both layouts, checked last): every filled
    ///    slot of the pinned snapshot's plan table equals the plan built
    ///    afresh from that snapshot — an epoch bump a reconfiguration
    ///    path missed, or a plan carried across an edit that moved it,
    ///    shows up here, not as a wrong candidate set in a walk — and no
    ///    departed server or dissolved group has one;
    /// 9. **clean == published** (both layouts, checked with 7): a clean
    ///    server's live column equals its published column bit for bit
    ///    ([`Mds::is_clean`]) — a pin of clean servers answers every live
    ///    probe from the published slab. O(m) per clean server;
    /// 10. **one slot** (both layouts, checked first): every server's
    ///     live and published columns sit at one slot of both
    ///     slabs — a misaligned column is reported, not tolerated.
    pub fn check_invariants(&self) -> Result<(), String> {
        let snap = self.routes.pin();
        for (slab, name) in [(&*snap.slab, "published"), (&self.live, "live")] {
            let mut slab_ids: Vec<MdsId> = slab.ids().collect();
            slab_ids.sort_unstable();
            if slab_ids != self.server_ids() {
                return Err(format!(
                    "{name} slab tracks {} servers, cluster has {}",
                    slab_ids.len(),
                    self.mdss.len()
                ));
            }
        }
        for (&id, mds) in &self.mdss {
            let slot = mds.slot();
            for (slab, name) in [(&*snap.slab, "published"), (&self.live, "live")] {
                if slab.slot_of(id) != Some(slot) {
                    return Err(format!(
                        "{id}'s {name} column is at slot {:?}, not its slot {slot}",
                        slab.slot_of(id)
                    ));
                }
            }
            let live = self.live.extract(id).expect("checked above");
            if !mds.counts().projects_to(&live) {
                return Err(format!(
                    "{id}'s live column is not its counters' projection"
                ));
            }
            let unmarked: Vec<u64> = mds.dirty_blocks().iter().map(|&blocks| !blocks).collect();
            if snap.slab.column_distance(&self.live, slot, &unmarked) != 0 {
                return Err(format!(
                    "{id}'s published column differs from its live one outside its dirty blocks"
                ));
            }
            if mds.is_clean()
                && snap
                    .slab
                    .column_distance(&self.live, slot, mds.dirty_blocks())
                    != 0
            {
                return Err(format!("clean {id}'s live column is not its published"));
            }
        }
        T::check_layout(self, &snap)?;
        let model = &self.config.latency;
        for (id, planned) in snap.plans.l2_plans() {
            if !self.mdss.contains_key(&id) {
                return Err(format!("departed {id} still has an L2 plan"));
            }
            if **planned != T::l2(&snap, id, T::walk_group(&snap, id), model) {
                return Err(format!("{id}'s L2 plan is stale"));
            }
        }
        for (gid, planned) in snap.plans.l3_plans() {
            if snap.group(gid).is_none() {
                return Err(format!("dissolved {gid} still has an L3 plan"));
            }
            if **planned != snap.build_l3(gid, model) {
                return Err(format!("{gid}'s L3 plan is stale"));
            }
        }
        Ok(())
    }

    /// The group a server belongs to under the currently published
    /// snapshot; `None` under HBA, whose layout has no groups.
    #[must_use]
    pub fn group_of(&self, id: MdsId) -> Option<GroupId> {
        self.routes.pin().group_of(id)
    }
}

impl GhbaCluster {
    /// The configuration version of `gid` under the currently published
    /// snapshot (default epoch for groups never touched — including
    /// groups that do not exist).
    #[must_use]
    pub fn group_epoch(&self, gid: GroupId) -> GroupEpoch {
        self.routes.pin().group_epoch(gid)
    }

    /// A cloneable, thread-safe handle that publishes group
    /// reconfigurations — rebalances, splits, merges — through the
    /// snapshot cell **concurrently with lookups** on other threads.
    /// Handle-driven operations are pure routing edits (they move
    /// replica *placement*, not server state) and do not update this
    /// cluster's aggregate [`ClusterStats`].
    #[must_use]
    pub fn reconfig_handle(&self) -> ReconfigHandle {
        ReconfigHandle {
            routes: Arc::clone(&self.routes),
            max_group_size: self.config.max_group_size,
        }
    }

    /// Number of groups.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.routes.pin().groups.len()
    }

    /// Sizes of all groups, ascending by group id.
    #[must_use]
    pub fn group_sizes(&self) -> Vec<usize> {
        self.routes.pin().groups.values().map(|g| g.len()).collect()
    }

    /// A group under the currently published snapshot. Returns a shared
    /// handle to the immutable group object: subsequent reconfigurations
    /// replace the snapshot rather than mutating it, so the handle stays
    /// consistent for as long as the caller holds it.
    #[must_use]
    pub fn group(&self, id: GroupId) -> Option<Arc<Group>> {
        self.routes.pin().groups.get(&id).cloned()
    }

    /// Replicas held by `id` (origins from other groups placed on it),
    /// under the currently published snapshot.
    #[must_use]
    pub fn replicas_held_by(&self, id: MdsId) -> Vec<MdsId> {
        self.routes.pin().replicas_held_by(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{OpBatch, OpOutcome};
    use crate::service::MetadataService;

    fn batch_config() -> GhbaConfig {
        GhbaConfig::default()
            .with_filter_capacity(2_000)
            .with_max_group_size(5)
            .with_update_threshold(64)
            .with_seed(42)
    }

    fn populated_cluster() -> GhbaCluster {
        let mut cluster = GhbaCluster::with_servers(batch_config(), 15);
        for i in 0..300 {
            cluster.create(&format!("/b/f{i}"));
        }
        cluster.flush_all_updates();
        cluster
    }

    /// The drain's rows-once, path-moved replay leaves every server —
    /// store, counters, dirty blocks, both cadence counters — and the live
    /// slab exactly where the same writes through `create_local_fp` /
    /// `remove_local_fp` leave a twin: creates, re-creates, removes, a
    /// remove of an absent path, a remove at a home that has left.
    #[test]
    fn drained_records_apply_like_fingerprint_mutations() {
        let mut cluster = GhbaCluster::with_servers(batch_config(), 6);
        let mut twin: IdMap<MdsId, Mds> = cluster.mdss.clone();
        let mut twin_live = cluster.live.clone();
        let writes: Vec<(String, WriteKind)> = (0..400u16)
            .map(|i| {
                let path = format!("/d/f{}", i % 90);
                let home = MdsId((i % 90) % 6);
                let kind = match i % 7 {
                    0 | 3 => WriteKind::Remove(home),
                    5 => WriteKind::Remove(MdsId(99)),
                    _ => WriteKind::Create(home),
                };
                (path, kind)
            })
            .collect();
        for (path, kind) in &writes {
            let fp = Fingerprint::of(path.as_str());
            match *kind {
                WriteKind::Create(home) => {
                    twin.get_mut(&home).unwrap().create_local_fp(
                        &mut twin_live,
                        path.as_str(),
                        &fp,
                    );
                }
                WriteKind::Remove(home) => {
                    if let Some(mds) = twin.get_mut(&home) {
                        mds.remove_local_fp(&mut twin_live, path, &fp);
                    }
                }
            }
        }
        let records = writes
            .into_iter()
            .map(|(path, kind)| WriteRecord {
                fp: Fingerprint::of(path.as_str()),
                path: path.into(),
                kind,
            })
            .collect();
        cluster.apply_write_records(records);
        assert!(cluster.total_files() > 0);
        for (id, mds) in &cluster.mdss {
            assert_eq!(mds.write_state(), twin[id].write_state(), "{id}");
        }
        assert!(cluster.live == twin_live, "the live slabs differ");
        cluster
            .check_invariants()
            .expect("drained writes keep both slabs exact");
    }

    /// A batch of fused lookups over distinct paths resolves exactly like
    /// the same lookups issued one by one from the same entries — homes,
    /// levels, latencies, messages, and stats all agree.
    #[test]
    fn fused_lookups_match_sequential_lookups() {
        let mut sequential = populated_cluster();
        let mut batched = populated_cluster();
        // Round robin over 15 servers: op `i` enters at `MdsId(i % 15)`.
        let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 0 });
        let mut expected = Vec::new();
        for i in 0..64 {
            let path = if i % 8 == 7 {
                format!("/missing/f{i}")
            } else {
                format!("/b/f{}", i * 4 % 300)
            };
            expected.push(OpOutcome::Resolved(
                sequential.lookup_from(MdsId(i % 15), &path),
            ));
            batch.push_lookup(path);
        }
        assert_eq!(batched.execute(&batch), expected);
        assert_eq!(batched.stats().levels, sequential.stats().levels);
        assert_eq!(
            batched.stats().lookup_latency.count(),
            sequential.stats().lookup_latency.count()
        );
    }

    /// A query deep in a batch names an unknown entry MDS: the walk
    /// panics after the items before it walked, the panic reaches the
    /// caller, and the cluster keeps serving.
    #[test]
    fn poisoned_batch_panics_and_cluster_survives() {
        let mut cluster = populated_cluster();
        let queries: Vec<(MdsId, String)> = (0..96)
            .map(|i| {
                let path = if i % 8 == 7 {
                    format!("/missing/f{i}")
                } else {
                    format!("/b/f{}", i * 4 % 300)
                };
                (MdsId(i % 15), path)
            })
            .collect();
        let mut items: Vec<WalkItem<'_>> = queries
            .iter()
            .map(|(entry, path)| (*entry, path.as_bytes(), Fingerprint::of(path.as_str())))
            .collect();
        items[80].0 = MdsId(999);
        let mask_before = cluster.mask_cache_stats();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cluster.lookup_items(&items);
        }));
        let payload = result.expect_err("the poisoned batch must panic");
        let message = payload
            .downcast_ref::<&'static str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            message.contains("unknown entry MDS"),
            "unexpected panic: {message}"
        );
        // A poisoned read phase applies no effects at all (all-or-
        // nothing splice): statistics, mask counters and load windows
        // saw none of the batch, the walks before the panic included.
        assert_eq!(cluster.mask_cache_stats(), mask_before);
        assert_eq!(cluster.load_report().fresh_lookups, 0);
        cluster.drain_concurrent();
        assert_eq!(cluster.stats().lookup_latency.count(), 0);
        // The cluster keeps serving.
        items[80].0 = MdsId(0);
        let outcomes = cluster.lookup_items(&items);
        assert_eq!(outcomes.len(), items.len());
        cluster.check_invariants().expect("invariants hold");
    }

    /// A single-group rebalance re-plans only that group: the successor
    /// snapshot inherits every other group's plans, whose entries keep
    /// answering from them across the publish, while the touched group
    /// rebuilds. Misses walk all of L2 → L3 → L4, so every lookup here
    /// consults exactly one L2 and one L3 plan.
    #[test]
    fn rebalance_keeps_other_groups_masks_warm() {
        let mut cluster = GhbaCluster::with_servers(batch_config(), 15);
        for i in 0..200 {
            cluster.create(&format!("/w/f{i}"));
        }
        cluster.flush_all_updates();
        // Warm every entry's masks once.
        for id in cluster.server_ids() {
            let _ = cluster.lookup_from(id, "/w/absent");
        }
        let touched = cluster.group_of(MdsId(0)).expect("grouped");
        let other_entry = cluster
            .server_ids()
            .into_iter()
            .find(|&id| cluster.group_of(id) != Some(touched))
            .expect("another group exists");
        cluster
            .reconfig_handle()
            .rebalance_group(touched)
            .expect("the group is live");
        let (hits_before, misses_before) = cluster.mask_cache_stats().lifetime();
        let _ = cluster.lookup_from(other_entry, "/w/absent");
        let (hits_after, misses_after) = cluster.mask_cache_stats().lifetime();
        assert_eq!(
            misses_after, misses_before,
            "an untouched group's masks must stay warm across the rebalance"
        );
        assert_eq!(hits_after, hits_before + 2, "L2 + L3 both hit");
        // The touched group rebuilds exactly its own entries.
        let _ = cluster.lookup_from(MdsId(0), "/w/absent");
        let (_, misses_rebuilt) = cluster.mask_cache_stats().lifetime();
        assert_eq!(misses_rebuilt, misses_after + 2, "L2 + L3 both rebuild");
        cluster.check_invariants().expect("no stale mask");
        // A departure, graceful or fail-stop, takes the departed entry's
        // L2 plan with it (invariant 8 rejects a leaked one).
        cluster.remove_mds(MdsId(3)).expect("removable");
        cluster.check_invariants().expect("departed entry evicted");
        cluster.fail_mds(MdsId(7)).expect("failable");
        cluster.check_invariants().expect("failed entry evicted");
    }
}
