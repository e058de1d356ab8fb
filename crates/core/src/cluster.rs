//! The cluster engine: construction, the one pinned L1→L4 walk, file
//! create/remove, and the pin-once `&self` pipeline's write records and
//! their drain — written once, generic over the replica layout.
//!
//! [`Cluster`] is everything that does not depend on where replicas
//! live; its [`Topology`] parameter decides the rest. There are exactly
//! two layouts: [`Grouped`] (G-HBA, [`GhbaCluster`]; placement in
//! [`crate::reconfig`]) and [`FullMirror`](crate::FullMirror) (HBA/BFA,
//! [`HbaCluster`](crate::HbaCluster); in [`crate::mirror`]). The
//! membership wrappers live in [`crate::reconfig`], the replica-update
//! protocol in [`crate::update`].
//!
//! # What a pin pays once
//!
//! A run of lookups (`lookup_fused_pinned`) is deduplicated, chunked
//! across the exec pool, walked, and spliced back per occurrence — through
//! a `WalkArena` that lives as long as the pin it serves: one
//! `execute_concurrent` batch, however many writes cut it into runs; one
//! run for the entries whose pin lasts one run (`lookup_concurrent`, and
//! the `&mut` entry, whose writes mutate `Mds` state between runs).
//!
//! * **Plans.** What a walk needs that depends only on `(pin, entry)` —
//!   the entry's `&Mds`, group, L2 candidate state and modelled probe
//!   cost; its group's L3 state with each member's `&Mds` and probe
//!   cost — is resolved once per arena (`EntryPlan` / `GroupPlan`; pool
//!   chunks of a parallel run plan chunk-locally). Sound because neither
//!   `mdss` nor the pinned snapshot can change while the arena's owner
//!   borrows the cluster; the overlay and the live filters, which a
//!   batch's own writes do move, are consulted per walk.
//! * **Rows.** `walk_chunk` derives every item's `k` probe rows in one
//!   pass and prefetches them two items ahead; the walk ANDs them over
//!   the slab once ([`SharedShapeArray::and_rows`]), reads L2 and L3 as
//!   that result under each level's mask, and probes every live filter
//!   with them — through its one-bit-per-row projection, which every
//!   mutation keeps exact ([`Mds::probe_live_rows`]), so the scattered
//!   reads of a walk stay within a working set a shared cache is less
//!   likely to evict.
//! * **Tally.** The splice counts lookups per occurrence and mask
//!   consults per walk into the arena's plain `WalkTally`, folded into
//!   the atomic recorders once per arena, by its owner, after its last
//!   run returned: one RMW per non-zero word, none if a run panicked.

use core::fmt;
use core::marker::PhantomData;
use core::time::Duration;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use ghba_bloom::{Fingerprint, Hit, ProbeBatch, RowDeriver, SharedShapeArray};
use ghba_simnet::{Counters, DetRng, LatencyStats};

use crate::concurrent::{
    ConcurrentStats, NamespaceShards, OverlayEntry, WalkTally, WriteKind, WriteRecord,
};
use crate::config::GhbaConfig;
use crate::exec::run_deduped;
use crate::group::Group;
use crate::ids::{GroupEpoch, GroupId, MdsId, MembershipEpoch};
use crate::mds::{published_shape, row_indices, Mds};
use crate::op::{EntryPolicy, PathKey, WalkItem, WalkKey};
use crate::query::{LevelCounts, QueryLevel, QueryOutcome};
use crate::reconfig::ReconfigReport;
use crate::snapshot::{route_cell, ReconfigHandle, RouteCell, RouteSnapshot, SharedL2, SharedL3};
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
    /// L2/L3 mask-cache consultations answered from cache since the last
    /// [`reset_stats`](Cluster::reset_stats) (the figure-binary view
    /// of [`mask_cache_stats`](Cluster::mask_cache_stats), which
    /// keeps lifetime totals).
    pub mask_cache_hits: u64,
    /// L2/L3 mask-cache consultations that had to (re)build their entry
    /// since the last reset.
    pub mask_cache_misses: u64,
    /// Named auxiliary counters (verification round trips, drops, …).
    pub counters: Counters,
}

/// What every walk entering at one server reuses under a pin: all of it
/// a pure function of `(pin, entry)`, because no [`Mds`] mutates while
/// the arena's owner holds the cluster by reference.
#[derive(Debug)]
struct EntryPlan<'a> {
    mds: &'a Mds,
    /// The (pseudo-)group the entry's walks are attributed to.
    gid: GroupId,
    /// The entry's L2 candidate state and the modelled cost of probing
    /// it, built when the first walk from this entry reaches L2 — an L1
    /// hit consults nothing.
    l2: Option<(Arc<SharedL2>, Duration)>,
}

/// One group's L3 stage under a pin: the shared state plus each member
/// (in `l3.member_held` order) with the modelled cost of its own array
/// probe.
#[derive(Debug)]
struct GroupPlan<'a> {
    l3: Arc<SharedL3>,
    members: Vec<(&'a Mds, Duration)>,
}

/// One chunk's plan for the pinned walk: the entry and group plans
/// (indexed by `MdsId.0` / `GroupId.0`; a lock-free L0 in front of
/// whatever longer-lived mask cache the topology keeps, valid exactly as
/// long as the snapshot stays pinned and the cluster stays borrowed),
/// every item's probe rows, and the row-AND scratch.
#[derive(Debug, Default)]
struct ChunkPlan<'a> {
    entries: Vec<Option<EntryPlan<'a>>>,
    groups: Vec<Option<GroupPlan<'a>>>,
    probes: ProbeBatch,
    /// `k` rows per chunk item, item-major.
    rows: Vec<u32>,
    anded: Vec<u64>,
}

/// Everything the pinned walk keeps between the fused runs of one pin:
/// the plan every run's inline chunk walks through, and the tally every
/// run's splice counts into. Whoever owns the pin owns the arena and
/// hands the tally over once, when the pin's last run has returned
/// ([`Cluster::absorb_walks`]) — an arena dropped without that (its
/// batch panicked) has recorded nothing.
#[derive(Debug, Default)]
pub(crate) struct WalkArena<'a> {
    plan: ChunkPlan<'a>,
    tally: WalkTally,
}

/// Slot `id` of an id-indexed plan table, grown on demand.
fn plan_slot<P>(plans: &mut Vec<Option<P>>, id: u16) -> &mut Option<P> {
    let at = usize::from(id);
    if plans.len() <= at {
        plans.resize_with(at + 1, || None);
    }
    &mut plans[at]
}

/// One pinned walk's result: the outcome, the group it is attributed to
/// and the false-hit tallies `[l1, l2, l3, l4 disk checks]`, recorded
/// per occurrence by the run's splice — plus how its `[L2, L3]` mask
/// consults were answered (`None` = level not reached, `Some(false)` =
/// built), recorded once per walk: a plan or shared-cache answer counts
/// as a mask-cache hit, only a genuine build as a miss.
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

    /// `entry`'s L2 candidate state — which published columns it probes
    /// locally and how many replicas that is — and whether a cache
    /// answered (`false` = built here). Consulted once per plan: per
    /// entry and pin, plus once per pool chunk a parallel run fans out to.
    fn l2(
        cluster: &Cluster<Self>,
        snap: &RouteSnapshot,
        entry: MdsId,
        gid: GroupId,
    ) -> (Arc<SharedL2>, bool);

    /// The L3 group-multicast stage's state and whether a cache answered
    /// it, or `None` when the layout has no level between the entry's
    /// own array and the broadcast.
    fn l3(
        cluster: &Cluster<Self>,
        snap: &RouteSnapshot,
        gid: GroupId,
    ) -> Option<(Arc<SharedL3>, bool)>;

    /// Replicas `id` holds (the memory charge behind Table 5).
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
/// use ghba_core::{GhbaCluster, GhbaConfig};
///
/// let mut cluster = GhbaCluster::with_servers(
///     GhbaConfig::default().with_filter_capacity(1_000),
///     12,
/// );
/// let home = cluster.create_file("/projects/paper.tex");
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
    pub(crate) mdss: BTreeMap<MdsId, Mds>,
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
    /// Atomic statistics recorded by `&self` walks, folded
    /// into [`Cluster::stats`] at the same drain points.
    pub(crate) cstats: ConcurrentStats,
    /// Lifetime `(hits, misses)` of L2/L3 mask consults already folded
    /// out of `cstats` (the reset-scoped view lives in `stats`).
    mask_lifetime: (u64, u64),
    /// Owner-side fold of the per-group load windows recorded by
    /// `cstats` on the `&self` walks (see [`crate::load`]). Behind a
    /// mutex so [`load_report`](Cluster::load_report) works from
    /// `&self` (a controller samples while lookups run); touched only
    /// at report cadence, never on the walk hot path.
    pub(crate) load_fold: Mutex<crate::load::LoadFold>,
    /// Entry policy the 1-op string shims execute under (see
    /// [`MetadataService::set_shim_policy`](crate::MetadataService::set_shim_policy));
    /// round-robin state advances here, on the service, across calls.
    pub(crate) shim_entry: EntryPolicy,
    /// The attached write-ahead log, if any (see [`crate::wal`]): every
    /// shard-log drain and flush barrier is appended here before its
    /// effects apply. Boxed to keep the common (undurable) cluster
    /// layout compact; deliberately **not** cloned — a clone is an
    /// independent in-memory twin, not a second writer of the same log.
    pub(crate) wal: Option<Box<crate::wal::Wal>>,
    /// The probe-row derivation of [`published_shape`], its fastmod magic
    /// computed once: the write path (drain, replay, remove) never
    /// divides to place a row.
    rows: RowDeriver,
    /// Scratch the drain and the `&mut` remove keep: the `k` probe rows
    /// of the record being applied.
    row_scratch: Vec<u32>,
    topology: PhantomData<T>,
}

impl<T: Topology> Clone for Cluster<T> {
    /// Clones the cluster into an **independent** instance: the clone
    /// gets its own snapshot cell seeded with the currently published
    /// snapshot and its own (cold) mask cache. Immutable storage (the
    /// slab, per-group placement) is shared structurally via `Arc` until
    /// either side's next edit copies-on-write, so the clone is cheap
    /// and the two clusters can never observe each other's subsequent
    /// reconfigurations.
    fn clone(&self) -> Self {
        // Pending `&self`-path writes are not cloned: drain them (any
        // `&mut` entry point) before cloning a cluster that executed
        // concurrent batches.
        debug_assert!(
            !self.shards.is_dirty(),
            "clone with undrained concurrent writes pending"
        );
        let mut snapshot = (*self.routes.pin()).clone();
        // Cached masks are validated by `(group, epoch)` alone, and two
        // diverging clusters mint the same epochs for different layouts.
        snapshot.masks = Arc::default();
        Cluster {
            config: self.config.clone(),
            mdss: self.mdss.clone(),
            routes: route_cell(snapshot),
            next_mds: self.next_mds,
            rng: Mutex::new(self.rng.lock().expect("rng poisoned").clone()),
            stats: self.stats.clone(),
            shards: NamespaceShards::new(self.config.write_shards),
            cstats: ConcurrentStats::new(),
            mask_lifetime: self.mask_lifetime,
            load_fold: Mutex::new(crate::load::LoadFold::new()),
            shim_entry: self.shim_entry,
            wal: None,
            rows: self.rows,
            row_scratch: Vec::new(),
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
            mdss: BTreeMap::new(),
            routes: route_cell(RouteSnapshot::empty(slab)),
            next_mds: 0,
            rng: Mutex::new(rng),
            stats: ClusterStats::default(),
            shards,
            cstats: ConcurrentStats::new(),
            mask_lifetime: (0, 0),
            load_fold: Mutex::new(crate::load::LoadFold::new()),
            shim_entry: EntryPolicy::Random,
            wal: None,
            rows: RowDeriver::new(shape),
            row_scratch: Vec::new(),
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
    /// rebalance, mirror retire/restore — compound operations advance
    /// it per internal step, so this is an invalidation fence, not an
    /// operation counter); derived routing state cached under an older
    /// epoch is stale and must be rebuilt.
    #[must_use]
    pub fn membership_epoch(&self) -> MembershipEpoch {
        self.routes.pin().epoch
    }

    /// L2/L3 mask-cache accounting, both scopes, one source of truth —
    /// a hit is a mask consultation answered from cache (a pin's plan
    /// reused by a later walk counts too), a miss one that had to build
    /// the entry. `lifetime_*` spans the cluster's whole life; `window_*`
    /// is the reset-scoped view the figure binaries read (cleared by
    /// [`reset_stats`](Cluster::reset_stats)). Consults recorded on
    /// `&self` walks but not yet drained are folded into both scopes,
    /// so this is exact at any moment without a drain barrier.
    #[must_use]
    pub fn mask_cache_stats(&self) -> crate::load::MaskCacheStats {
        crate::load::MaskCacheStats::assemble(
            self.mask_lifetime,
            (self.stats.mask_cache_hits, self.stats.mask_cache_misses),
            self.cstats.pending_mask(),
        )
    }

    /// Closes the open telemetry window and returns a
    /// [`LoadReport`](crate::load::LoadReport)
    /// snapshot: one row per live group under the currently published
    /// snapshot (HBA has no groups: every server reports under the
    /// pseudo-group `GroupId(0)`, one row whose share is 1.0 by
    /// construction), rates window-decayed across successive calls (see
    /// [`crate::load`]). Works from `&self` — a controller samples on
    /// its own cadence while lookups and reconfigurations run — and
    /// deliberately does **not** drain the pending write shards or the
    /// stats mirror; those still fold at the owner's next `&mut` entry.
    #[must_use]
    pub fn load_report(&self) -> crate::load::LoadReport {
        let snap = self.routes.pin();
        let shape = T::load_shape(self, &snap);
        let mut fold = self.load_fold.lock().expect("load fold poisoned");
        let fresh = fold.close_window(&self.cstats);
        fold.report(snap.epoch, fresh, &shape)
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

    /// A uniformly random server: the draw `rng.choose(&server_ids())`
    /// makes, without listing the ids.
    fn pick_random_mds(&self) -> MdsId {
        let at = self
            .rng
            .lock()
            .expect("rng poisoned")
            .index(self.mdss.len());
        *self.mdss.keys().nth(at).expect("index below server count")
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

    /// Creates metadata for `path` at a uniformly random home MDS (the
    /// paper populates servers randomly), returning the home.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no servers.
    pub fn create_file(&mut self, path: &str) -> MdsId {
        assert!(!self.mdss.is_empty(), "cluster has no servers");
        let home = self.pick_random_mds();
        self.create_file_at(path, home);
        home
    }

    /// Creates metadata for `path` at a specific home (used by tests and
    /// by re-homing during departures).
    ///
    /// # Panics
    ///
    /// Panics if `home` is not a member of the cluster.
    pub fn create_file_at(&mut self, path: &str, home: MdsId) {
        self.create_fp(path, &Fingerprint::of(path), home);
    }

    /// Pre-hashed variant of [`create_file_at`](Cluster::create_file_at)
    /// for the batched op pipeline: reuses the key's admission
    /// fingerprint instead of re-hashing the path bytes.
    ///
    /// # Panics
    ///
    /// Panics if `home` is not a member of the cluster.
    pub fn create_file_keyed(&mut self, key: &PathKey, home: MdsId) {
        self.create_fp(key.path(), key.fingerprint(), home);
    }

    fn create_fp(&mut self, path: &str, fp: &Fingerprint, home: MdsId) {
        self.maybe_drain();
        let mds = self.mdss.get_mut(&home).expect("home must exist");
        mds.create_local_fp(path, fp);
        self.maybe_publish(home);
    }

    /// Removes `path` from its home (if any), returning the former home.
    /// The caller typically locates the home with a [`lookup`] first; this
    /// method does the authoritative sweep directly.
    ///
    /// [`lookup`]: Cluster::lookup
    pub fn remove_file(&mut self, path: &str) -> Option<MdsId> {
        self.remove_fp(path, &Fingerprint::of(path))
    }

    /// Pre-hashed variant of [`remove_file`](Cluster::remove_file).
    pub fn remove_file_keyed(&mut self, key: &PathKey) -> Option<MdsId> {
        self.remove_fp(key.path(), key.fingerprint())
    }

    fn remove_fp(&mut self, path: &str, fp: &Fingerprint) -> Option<MdsId> {
        self.maybe_drain();
        let mut rows = std::mem::take(&mut self.row_scratch);
        let home = self.locate_home(path, fp, &mut rows);
        if let Some(home) = home {
            let mds = self.mdss.get_mut(&home).expect("home exists");
            mds.remove_local_rows(path, fp, row_indices(&rows));
            self.maybe_publish(home);
        }
        self.row_scratch = rows;
        home
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

    /// The home a remove of `path` targets, found through the live
    /// filters: the path's `k` rows are derived once — into `rows`, the
    /// caller's scratch, through the cluster's precomputed fastmod — and
    /// only servers whose live projection answers positive are asked for
    /// a keyed store lookup. Bloom filters have no false negatives, so
    /// the first hit in id order is [`true_home`](Cluster::true_home)'s
    /// answer — for `N` bit-probes and about one store lookup instead of
    /// `N`, with no allocation, division or byte-wise hash.
    fn locate_home(&self, path: &str, fp: &Fingerprint, rows: &mut Vec<u32>) -> Option<MdsId> {
        rows.clear();
        self.rows.rows_into(fp, rows);
        let home = self
            .mdss
            .iter()
            .find(|(_, mds)| mds.probe_live_rows(rows) && mds.stores_fp(path, fp))
            .map(|(&id, _)| id);
        debug_assert_eq!(
            home,
            self.true_home(path),
            "live filter missed a stored path"
        );
        home
    }

    /// Looks `path` up starting from a uniformly random entry MDS (the
    /// paper's client model: "Each request can randomly choose an MDS to
    /// carry out query operations").
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no servers.
    pub fn lookup(&mut self, path: &str) -> QueryOutcome {
        assert!(!self.mdss.is_empty(), "cluster has no servers");
        let entry = self.pick_random_mds();
        self.lookup_from(entry, path)
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
        let mut outcomes = self.lookup_items(&[(entry, path, Fingerprint::of(path))]);
        outcomes.pop().expect("one query, one outcome")
    }

    /// Looks `path` up from `entry` through a **shared reference**: the
    /// same pinned walk as [`lookup_from`](Cluster::lookup_from)
    /// without its `&mut` epilogue. Level and latency statistics are
    /// recorded into wait-free atomic counters (folded into
    /// [`stats`](Cluster::stats) at the next `&mut` drain point),
    /// pending same-era writes are observed through the namespace-shard
    /// overlay, and **no L1 cache fill is performed** (the walk is
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
        let mut outcomes = self.lookup_run(&snap, &[(entry, path, Fingerprint::of(path))]);
        outcomes.pop().expect("one query, one outcome")
    }

    /// The L1 → L2 → \[L3\] → L4 escalation of chunk item `at` against a
    /// pinned snapshot, from `&self` — **the** walk: every read entry of
    /// every scheme, `&mut` or `&self`, single or batched, resolves
    /// through it. What depends only on `(pin, entry)` comes from `plan`
    /// (the topology supplies the L2 candidate state and — iff it has a
    /// group level — the L3 stage, once per plan); the item's probe rows
    /// serve every level: one unmasked row-AND of the slab that L2 and L3
    /// each read under their own mask — `(mask ∧ live) ∧ rows =
    /// mask ∧ (live ∧ rows)` — and every live-filter probe. The walk
    /// reads `Mds` state only; what a finished walk records is decided
    /// per occurrence by
    /// [`lookup_fused_pinned`](Self::lookup_fused_pinned)'s splice.
    fn walk_pinned<'a>(
        &'a self,
        snap: &RouteSnapshot,
        (entry, path, fp): WalkItem<'_>,
        at: usize,
        plan: &mut ChunkPlan<'a>,
    ) -> Walked {
        let ChunkPlan {
            entries,
            groups,
            rows,
            anded,
            ..
        } = plan;
        let k = snap.slab.shape().hashes as usize;
        let rows = &rows[at * k..(at + 1) * k];
        let model = &self.config.latency;

        let entry_plan = plan_slot(entries, entry.0).get_or_insert_with(|| EntryPlan {
            mds: self.mdss.get(&entry).expect("unknown entry MDS"),
            gid: T::walk_group(snap, entry),
            l2: None,
        });
        let (entry_mds, gid) = (entry_plan.mds, entry_plan.gid);

        let overlay = self.shards.overlay_keyed(path, &fp);
        // Whether `mds`'s live filter answers positive, overlaid with
        // this era's pending writes: a pending create at `mds` probes
        // positive even though the real filter has not been touched yet.
        // A pending *remove* cannot be reflected (the counting filter
        // only decrements at drain), so a stale positive survives until
        // the drain — it fails verification and costs accounting, never
        // a wrong home.
        let probes_live =
            |mds: &Mds| overlay == OverlayEntry::Created(mds.id()) || mds.probe_live_rows(rows);
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
        consults[0] = Some(true);
        let (l2, l2_probe) = &*entry_plan.l2.get_or_insert_with(|| {
            let (l2, cached) = T::l2(self, snap, entry, gid);
            consults[0] = Some(cached);
            let resident = entry_mds.resident_replicas(l2.held);
            let probe = model.array_probe(l2.held + 1, l2.held - resident);
            (l2, probe)
        });
        latency += *l2_probe;
        snap.slab
            .and_rows(rows.iter().map(|&row| row as usize), anded);
        let (mut positives, mut candidate) = snap.slab.positives_under(anded, &l2.mask);
        let entry_live = probes_live(entry_mds);
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
        let group = match plan_slot(groups, gid.0) {
            Some(group) => {
                consults[1] = Some(true);
                Some(&*group)
            }
            vacant => {
                *vacant = T::l3(self, snap, gid).map(|(l3, cached)| {
                    consults[1] = Some(cached);
                    let members = l3
                        .member_held
                        .iter()
                        .map(|&(member, held)| {
                            let mds = &self.mdss[&member];
                            let resident = mds.resident_replicas(held);
                            (mds, model.array_probe(held + 1, held - resident))
                        })
                        .collect();
                    GroupPlan { l3, members }
                });
                vacant.as_ref()
            }
        };
        if let Some(GroupPlan { l3, members }) = group {
            let peer_count = members.len().saturating_sub(1);
            // Peers probe their held replicas in parallel: pay the slowest.
            let worst_probe = members
                .iter()
                .filter(|(member, _)| member.id() != entry)
                .map(|&(_, probe)| probe)
                .max()
                .unwrap_or(Duration::ZERO);
            messages += 2 * peer_count as u32;
            latency += model.multicast_rtt(peer_count) + worst_probe;
            let (mut positives, mut candidate) = snap.slab.positives_under(anded, &l3.mask);
            for &(member, _) in members {
                // The entry's own verdict stands from L2.
                let live = if member.id() == entry {
                    entry_live
                } else {
                    probes_live(member)
                };
                if live {
                    positives += 1;
                    candidate = Some(member.id());
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
        let mut found: Option<MdsId> = None;
        let mut verify_cost = Duration::ZERO;
        for (&id, mds) in &self.mdss {
            if probes_live(mds) {
                verify_cost = verify_cost.max(mds.metadata_access_cost(model));
                if overlay.stores(mds, path, &fp) {
                    found = Some(id);
                } else {
                    falses[3] += 1;
                }
            }
        }
        latency += verify_cost;
        let level = match found {
            Some(_) => QueryLevel::L4Global,
            None => QueryLevel::Nonexistent,
        };
        done(found, level, latency, messages, falses, consults)
    }

    /// Walks one chunk of a run: derives every item's `k` probe rows up
    /// front (one shared-modulus fastmod pass, no hardware division), then
    /// runs [`walk_pinned`](Self::walk_pinned) per item against the
    /// chunk's plan, with the slab rows of the item two ahead prefetched:
    /// the walk is bound by its scattered row reads, and a host that
    /// shares its cache decides from moment to moment how many of them
    /// miss — asking early takes most of that out of an item's time.
    fn walk_chunk<'a>(
        &'a self,
        snap: &RouteSnapshot,
        items: &[WalkItem<'_>],
        plan: &mut ChunkPlan<'a>,
        out: &mut Vec<Walked>,
    ) {
        plan.probes.clear();
        for &(_, _, fp) in items {
            plan.probes.push(fp);
        }
        plan.probes
            .derive_rows_into(snap.slab.shape(), &mut plan.rows);
        let k = snap.slab.shape().hashes as usize;
        out.reserve(items.len());
        for (at, &item) in items.iter().enumerate() {
            if let Some(ahead) = plan.rows.get((at + 2) * k..(at + 3) * k) {
                snap.slab.prefetch_rows(ahead);
            }
            out.push(self.walk_pinned(snap, item, at, plan));
        }
    }

    /// Resolves a fused run of lookups against one pinned snapshot from
    /// `&self` — the read engine of every entry: cross-chunk
    /// `(entry, path)` dedup (the walk is a pure function of the pair
    /// under the pin, so a Zipf-head run walks each distinct pair once),
    /// chunked walks across the exec pool — the inline chunk through
    /// `arena`'s plan, which earlier runs of the same pin already filled,
    /// pool chunks through chunk-local ones — then a stream-order splice
    /// that counts level, latency, false-hit and per-group load
    /// statistics **per occurrence** — duplicates are real traffic, and
    /// the group controller must see the flash crowd it exists to split
    /// — and mask consults per walk into `arena`'s [`WalkTally`]. Nothing
    /// reaches the atomic recorders here: the arena's owner folds the
    /// tally in once ([`absorb_walks`](Self::absorb_walks)), so a run
    /// whose walk panics records nothing.
    ///
    /// `arena` must have served only runs of this cluster under `snap`.
    pub(crate) fn lookup_fused_pinned<'a>(
        &'a self,
        snap: &RouteSnapshot,
        items: &[WalkItem<'_>],
        arena: &mut WalkArena<'a>,
    ) -> Vec<QueryOutcome> {
        let WalkArena { plan, tally } = arena;
        let (resolved, assign) = run_deduped(
            items,
            self.config.executor,
            WalkKey::of,
            plan,
            |chunk, plan: &mut ChunkPlan<'a>, out| self.walk_chunk(snap, chunk, plan, out),
        );
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

    /// Folds what `arena`'s runs counted into the atomic recorders: the
    /// one hand-over per pin.
    pub(crate) fn absorb_walks(&self, arena: &WalkArena<'_>) {
        self.cstats.absorb(&arena.tally);
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
        arena: &mut WalkArena<'_>,
    ) -> Option<MdsId> {
        let home = match self.shards.overlay(key) {
            OverlayEntry::Created(home) => home,
            OverlayEntry::Removed => return None,
            OverlayEntry::Untracked => {
                self.locate_home(key.path(), key.fingerprint(), &mut arena.plan.rows)?
            }
        };
        self.shards.record_remove(key, home);
        Some(home)
    }

    /// Drains pending concurrent state if any exists: the cheap
    /// two-atomic-load gate every `&mut` entry point passes through.
    pub(crate) fn maybe_drain(&mut self) {
        if self.shards.is_dirty() || self.cstats.is_dirty() {
            self.drain_concurrent();
        }
    }

    /// Folds the atomic recorders into [`stats`](Cluster::stats) and
    /// the lifetime mask counters.
    fn fold_stats(&mut self) {
        let (hits, misses) = self.cstats.fold_into(&mut self.stats);
        self.mask_lifetime.0 += hits;
        self.mask_lifetime.1 += misses;
    }

    /// Reconciles everything the `&self` pipeline deferred: folds the
    /// atomic statistics into [`stats`](Cluster::stats), takes the
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
    /// probe rows are derived once, division-free, and serve both of its
    /// home's live filters; each record is consumed: a create's path
    /// `String` becomes its store's key, a remove's is dropped — the copy
    /// made when the write was recorded is the only one a path ever gets.
    pub(crate) fn apply_write_records(&mut self, records: Vec<WriteRecord>) {
        let mut rows = std::mem::take(&mut self.row_scratch);
        for WriteRecord { path, fp, kind } in records {
            rows.clear();
            self.rows.rows_into(&fp, &mut rows);
            match kind {
                WriteKind::Create(home) => {
                    self.mdss
                        .get_mut(&home)
                        .expect("pending create targets a live home")
                        .create_local_rows(path, &fp, row_indices(&rows));
                }
                WriteKind::Remove(home) => {
                    // The home may have retired since the record was
                    // appended; its store went with it.
                    if let Some(mds) = self.mdss.get_mut(&home) {
                        mds.remove_local_rows(&path, &fp, row_indices(&rows));
                    }
                }
            }
        }
        self.row_scratch = rows;
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

    /// Looks up a batch of paths, each from a uniformly random entry MDS —
    /// the paper's client model applied to a burst of concurrent requests.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no servers.
    pub fn lookup_batch<S: AsRef<str>>(&mut self, paths: &[S]) -> Vec<QueryOutcome> {
        assert!(!self.mdss.is_empty(), "cluster has no servers");
        let ids = self.server_ids();
        let queries: Vec<(MdsId, &str)> = paths
            .iter()
            .map(|path| (self.entry_for(&ids, EntryPolicy::Random, 0), path.as_ref()))
            .collect();
        self.lookup_batch_from(&queries)
    }

    /// Resolves a batch of concurrent lookups through the one pinned
    /// walk (see [`lookup_from`](Cluster::lookup_from)): the batch
    /// pins one snapshot, repeated `(entry, path)` pairs walk once, and
    /// batches of at least `executor.min_parallel_batch` queries split
    /// into `executor.workers` chunks walked concurrently (bit-identical
    /// outcomes; see [`ExecutorConfig`]).
    ///
    /// [`ExecutorConfig`]: crate::ExecutorConfig
    ///
    /// Per-query accounting (latency, messages, level counters) is
    /// identical to running [`lookup_from`](Cluster::lookup_from) once
    /// per query; the only visible difference is the concurrent-request
    /// model: the queries of one batch model simultaneous clients, so no
    /// L1 cache fill produced by one query of the batch is observed by
    /// another query of the same batch — fills apply in stream order
    /// when the batch completes. Observable only through an L1 Bloom
    /// false positive or an LRU eviction reordering, both vanishingly
    /// rare at sane L1 geometries; the vectored op pipeline additionally
    /// splits fused runs at repeated `(entry, path)` pairs, so the
    /// common hot-repeat case stays exact.
    ///
    /// # Panics
    ///
    /// Panics if any entry is not a member of the cluster (in a parallel
    /// walk the assert fires on the worker owning the chunk and the
    /// panic is re-raised here, after sibling chunks finish; a poisoned
    /// batch applies none of its effects).
    pub fn lookup_batch_from(&mut self, queries: &[(MdsId, &str)]) -> Vec<QueryOutcome> {
        // Hash each path once at its entry server; the fingerprint drives
        // every filter probe of the whole L1 → L4 escalation (and in a
        // real deployment travels inside the multicast probe messages).
        let items: Vec<WalkItem<'_>> = queries
            .iter()
            .map(|&(entry, path)| (entry, path, Fingerprint::of(path)))
            .collect();
        self.lookup_items(&items)
    }

    /// Every `&mut` read entry: drain, pin one snapshot, run the pinned
    /// walk, then apply the one thing the `&self` entries cannot — the
    /// L1 LRU fill, per occurrence in stream order — and fold the
    /// atomic recorders so [`stats`](Cluster::stats) is current when
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
    /// Shared by both layouts: the bit-sliced published slab tracks
    /// exactly the live servers and mirrors every server's published
    /// filter exactly (the hash-once L2/L3 probes depend on it;
    /// invariant 7 below). A mirror an
    /// [`HbaReconfigHandle`](crate::HbaReconfigHandle) retired and has
    /// not restored is reported as a lost column — retirement is a
    /// degraded state, not an invariant-preserving one.
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
    /// 7. **column == published** (both layouts, checked first). Only
    ///    `push_update`, membership changes and checkpoint restore write
    ///    a column, each together with the server's own filter, so this
    ///    holds from `&self` with undrained concurrent writes pending too;
    /// 8. **no stale mask**: every cached L2/L3 entry of the snapshot's
    ///    shared mask cache whose `(gid, tag)` is valid under the pinned
    ///    snapshot equals the mask and held counts rebuilt from that
    ///    snapshot — an epoch bump missed by any reconfiguration path
    ///    shows up here, not as a wrong candidate set in a walk — and no
    ///    departed server still owns a cached L2 entry.
    pub fn check_invariants(&self) -> Result<(), String> {
        let snap = self.routes.pin();
        let mut slab_ids: Vec<MdsId> = snap.slab.ids().collect();
        slab_ids.sort_unstable();
        if slab_ids != self.server_ids() {
            return Err(format!(
                "published slab tracks {} servers, cluster has {}",
                slab_ids.len(),
                self.mdss.len()
            ));
        }
        for (&id, mds) in &self.mdss {
            let column = snap
                .slab
                .extract(id)
                .ok_or_else(|| format!("published slab lost {id}"))?;
            if &column != mds.published() {
                return Err(format!("published slab column of {id} is stale"));
            }
        }
        T::check_layout(self, &snap)
    }
}

impl GhbaCluster {
    /// The configuration version of `gid` under the currently published
    /// snapshot (default epoch for groups never touched — including
    /// groups that do not exist, which no valid cache entry can name).
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

    /// The group a server belongs to (under the currently published
    /// snapshot).
    #[must_use]
    pub fn group_of(&self, id: MdsId) -> Option<GroupId> {
        self.routes.pin().group_of(id)
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
            cluster.create_file(&format!("/b/f{i}"));
        }
        cluster.flush_all_updates();
        cluster
    }

    /// The drain's rows-once, path-moved replay leaves every server —
    /// store, counters, plain projection, both cadence counters — exactly
    /// where the same writes through `create_local_fp` / `remove_local_fp`
    /// leave a twin: creates, re-creates, removes, a remove of an absent
    /// path, a remove at a home that has retired.
    #[test]
    fn drained_records_apply_like_fingerprint_mutations() {
        let mut cluster = GhbaCluster::with_servers(batch_config(), 6);
        let mut twin: BTreeMap<MdsId, Mds> = cluster.mdss.clone();
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
                    twin.get_mut(&home)
                        .unwrap()
                        .create_local_fp(path.as_str(), &fp);
                }
                WriteKind::Remove(home) => {
                    if let Some(mds) = twin.get_mut(&home) {
                        mds.remove_local_fp(path, &fp);
                    }
                }
            }
        }
        let records = writes
            .into_iter()
            .map(|(path, kind)| WriteRecord {
                fp: Fingerprint::of(path.as_str()),
                path,
                kind,
            })
            .collect();
        cluster.apply_write_records(records);
        assert!(cluster.total_files() > 0);
        for (id, mds) in &cluster.mdss {
            assert_eq!(mds.write_state(), twin[id].write_state(), "{id}");
        }
    }

    /// A batch of concurrent lookups over distinct paths resolves exactly
    /// like the same lookups issued sequentially from the same entries —
    /// homes, levels, latencies, messages, and stats all agree.
    #[test]
    fn lookup_batch_matches_sequential_lookups() {
        let mut sequential = populated_cluster();
        let mut batched = populated_cluster();
        let queries: Vec<(MdsId, String)> = (0..64)
            .map(|i| {
                let path = if i % 8 == 7 {
                    format!("/missing/f{i}")
                } else {
                    format!("/b/f{}", i * 4 % 300)
                };
                (MdsId(i % 15), path)
            })
            .collect();
        let borrowed: Vec<(MdsId, &str)> = queries
            .iter()
            .map(|(entry, path)| (*entry, path.as_str()))
            .collect();
        let expected: Vec<QueryOutcome> = borrowed
            .iter()
            .map(|&(entry, path)| sequential.lookup_from(entry, path))
            .collect();
        let got = batched.lookup_batch_from(&borrowed);
        assert_eq!(got, expected);
        assert_eq!(batched.stats().levels, sequential.stats().levels);
        assert_eq!(
            batched.stats().lookup_latency.count(),
            sequential.stats().lookup_latency.count()
        );
    }

    /// `lookup_batch` draws one random entry per path, consuming the rng
    /// stream exactly as sequential `lookup` calls would.
    #[test]
    fn lookup_batch_random_entries_match_sequential_rng() {
        let mut sequential = populated_cluster();
        let mut batched = populated_cluster();
        let paths: Vec<String> = (0..32).map(|i| format!("/b/f{}", i * 9 % 300)).collect();
        let expected: Vec<QueryOutcome> =
            paths.iter().map(|path| sequential.lookup(path)).collect();
        assert_eq!(batched.lookup_batch(&paths), expected);
    }

    #[test]
    fn empty_lookup_batch_is_empty() {
        let mut cluster = populated_cluster();
        assert!(cluster.lookup_batch_from(&[]).is_empty());
    }

    fn parallel_config(workers: usize) -> GhbaConfig {
        batch_config().with_executor(
            crate::config::ExecutorConfig::default()
                .with_workers(workers)
                .with_min_parallel_batch(8),
        )
    }

    fn populated_parallel_cluster(workers: usize) -> GhbaCluster {
        let mut cluster = GhbaCluster::with_servers(parallel_config(workers), 15);
        for i in 0..300 {
            cluster.create_file(&format!("/b/f{i}"));
        }
        cluster.flush_all_updates();
        cluster
    }

    fn batch_queries() -> Vec<(MdsId, String)> {
        (0..96)
            .map(|i| {
                let path = if i % 8 == 7 {
                    format!("/missing/f{i}")
                } else {
                    format!("/b/f{}", i * 4 % 300)
                };
                (MdsId(i % 15), path)
            })
            .collect()
    }

    /// The parallel walk resolves a large batch bit-identically to the
    /// single-threaded walk, worker count by worker count, including
    /// the spliced statistics.
    #[test]
    fn parallel_lookup_batch_matches_sequential_walk() {
        let mut sequential = populated_parallel_cluster(1);
        let queries = batch_queries();
        let borrowed: Vec<(MdsId, &str)> = queries
            .iter()
            .map(|(entry, path)| (*entry, path.as_str()))
            .collect();
        let expected = sequential.lookup_batch_from(&borrowed);
        for workers in [2, 4, 7] {
            let mut parallel = populated_parallel_cluster(workers);
            let got = parallel.lookup_batch_from(&borrowed);
            assert_eq!(got, expected, "{workers} workers diverged");
            assert_eq!(parallel.stats().levels, sequential.stats().levels);
            assert_eq!(
                parallel.stats().lookup_latency.count(),
                sequential.stats().lookup_latency.count()
            );
        }
    }

    /// A chunk walking on a pool worker panics (unknown entry MDS); the
    /// panic propagates to the dispatching thread after sibling chunks
    /// finish, and the cluster keeps serving.
    #[test]
    fn poisoned_parallel_worker_propagates_and_cluster_survives() {
        let mut cluster = populated_parallel_cluster(4);
        let queries = batch_queries();
        let mut borrowed: Vec<(MdsId, &str)> = queries
            .iter()
            .map(|(entry, path)| (*entry, path.as_str()))
            .collect();
        // Poison a query deep in the batch: its chunk lands on a pool
        // worker (chunks of 24 at 96 queries / 4 workers; index 80 is
        // chunk 3).
        borrowed[80].0 = MdsId(999);
        let mask_before = cluster.mask_cache_stats();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cluster.lookup_batch_from(&borrowed);
        }));
        let payload = result.expect_err("the poisoned chunk must panic");
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
        // saw none of the batch, sibling chunks' walks included.
        assert_eq!(cluster.stats().lookup_latency.count(), 0);
        assert!(!cluster.cstats.is_dirty());
        assert_eq!(cluster.mask_cache_stats(), mask_before);
        assert_eq!(cluster.load_report().fresh_lookups, 0);
        // The cluster (and the process-wide pool) keep serving.
        borrowed[80].0 = MdsId(0);
        let outcomes = cluster.lookup_batch_from(&borrowed);
        assert_eq!(outcomes.len(), borrowed.len());
        cluster.check_invariants().expect("invariants hold");
    }

    /// A single-group rebalance invalidates only that group's masks in
    /// the snapshot-resident shared cache: entries of other groups keep
    /// answering from cache across the publish, while the touched group
    /// rebuilds. Misses walk all of L2 → L3 → L4, so every lookup here
    /// consults exactly one L2 and one L3 mask.
    #[test]
    fn rebalance_keeps_other_groups_masks_warm() {
        let mut cluster = GhbaCluster::with_servers(batch_config(), 15);
        for i in 0..200 {
            cluster.create_file(&format!("/w/f{i}"));
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
        cluster.rebalance_group(touched);
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
        // cached L2 mask with it (invariant 8 rejects a leaked one).
        cluster.remove_mds(MdsId(3)).expect("removable");
        cluster.check_invariants().expect("departed entry evicted");
        cluster.fail_mds(MdsId(7)).expect("failable");
        cluster.check_invariants().expect("failed entry evicted");
    }

    /// `ClusterStats` mirrors the mask-cache counters for the figure
    /// binaries, respecting `reset_stats`.
    #[test]
    fn cluster_stats_surface_mask_cache_counters() {
        let mut cluster = populated_cluster();
        cluster.reset_stats();
        let _ = cluster.lookup_from(MdsId(0), "/b/absent1");
        let _ = cluster.lookup_from(MdsId(0), "/b/absent2");
        let stats = cluster.stats();
        assert_eq!(stats.mask_cache_misses, 2, "first walk builds L2 + L3");
        assert_eq!(stats.mask_cache_hits, 2, "second walk answers from cache");
        let unified = cluster.mask_cache_stats();
        assert!(
            unified.lifetime_hits >= 2 && unified.lifetime_misses >= 2,
            "lifetime counters keep totals"
        );
        assert_eq!(
            (unified.window_hits, unified.window_misses),
            (stats.mask_cache_hits, stats.mask_cache_misses),
            "the unified accessor's window scope is the figure-binary view"
        );
        cluster.reset_stats();
        assert_eq!(cluster.stats().mask_cache_hits, 0);
        let after = cluster.mask_cache_stats();
        assert_eq!(
            unified.lifetime(),
            after.lifetime(),
            "reset only clears the window scope"
        );
        assert_eq!(after.window_hits, 0, "window scope resets");
    }
}
