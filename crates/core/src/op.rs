//! The vectored metadata operations API: typed op batches every scheme
//! executes natively.
//!
//! Metadata traffic arrives at a cluster as *streams* of mixed operations
//! — bursts of concurrent lookups interleaved with creates, unlinks, and
//! renames — not as one isolated pathname at a time. [`OpBatch`] is the
//! unit the [`MetadataService`](crate::MetadataService) seam moves: each
//! [`MetadataOp`] carries a [`PathKey`] whose hash-once
//! [`Fingerprint`] was computed **once at batch admission** and travels
//! through every filter probe of every level, and the batch names an
//! explicit [`EntryPolicy`] instead of baking "random entry server" into
//! each scheme.
//!
//! Schemes execute a batch through the one shared `execute_vectored`
//! driver (via the `VectoredScheme` hooks): entries resolve against the
//! scheme's server list taken once per batch, maximal runs of
//! consecutive lookups are fused into one L1→L4 walk run against one
//! pinned snapshot (probe rows are per run; per-entry plans and the
//! statistics tally live as long as the pin — the batch on the `&self`
//! entry, the run on the `&mut` one; see [`crate::cluster`]), writes
//! apply in stream order, and
//! [`MetadataOp::Rename`] performs a full metadata migration (remove at
//! the old home, create at the policy-chosen new home) whose
//! [`OpOutcome::Renamed`] reports both homes.
//!
//! Outcome semantics match **one-op-at-a-time execution**: `execute` on
//! a mixed batch returns what issuing each op as its own 1-op batch
//! would. The run fusion flushes before every write and before a
//! repeated `(entry, path)` pair, so a repeat observes the earlier
//! lookup's L1 cache fill exactly as a sequential stream would. The one
//! deliberate divergence is the concurrent-request model of a fused
//! run: an L1 fill produced by an earlier lookup at the same entry for
//! a *different* path is not seen by the later probes of the same run —
//! observable only through an L1 Bloom false positive or an eviction
//! reordering, both vanishingly rare at sane L1 geometries (the
//! property tests pin outcome equality across all three schemes under
//! flash-crowd batches).
//!
//! # Two entries, one driver
//!
//! `MetadataService::execute` hands the driver the scheme itself
//! (`&mut`); `MetadataService::execute_concurrent` hands it a per-batch
//! value binding `&self` to the snapshot pinned at admission. What
//! differs is only what the hooks do:
//!
//! * **`&mut` entry.** Each fused run drains pending `&self` state,
//!   pins a snapshot, walks, fills the L1 LRU per occurrence in stream
//!   order, and folds the walk statistics before returning. Writes hit
//!   the authoritative stores directly, with their gated delta
//!   publishes.
//! * **`&self` entry — pin once per batch.** Every fused read run of
//!   the batch walks the one snapshot pinned at admission, through the
//!   one walk arena of that pin: a write ends a run, not the plans the
//!   runs before it built, and the batch's statistics are folded into
//!   the atomic recorders once, after its last op. A reconfiguration
//!   publishing mid-batch is observed by the *next* batch (and its fresh
//!   arena), never by half of this one. The walk never fills L1.
//! * **`&self` writes are ordered per shard, not per batch.** Mutations
//!   append to namespace write shards (hash of the path's fingerprint →
//!   shard) under that shard's lock alone. Two batches writing distinct
//!   shards never contend; two writes to the same path always land in
//!   the same shard, so their order is total. A rename removes `from`
//!   under its shard's lock, *releases it*, then creates `to` under the
//!   target shard's lock — no op ever holds two shard locks, so there
//!   is no lock-order cycle to deadlock on.
//! * **The `&self` entry never publishes.** Pending writes are visible
//!   to the era's walks through the overlay and the home's live probe;
//!   published columns move only at `push_update`/`flush_all_updates`,
//!   after the owner drain replayed the logs. A batch that panics
//!   mid-flight leaves its pending records for that drain and none of
//!   its lookups in the statistics.
//!
//! Executed single-threaded against a quiescent scheme, the two entries
//! are **bit-identical** at `lru_capacity = 0` (same RNG stream, same
//! fusion boundaries); under true concurrency the interleaving of
//! distinct-path writes is arbitrary by design and the property suites
//! assert semantic equivalence (every path resolves to its true home)
//! instead.

use core::hash::{Hash, Hasher};
use std::collections::HashMap;

use ghba_bloom::{BuildLaneHasher, Fingerprint};

use crate::ids::MdsId;
use crate::query::QueryOutcome;

/// A pathname plus its hash-once [`Fingerprint`], computed exactly once
/// when the op is admitted to a batch.
///
/// Every filter probe the op triggers — L1 LRU, bit-sliced slab levels,
/// live-filter sweeps, multicast recipients — derives its probe stream
/// from this fingerprint by O(1) seed-mixing; the path bytes are never
/// re-hashed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathKey {
    path: String,
    fp: Fingerprint,
}

impl PathKey {
    /// Admits `path`: the single byte pass of the hash-once design.
    #[must_use]
    pub fn new(path: impl Into<String>) -> Self {
        let path = path.into();
        let fp = Fingerprint::of(path.as_str());
        PathKey { path, fp }
    }

    /// Reassembles a `PathKey` from a pathname and a fingerprint computed
    /// elsewhere — the wire-decode path, where the fingerprint arrived in
    /// the frame alongside the path bytes.
    ///
    /// # Errors
    ///
    /// Hands `path` back when `fp` is not its fingerprint: the pair is
    /// corrupt and the decoder must reject the frame (naming the path)
    /// rather than admit a key whose probe stream disagrees with its
    /// pathname.
    pub fn from_parts(path: impl Into<String>, fp: Fingerprint) -> Result<Self, String> {
        let path = path.into();
        if Fingerprint::of(path.as_str()) == fp {
            Ok(PathKey { path, fp })
        } else {
            Err(path)
        }
    }

    /// A key whose fingerprint need not be its path's: how tests forge
    /// the 128-bit collisions the tables behind the filters must survive.
    #[cfg(test)]
    pub(crate) fn forged(path: &str, fp: Fingerprint) -> Self {
        PathKey {
            path: path.to_owned(),
            fp,
        }
    }

    /// The pathname.
    #[must_use]
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The admission-time fingerprint (identical to
    /// `Fingerprint::of(self.path())`).
    #[must_use]
    pub fn fingerprint(&self) -> &Fingerprint {
        &self.fp
    }
}

/// One query of a walk run: entry server, pathname, and the path's
/// hash-once fingerprint.
pub(crate) type WalkItem<'a> = (MdsId, &'a str, Fingerprint);

/// What a run is deduplicated by: a walk is a pure function of
/// `(entry, path)` under a pin. Hashed as `(entry, first lane)` — the
/// admission fingerprint, no second pass over the path bytes — and
/// compared entry, lane, then path, so the bytes are read only on equal
/// lanes and a lane collision can never merge two paths.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct WalkKey<'a> {
    entry: MdsId,
    lane: u64,
    path: &'a str,
}

impl<'a> WalkKey<'a> {
    pub fn of(&(entry, path, fp): &WalkItem<'a>) -> Self {
        WalkKey {
            entry,
            lane: fp.lanes().0,
            path,
        }
    }
}

impl Hash for WalkKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u16(self.entry.0);
        state.write_u64(self.lane);
    }
}

/// Deduplication for batched walks whose read phase is a pure function
/// of a per-item key: returns `(uniques, assign)` where `uniques` lists
/// the index of the **first occurrence** of each distinct key in item
/// order, and `assign[i]` is the position within `uniques` owning item
/// `i`'s key. Callers walk only `uniques`-selected items and fan each
/// result back out through `assign`.
///
/// With no duplicate keys, `uniques` is `0..items.len()` and `assign`
/// is the identity, so the fast path costs one hash-map pass — under
/// [`BuildLaneHasher`]: the walk's key hashes its admission fingerprint
/// ([`WalkKey`]), not its path bytes.
pub(crate) fn resolve_unique<T, K, F>(items: &[T], key: F) -> (Vec<u32>, Vec<u32>)
where
    K: Hash + Eq,
    F: Fn(&T) -> K,
{
    let mut slots = HashMap::with_capacity_and_hasher(items.len(), BuildLaneHasher);
    let mut uniques = Vec::with_capacity(items.len());
    let mut assign = Vec::with_capacity(items.len());
    for (index, item) in items.iter().enumerate() {
        let next = uniques.len() as u32;
        let slot = *slots.entry(key(item)).or_insert_with(|| {
            uniques.push(index as u32);
            next
        });
        assign.push(slot);
    }
    (uniques, assign)
}

/// How a batch's ops choose their serving MDS (the lookup entry server,
/// and the home for creates and rename targets).
///
/// The paper's client model — "each request can randomly choose an MDS" —
/// becomes one policy among several instead of a hard-coded behaviour of
/// every scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryPolicy {
    /// Each op draws a uniformly random server from the scheme's
    /// deterministic RNG (the paper's default client model).
    Random,
    /// Every op is served through one fixed server (a client with a
    /// sticky connection; also how tests pin entry points).
    Pinned(MdsId),
    /// Op `i` of the batch is served by the `(start + i) mod N`-th live
    /// server (ascending id order) — a load-balancer spraying a burst
    /// deterministically across the cluster.
    RoundRobin {
        /// Offset of the batch's first op into the server list.
        start: usize,
    },
}

impl EntryPolicy {
    /// Resolves the serving server for op `op_index` of a batch under the
    /// deterministic policies, given the scheme's live server ids in
    /// ascending order. Returns `None` for [`EntryPolicy::Random`] — the
    /// scheme must then draw from its own deterministic RNG (so batched
    /// and one-op-per-call execution consume the stream identically).
    ///
    /// Every scheme's resolver defers here so Pinned/RoundRobin semantics
    /// cannot diverge between implementations.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty or a pinned server is not among `ids`.
    #[must_use]
    pub fn resolve_deterministic(self, ids: &[MdsId], op_index: usize) -> Option<MdsId> {
        match self {
            EntryPolicy::Random => None,
            EntryPolicy::Pinned(id) => {
                assert!(ids.contains(&id), "pinned server {id} unknown");
                Some(id)
            }
            EntryPolicy::RoundRobin { start } => {
                assert!(!ids.is_empty(), "no live servers");
                // Wrapping: the service-side cursor advances by
                // `wrapping_add` (see [`EntryPolicy::advance`]), so a
                // cursor near `usize::MAX` must reduce, not overflow.
                Some(ids[start.wrapping_add(op_index) % ids.len()])
            }
        }
    }

    /// Returns the policy for a batch of `ops` ops and advances any
    /// round-robin cursor past them **in place**.
    ///
    /// This is how round-robin state survives the string-call shims:
    /// each shim builds a fresh 1-op [`OpBatch`], so the cursor must
    /// live on the *service* (see
    /// [`MetadataService::set_shim_policy`](crate::MetadataService::set_shim_policy))
    /// and step forward here on every call — otherwise each shim batch
    /// would re-enter at `start` and pin a single server. Stateless
    /// policies return unchanged.
    pub fn advance(&mut self, ops: usize) -> EntryPolicy {
        let current = *self;
        if let EntryPolicy::RoundRobin { start } = self {
            // `resolve_deterministic` reduces modulo the live server
            // count, so the cursor only needs to advance monotonically.
            *start = start.wrapping_add(ops);
        }
        current
    }
}

/// One typed metadata operation, pre-hashed at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetadataOp {
    /// Insert metadata for a new file at a policy-chosen home.
    Create(PathKey),
    /// Resolve a pathname's home MDS through the scheme's hierarchy.
    Lookup(PathKey),
    /// Remove a file's metadata from its home (no-op if absent).
    Remove(PathKey),
    /// Migrate metadata: remove `from` at its old home, create `to` at a
    /// policy-chosen new home, refreshing filters via deltas on both
    /// sides. A rename of an absent file is a no-op.
    Rename {
        /// The existing pathname.
        from: PathKey,
        /// The new pathname.
        to: PathKey,
    },
}

impl MetadataOp {
    /// The op's primary pathname (`from` for renames).
    #[must_use]
    pub fn path(&self) -> &str {
        match self {
            MetadataOp::Create(key)
            | MetadataOp::Lookup(key)
            | MetadataOp::Remove(key)
            | MetadataOp::Rename { from: key, .. } => key.path(),
        }
    }

    /// `true` for lookups (the read path).
    #[must_use]
    pub fn is_read(&self) -> bool {
        matches!(self, MetadataOp::Lookup(_))
    }
}

/// An ordered batch of typed metadata operations plus the entry-server
/// policy they execute under.
///
/// Build with the `push_*` admission helpers (each hashes its pathname
/// once into a [`PathKey`]), hand to
/// [`MetadataService::execute`](crate::MetadataService::execute), then
/// [`clear`](OpBatch::clear) and reuse — the op vector's allocation is
/// kept.
///
/// # Examples
///
/// ```
/// use ghba_core::{GhbaCluster, GhbaConfig, MetadataService, OpBatch, OpOutcome};
///
/// let mut cluster = GhbaCluster::with_servers(
///     GhbaConfig::default().with_filter_capacity(1_000),
///     8,
/// );
/// let mut batch = OpBatch::new();
/// batch.push_create("/a/b");
/// batch.push_lookup("/a/b");
/// batch.push_rename("/a/b", "/a/c");
/// batch.push_lookup("/a/c");
/// let outcomes = cluster.execute(&batch);
/// let OpOutcome::Renamed { old_home, new_home } = outcomes[2] else {
///     panic!("third op was a rename");
/// };
/// assert!(old_home.is_some() && new_home.is_some());
/// assert_eq!(outcomes[3].home(), new_home);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpBatch {
    ops: Vec<MetadataOp>,
    entry: EntryPolicy,
}

impl Default for OpBatch {
    fn default() -> Self {
        OpBatch::new()
    }
}

impl OpBatch {
    /// Creates an empty batch under [`EntryPolicy::Random`].
    #[must_use]
    pub fn new() -> Self {
        OpBatch::with_capacity(0)
    }

    /// Creates an empty batch under [`EntryPolicy::Random`] with room
    /// for `ops` ops.
    #[must_use]
    pub fn with_capacity(ops: usize) -> Self {
        OpBatch {
            ops: Vec::with_capacity(ops),
            entry: EntryPolicy::Random,
        }
    }

    /// Sets the entry-server policy (builder style).
    #[must_use]
    pub fn with_entry(mut self, entry: EntryPolicy) -> Self {
        self.entry = entry;
        self
    }

    /// The entry-server policy.
    #[must_use]
    pub fn entry_policy(&self) -> EntryPolicy {
        self.entry
    }

    /// Appends an already-built op.
    pub fn push(&mut self, op: MetadataOp) {
        self.ops.push(op);
    }

    /// Admits a lookup (hashing the path once).
    pub fn push_lookup(&mut self, path: impl Into<String>) {
        self.push(MetadataOp::Lookup(PathKey::new(path)));
    }

    /// Admits a create (hashing the path once).
    pub fn push_create(&mut self, path: impl Into<String>) {
        self.push(MetadataOp::Create(PathKey::new(path)));
    }

    /// Admits a remove (hashing the path once).
    pub fn push_remove(&mut self, path: impl Into<String>) {
        self.push(MetadataOp::Remove(PathKey::new(path)));
    }

    /// Admits a rename (hashing both paths once).
    pub fn push_rename(&mut self, from: impl Into<String>, to: impl Into<String>) {
        self.push(MetadataOp::Rename {
            from: PathKey::new(from),
            to: PathKey::new(to),
        });
    }

    /// The ops in admission order.
    #[must_use]
    pub fn ops(&self) -> &[MetadataOp] {
        &self.ops
    }

    /// Number of admitted ops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when no op is admitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Empties the batch (keeping its allocation and policy).
    pub fn clear(&mut self) {
        self.ops.clear();
    }

    /// Empties the batch like [`clear`](OpBatch::clear), moving every
    /// op's path `String` into `pool` so a decoder can refill them
    /// instead of allocating new ones.
    pub fn recycle_paths(&mut self, pool: &mut Vec<String>) {
        for op in self.ops.drain(..) {
            match op {
                MetadataOp::Create(key) | MetadataOp::Lookup(key) | MetadataOp::Remove(key) => {
                    pool.push(key.path);
                }
                MetadataOp::Rename { from, to } => {
                    pool.push(from.path);
                    pool.push(to.path);
                }
            }
        }
    }
}

/// The per-op result of [`MetadataService::execute`]
/// (`outcomes[i]` answers `batch.ops()[i]`).
///
/// [`MetadataService::execute`]: crate::MetadataService::execute
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutcome {
    /// A create landed at `home`.
    Created {
        /// The MDS now homing the file.
        home: MdsId,
    },
    /// A lookup resolved (or exhausted the hierarchy): the full
    /// per-query record — home, resolution level, simulated latency,
    /// message count, entry server.
    Resolved(QueryOutcome),
    /// A remove completed; `home` is the former home (`None` if the path
    /// was homed nowhere).
    Removed {
        /// Where the file used to live.
        home: Option<MdsId>,
    },
    /// A rename migrated metadata between homes. `old_home` is where
    /// `from` lived (`None` = rename of an absent path, a no-op);
    /// `new_home` is where `to` now lives.
    Renamed {
        /// The home `from` was removed at.
        old_home: Option<MdsId>,
        /// The home `to` was created at.
        new_home: Option<MdsId>,
    },
}

impl OpOutcome {
    /// The lookup record, for [`OpOutcome::Resolved`] outcomes.
    #[must_use]
    pub fn query(&self) -> Option<&QueryOutcome> {
        match self {
            OpOutcome::Resolved(outcome) => Some(outcome),
            _ => None,
        }
    }

    /// The op's resulting home, when one exists: the created home, the
    /// resolved home, the removed-from home, or a rename's new home.
    #[must_use]
    pub fn home(&self) -> Option<MdsId> {
        match self {
            OpOutcome::Created { home } => Some(*home),
            OpOutcome::Resolved(outcome) => outcome.home,
            OpOutcome::Removed { home } => *home,
            OpOutcome::Renamed { new_home, .. } => *new_home,
        }
    }
}

/// The scheme hooks [`execute_vectored`] drives: entry-policy resolution,
/// fused lookup runs, and the write primitives.
///
/// Implemented twice, both generic over the cluster's topology: by the
/// cluster itself for the `&mut` entry, and by the small per-batch value
/// that binds a shared reference to the snapshot pinned at admission
/// (the `&self` entry), so every scheme and both entries share one batch
/// pipeline (fusion rules, rename migration, outcome assembly) and
/// therefore one, property-tested, execution semantics.
pub(crate) trait VectoredScheme {
    /// Resolves the serving MDS for op `op_index` under `policy` among
    /// `ids`, the scheme's live servers in ascending order (listed once
    /// per batch by [`execute_vectored`]'s caller: membership cannot
    /// change while the batch borrows the scheme).
    /// [`EntryPolicy::Random`] must draw from the scheme's one
    /// deterministic RNG stream, so a single-threaded replay draws the
    /// same servers through either entry.
    fn resolve_entry(&mut self, ids: &[MdsId], policy: EntryPolicy, op_index: usize) -> MdsId;

    /// `true` when a fused run's lookups fill per-entry L1 state (an LRU
    /// filter array), which makes a repeated `(entry, path)` pair
    /// order-sensitive within the run — the pipeline then splits the run
    /// so the later lookup observes the earlier one's fill, exactly as a
    /// sequential stream would. Schemes without an L1 level (BFA, or
    /// clusters configured with `lru_capacity = 0`) and the `&self`
    /// entries (which never fill L1) return `false` and fuse straight
    /// through flash-crowd repeats.
    fn repeat_sensitive(&self) -> bool;

    /// Resolves a fused run of concurrent lookups — one walk of the
    /// scheme's hierarchy against one pinned snapshot, each item
    /// carrying its key's admission fingerprint — returning one outcome
    /// per item in order.
    fn lookup_fused(&mut self, items: &[WalkItem<'_>]) -> Vec<QueryOutcome>;

    /// Creates `key` at `home`, reusing the admission fingerprint: on
    /// the `&mut` entry store, live filter and gated delta publish; on
    /// the `&self` entry a pending record in `key`'s namespace shard.
    fn apply_create(&mut self, key: &PathKey, home: MdsId);

    /// Removes `key` from its home, returning the former home (`None`
    /// if the path is homed nowhere — then nothing changes).
    fn apply_remove(&mut self, key: &PathKey) -> Option<MdsId>;
}

/// Executes `batch` against `scheme`, whose live servers are `ids`
/// (ascending): the one mixed-op pipeline every scheme and both entries
/// share.
///
/// * Maximal runs of consecutive lookups are **fused** and resolved by
///   one [`VectoredScheme::lookup_fused`] call (what a scheme keeps
///   from one run of a batch to the next — the `&self` entry's plans
///   and tally — is the scheme value's business, not the driver's); a
///   run is split only
///   before a repeated `(entry, path)` pair on
///   [`repeat_sensitive`](VectoredScheme::repeat_sensitive) schemes,
///   whose later occurrence must observe the earlier lookup's L1 cache
///   fill exactly as a sequential replay would (found through a per-run
///   set of `(entry, fingerprint)` pairs, not a scan of the run). A run
///   walks on the thread that submitted the batch (the concurrency
///   model is stated once, in [`crate::cluster`]).
/// * Writes execute in stream order, between the read runs.
/// * Outcomes are assembled once, into the returned vector: a run
///   covers contiguous ops, so a flushed run's outcomes and then each
///   write's are pushed in stream order (debug builds check each index)
///   — no per-op placeholder, no second pass.
/// * [`MetadataOp::Rename`] migrates: remove at the old home, then
///   create at the policy-chosen new home (drawn only when the source
///   existed, so the RNG stream is the same through either entry) —
///   never both at once, so the `&self` entry holds one shard lock at
///   a time.
///
/// Outcomes match issuing every op as its own 1-op batch, up to the
/// concurrent-request caveat spelled out in the module-level docs:
/// within a fused run, an earlier same-entry lookup's L1 fill for a
/// *different* path is not observed (an L1-false-positive-grade effect;
/// same-path repeats are split exactly so the common case is exact).
pub(crate) fn execute_vectored<S: VectoredScheme + ?Sized>(
    scheme: &mut S,
    ids: &[MdsId],
    batch: &OpBatch,
) -> Vec<OpOutcome> {
    let ops = batch.ops();
    let policy = batch.entry_policy();
    let mut outcomes: Vec<OpOutcome> = Vec::with_capacity(ops.len());
    // The fused read run: `(op index, entry server)` pairs awaiting one
    // lookup pass, and — on repeat-sensitive schemes — the same pairs
    // keyed by `(entry, fingerprint lanes)` → op index of the first.
    let mut run: Vec<(usize, MdsId)> = Vec::new();
    let mut seen: HashMap<(MdsId, Fingerprint), usize, BuildLaneHasher> = HashMap::default();

    // Op `i` finishes next: a fused run covers contiguous lookups (every
    // write flushes it first), so ops finish in stream order.
    fn push(outcomes: &mut Vec<OpOutcome>, i: usize, outcome: OpOutcome) {
        debug_assert_eq!(outcomes.len(), i, "op {i} finished out of stream order");
        outcomes.push(outcome);
    }

    fn flush<S: VectoredScheme + ?Sized>(
        scheme: &mut S,
        ops: &[MetadataOp],
        run: &mut Vec<(usize, MdsId)>,
        outcomes: &mut Vec<OpOutcome>,
    ) {
        if run.is_empty() {
            return;
        }
        let items: Vec<WalkItem<'_>> = run
            .iter()
            .map(|&(i, entry)| {
                let MetadataOp::Lookup(key) = &ops[i] else {
                    unreachable!("only lookups join the fused run");
                };
                (entry, key.path(), *key.fingerprint())
            })
            .collect();
        for (&(i, _), outcome) in run.iter().zip(scheme.lookup_fused(&items)) {
            push(outcomes, i, OpOutcome::Resolved(outcome));
        }
        run.clear();
    }

    let repeat_sensitive = scheme.repeat_sensitive();
    for (i, op) in ops.iter().enumerate() {
        match op {
            MetadataOp::Lookup(key) => {
                let entry = scheme.resolve_entry(ids, policy, i);
                if repeat_sensitive {
                    let pair = (entry, *key.fingerprint());
                    // Equal lanes are the same path up to a 128-bit
                    // collision; the path compare keeps a collision
                    // from splitting the run.
                    if seen
                        .get(&pair)
                        .is_some_and(|&j| ops[j].path() == key.path())
                    {
                        // The later lookup must see the earlier one's
                        // L1 fill, as a sequential stream would.
                        flush(scheme, ops, &mut run, &mut outcomes);
                    }
                    if run.is_empty() {
                        // Every flush empties the run: the set restarts.
                        seen.clear();
                    }
                    seen.entry(pair).or_insert(i);
                }
                run.push((i, entry));
            }
            MetadataOp::Create(key) => {
                flush(scheme, ops, &mut run, &mut outcomes);
                let home = scheme.resolve_entry(ids, policy, i);
                scheme.apply_create(key, home);
                push(&mut outcomes, i, OpOutcome::Created { home });
            }
            MetadataOp::Remove(key) => {
                flush(scheme, ops, &mut run, &mut outcomes);
                let home = scheme.apply_remove(key);
                push(&mut outcomes, i, OpOutcome::Removed { home });
            }
            MetadataOp::Rename { from, to } => {
                flush(scheme, ops, &mut run, &mut outcomes);
                let old_home = scheme.apply_remove(from);
                let new_home = old_home.map(|_| {
                    let home = scheme.resolve_entry(ids, policy, i);
                    scheme.apply_create(to, home);
                    home
                });
                push(&mut outcomes, i, OpOutcome::Renamed { old_home, new_home });
            }
        }
    }
    flush(scheme, ops, &mut run, &mut outcomes);
    debug_assert_eq!(outcomes.len(), ops.len(), "every op produced an outcome");
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycle_paths_empties_the_batch_into_the_pool() {
        let mut batch = OpBatch::new().with_entry(EntryPolicy::Pinned(MdsId(3)));
        batch.push_lookup("/a");
        batch.push_rename("/b", "/c");
        batch.push_remove("/d");
        let mut pool = vec![String::from("/kept")];
        batch.recycle_paths(&mut pool);
        assert!(batch.is_empty());
        assert_eq!(batch.entry_policy(), EntryPolicy::Pinned(MdsId(3)));
        assert_eq!(pool, ["/kept", "/a", "/b", "/c", "/d"]);
    }

    #[test]
    fn resolve_unique_identity_without_duplicates() {
        let items = ["a", "b", "c"];
        let (uniques, assign) = resolve_unique(&items, |s| *s);
        assert_eq!(uniques, vec![0, 1, 2]);
        assert_eq!(assign, vec![0, 1, 2]);
    }

    #[test]
    fn resolve_unique_maps_duplicates_to_first_occurrence() {
        let items = ["x", "y", "x", "z", "y", "x"];
        let (uniques, assign) = resolve_unique(&items, |s| *s);
        assert_eq!(uniques, vec![0, 1, 3]);
        assert_eq!(assign, vec![0, 1, 0, 2, 1, 0]);
        for (i, &slot) in assign.iter().enumerate() {
            assert_eq!(items[uniques[slot as usize] as usize], items[i]);
        }
    }

    /// The walk's key: equal `(entry, lane)` with different paths (a
    /// forged lane collision) stay two walks; true repeats still merge,
    /// and a repeat at another entry does not.
    #[test]
    fn resolve_unique_compares_paths_on_equal_lanes() {
        let fp = Fingerprint::from_lanes(42, 0);
        let items: [WalkItem<'_>; 4] = [
            (MdsId(1), "/a", fp),
            (MdsId(1), "/b", fp),
            (MdsId(1), "/a", fp),
            (MdsId(2), "/a", fp),
        ];
        let (uniques, assign) = resolve_unique(&items, WalkKey::of);
        assert_eq!(uniques, vec![0, 1, 3]);
        assert_eq!(assign, vec![0, 1, 0, 2]);
    }

    #[test]
    fn resolve_unique_empty() {
        let (uniques, assign) = resolve_unique::<u32, u32, _>(&[], |&v| v);
        assert!(uniques.is_empty());
        assert!(assign.is_empty());
    }

    #[test]
    fn round_robin_resolves_at_cursor_extremes_without_overflow() {
        let ids = [MdsId(0), MdsId(1), MdsId(2)];
        let mut policy = EntryPolicy::RoundRobin { start: usize::MAX };
        // usize::MAX % 3 == 0; op_index 1 wraps past MAX to 0.
        assert_eq!(policy.resolve_deterministic(&ids, 0), Some(MdsId(0)));
        assert_eq!(policy.resolve_deterministic(&ids, 1), Some(MdsId(0)));
        // The cursor itself wraps in place without panicking.
        let before = policy.advance(5);
        assert_eq!(before, EntryPolicy::RoundRobin { start: usize::MAX });
        assert_eq!(policy, EntryPolicy::RoundRobin { start: 4 });
    }

    #[test]
    fn path_key_hashes_once_and_matches() {
        let key = PathKey::new("/a/b/c");
        assert_eq!(key.path(), "/a/b/c");
        assert_eq!(key.fingerprint(), &Fingerprint::of("/a/b/c"));
    }

    #[test]
    fn batch_admission_builds_typed_ops() {
        let mut batch = OpBatch::new().with_entry(EntryPolicy::Pinned(MdsId(3)));
        batch.push_lookup("/x");
        batch.push_create("/y");
        batch.push_remove("/x");
        batch.push_rename("/y", "/z");
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.entry_policy(), EntryPolicy::Pinned(MdsId(3)));
        assert!(batch.ops()[0].is_read());
        assert!(!batch.ops()[1].is_read());
        assert_eq!(batch.ops()[3].path(), "/y");
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.entry_policy(), EntryPolicy::Pinned(MdsId(3)));
    }

    #[test]
    fn outcome_homes() {
        let created = OpOutcome::Created { home: MdsId(1) };
        assert_eq!(created.home(), Some(MdsId(1)));
        assert!(created.query().is_none());
        let removed = OpOutcome::Removed { home: None };
        assert_eq!(removed.home(), None);
        let renamed = OpOutcome::Renamed {
            old_home: Some(MdsId(0)),
            new_home: Some(MdsId(2)),
        };
        assert_eq!(renamed.home(), Some(MdsId(2)));
    }
}
