//! The scheme-agnostic metadata service interface.
//!
//! The paper compares G-HBA against HBA, whose servers each mirror every
//! filter. [`MetadataService`] is the seam the two layouts share, so
//! figures and trace replay drive either one through one interface.
//!
//! The seam is **vectored**: the required operations are
//! [`execute`](MetadataService::execute) and its shared-reference twin
//! [`execute_concurrent`](MetadataService::execute_concurrent), which
//! take a typed, pre-hashed [`OpBatch`] (mixed
//! creates/lookups/removes/renames under an explicit
//! [`EntryPolicy`](crate::EntryPolicy)) and return per-op
//! [`OpOutcome`]s. The classic string calls (`create`, `lookup`,
//! `remove`, …) are provided shims expressed as 1-op batches under
//! [`EntryPolicy::Random`](crate::EntryPolicy::Random), the paper's
//! client model — same semantics, none of the batching. A caller that
//! wants another policy, or more than one op, builds the batch.

use std::sync::Arc;

use crate::cluster::{Cluster, Topology, WalkArena};
use crate::ids::MdsId;
use crate::op::{
    execute_vectored, EntryPolicy, OpBatch, OpOutcome, PathKey, VectoredScheme, WalkItem,
};
use crate::query::QueryOutcome;
use crate::snapshot::RouteSnapshot;

/// A distributed metadata lookup scheme under test.
///
/// Implemented once, for the cluster engine: [`GhbaCluster`](crate::GhbaCluster)
/// and [`HbaCluster`](crate::HbaCluster) share that impl. The two
/// batch entries and the three descriptive methods are required; every
/// string-call entry point is a 1-op-batch shim, and the cluster has no
/// other string API.
pub trait MetadataService {
    /// Scheme name for reports ("G-HBA", "HBA", …).
    fn scheme_name(&self) -> &'static str;

    /// Number of metadata servers.
    fn server_count(&self) -> usize;

    /// Executes a typed op batch, returning one [`OpOutcome`] per op in
    /// admission order, through the one shared driver
    /// and the engine's one hierarchy walk.
    ///
    /// Contract of this `&mut` entry: pending `&self` state is drained
    /// first; each fused run of consecutive lookups pins one probe
    /// snapshot and walks it; a found home **fills the entry server's
    /// L1 LRU**, per occurrence in stream order, so a later run (or a
    /// repeated `(entry, path)` pair, which splits the run) observes
    /// it; lookup statistics are **folded into the scheme's stats
    /// before the call returns**; each write, in stream order, is the
    /// `&self` entry's shard-log record drained at once — so it reaches
    /// the WAL, when one is attached, before its effects apply — then
    /// its home's gated delta publish; renames migrate end-to-end.
    /// Outcomes are bit-identical to executing every op as its own 1-op
    /// batch.
    fn execute(&mut self, batch: &OpBatch) -> Vec<OpOutcome>;

    /// Executes a typed op batch through a **shared reference**: the
    /// same driver and the same walk as
    /// [`execute`](MetadataService::execute), bound to one probe
    /// snapshot pinned at batch admission.
    ///
    /// Contract of this `&self` entry: the batch runs on the calling
    /// thread (parallelism is many threads submitting batches, each
    /// under its own pin). Every fused run of the batch walks that one
    /// pin through one walk arena, and the walk's L2 and L3 plans —
    /// functions of the snapshot alone — are built once per snapshot, by
    /// the first walk on any thread that needs each, and read by every
    /// later one; so no outcome, statistic or counter, mask consults
    /// included, can tell a fused batch from 1-op batches on either
    /// layout. The walk **never fills L1**, and its
    /// statistics reach the cluster's unfolded tally once, under one
    /// lock, after the batch's last op — a batch that panics records
    /// none. Writes
    /// append to fingerprint-sharded overlay logs, one shard lock each,
    /// visible to the same era's walks through that overlay and the
    /// home's live probe (so a pending create resolves at its true
    /// home, at L4 from a foreign group).
    /// **Nothing here publishes**: published columns move only at
    /// `push_update`/`flush_all_updates`, so this entry never takes the
    /// route writer lock and any number of threads may call it while
    /// reconfiguration publishes successor snapshots. Authoritative
    /// per-server state and the scheme's stats are reconciled at the
    /// next `&mut` entry point (any [`execute`](MetadataService::execute)
    /// call, or `GhbaCluster::drain_concurrent` explicitly).
    ///
    /// Single-threaded, the outcome stream equals
    /// [`execute`](MetadataService::execute)'s exactly when (a)
    /// `lru_capacity == 0` (no L1 fill to observe), (b) no home's drift
    /// crosses `update_threshold_bits` inside the batch (the funnel
    /// would publish there), and (c) no lookup follows a remove of the
    /// same fingerprint in the batch (a pending remove stays in the live
    /// probe until the drain: same home, different latency). Under
    /// concurrency every resolved home is the true home at pin time
    /// modulo this era's pending writes.
    fn execute_concurrent(&self, batch: &OpBatch) -> Vec<OpOutcome>;

    /// Average bytes of Bloom filter structures per MDS (own filter, LRU
    /// array, held replicas) — the Table 5 quantity.
    fn filter_memory_per_mds(&self) -> usize;

    /// Creates metadata for `path` at a random home, returning it.
    /// Back-compat shim: a 1-op [`OpBatch`].
    fn create(&mut self, path: &str) -> MdsId {
        let mut batch = OpBatch::new();
        batch.push_create(path);
        match self.execute(&batch).pop() {
            Some(OpOutcome::Created { home }) => home,
            other => unreachable!("create op yields Created, got {other:?}"),
        }
    }

    /// Looks up the home MDS of `path` from a random entry server.
    /// Back-compat shim: a 1-op [`OpBatch`].
    fn lookup(&mut self, path: &str) -> QueryOutcome {
        let mut batch = OpBatch::new();
        batch.push_lookup(path);
        match self.execute(&batch).pop() {
            Some(OpOutcome::Resolved(outcome)) => outcome,
            other => unreachable!("lookup op yields Resolved, got {other:?}"),
        }
    }

    /// Removes `path`'s metadata, returning its former home.
    /// Back-compat shim: a 1-op [`OpBatch`].
    fn remove(&mut self, path: &str) -> Option<MdsId> {
        let mut batch = OpBatch::new();
        batch.push_remove(path);
        match self.execute(&batch).pop() {
            Some(OpOutcome::Removed { home }) => home,
            other => unreachable!("remove op yields Removed, got {other:?}"),
        }
    }

    /// Renames `from` to `to` (metadata migration), returning the old and
    /// new homes. Shim: a 1-op [`OpBatch`].
    fn rename(&mut self, from: &str, to: &str) -> (Option<MdsId>, Option<MdsId>) {
        let mut batch = OpBatch::new();
        batch.push_rename(from, to);
        match self.execute(&batch).pop() {
            Some(OpOutcome::Renamed { old_home, new_home }) => (old_home, new_home),
            other => unreachable!("rename op yields Renamed, got {other:?}"),
        }
    }
}

impl<T: Topology> VectoredScheme for Cluster<T> {
    fn resolve_entry(&mut self, ids: &[MdsId], policy: EntryPolicy, op_index: usize) -> MdsId {
        self.entry_for(ids, policy, op_index)
    }

    fn repeat_sensitive(&self) -> bool {
        // No LRU level (`lru_capacity = 0`) ⇒ no per-entry fill a repeat
        // could observe.
        self.config().lru_capacity > 0
    }

    fn lookup_fused(&mut self, items: &[WalkItem<'_>]) -> Vec<QueryOutcome> {
        self.lookup_items(items)
    }

    fn apply_create(&mut self, key: &PathKey, home: MdsId) {
        self.create_drained(key, home);
    }

    fn apply_remove(&mut self, key: &PathKey) -> Option<MdsId> {
        self.remove_drained(key)
    }
}

/// One `execute_concurrent` batch: the shared cluster bound to the
/// routing snapshot pinned at admission. An owned pin — one `Arc` clone
/// to take, valid across successor publishes, never blocks a publisher
/// while held — dropped when the batch's outcomes are assembled. The
/// pin's walk arena lives as long: under `&self` no `Mds` mutates and
/// the pin is fixed, so what the batch's first run decided holds for
/// its last, however many writes it recorded in between.
struct PinnedBatch<'a, T: Topology> {
    cluster: &'a Cluster<T>,
    snap: Arc<RouteSnapshot>,
    arena: WalkArena,
}

impl<T: Topology> VectoredScheme for PinnedBatch<'_, T> {
    fn resolve_entry(&mut self, ids: &[MdsId], policy: EntryPolicy, op_index: usize) -> MdsId {
        self.cluster.entry_for(ids, policy, op_index)
    }

    fn repeat_sensitive(&self) -> bool {
        // The pinned walk never fills the L1 cache, so a repeated path
        // cannot observe an earlier op of the same fused run.
        false
    }

    fn lookup_fused(&mut self, items: &[WalkItem<'_>]) -> Vec<QueryOutcome> {
        self.cluster
            .lookup_fused_pinned(&self.snap, items, &mut self.arena)
    }

    fn apply_create(&mut self, key: &PathKey, home: MdsId) {
        self.cluster.apply_create_shared(key, home);
    }

    fn apply_remove(&mut self, key: &PathKey) -> Option<MdsId> {
        self.cluster.apply_remove_shared(key, &mut self.arena)
    }
}

/// The one implementation, behind G-HBA and HBA: both entries hand the
/// shared driver the same hooks, so the schemes differ in their replica
/// layout and nowhere else.
impl<T: Topology> MetadataService for Cluster<T> {
    fn scheme_name(&self) -> &'static str {
        T::NAME
    }

    fn server_count(&self) -> usize {
        self.server_count()
    }

    fn execute(&mut self, batch: &OpBatch) -> Vec<OpOutcome> {
        // Listed once per batch: no op of a batch changes membership.
        let ids = self.server_ids();
        execute_vectored(self, &ids, batch)
    }

    fn execute_concurrent(&self, batch: &OpBatch) -> Vec<OpOutcome> {
        let mut pinned = PinnedBatch {
            cluster: self,
            snap: self.routes.pin(),
            arena: WalkArena::default(),
        };
        let outcomes = execute_vectored(&mut pinned, &self.server_ids(), batch);
        // Explicitly, not in `Drop`: a batch that panicked above has
        // recorded nothing.
        self.absorb_walks(&pinned.arena);
        outcomes
    }

    fn filter_memory_per_mds(&self) -> usize {
        let n = self.server_count();
        if n == 0 {
            return 0;
        }
        let total: usize = self
            .server_ids()
            .into_iter()
            .map(|id| self.filter_memory_bytes(id))
            .sum();
        total / n
    }
}
