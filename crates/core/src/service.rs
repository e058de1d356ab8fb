//! The scheme-agnostic metadata service interface.
//!
//! The paper compares G-HBA against HBA, pure Bloom filter arrays, and
//! hash-based placement. [`MetadataService`] is the seam those schemes
//! share, so benchmarks and trace replay treat every scheme uniformly.
//!
//! The seam is **vectored**: the one required operation is
//! [`execute`](MetadataService::execute), which takes a typed, pre-hashed
//! [`OpBatch`] (mixed creates/lookups/removes/renames under an explicit
//! [`EntryPolicy`](crate::EntryPolicy)) and returns per-op
//! [`OpOutcome`]s. The classic string calls (`create`, `lookup`,
//! `remove`, …) are provided shims expressed as 1-op batches — same
//! semantics, none of the batching.

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
/// Implemented once for the cluster engine — [`GhbaCluster`](crate::GhbaCluster)
/// and [`HbaCluster`](crate::HbaCluster) share that impl — and by the BFA
/// wrapper in `ghba-baselines`. Only [`execute`](MetadataService::execute) and the
/// three descriptive methods are required; every string-call entry point
/// is a 1-op-batch shim.
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
    /// before the call returns**; writes apply to the authoritative
    /// stores in stream order with their gated grouped delta publishes;
    /// renames migrate end-to-end. Outcomes are bit-identical to
    /// executing every op as its own 1-op batch.
    fn execute(&mut self, batch: &OpBatch) -> Vec<OpOutcome>;

    /// Executes a typed op batch through a **shared reference**: the
    /// same driver and the same walk as
    /// [`execute`](MetadataService::execute), bound to one probe
    /// snapshot pinned at batch admission.
    ///
    /// Contract of this `&self` entry: every fused run of the batch
    /// walks that one pin (fanned across the exec pool) through one
    /// walk arena — what depends only on `(pin, entry)` is planned once
    /// per batch, not once per run, which no outcome, statistic or
    /// counter can tell from 1-op batches (except that HBA, which
    /// builds its L2 mask per plan instead of caching it, counts that
    /// build once per batch); the walk **never fills L1**, and its
    /// statistics reach the wait-free atomic counters once, after the
    /// batch's last op — a batch that panics records none. Writes
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
    ///
    /// The default panics: schemes opt in by overriding. G-HBA, HBA, and
    /// BFA all do.
    fn execute_concurrent(&self, batch: &OpBatch) -> Vec<OpOutcome> {
        let _ = batch;
        panic!(
            "{} does not implement concurrent batch execution",
            self.scheme_name()
        );
    }

    /// Average bytes of Bloom filter structures per MDS (own filter, LRU
    /// array, held replicas) — the Table 5 quantity.
    fn filter_memory_per_mds(&self) -> usize;

    /// Sets the [`EntryPolicy`] the string-call shims execute under.
    ///
    /// The shims each build a **fresh** 1-op batch, so stateful policies
    /// cannot live on the batch: `RoundRobin { start }` state must
    /// persist on the service and advance across calls (otherwise every
    /// shim call would re-enter at `start` and the "round robin" would
    /// pin one server). Schemes store the policy and advance any cursor
    /// in [`next_shim_policy`](MetadataService::next_shim_policy); the
    /// default implementation ignores the request and keeps the
    /// historical `Random` behaviour.
    fn set_shim_policy(&mut self, policy: EntryPolicy) {
        let _ = policy;
    }

    /// Returns the policy for the next shim batch of `ops` ops,
    /// advancing any service-side round-robin cursor past them. The
    /// default is [`EntryPolicy::Random`] (the paper's client model).
    fn next_shim_policy(&mut self, ops: usize) -> EntryPolicy {
        let _ = ops;
        EntryPolicy::Random
    }

    /// Creates metadata for `path` at a random home, returning it.
    /// Back-compat shim: a 1-op [`OpBatch`].
    fn create(&mut self, path: &str) -> MdsId {
        let policy = self.next_shim_policy(1);
        let mut batch = OpBatch::new().with_entry(policy);
        batch.push_create(path);
        match self.execute(&batch).pop() {
            Some(OpOutcome::Created { home }) => home,
            other => unreachable!("create op yields Created, got {other:?}"),
        }
    }

    /// Looks up the home MDS of `path` from a random entry server.
    /// Back-compat shim: a 1-op [`OpBatch`].
    fn lookup(&mut self, path: &str) -> QueryOutcome {
        let policy = self.next_shim_policy(1);
        let mut batch = OpBatch::new().with_entry(policy);
        batch.push_lookup(path);
        match self.execute(&batch).pop() {
            Some(OpOutcome::Resolved(outcome)) => outcome,
            other => unreachable!("lookup op yields Resolved, got {other:?}"),
        }
    }

    /// Resolves a batch of concurrent lookups, each from a random entry
    /// server, returning one outcome per path in order. Shim over one
    /// all-lookup [`OpBatch`].
    fn lookup_batch(&mut self, paths: &[&str]) -> Vec<QueryOutcome> {
        let policy = self.next_shim_policy(paths.len());
        let mut batch = OpBatch::new().with_entry(policy);
        for path in paths {
            batch.push_lookup(*path);
        }
        self.execute(&batch)
            .into_iter()
            .map(|outcome| match outcome {
                OpOutcome::Resolved(outcome) => outcome,
                other => unreachable!("lookup op yields Resolved, got {other:?}"),
            })
            .collect()
    }

    /// Removes `path`'s metadata, returning its former home.
    /// Back-compat shim: a 1-op [`OpBatch`].
    fn remove(&mut self, path: &str) -> Option<MdsId> {
        let policy = self.next_shim_policy(1);
        let mut batch = OpBatch::new().with_entry(policy);
        batch.push_remove(path);
        match self.execute(&batch).pop() {
            Some(OpOutcome::Removed { home }) => home,
            other => unreachable!("remove op yields Removed, got {other:?}"),
        }
    }

    /// Renames `from` to `to` (metadata migration), returning the old and
    /// new homes. Shim: a 1-op [`OpBatch`].
    fn rename(&mut self, from: &str, to: &str) -> (Option<MdsId>, Option<MdsId>) {
        let policy = self.next_shim_policy(1);
        let mut batch = OpBatch::new().with_entry(policy);
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
        // No LRU level ⇒ no per-entry fill a repeat could observe (this
        // is every BFA, which runs with `lru_capacity = 0`).
        self.config().lru_capacity > 0
    }

    fn lookup_fused(&mut self, items: &[WalkItem<'_>]) -> Vec<QueryOutcome> {
        self.lookup_items(items)
    }

    fn apply_create(&mut self, key: &PathKey, home: MdsId) {
        self.create_file_keyed(key, home);
    }

    fn apply_remove(&mut self, key: &PathKey) -> Option<MdsId> {
        self.remove_file_keyed(key)
    }
}

/// One `execute_concurrent` batch: the shared cluster bound to the
/// routing snapshot pinned at admission. An owned pin — one `Arc` clone
/// to take, valid across successor publishes, never blocks a publisher
/// while held — dropped when the batch's outcomes are assembled. The
/// pin's walk arena lives as long: under `&self` no `Mds` mutates and
/// the pin is fixed, so what the batch's first run planned holds for
/// its last, however many writes it recorded in between.
struct PinnedBatch<'a, T: Topology> {
    cluster: &'a Cluster<T>,
    snap: Arc<RouteSnapshot>,
    arena: WalkArena<'a>,
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

/// The one implementation behind G-HBA and HBA (BFA wraps the latter):
/// both entries hand the shared driver the same hooks, so the schemes
/// differ in their replica layout and nowhere else.
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

    fn set_shim_policy(&mut self, policy: EntryPolicy) {
        self.shim_entry = policy;
    }

    fn next_shim_policy(&mut self, ops: usize) -> EntryPolicy {
        self.shim_entry.advance(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::GhbaCluster;
    use crate::config::GhbaConfig;

    fn config() -> GhbaConfig {
        GhbaConfig::default()
            .with_filter_capacity(1_000)
            .with_max_group_size(4)
            .with_seed(5)
    }

    /// N string-shim calls under a service-side round-robin policy visit
    /// N distinct entry servers in id order: the cursor persists on the
    /// service, not on the (fresh-per-call) 1-op batch.
    #[test]
    fn round_robin_shim_state_persists_across_calls() {
        let n = 10;
        let mut cluster = GhbaCluster::with_servers(config(), n);
        cluster.create("/rr/file");
        cluster.set_shim_policy(EntryPolicy::RoundRobin { start: 0 });
        let ids = cluster.server_ids();
        // `GhbaCluster::lookup` (the inherent walk) shadows the trait
        // shim, so name the shim explicitly — it is the 1-op-batch path
        // under audit here.
        let entries: Vec<MdsId> = (0..n)
            .map(|_| MetadataService::lookup(&mut cluster, "/rr/file").entry)
            .collect();
        assert_eq!(entries, ids, "shim calls must advance the cursor");
        // The cursor wraps: the next call re-enters at the first server.
        assert_eq!(
            MetadataService::lookup(&mut cluster, "/rr/file").entry,
            ids[0]
        );
    }

    /// `lookup_batch` advances the cursor by its whole length, so a
    /// following 1-op shim continues where the batch left off.
    #[test]
    fn round_robin_cursor_advances_past_batches() {
        let mut cluster = GhbaCluster::with_servers(config(), 8);
        cluster.create("/rr/batched");
        cluster.set_shim_policy(EntryPolicy::RoundRobin { start: 0 });
        let ids = cluster.server_ids();
        let outcomes = MetadataService::lookup_batch(
            &mut cluster,
            &["/rr/batched", "/rr/batched", "/rr/batched"],
        );
        let entries: Vec<MdsId> = outcomes.iter().map(|o| o.entry).collect();
        assert_eq!(entries, ids[..3]);
        assert_eq!(
            MetadataService::lookup(&mut cluster, "/rr/batched").entry,
            ids[3]
        );
    }
}
