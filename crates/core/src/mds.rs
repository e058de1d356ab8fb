//! Per-server state: the metadata store, the counting filter behind the
//! server's live column, the L1 LRU array, the memory budget and the
//! publish cadence.
//!
//! A server's Bloom filter exists twice, and each copy is **one column**
//! of one of the cluster's two bit-sliced slabs, at the same slot
//! ([`Mds::slot`]):
//!
//! * the **live** column, in the cluster's live slab, tracks the store
//!   exactly. The counting filter kept here is what makes `unlink`
//!   work: a create sets its rows' cells, a remove clears the cell of
//!   every counter it takes to zero. Walks read it, and the remove's
//!   locator;
//! * the **published** column, in the pinned snapshot's slab, is the
//!   replica other servers hold. It lags the live column until the
//!   XOR-distance threshold triggers a refresh (§3.4) — the lag is what
//!   sends queries to L4 in Figure 13.
//!
//! The lag runs from a server's first mutation after a publish to its
//! next publish. Outside it the server is **clean** ([`Mds::is_clean`])
//! and its two columns are equal, bit for bit. Inside it, the
//! *dirty-block bitmap* marks every 64-row block of the column in which
//! a live cell flipped since the publish: the columns differ nowhere
//! else, so the drift check and the publish read those blocks only.

use ghba_bloom::{
    BloomFilter, CountingBloomFilter, FilterShape, Fingerprint, LruBloomArray, RowDeriver,
    SharedShapeArray,
};
use ghba_simnet::MemoryBudget;

use crate::config::GhbaConfig;
use crate::ids::MdsId;
use crate::metadata::{CompactPath, MetadataStore};

/// Charge labels within each server's [`MemoryBudget`].
const CHARGE_LOCAL: &str = "local";
const CHARGE_LRU: &str = "lru";
const CHARGE_REPLICAS: &str = "replicas";
const CHARGE_METACACHE: &str = "metacache";

/// Bytes of cache one metadata entry occupies (inode + dentry + slack).
pub const META_ENTRY_BYTES: usize = 512;

/// The shape every server's live/published filter uses under `config`.
///
/// All servers of a cluster share it, which is what lets a cluster (either
/// replica layout) keep live filters and published replicas in two
/// bit-sliced [`SharedShapeArray`]s.
#[must_use]
pub fn published_shape(config: &GhbaConfig) -> FilterShape {
    FilterShape {
        bits: config.filter_bits(),
        hashes: config.filter_hashes(),
        seed: config.seed ^ 0x5E6_3E47, // filter family distinct from LRU's
    }
}

/// Probe rows as the filters' `*_rows` mutations read them.
pub(crate) fn row_indices(rows: &[u32]) -> impl Iterator<Item = usize> + Clone + '_ {
    rows.iter().map(|&row| row as usize)
}

/// The slab of every server's live column (see the module docs).
pub(crate) type LiveSlab = SharedShapeArray<MdsId>;

/// Marks the 64-row block holding `row` in a dirty-block bitmap.
fn mark_block(dirty: &mut [u64], row: usize) {
    let block = row / 64;
    dirty[block / 64] |= 1 << (block % 64);
}

/// One metadata server.
#[derive(Debug, Clone)]
pub struct Mds {
    id: MdsId,
    /// This server's column in both slabs.
    slot: usize,
    store: MetadataStore,
    /// The counters behind the live column: one count per stored path on
    /// each of its rows, so a remove knows which cells to clear.
    counts: CountingBloomFilter,
    /// One bit per 64-row block of the column, set where a live cell
    /// flipped since the last publish (or everywhere, for a column that
    /// arrived by another route while the server was dirty).
    dirty: Vec<u64>,
    lru: Option<LruBloomArray<MdsId>>,
    memory: Option<MemoryBudget>,
    mutations_since_publish: u64,
    /// Mutations since the last *exact* drift check (or publish), so the
    /// drift distance runs at the gated cadence instead of on every
    /// mutation once the publish gate is passed.
    mutations_since_drift_check: u64,
    replica_charge_count: usize,
}

impl Mds {
    /// Creates an empty server under `config`, whose column is `slot` of
    /// the cluster's slabs.
    #[must_use]
    pub(crate) fn new(id: MdsId, slot: usize, config: &GhbaConfig) -> Self {
        let FilterShape { bits, hashes, seed } = published_shape(config);
        let lru = (config.lru_capacity > 0).then(|| {
            LruBloomArray::new(
                config.lru_capacity,
                config.lru_bits,
                config.lru_hashes,
                config.seed ^ 0x14B_0A11,
            )
        });
        let memory = config.memory_per_mds.map(MemoryBudget::new);
        let mut mds = Mds {
            id,
            slot,
            store: MetadataStore::new(),
            counts: CountingBloomFilter::new(bits, hashes, seed),
            dirty: vec![0; bits.div_ceil(64).div_ceil(64)],
            lru,
            memory,
            mutations_since_publish: 0,
            mutations_since_drift_check: 0,
            replica_charge_count: 0,
        };
        mds.recharge_memory();
        mds
    }

    /// This server's id.
    #[must_use]
    pub fn id(&self) -> MdsId {
        self.id
    }

    /// This server's column in the live slab and in the published one:
    /// its bit of a row-AND of either.
    pub(crate) fn slot(&self) -> usize {
        self.slot
    }

    /// The authoritative metadata store.
    #[must_use]
    pub fn store(&self) -> &MetadataStore {
        &self.store
    }

    /// Number of files homed here.
    #[must_use]
    pub fn file_count(&self) -> usize {
        self.store.len()
    }

    /// The L1 LRU array, if enabled.
    #[must_use]
    pub fn lru(&self) -> Option<&LruBloomArray<MdsId>> {
        self.lru.as_ref()
    }

    /// Mutable access to the L1 LRU array, if enabled.
    pub fn lru_mut(&mut self) -> Option<&mut LruBloomArray<MdsId>> {
        self.lru.as_mut()
    }

    /// Stores `path` and counts it; `true` when it is new here (a
    /// re-create bumps its version and the cadence, not a counter).
    fn admit(
        &mut self,
        path: impl Into<CompactPath>,
        fp: &Fingerprint,
        rows: impl Iterator<Item = usize>,
    ) -> bool {
        let existed = self.store.create_fp(path, fp).is_some();
        // The counting filter holds exactly one count per stored path, so
        // a later remove clears its bits fully instead of stranding a
        // permanent false positive — and live state stays a pure function
        // of the namespace (the property checkpoint/WAL recovery rebuilds
        // it from).
        if !existed {
            self.counts.insert_rows(rows);
        }
        self.mutations_since_publish += 1;
        self.mutations_since_drift_check += 1;
        self.recharge_metacache();
        !existed
    }

    /// Inserts `path` into the store, the counting filter and the live
    /// column (`live`, the cluster's live slab) — with `path`'s
    /// admission-time fingerprint, so no byte is hashed here.
    pub(crate) fn create_local_fp(
        &mut self,
        live: &mut LiveSlab,
        path: impl Into<CompactPath>,
        fp: &Fingerprint,
    ) {
        let FilterShape { bits, hashes, seed } = self.counts.shape();
        self.create_local_rows(live, path, fp, fp.probes(seed, bits, hashes));
    }

    /// [`create_local_fp`](Mds::create_local_fp) for a caller that also
    /// holds `fp`'s probe rows for [`published_shape`] — a drain derives
    /// them division-free, once for the counters and the column — and
    /// whose [`CompactPath`] (a drained record's) moves into the store's
    /// bucket as it is. A new path sets its rows' cells and marks the
    /// blocks of the cells that flipped.
    pub(crate) fn create_local_rows(
        &mut self,
        live: &mut LiveSlab,
        path: impl Into<CompactPath>,
        fp: &Fingerprint,
        rows: impl Iterator<Item = usize> + Clone,
    ) {
        if self.admit(path, fp, rows.clone()) {
            for row in rows {
                if live.set_cell(self.slot, row) {
                    mark_block(&mut self.dirty, row);
                }
            }
        }
    }

    /// Removes `path` from the store, the counting filter and the live
    /// column; returns `false` when the path was not homed here. (The
    /// cluster removes through [`remove_local_rows`](Mds::remove_local_rows)
    /// with rows it derived once; tests remove by fingerprint.)
    #[cfg(test)]
    pub(crate) fn remove_local_fp(
        &mut self,
        live: &mut LiveSlab,
        path: &str,
        fp: &Fingerprint,
    ) -> bool {
        let FilterShape { bits, hashes, seed } = self.counts.shape();
        self.remove_local_rows(live, path.as_bytes(), fp, fp.probes(seed, bits, hashes))
    }

    /// [`remove_local_fp`](Mds::remove_local_fp) over precomputed probe
    /// rows (see [`create_local_rows`](Mds::create_local_rows)): the cell
    /// of every counter the removal takes to zero is cleared and its
    /// block marked.
    pub(crate) fn remove_local_rows(
        &mut self,
        live: &mut LiveSlab,
        path: &[u8],
        fp: &Fingerprint,
        rows: impl Iterator<Item = usize> + Clone,
    ) -> bool {
        if self.store.remove_fp(path, fp).is_none() {
            return false;
        }
        let (slot, dirty) = (self.slot, &mut self.dirty);
        let removed = self.counts.remove_rows(rows, |row| {
            live.clear_cell(slot, row);
            mark_block(dirty, row);
        });
        debug_assert!(removed.is_ok(), "live filter desynchronized from store");
        self.mutations_since_publish += 1;
        self.mutations_since_drift_check += 1;
        self.recharge_metacache();
        true
    }

    /// Authoritative membership check (the "disk" verification of L4 and
    /// of unique-hit confirmation).
    #[must_use]
    pub fn stores(&self, path: &str) -> bool {
        self.store.contains(path)
    }

    /// [`stores`](Mds::stores) for a caller holding the path's bytes and
    /// fingerprint: the verification of a walk hashes no bytes.
    #[must_use]
    pub fn stores_fp(&self, path: &[u8], fp: &Fingerprint) -> bool {
        self.store.contains_fp(path, fp)
    }

    /// Probes the live filter through its counters: no false negatives
    /// for files homed here; false positives possible. Answers exactly
    /// like the server's live column.
    #[must_use]
    pub fn probe_live(&self, path: &str) -> bool {
        self.counts.contains(path)
    }

    /// The counters behind the live column (the invariant check compares
    /// the column against them).
    pub(crate) fn counts(&self) -> &CountingBloomFilter {
        &self.counts
    }

    /// The dirty-block bitmap: bit `b` marks rows `64·b .. 64·b + 64` of
    /// the column, where the live and published columns may differ.
    pub(crate) fn dirty_blocks(&self) -> &[u64] {
        &self.dirty
    }

    /// Marks every block dirty: the published column arrived by a route
    /// that is not a publish of this live column (a checkpoint restore),
    /// so nothing is known about where the two differ.
    pub(crate) fn mark_all_blocks(&mut self) {
        self.dirty.fill(u64::MAX);
    }

    /// Mutations since the last publish (a cheap proxy consulted before
    /// paying for the exact XOR distance).
    #[must_use]
    pub fn mutations_since_publish(&self) -> u64 {
        self.mutations_since_publish
    }

    /// `true` when nothing mutated this server since its last publish —
    /// and then its live column equals its published one, bit for bit.
    /// Every live-cell change bumps the counter this reads (a re-create
    /// bumps it without moving a bit: dirty does not mean the columns
    /// differ). A new server starts clean, and only a publish, an
    /// evacuation and a checkpoint restore zero the counter — the first
    /// two leave the columns equal, and a restore zeroes it only for a
    /// server captured clean, whose live column the replayed namespace
    /// rebuilds. `Cluster::check_invariants` checks it (invariant 9).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.mutations_since_publish == 0
    }

    /// `true` when enough mutations have accumulated — since the last
    /// publish *and* since the last exact check — that paying for the
    /// exact drift distance is warranted.
    ///
    /// Without the second clause, a server whose drift hovers under the
    /// threshold would recompute the exact distance on **every** mutation
    /// once past the publish gate; with it, exact checks run at the gated
    /// cadence. Pair with [`note_drift_checked`](Mds::note_drift_checked)
    /// when the check does not lead to a publish.
    #[must_use]
    pub fn drift_check_due(&self, gate: u64) -> bool {
        self.mutations_since_publish >= gate && self.mutations_since_drift_check >= gate
    }

    /// Records that an exact drift check ran (and came up under
    /// threshold), restarting the cadence countdown.
    pub fn note_drift_checked(&mut self) {
        self.mutations_since_drift_check = 0;
    }

    /// Records a publish of this server's column: the cadence restarts and
    /// no block is dirty any more.
    pub(crate) fn mark_published(&mut self) {
        self.mutations_since_publish = 0;
        self.mutations_since_drift_check = 0;
        self.dirty.fill(0);
    }

    /// Whether a publish would change this server's durable state: a
    /// cadence counter to restart (a checkpoint captures them). A clean
    /// server has no drift to publish either (invariant 9).
    pub(crate) fn publish_changes_state(&self) -> bool {
        self.mutations_since_publish != 0 || self.mutations_since_drift_check != 0
    }

    /// The publish-cadence counters `(since_publish, since_drift_check)`
    /// — captured into checkpoints so recovery resumes the gated drift
    /// protocol exactly where the crash left it.
    pub(crate) fn durable_counters(&self) -> (u64, u64) {
        (
            self.mutations_since_publish,
            self.mutations_since_drift_check,
        )
    }

    /// Net number of paths counted in the live filter — the item count a
    /// refreshed published column takes.
    pub(crate) fn item_count(&self) -> usize {
        self.counts.item_count()
    }

    /// Everything a write touches here — the store's files with their
    /// attributes (sorted), the counters, the dirty blocks, both cadence
    /// counters — for twin comparisons (the live column is the cluster's).
    #[cfg(test)]
    pub(crate) fn write_state(&self) -> impl PartialEq + core::fmt::Debug + '_ {
        let mut files: Vec<_> = self
            .store
            .paths()
            .map(|path| (path, *self.store.get(path).expect("listed")))
            .collect();
        files.sort_unstable_by_key(|&(path, _)| path);
        (files, &self.counts, &self.dirty, self.durable_counters())
    }

    /// Checkpoint restore: adopts the decoded namespace — the store is
    /// sized once for it and takes each [`CompactPath`] as it is, each
    /// path is hashed once over its bytes (a checkpoint stores no
    /// fingerprint, and the decoder already checked the UTF-8), and each
    /// file's probe rows come from one `RowDeriver` (no division). The
    /// live column is returned as a filter built while inserting, for the
    /// caller to load into the live slab with everyone else's in one
    /// pass; nothing else keeps it.
    ///
    /// The hash belongs here, not in the decoder: beside the inserts its
    /// byte loop overlaps their cache misses, and in the decoder it does
    /// not (restoring 200k files, the decode took ≈ 5 ms longer for a
    /// restore ≈ 3 ms shorter).
    pub(crate) fn restore_files(&mut self, files: Vec<CompactPath>) -> BloomFilter {
        let shape = self.counts.shape();
        let mut column = BloomFilter::new(shape.bits, shape.hashes, shape.seed);
        self.store.reserve(files.len());
        let deriver = RowDeriver::new(shape);
        let mut rows = Vec::new();
        for path in files {
            let fp = Fingerprint::of(&path);
            rows.clear();
            deriver.rows_into(&fp, &mut rows);
            if self.admit(path, &fp, row_indices(&rows)) {
                column.insert_rows(row_indices(&rows));
            }
        }
        column
    }

    /// Checkpoint restore: lands the publish-cadence counters. Called
    /// *after* the namespace has been replayed (which bumps them), so the
    /// captured values win. A server captured dirty has its published
    /// column from the checkpoint, not from a publish of this live column:
    /// every block is marked.
    pub(crate) fn restore_counters(&mut self, since_publish: u64, since_drift: u64) {
        self.mutations_since_publish = since_publish;
        self.mutations_since_drift_check = since_drift;
        if since_publish == 0 {
            self.dirty.fill(0);
        } else {
            self.mark_all_blocks();
        }
    }

    /// Hands every file (path and attributes) to the caller and empties
    /// the store, the counters and the cadence — the departing-server
    /// path of group reconfiguration. The live column goes with the
    /// server, when the cluster forgets it.
    pub(crate) fn evacuate(&mut self) -> Vec<CompactPath> {
        let paths: Vec<CompactPath> = self.store.drain().map(|(p, _)| p).collect();
        self.counts.clear();
        self.mark_published();
        paths
    }

    /// Updates the replica memory charge to `count` replicas of this
    /// cluster's filter size.
    pub fn set_replica_charge(&mut self, count: usize) {
        self.replica_charge_count = count;
        self.recharge_memory();
    }

    /// Number of this server's held replicas that are resident in RAM
    /// (the rest spill to disk). Equals `held` when no budget is set.
    #[must_use]
    pub fn resident_replicas(&self, held: usize) -> usize {
        match &self.memory {
            Some(budget) => budget.resident_items(CHARGE_REPLICAS, held),
            None => held,
        }
    }

    /// Bytes of one plain filter of this cluster's shape — one published
    /// column, one replica.
    fn filter_bytes(&self) -> usize {
        self.counts.counter_len().div_ceil(64) * 8
    }

    /// Total bytes of filter structures this server keeps (its own filter,
    /// its LRU array, and `held` replicas) — the per-MDS figure behind
    /// Table 5.
    #[must_use]
    pub fn filter_memory_bytes(&self, held: usize) -> usize {
        self.filter_bytes()
            + self.lru.as_ref().map_or(0, LruBloomArray::memory_bytes)
            + held * self.filter_bytes()
    }

    /// Expected cost of serving one metadata access at this server: a
    /// memory probe when the entry is cached, a disk access otherwise,
    /// blended by the cache-resident fraction of the metadata working set.
    ///
    /// The metadata cache is the *lowest*-priority memory charge: Bloom
    /// filter replicas evict it first (they are probed on every query),
    /// which is how memory pressure turns into the latency growth of
    /// Figures 8–10. Without a memory budget everything is resident and
    /// the cost is the memory probe alone — the blend's exact value
    /// (`mul_f64(0.0)` is zero), without its float round trip on every
    /// verification.
    #[must_use]
    pub fn metadata_access_cost(&self, model: &ghba_simnet::LatencyModel) -> core::time::Duration {
        match &self.memory {
            Some(budget) => {
                let resident = budget.resident_fraction(CHARGE_METACACHE);
                model.memory_probe + model.disk_access.mul_f64(1.0 - resident)
            }
            None => model.memory_probe,
        }
    }

    fn recharge_metacache(&mut self) {
        if let Some(budget) = &mut self.memory {
            // Metadata cache outranks replicas: a real MDS keeps its hot
            // dentries/inodes pinned and pages cold Bloom filter replicas
            // out — so growing cache demand progressively spills replicas
            // (the Figures 8–10 mechanism).
            budget.charge(CHARGE_METACACHE, 1, self.store.len() * META_ENTRY_BYTES);
            // The LRU array grows as homes are seen; keep its charge
            // honest so replicas feel true memory pressure.
            let lru = self.lru.as_ref().map_or(0, LruBloomArray::memory_bytes);
            budget.charge(CHARGE_LRU, 0, lru);
        }
    }

    fn recharge_memory(&mut self) {
        let local = self.filter_bytes() + self.counts.memory_bytes();
        let lru = self.lru.as_ref().map_or(0, LruBloomArray::memory_bytes);
        let replicas = self.replica_charge_count * self.filter_bytes();
        if let Some(budget) = &mut self.memory {
            budget.charge(CHARGE_LOCAL, 0, local);
            budget.charge(CHARGE_LRU, 0, lru);
            budget.charge(CHARGE_REPLICAS, 2, replicas);
        }
        self.recharge_metacache();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> GhbaConfig {
        GhbaConfig::default()
            .with_filter_capacity(1_000)
            .with_bits_per_file(12.0)
            .with_seed(5)
    }

    /// A server with its column in a fresh live slab.
    fn server(config: &GhbaConfig) -> (Mds, LiveSlab) {
        let mut live = LiveSlab::new(published_shape(config));
        let slot = live.push(MdsId(0)).expect("fresh slab");
        (Mds::new(MdsId(0), slot, config), live)
    }

    fn live_column(live: &LiveSlab) -> BloomFilter {
        live.extract(MdsId(0)).expect("pushed")
    }

    #[test]
    fn create_then_probe_and_verify() {
        let (mut mds, mut live) = server(&test_config());
        mds.create_local_fp(&mut live, "/a/b/c", &Fingerprint::of("/a/b/c"));
        assert!(mds.stores("/a/b/c"));
        assert!(mds.probe_live("/a/b/c"));
        assert!(live_column(&live).contains("/a/b/c"));
        assert_eq!(mds.file_count(), 1);
        assert!(!mds.is_clean());
    }

    #[test]
    fn remove_clears_filter_membership() {
        let (mut mds, mut live) = server(&test_config());
        let fp = Fingerprint::of("/x");
        mds.create_local_fp(&mut live, "/x", &fp);
        assert!(mds.remove_local_fp(&mut live, "/x", &fp));
        assert!(!mds.stores("/x"));
        assert!(!mds.probe_live("/x"));
        assert_eq!(live_column(&live).ones(), 0);
        assert!(!mds.remove_local_fp(&mut live, "/x", &fp));
    }

    /// Replays `(op, file)` pairs — 0/1 create (or re-create), 2 remove
    /// (or remove-absent), 3 publish into a published twin slab — on a
    /// deliberately tiny shape: 24 counters, k = 2, so items share
    /// counters and some probe one row twice. After **every** op the live
    /// column must be the counters' projection, a row-AND of the live
    /// slab must agree with `probe_live`, and the live and published
    /// columns may differ only in marked blocks.
    fn replay_checked(ops: impl IntoIterator<Item = (u8, u16)>) -> (Mds, LiveSlab, LiveSlab) {
        let config = test_config()
            .with_filter_capacity(8)
            .with_bits_per_file(3.0);
        let shape = published_shape(&config);
        let (mut mds, mut live) = server(&config);
        let mut published = LiveSlab::new(shape);
        published.push_at(MdsId(0), mds.slot()).expect("twin slot");
        let (mut rows, mut anded) = (Vec::new(), Vec::new());
        let clean_blocks =
            |mds: &Mds| -> Vec<u64> { mds.dirty_blocks().iter().map(|w| !w).collect() };
        for (op, file) in ops {
            let path = format!("/t/f{file}");
            let fp = Fingerprint::of(path.as_str());
            match op {
                0 | 1 => mds.create_local_fp(&mut live, path.as_str(), &fp),
                2 => {
                    let stored = mds.stores(&path);
                    assert_eq!(mds.remove_local_fp(&mut live, &path, &fp), stored);
                }
                _ => {
                    let blocks = mds.dirty_blocks().to_vec();
                    let origin = [(mds.slot(), &blocks[..], mds.item_count())];
                    published.copy_blocks_from(&live, &origin).expect("twins");
                    mds.mark_published();
                    assert!(mds.is_clean());
                }
            }
            assert!(mds.counts.projects_to(&live_column(&live)), "{op} {path}");
            let outside = published.column_distance(&live, mds.slot(), &clean_blocks(&mds));
            assert_eq!(
                outside, 0,
                "{op} {path}: a difference outside the marked blocks"
            );
            rows.clear();
            fp.probe_rows_into(shape.seed, shape.bits, shape.hashes, &mut rows);
            live.and_rows(row_indices(&rows), &mut anded);
            assert_eq!(anded[0] & 1 == 1, mds.probe_live(&path), "{path}");
        }
        (mds, live, published)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Random streams after 2,900 files came and went, which pins some
        /// (not all) of the 24 counters at `u8::MAX`: those cells must stay
        /// set through every unlink, every other cell must clear exactly
        /// when its counter reaches zero.
        #[test]
        fn live_column_is_exact_after_every_op(
            ops in proptest::collection::vec((0u8..4, 0u16..40), 1..400),
        ) {
            let ballast = (0..2).flat_map(|op| (0..2_900).map(move |f| (op * 2, f)));
            let (mds, ..) = replay_checked(ballast.chain(ops));
            proptest::prop_assert_eq!(mds.counts.max_counter(), u8::MAX);
        }
    }

    /// A create between an unlink and the next publish (the case the
    /// retired lazy projection had to special-case) as one `replay_checked`
    /// input: files 0 = keep, 1 = gone, 2 = after.
    #[test]
    fn create_after_unlink_publishes_correctly() {
        let (mds, live, published) = replay_checked([(0, 0), (0, 1), (2, 1), (0, 2), (3, 0)]);
        let column = published.extract(MdsId(0)).expect("pushed");
        assert!(column.contains("/t/f0"));
        assert!(column.contains("/t/f2"));
        assert_eq!(column.item_count(), 2);
        assert_eq!(live_column(&live).xor_distance(&column), Ok(0));
        assert!(mds.dirty_blocks().iter().all(|&w| w == 0));
    }

    #[test]
    fn evacuate_returns_all_files_and_clears() {
        let (mut mds, mut live) = server(&test_config());
        for path in ["/a", "/b"] {
            mds.create_local_fp(&mut live, path, &Fingerprint::of(path));
        }
        let mut files: Vec<String> = mds
            .evacuate()
            .into_iter()
            .map(CompactPath::into_string)
            .collect();
        files.sort();
        assert_eq!(files, vec!["/a".to_owned(), "/b".to_owned()]);
        assert_eq!(mds.file_count(), 0);
        assert!(!mds.probe_live("/a"));
        assert!(mds.is_clean());
    }

    #[test]
    fn remove_heavy_workload_keeps_filter_and_store_in_sync() {
        let (mut mds, mut live) = server(&test_config());
        let fp = |i: u32| Fingerprint::of(format!("/rm/f{i}").as_str());
        for i in 0..200 {
            mds.create_local_fp(&mut live, format!("/rm/f{i}"), &fp(i));
        }
        for i in 0..150 {
            assert!(mds.remove_local_fp(&mut live, &format!("/rm/f{i}"), &fp(i)));
        }
        let column = live_column(&live);
        for i in 0..150 {
            assert!(!mds.stores(&format!("/rm/f{i}")));
        }
        for i in 150..200 {
            let path = format!("/rm/f{i}");
            assert!(mds.stores(&path));
            assert!(column.contains(&path), "no false negatives for {path}");
        }
        assert_eq!(mds.item_count(), 50);
        assert!(mds.counts.projects_to(&column));
    }

    #[test]
    fn drift_check_cadence_is_gated() {
        let (mut mds, mut live) = server(&test_config());
        let mut create = |mds: &mut Mds, i: u32| {
            let path = format!("/g/f{i}");
            mds.create_local_fp(&mut live, path.as_str(), &Fingerprint::of(path.as_str()));
        };
        let gate = 10;
        for i in 0..9 {
            create(&mut mds, i);
        }
        assert!(!mds.drift_check_due(gate));
        create(&mut mds, 9);
        assert!(mds.drift_check_due(gate));
        // An under-threshold exact check restarts the cadence: the next
        // exact check must wait another `gate` mutations, even though the
        // publish gate stays passed.
        mds.note_drift_checked();
        assert!(!mds.drift_check_due(gate));
        for i in 10..19 {
            create(&mut mds, i);
        }
        assert!(!mds.drift_check_due(gate));
        create(&mut mds, 19);
        assert!(mds.drift_check_due(gate));
        mds.mark_published();
        assert!(!mds.drift_check_due(gate));
    }

    #[test]
    fn unlimited_memory_keeps_all_replicas_resident() {
        let (mds, _) = server(&test_config());
        assert_eq!(mds.resident_replicas(50), 50);
    }

    #[test]
    fn tight_memory_spills_replicas() {
        let filter_bytes = test_config().filter_bits().div_ceil(64) * 8;
        // Room for local structures plus ~3 replicas.
        let config = test_config().with_memory_per_mds(filter_bytes * 14);
        let (mut mds, _) = server(&config);
        mds.set_replica_charge(10);
        let resident = mds.resident_replicas(10);
        assert!(resident < 10, "expected spill, all resident");
        assert!(resident > 0, "expected some residency");
    }

    #[test]
    fn lru_disabled_when_capacity_zero() {
        let (mds, _) = server(&test_config().with_lru_capacity(0));
        assert!(mds.lru().is_none());
    }

    /// A replica costs one plain filter of the cluster's shape, whatever
    /// slab holds it.
    #[test]
    fn filter_memory_counts_replicas() {
        let config = test_config();
        let (mds, live) = server(&config);
        let own = BloomFilter::new(config.filter_bits(), 1, 0).memory_bytes();
        assert_eq!(live_column(&live).memory_bytes(), own);
        assert_eq!(
            mds.filter_memory_bytes(4) - mds.filter_memory_bytes(0),
            4 * own
        );
    }
}
