//! The L1 structure: an LRU Bloom filter array capturing temporal locality.
//!
//! §2.1 of the paper: *"each MDS is designed to maintain 'hot data', i.e.,
//! home MDS information for recently accessed files, that are stored in an
//! LRU Bloom filter array."* Plain Bloom filters cannot evict, so
//! [`LruBloomArray`] is an **exact LRU** (as in the HBA journal version):
//! an explicit recency queue over 128-bit file fingerprints drives
//! evictions, and per-home *counting* filters answer the actual
//! probabilistic query. The queue is bookkeeping only — queries never read
//! it, so L1 keeps the paper's false-positive behaviour.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

use crate::counting::CountingBloomFilter;
use crate::hash::Fingerprint;
use crate::shared::Hit;

/// Exact-LRU Bloom filter array over recently accessed `(file, home)` pairs.
///
/// Holds at most `capacity` distinct files; recording an existing file
/// refreshes its recency (and re-homes it if the home changed). Queries probe
/// the per-home counting filters, so results carry Bloom-filter false
/// positives exactly like any other level of the hierarchy.
///
/// # Examples
///
/// ```
/// use ghba_bloom::{Hit, LruBloomArray};
///
/// let mut lru = LruBloomArray::new(2, 1024, 4, 7);
/// lru.record("f1", 10u32);
/// lru.record("f2", 11u32);
/// lru.record("f3", 10u32); // evicts f1
/// assert_eq!(lru.query("f3"), Hit::Unique(10));
/// assert_eq!(lru.query("f1"), Hit::None);
/// ```
#[derive(Debug, Clone)]
pub struct LruBloomArray<I> {
    capacity: usize,
    filter_bits: usize,
    filter_hashes: u32,
    seed: u64,
    filters: Vec<(I, CountingBloomFilter)>,
    /// fingerprint → (home, latest sequence number)
    residents: HashMap<u128, (I, u64)>,
    /// Lazily cleaned recency queue of (sequence, fingerprint); stale pairs
    /// (sequence older than `residents`) are skipped at eviction time.
    order: VecDeque<(u64, u128)>,
    next_seq: u64,
}

impl<I: Copy + Eq> LruBloomArray<I> {
    /// Creates an LRU array holding up to `capacity` files, with per-home
    /// counting filters of `filter_bits` counters and `filter_hashes`
    /// hashes, keyed by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`, `filter_bits == 0`, or
    /// `filter_hashes == 0`.
    #[must_use]
    pub fn new(capacity: usize, filter_bits: usize, filter_hashes: u32, seed: u64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(filter_bits > 0, "filters must have at least one counter");
        assert!(filter_hashes > 0, "filters must use at least one hash");
        LruBloomArray {
            capacity,
            filter_bits,
            filter_hashes,
            seed,
            filters: Vec::new(),
            residents: HashMap::new(),
            order: VecDeque::new(),
            next_seq: 0,
        }
    }

    /// Maximum number of resident files.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of resident files.
    #[must_use]
    pub fn len(&self) -> usize {
        self.residents.len()
    }

    /// `true` when nothing is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.residents.is_empty()
    }

    fn filter_mut(&mut self, home: I) -> &mut CountingBloomFilter {
        if let Some(pos) = self.filters.iter().position(|(id, _)| *id == home) {
            return &mut self.filters[pos].1;
        }
        self.filters.push((
            home,
            CountingBloomFilter::new(self.filter_bits, self.filter_hashes, self.seed),
        ));
        &mut self.filters.last_mut().expect("just pushed").1
    }

    fn unrecord(&mut self, fp: u128, home: I) {
        if let Some((_, filter)) = self.filters.iter_mut().find(|(id, _)| *id == home) {
            // The fingerprint was inserted exactly once per residency, so
            // the removal must succeed; a failure would mean bookkeeping
            // desync, which we surface loudly in debug builds.
            let removed = filter.remove(&fp);
            debug_assert!(removed.is_ok(), "LRU bookkeeping desynchronized");
        }
    }

    fn evict_oldest(&mut self) {
        while let Some((seq, fp)) = self.order.pop_front() {
            match self.residents.get(&fp) {
                Some(&(home, live_seq)) if live_seq == seq => {
                    self.residents.remove(&fp);
                    self.unrecord(fp, home);
                    return;
                }
                _ => {
                    // Stale queue entry (the file was re-accessed later);
                    // skip and keep looking.
                }
            }
        }
    }

    /// Records an access to `item` whose home MDS is `home`.
    ///
    /// Re-recording refreshes recency; if the home changed (e.g. after a
    /// rename or migration) the stale mapping is replaced. May evict the
    /// least-recently used resident.
    pub fn record<T: Hash + ?Sized>(&mut self, item: &T, home: I) {
        self.record_fp(&Fingerprint::of(item), home);
    }

    /// Hash-once variant of [`record`](LruBloomArray::record): reuses a
    /// [`Fingerprint`] computed upstream (e.g. by the lookup that just
    /// resolved this item's home).
    pub fn record_fp(&mut self, item_fp: &Fingerprint, home: I) {
        let fp = item_fp.identity128(self.seed);
        let seq = self.next_seq;
        self.next_seq += 1;
        match self.residents.get_mut(&fp) {
            Some(entry) => {
                let (old_home, _) = *entry;
                if old_home != home {
                    self.unrecord(fp, old_home);
                    self.filter_mut(home).insert(&fp);
                }
                *self.residents.get_mut(&fp).expect("resident") = (home, seq);
            }
            None => {
                self.residents.insert(fp, (home, seq));
                self.filter_mut(home).insert(&fp);
                if self.residents.len() > self.capacity {
                    self.evict_oldest();
                }
            }
        }
        self.order.push_back((seq, fp));
        // Bound the lazy queue: compact when it grows well past the live set.
        if self.order.len() > self.capacity.saturating_mul(4).max(64) {
            self.compact_queue();
        }
    }

    fn compact_queue(&mut self) {
        let residents = &self.residents;
        self.order
            .retain(|(seq, fp)| residents.get(fp).is_some_and(|&(_, live)| live == *seq));
    }

    /// Probes the per-home filters with `item` and classifies positives.
    ///
    /// This is a *Bloom filter* query: false positives (including multi-hit
    /// ambiguity) are possible, false negatives are not (for resident
    /// files).
    #[must_use]
    pub fn query<T: Hash + ?Sized>(&self, item: &T) -> Hit<I> {
        self.query_fp(&Fingerprint::of(item))
    }

    /// Hash-once variant of [`query`](LruBloomArray::query): derives this
    /// array's 128-bit identity from `item_fp` (no re-hash of the item
    /// bytes), then digests it once more for the per-home filters. Answers
    /// identically to [`query`](LruBloomArray::query).
    #[must_use]
    pub fn query_fp(&self, item_fp: &Fingerprint) -> Hit<I> {
        let fp = item_fp.identity128(self.seed);
        // One 16-byte digest shared by every per-home filter probe.
        let probe = Fingerprint::of(&fp);
        let mut positives: Vec<I> = Vec::new();
        for (id, filter) in &self.filters {
            if filter.contains_fp(&probe) {
                positives.push(*id);
            }
        }
        match positives.len() {
            0 => Hit::None,
            1 => Hit::Unique(positives[0]),
            _ => Hit::Multiple(positives),
        }
    }

    /// Forgets every resident whose home is `home` (used when that MDS
    /// leaves the system or fails).
    pub fn purge_home(&mut self, home: I) {
        self.filters.retain(|(id, _)| *id != home);
        self.residents.retain(|_, (h, _)| *h != home);
        let residents = &self.residents;
        self.order.retain(|(_, fp)| residents.contains_key(fp));
    }

    /// Total heap footprint of the per-home filters in bytes (excludes the
    /// bookkeeping queue, which a production implementation sizes in the
    /// tens of bytes per resident).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.filters.iter().map(|(_, f)| f.memory_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_queryable() {
        let mut lru = LruBloomArray::new(10, 2048, 4, 5);
        lru.record("a", 1u32);
        lru.record("b", 2u32);
        assert_eq!(lru.query("a"), Hit::Unique(1));
        assert_eq!(lru.query("b"), Hit::Unique(2));
        assert_eq!(lru.query("c"), Hit::None);
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn eviction_is_lru_ordered() {
        let mut lru = LruBloomArray::new(2, 2048, 4, 5);
        lru.record("a", 1u32);
        lru.record("b", 1u32);
        lru.record("a", 1u32); // refresh a → b is now oldest
        lru.record("c", 1u32); // evicts b
        assert_eq!(lru.query("a"), Hit::Unique(1));
        assert_eq!(lru.query("c"), Hit::Unique(1));
        assert_eq!(lru.query("b"), Hit::None);
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn rehoming_replaces_stale_mapping() {
        let mut lru = LruBloomArray::new(4, 2048, 4, 5);
        lru.record("f", 1u32);
        lru.record("f", 2u32); // migrated
        assert_eq!(lru.query("f"), Hit::Unique(2));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn purge_home_forgets_everything_there() {
        let mut lru = LruBloomArray::new(8, 2048, 4, 5);
        lru.record("a", 1u32);
        lru.record("b", 2u32);
        lru.purge_home(1);
        assert_eq!(lru.query("a"), Hit::None);
        assert_eq!(lru.query("b"), Hit::Unique(2));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn heavy_churn_respects_capacity() {
        let mut lru = LruBloomArray::new(16, 4096, 4, 5);
        for i in 0..10_000u32 {
            lru.record(&i, (i % 3) as u64);
        }
        assert_eq!(lru.len(), 16);
        // The 16 most recent must all be resident and queryable.
        for i in 9_984..10_000u32 {
            assert!(lru.query(&i).is_unique(), "recent item {i} missing");
        }
    }

    #[test]
    fn memory_accounts_for_filters() {
        let mut lru = LruBloomArray::new(4, 1024, 4, 5);
        assert_eq!(lru.memory_bytes(), 0);
        lru.record("a", 1u32);
        assert_eq!(lru.memory_bytes(), 1024); // one counting filter, 1 B/counter
        lru.record("b", 2u32);
        assert_eq!(lru.memory_bytes(), 2048);
    }
}
