//! Counting Bloom filters — deletable membership summaries.
//!
//! The paper's ID Bloom filter array (IDBFA, §2.4) uses counting filters so
//! that replica-location entries can be *removed* when a replica migrates to
//! a different MDS during group reconfiguration. The L1 LRU array likewise
//! needs deletion on eviction.

use std::hash::Hash;

use crate::error::{BloomError, FilterShape};
use crate::filter::BloomFilter;
use crate::hash::{probe_indices, Fingerprint};

/// A Bloom filter with per-position counters, supporting removal.
///
/// Counters are 8-bit and saturate at 255. A saturated counter is never
/// decremented (the standard safety rule: decrementing a saturated counter
/// could introduce false negatives), so pathological overload degrades
/// gracefully into a permanently-set bit rather than a correctness loss.
///
/// # Examples
///
/// ```
/// use ghba_bloom::CountingBloomFilter;
///
/// let mut f = CountingBloomFilter::new(1024, 4, 0);
/// f.insert("replica-of-mds-7");
/// assert!(f.contains("replica-of-mds-7"));
/// f.remove("replica-of-mds-7")?;
/// assert!(!f.contains("replica-of-mds-7"));
/// # Ok::<(), ghba_bloom::BloomError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountingBloomFilter {
    counters: Vec<u8>,
    bits: usize,
    hashes: u32,
    seed: u64,
    items: usize,
}

impl CountingBloomFilter {
    /// Creates an empty counting filter with `bits` counters and `hashes`
    /// hash functions, keyed by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0` or `hashes == 0`.
    #[must_use]
    pub fn new(bits: usize, hashes: u32, seed: u64) -> Self {
        assert!(bits > 0, "filter must have at least one counter");
        assert!(hashes > 0, "filter must use at least one hash");
        CountingBloomFilter {
            counters: vec![0; bits],
            bits,
            hashes,
            seed,
            items: 0,
        }
    }

    /// Creates a counting filter sized for `expected_items` at
    /// `bits_per_item` counters per item, with the optimal hash count.
    ///
    /// # Panics
    ///
    /// Panics if `expected_items == 0` or `bits_per_item <= 0.0`.
    #[must_use]
    pub fn for_items(expected_items: usize, bits_per_item: f64) -> Self {
        assert!(expected_items > 0, "expected_items must be positive");
        assert!(
            bits_per_item > 0.0 && bits_per_item.is_finite(),
            "bits_per_item must be positive and finite"
        );
        let bits = ((expected_items as f64) * bits_per_item).ceil().max(64.0) as usize;
        let hashes = crate::analysis::optimal_hash_count(bits_per_item);
        CountingBloomFilter::new(bits, hashes, 0)
    }

    /// Returns `self` re-keyed with `seed` (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if any item has already been inserted.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        assert!(
            self.items == 0,
            "cannot re-seed a filter that already holds items"
        );
        self.seed = seed;
        self
    }

    /// The compatibility shape (counter count plays the role of bit count).
    #[must_use]
    pub fn shape(&self) -> FilterShape {
        FilterShape {
            bits: self.bits,
            hashes: self.hashes,
            seed: self.seed,
        }
    }

    /// Number of counters.
    #[must_use]
    pub fn counter_len(&self) -> usize {
        self.bits
    }

    /// Number of hash functions.
    #[must_use]
    pub fn hash_count(&self) -> u32 {
        self.hashes
    }

    /// Hash-family seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Net number of items currently represented (inserts minus removals).
    #[must_use]
    pub fn item_count(&self) -> usize {
        self.items
    }

    /// `true` when no item is represented.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Heap footprint in bytes (one byte per counter).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.counters.len()
    }

    /// Inserts `item`, incrementing its counters (saturating at 255).
    pub fn insert<T: Hash + ?Sized>(&mut self, item: &T) {
        self.insert_fp(&Fingerprint::of(item));
    }

    /// Hash-once variant of [`insert`](CountingBloomFilter::insert).
    pub fn insert_fp(&mut self, fp: &Fingerprint) {
        self.insert_rows(fp.probes(self.seed, self.bits, self.hashes));
    }

    /// Inserts one item given its probe rows for this filter's
    /// [`shape`](CountingBloomFilter::shape) — [`Fingerprint::probes`], or
    /// rows a caller derived once for several filters of the shape
    /// ([`crate::RowDeriver`]).
    ///
    /// # Panics
    ///
    /// Panics (via indexing) if a row is outside this filter's width.
    pub fn insert_rows(&mut self, rows: impl IntoIterator<Item = usize>) {
        for idx in rows {
            self.counters[idx] = self.counters[idx].saturating_add(1);
        }
        self.items += 1;
    }

    /// Probabilistic membership test: `false` means definitely absent.
    #[must_use]
    pub fn contains<T: Hash + ?Sized>(&self, item: &T) -> bool {
        probe_indices(item, self.seed, self.bits, self.hashes).all(|idx| self.counters[idx] > 0)
    }

    /// Hash-once variant of [`contains`](CountingBloomFilter::contains);
    /// answers identically to `contains` for the fingerprinted item.
    #[must_use]
    pub fn contains_fp(&self, fp: &Fingerprint) -> bool {
        fp.probes(self.seed, self.bits, self.hashes)
            .all(|idx| self.counters[idx] > 0)
    }

    /// Removes one occurrence of `item`, decrementing its counters.
    ///
    /// Saturated counters (255) are left untouched per the standard rule.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::AbsentItem`] — without modifying any counter —
    /// if some counter for `item` is already zero (the item was definitely
    /// never inserted, or was already removed).
    pub fn remove<T: Hash + ?Sized>(&mut self, item: &T) -> Result<(), BloomError> {
        self.remove_fp(&Fingerprint::of(item), None)
    }

    /// Hash-once variant of [`remove`](CountingBloomFilter::remove) that
    /// can keep a plain projection exact: see
    /// [`remove_rows`](CountingBloomFilter::remove_rows).
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::AbsentItem`] under the same conditions as
    /// [`remove`](CountingBloomFilter::remove).
    pub fn remove_fp(
        &mut self,
        fp: &Fingerprint,
        plain: Option<&mut BloomFilter>,
    ) -> Result<(), BloomError> {
        self.remove_rows(fp.probes(self.seed, self.bits, self.hashes), plain)
    }

    /// Removes one item given its probe rows (see
    /// [`insert_rows`](CountingBloomFilter::insert_rows)). Given `plain`
    /// equal to [`to_bloom_filter`](CountingBloomFilter::to_bloom_filter)
    /// before the call, it clears the bit of every counter this removal
    /// takes to zero (saturated counters stay set) and copies the item
    /// count, so the equality holds after it — in O(k), not O(m).
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::AbsentItem`] — without modifying any counter —
    /// if some row's counter is already zero.
    pub fn remove_rows(
        &mut self,
        rows: impl Iterator<Item = usize> + Clone,
        mut plain: Option<&mut BloomFilter>,
    ) -> Result<(), BloomError> {
        if !rows.clone().all(|idx| self.counters[idx] > 0) {
            return Err(BloomError::AbsentItem);
        }
        debug_assert!(plain.as_ref().is_none_or(|p| p.shape() == self.shape()));
        for idx in rows {
            let c = &mut self.counters[idx];
            if *c != u8::MAX {
                *c -= 1;
                if *c == 0 {
                    if let Some(plain) = plain.as_mut() {
                        plain.words_mut()[idx / 64] &= !(1 << (idx % 64));
                    }
                }
            }
        }
        self.items = self.items.saturating_sub(1);
        if let Some(plain) = plain {
            plain.set_items(self.items);
        }
        Ok(())
    }

    /// Resets the filter to empty, keeping its shape.
    pub fn clear(&mut self) {
        self.counters.fill(0);
        self.items = 0;
    }

    /// Number of non-zero counters.
    #[must_use]
    pub fn ones(&self) -> usize {
        self.counters.iter().filter(|&&c| c > 0).count()
    }

    /// Fraction of non-zero counters, in `[0, 1]`.
    #[must_use]
    pub fn fill_ratio(&self) -> f64 {
        self.ones() as f64 / self.bits as f64
    }

    /// Estimated false-positive probability from the observed fill ratio.
    #[must_use]
    pub fn estimated_fpp(&self) -> f64 {
        self.fill_ratio().powi(self.hashes as i32)
    }

    /// Collapses the counters into a plain [`BloomFilter`] with the same
    /// shape (counter > 0 ⇒ bit set): replicas are plain filters, only the
    /// owner needs counters. O(m) — the reference projection tests compare
    /// against; an owner keeps its own projection equal to it in O(k) per
    /// mutation (`insert_fp` on both, [`remove_fp`](Self::remove_fp)).
    #[must_use]
    pub fn to_bloom_filter(&self) -> BloomFilter {
        let mut plain = BloomFilter::new(self.bits, self.hashes, self.seed);
        for (idx, &c) in self.counters.iter().enumerate() {
            if c > 0 {
                plain.words_mut()[idx / 64] |= 1 << (idx % 64);
            }
        }
        plain.set_items(self.items);
        plain
    }

    /// Largest counter value (diagnostics: how close to saturation).
    #[must_use]
    pub fn max_counter(&self) -> u8 {
        self.counters.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_roundtrip() {
        let mut f = CountingBloomFilter::new(512, 4, 1);
        f.insert("a");
        f.insert("b");
        assert!(f.contains("a"));
        f.remove("a").unwrap();
        assert!(!f.contains("a"));
        assert!(f.contains("b"));
        assert_eq!(f.item_count(), 1);
    }

    #[test]
    fn remove_absent_is_error_and_nondestructive() {
        let mut f = CountingBloomFilter::new(512, 4, 1);
        f.insert("present");
        let before = f.clone();
        assert_eq!(f.remove("never-inserted"), Err(BloomError::AbsentItem));
        assert_eq!(f, before);
    }

    #[test]
    fn double_insert_requires_double_remove() {
        let mut f = CountingBloomFilter::new(512, 4, 1);
        f.insert("x");
        f.insert("x");
        f.remove("x").unwrap();
        assert!(f.contains("x"), "one copy should remain");
        f.remove("x").unwrap();
        assert!(!f.contains("x"));
    }

    #[test]
    fn to_bloom_filter_preserves_membership() {
        let mut f = CountingBloomFilter::new(2048, 5, 9);
        for i in 0..200u32 {
            f.insert(&i);
        }
        let plain = f.to_bloom_filter();
        for i in 0..200u32 {
            assert!(plain.contains(&i));
        }
        assert_eq!(plain.item_count(), 200);
        assert_eq!(plain.shape(), f.shape());
        assert_eq!(plain.ones(), f.ones());
    }

    #[test]
    fn saturation_never_causes_false_negative() {
        let mut f = CountingBloomFilter::new(8, 2, 3);
        // Hammer a tiny filter far past saturation.
        for i in 0..10_000u32 {
            f.insert(&i);
        }
        assert_eq!(f.max_counter(), u8::MAX);
        // Removing items cannot clear saturated counters, so earlier items
        // must still test positive.
        for i in 1_000..2_000u32 {
            let _ = f.remove(&i);
        }
        for i in 0..1_000u32 {
            assert!(f.contains(&i));
        }
    }

    #[test]
    fn clear_resets_counters() {
        let mut f = CountingBloomFilter::new(64, 2, 0);
        f.insert("x");
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.ones(), 0);
    }

    #[test]
    fn for_items_geometry() {
        let f = CountingBloomFilter::for_items(100, 10.0);
        assert!(f.counter_len() >= 1000);
        assert_eq!(f.hash_count(), 7); // 10 ln2 ≈ 6.93
    }

    #[test]
    fn memory_is_one_byte_per_counter() {
        let f = CountingBloomFilter::new(777, 3, 0);
        assert_eq!(f.memory_bytes(), 777);
    }
}
