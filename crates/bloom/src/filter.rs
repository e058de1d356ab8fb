//! The plain (bit-vector) Bloom filter.
//!
//! This is the workhorse structure replicated between metadata servers in
//! both HBA and G-HBA: each MDS summarizes the set of files whose metadata it
//! stores into one `BloomFilter` and ships that filter to its peers.

use std::hash::Hash;

use crate::analysis;
use crate::error::{BloomError, FilterShape};
use crate::hash::{probe_indices, Fingerprint};

/// A space-efficient probabilistic set membership structure.
///
/// Guarantees **no false negatives** for items inserted since the last
/// [`clear`](BloomFilter::clear); false positives occur with a probability
/// controlled by the bits-per-item ratio (see [`analysis`]).
///
/// Two filters are *compatible* (and may be compared with
/// [`xor_distance`](BloomFilter::xor_distance)) iff they share the same
/// length, hash count, and hash seed — see [`FilterShape`].
///
/// # Examples
///
/// ```
/// use ghba_bloom::BloomFilter;
///
/// let mut filter = BloomFilter::for_items(1_000, 8.0);
/// filter.insert("home/alice/report.txt");
/// assert!(filter.contains("home/alice/report.txt"));
/// assert!(!filter.contains("home/bob/absent.txt") || filter.estimated_fpp() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    words: Vec<u64>,
    bits: usize,
    hashes: u32,
    seed: u64,
    items: usize,
}

const MAGIC: &[u8; 4] = b"GBF1";

impl BloomFilter {
    /// Creates an empty filter with exactly `bits` bits and `hashes` hash
    /// functions, keyed by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0` or `hashes == 0`.
    #[must_use]
    pub fn new(bits: usize, hashes: u32, seed: u64) -> Self {
        assert!(bits > 0, "filter must have at least one bit");
        assert!(hashes > 0, "filter must use at least one hash");
        BloomFilter {
            words: vec![0; bits.div_ceil(64)],
            bits,
            hashes,
            seed,
            items: 0,
        }
    }

    /// Creates a filter sized for `expected_items` at `bits_per_item` (the
    /// paper's *m/n* ratio), with the optimal hash count
    /// `k = (m/n)·ln 2` rounded to the nearest positive integer.
    ///
    /// The default seed is 0; use [`with_seed`](BloomFilter::with_seed) for
    /// families that must probe independently.
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
        let hashes = analysis::optimal_hash_count(bits_per_item);
        BloomFilter::new(bits, hashes, 0)
    }

    /// Returns `self` re-keyed with `seed` (builder-style).
    ///
    /// Only valid on an empty filter: re-keying after inserts would silently
    /// lose membership.
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

    /// The shape triple that governs compatibility.
    #[must_use]
    pub fn shape(&self) -> FilterShape {
        FilterShape {
            bits: self.bits,
            hashes: self.hashes,
            seed: self.seed,
        }
    }

    /// Number of bits `m`.
    #[must_use]
    pub fn bit_len(&self) -> usize {
        self.bits
    }

    /// Number of hash functions `k`.
    #[must_use]
    pub fn hash_count(&self) -> u32 {
        self.hashes
    }

    /// Hash-family seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of items inserted since creation or the last clear.
    ///
    /// This is bookkeeping, not a property of the bit vector: a filter
    /// extracted from a slab column carries the count its column kept.
    #[must_use]
    pub fn item_count(&self) -> usize {
        self.items
    }

    /// `true` if no item has been inserted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items == 0 && self.words.iter().all(|&w| w == 0)
    }

    /// Heap footprint of the bit vector in bytes (what an MDS "pays" to hold
    /// a replica — the quantity Table 5 of the paper normalizes).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Inserts `item`. Never fails; duplicate inserts are idempotent on the
    /// bit vector but still counted in [`item_count`](BloomFilter::item_count).
    pub fn insert<T: Hash + ?Sized>(&mut self, item: &T) {
        self.insert_fp(&Fingerprint::of(item));
    }

    /// Hash-once variant of [`insert`](BloomFilter::insert): consumes a
    /// precomputed [`Fingerprint`] instead of re-hashing the item bytes.
    pub fn insert_fp(&mut self, fp: &Fingerprint) {
        self.insert_rows(fp.probes(self.seed, self.bits, self.hashes));
    }

    /// Inserts one item given its probe rows for this filter's
    /// [`shape`](BloomFilter::shape), as
    /// [`contains_rows`](BloomFilter::contains_rows) reads them.
    ///
    /// # Panics
    ///
    /// Panics (via indexing) if a row is outside this filter's width.
    pub fn insert_rows(&mut self, rows: impl IntoIterator<Item = usize>) {
        for idx in rows {
            self.words[idx / 64] |= 1 << (idx % 64);
        }
        self.items += 1;
    }

    /// Probabilistic membership test: `false` means *definitely absent*,
    /// `true` means *probably present*.
    #[must_use]
    pub fn contains<T: Hash + ?Sized>(&self, item: &T) -> bool {
        probe_indices(item, self.seed, self.bits, self.hashes)
            .all(|idx| self.words[idx / 64] >> (idx % 64) & 1 == 1)
    }

    /// Hash-once variant of [`contains`](BloomFilter::contains); answers
    /// identically to `contains` for the item the fingerprint digests.
    #[must_use]
    pub fn contains_fp(&self, fp: &Fingerprint) -> bool {
        fp.probes(self.seed, self.bits, self.hashes)
            .all(|idx| self.words[idx / 64] >> (idx % 64) & 1 == 1)
    }

    /// Membership test against precomputed probe rows, as derived for this
    /// filter's [`shape`](BloomFilter::shape) by
    /// [`Fingerprint::probe_rows_into`] or
    /// [`crate::ProbeBatch::derive_rows_into`]. Answers identically to
    /// [`contains_fp`](BloomFilter::contains_fp) for the same item, and to
    /// the counting filter this one projects — over an eighth of the memory
    /// (one bit per row instead of one counter byte).
    ///
    /// # Panics
    ///
    /// Panics (via indexing) if a row is outside this filter's width,
    /// i.e. the rows were derived for a different shape.
    #[must_use]
    pub fn contains_rows(&self, rows: &[u32]) -> bool {
        rows.iter()
            .all(|&idx| self.words[idx as usize / 64] >> (idx % 64) & 1 == 1)
    }

    /// Resets the filter to empty, keeping its shape.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.items = 0;
    }

    /// Number of set bits.
    #[must_use]
    pub fn ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of bits set, in `[0, 1]`.
    #[must_use]
    pub fn fill_ratio(&self) -> f64 {
        self.ones() as f64 / self.bits as f64
    }

    /// Estimated false-positive probability from the *observed* fill ratio:
    /// `(ones/m)^k`. Unlike the textbook formula for `n` items
    /// ([`standard_fpp`](crate::analysis::standard_fpp)) this needs no item
    /// count.
    #[must_use]
    pub fn estimated_fpp(&self) -> f64 {
        self.fill_ratio().powi(self.hashes as i32)
    }

    fn check_compatible(&self, other: &BloomFilter) -> Result<(), BloomError> {
        if self.shape() == other.shape() {
            Ok(())
        } else {
            Err(BloomError::IncompatibleFilters {
                left: self.shape(),
                right: other.shape(),
            })
        }
    }

    /// Number of bit positions where the two filters differ (Hamming
    /// distance of the bit vectors).
    ///
    /// G-HBA's update protocol (§3.4) pushes a replica refresh when this
    /// distance between the live filter and the replicated snapshot crosses
    /// a threshold.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::IncompatibleFilters`] when shapes differ.
    pub fn xor_distance(&self, other: &BloomFilter) -> Result<usize, BloomError> {
        self.check_compatible(other)?;
        Ok(self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum())
    }

    /// Serializes the filter into a self-describing byte string.
    ///
    /// Layout: magic `GBF1` · `bits: u64 LE` · `hashes: u32 LE` ·
    /// `seed: u64 LE` · `items: u64 LE` · words (`u64 LE` each).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_bytes_into(&mut out);
        out
    }

    /// Appends the [`to_bytes`](BloomFilter::to_bytes) serialization to
    /// `out` — for a caller assembling a larger buffer (a checkpoint
    /// frame) that would otherwise copy the filter twice.
    pub fn write_bytes_into(&self, out: &mut Vec<u8>) {
        out.reserve(4 + 8 + 4 + 8 + 8 + self.words.len() * 8);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.bits as u64).to_le_bytes());
        out.extend_from_slice(&self.hashes.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&(self.items as u64).to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Decodes a filter from [`to_bytes`](BloomFilter::to_bytes) output.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::Corrupt`] on bad magic, truncation, trailing
    /// bytes, or inconsistent header fields.
    pub fn from_bytes(data: &[u8]) -> Result<Self, BloomError> {
        const HEADER: usize = 4 + 8 + 4 + 8 + 8;
        if data.len() < HEADER {
            return Err(BloomError::Corrupt("truncated header"));
        }
        if &data[..4] != MAGIC {
            return Err(BloomError::Corrupt("bad magic"));
        }
        let bits = u64::from_le_bytes(data[4..12].try_into().expect("sized")) as usize;
        let hashes = u32::from_le_bytes(data[12..16].try_into().expect("sized"));
        let seed = u64::from_le_bytes(data[16..24].try_into().expect("sized"));
        let items = u64::from_le_bytes(data[24..32].try_into().expect("sized")) as usize;
        if bits == 0 || hashes == 0 {
            return Err(BloomError::Corrupt("zero-sized geometry"));
        }
        let expected_words = bits.div_ceil(64);
        let body = &data[HEADER..];
        if body.len() != expected_words * 8 {
            return Err(BloomError::Corrupt("body length mismatch"));
        }
        let words = body
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("sized")))
            .collect();
        Ok(BloomFilter {
            words,
            bits,
            hashes,
            seed,
            items,
        })
    }

    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    pub(crate) fn words_mut(&mut self) -> &mut Vec<u64> {
        &mut self.words
    }

    pub(crate) fn set_items(&mut self, n: usize) {
        self.items = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_filter() -> BloomFilter {
        let mut f = BloomFilter::new(4096, 5, 42);
        for i in 0..100u32 {
            f.insert(&format!("file-{i}"));
        }
        f
    }

    #[test]
    fn no_false_negatives() {
        let f = sample_filter();
        for i in 0..100u32 {
            assert!(f.contains(&format!("file-{i}")));
        }
    }

    #[test]
    fn contains_rows_matches_contains_fp() {
        let f = sample_filter();
        let mut rows = Vec::new();
        for i in 0..400u32 {
            let fp = Fingerprint::of(&format!("file-{i}"));
            rows.clear();
            fp.probe_rows_into(f.seed(), f.bit_len(), f.hash_count(), &mut rows);
            assert_eq!(f.contains_rows(&rows), f.contains_fp(&fp), "file-{i}");
        }
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::new(1024, 4, 0);
        assert!(f.is_empty());
        assert!(!f.contains("anything"));
        assert_eq!(f.ones(), 0);
    }

    #[test]
    fn for_items_uses_optimal_k() {
        let f = BloomFilter::for_items(1000, 8.0);
        // k = 8 ln 2 ≈ 5.55 → 6
        assert_eq!(f.hash_count(), 6);
        assert!(f.bit_len() >= 8000);
    }

    #[test]
    fn fpp_is_low_at_8_bits_per_item() {
        let mut f = BloomFilter::for_items(10_000, 8.0);
        for i in 0..10_000u32 {
            f.insert(&i);
        }
        // Theoretical optimum at 8 bits/item is ~2.1 %; allow 2x slack.
        let false_hits = (10_000u32..60_000).filter(|i| f.contains(i)).count();
        let rate = false_hits as f64 / 50_000.0;
        assert!(rate < 0.045, "false positive rate {rate} too high");
    }

    #[test]
    fn clear_resets() {
        let mut f = sample_filter();
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.item_count(), 0);
        assert!(!f.contains("file-0"));
    }

    #[test]
    fn xor_distance_zero_iff_identical() {
        let a = sample_filter();
        let b = sample_filter();
        assert_eq!(a.xor_distance(&b).unwrap(), 0);

        let mut c = sample_filter();
        c.insert("one-more-file");
        assert!(a.xor_distance(&c).unwrap() > 0);
    }

    #[test]
    fn xor_distance_is_symmetric() {
        let a = sample_filter();
        let mut c = sample_filter();
        c.insert("delta");
        assert_eq!(a.xor_distance(&c).unwrap(), c.xor_distance(&a).unwrap());
    }

    #[test]
    fn roundtrip_bytes() {
        let f = sample_filter();
        let decoded = BloomFilter::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(f, decoded);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(BloomFilter::from_bytes(b"nope").is_err());
        let mut bytes = sample_filter().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            BloomFilter::from_bytes(&bytes),
            Err(BloomError::Corrupt("bad magic"))
        ));
        let mut truncated = sample_filter().to_bytes();
        truncated.pop();
        assert!(BloomFilter::from_bytes(&truncated).is_err());
    }

    #[test]
    fn memory_bytes_matches_geometry() {
        let f = BloomFilter::new(1_000_000, 6, 0);
        assert_eq!(f.memory_bytes(), 1_000_000_usize.div_ceil(64) * 8);
    }

    #[test]
    #[should_panic(expected = "re-seed")]
    fn with_seed_after_insert_panics() {
        let mut f = BloomFilter::new(64, 2, 0);
        f.insert("x");
        let _ = f.with_seed(9);
    }

    #[test]
    fn estimated_fpp_tracks_fill() {
        let mut f = BloomFilter::new(1024, 4, 3);
        assert_eq!(f.estimated_fpp(), 0.0);
        for i in 0..200u32 {
            f.insert(&i);
        }
        assert!(f.estimated_fpp() > 0.0);
        assert!(f.estimated_fpp() < 1.0);
    }
}
