//! Seeded hashing machinery shared by every filter in this crate, built
//! around **hash-once fingerprints**.
//!
//! All filters use the Kirsch–Mitzenmacher double-hashing construction: two
//! independent 64-bit hashes `h1`, `h2` are derived from the item, and the
//! `i`-th probe index is `(h1 + i * h2) mod m`. This matches the behaviour of
//! `k` independent hash functions closely enough for Bloom filter false-rate
//! analysis while requiring only one pass over the item bytes.
//!
//! # Hash-once design
//!
//! The G-HBA query hierarchy probes *arrays* of filters — one per candidate
//! MDS — at every level, and again on every multicast recipient. Hashing the
//! pathname once per filter would make an N-filter probe cost `O(N·|path|)`;
//! instead, the item bytes are consumed exactly once into a seed-independent
//! [`Fingerprint`] (two independent FNV-1a lanes), and every filter's
//! `(h1, h2)` pair is derived from the fingerprint by **seed-mixing**: the
//! filter seed is avalanche-mixed with [`splitmix64`] and folded into each
//! lane at finalization time, never into the byte pass. Derivation is O(1)
//! per filter, so an N-filter probe costs one byte pass plus `O(N)` mixes.
//!
//! Invariant relied on throughout the crate (and enforced by construction):
//! for every item and seed, [`Fingerprint::pair`] equals [`index_pair`] and
//! therefore [`Fingerprint::probes`] yields exactly the same index sequence
//! as [`probe_indices`]. All single-item entry points are thin wrappers over
//! the fingerprint path.
//!
//! Hashing is keyed by a `u64` seed so that distinct filter families (e.g.
//! the L1 LRU array vs. the L2 segment array in G-HBA) probe uncorrelated
//! positions, and so that tests can build adversarial or reproducible
//! layouts.
//!
//! # Where hash-once ends
//!
//! The byte pass at admission is the only one an operation pays:
//! admission → filters → write overlay → store. The hash tables *behind*
//! the filters — the per-server metadata store, the pending-write
//! overlay, the run dedup of the walk — are keyed by the same
//! fingerprint through [`BuildLaneHasher`], which finishes the already
//! computed first lane with one multiply-xorshift instead of running a
//! byte-wise hash (SipHash) over the path again. Every such table still
//! compares the path bytes on a hit, so the fingerprint only ever
//! *locates*; it never decides.
//!
//! **Trust model, stated once.** These tables are keyed by the same
//! unseeded FNV lanes as the filters, so they are **not HashDoS-hardened**:
//! a client that crafts paths with colliding lanes lengthens a probe
//! chain, exactly as it already drives the filters' false-positive rate
//! up. It degrades a probe's cost and never changes an answer. A
//! deployment that admits hostile pathnames needs a keyed fingerprint —
//! one change here, inherited by filters and tables alike.

use std::hash::{BuildHasher, Hash, Hasher};

/// `splitmix64` finalizer — the standard 64-bit avalanche mix.
///
/// Used to decorrelate the weakly mixing FNV lanes, to fold seeds in at
/// finalization time, and to derive secondary seeds from primary ones.
#[inline]
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Lane A: the standard FNV-1a offset/prime pair.
const FNV_OFFSET_A: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME_A: u64 = 0x1000_0000_01B3;
/// Lane B: a distinct offset and a distinct odd multiplier, so the two
/// lanes respond differently to content (not just to a constant offset).
const FNV_OFFSET_B: u64 = 0xBB67_AE85_84CA_A73B;
const FNV_PRIME_B: u64 = 0x9E37_79B9_7F4A_7C15;

/// Key decorrelating the `h2` stream from the `h1` stream.
const H2_KEY: u64 = 0xA076_1D64_78BD_642F;
/// Key decorrelating the 128-bit identity fingerprint from probe streams.
const FP128_KEY: u64 = 0x6A09_E667_F3BC_C909;

/// A seed-independent digest of one item: the anchor of the hash-once path.
///
/// Computed with exactly one pass over the item bytes ([`Fingerprint::of`]),
/// it can then derive the probe stream of *any* filter — whatever its seed
/// or geometry — in O(1) via [`pair`](Fingerprint::pair) /
/// [`probes`](Fingerprint::probes). Compute it once at the query entry
/// point, reuse it across every filter of every level (and ship it in
/// multicast probe messages so recipients never re-hash the path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    a: u64,
    b: u64,
}

impl Hash for Fingerprint {
    /// One word — the first lane — so a table keyed by a fingerprint
    /// under [`BuildLaneHasher`] pays one multiply; equality still
    /// compares both lanes.
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.a);
    }
}

impl Fingerprint {
    /// Digests `item` (the single byte pass of the hash-once path).
    #[inline]
    #[must_use]
    pub fn of<T: Hash + ?Sized>(item: &T) -> Self {
        let mut hasher = FingerprintHasher::new();
        item.hash(&mut hasher);
        hasher.fingerprint()
    }

    /// Reassembles a fingerprint from its raw lanes (wire decoding).
    #[inline]
    #[must_use]
    pub fn from_lanes(a: u64, b: u64) -> Self {
        Fingerprint { a, b }
    }

    /// The raw lanes (wire encoding).
    #[inline]
    #[must_use]
    pub fn lanes(&self) -> (u64, u64) {
        (self.a, self.b)
    }

    /// Derives the double-hashing pair `(h1, h2)` for the filter family
    /// keyed by `seed`. Equals [`index_pair`] for the same item and seed.
    ///
    /// `h2` is forced odd so that successive probe indices do not collapse
    /// when the filter length shares factors with `h2`.
    #[inline]
    #[must_use]
    pub fn pair(&self, seed: u64) -> (u64, u64) {
        let h1 = splitmix64(self.a ^ splitmix64(seed));
        let h2 = splitmix64(self.b ^ splitmix64(seed ^ H2_KEY)) | 1;
        (h1, h2)
    }

    /// The `k` probe indices for this item in a filter of `m` bits keyed by
    /// `seed`. Identical to [`probe_indices`] for the same item.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`; a zero-width filter is a construction error
    /// upstream.
    #[inline]
    #[must_use]
    pub fn probes(&self, seed: u64, m: usize, k: u32) -> ProbeIndices {
        assert!(m > 0, "filter must have at least one bit");
        let (h1, h2) = self.pair(seed);
        ProbeIndices {
            h1,
            h2,
            m: m as u64,
            remaining: k,
        }
    }

    /// Appends this item's `k` probe rows for a filter family `(m, k,
    /// seed)` to `out` as compact `u32` indices — a utility for tools
    /// that want a fingerprint's whole probe set materialized at once
    /// (tracing, debugging, precomputed probe tables).
    ///
    /// The batched probe paths do *not* call this: they derive a whole
    /// batch's rows with one shared-modulus fastmod
    /// ([`crate::ProbeBatch::derive_rows_into`]), which the property
    /// tests pin against this division-based sequence.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `m` does not fit in a `u32` (no filter in this
    /// workspace comes near 4 Gbit).
    #[inline]
    pub fn probe_rows_into(&self, seed: u64, m: usize, k: u32, out: &mut Vec<u32>) {
        assert!(u32::try_from(m).is_ok(), "filter wider than u32 rows");
        out.reserve(k as usize);
        for row in self.probes(seed, m, k) {
            out.push(row as u32);
        }
    }

    /// The 128-bit near-exact identity under `seed`. Equals
    /// [`fingerprint128`] for the same item and seed.
    #[inline]
    #[must_use]
    pub fn identity128(&self, seed: u64) -> u128 {
        let (a, b) = self.pair(seed ^ FP128_KEY);
        (u128::from(a) << 64) | u128::from(b)
    }
}

/// The streaming two-lane FNV-1a hasher behind [`Fingerprint::of`].
#[derive(Debug, Clone)]
pub struct FingerprintHasher {
    a: u64,
    b: u64,
}

impl Default for FingerprintHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl FingerprintHasher {
    /// Creates a hasher with empty lanes.
    #[must_use]
    pub fn new() -> Self {
        FingerprintHasher {
            a: FNV_OFFSET_A,
            b: FNV_OFFSET_B,
        }
    }

    /// Finalizes into a [`Fingerprint`].
    #[inline]
    #[must_use]
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            a: self.a,
            b: self.b,
        }
    }
}

impl Hasher for FingerprintHasher {
    /// Lane A, unseeded and un-avalanched; prefer
    /// [`fingerprint`](FingerprintHasher::fingerprint).
    #[inline]
    fn finish(&self) -> u64 {
        self.a
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME_A);
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(FNV_PRIME_B);
        }
    }
}

/// The pass-through [`Hasher`] of tables keyed by an admission
/// fingerprint (built by [`BuildLaneHasher`]): each written word is folded
/// with one multiply, and [`finish`](Hasher::finish) xorshifts the high
/// half down — `std`'s table indexes by the low bits and tags by the top
/// seven, and a raw FNV lane is avalanched in neither. Unseeded and
/// deterministic: see the module docs for the trust model.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaneHasher(u64);

/// An odd multiplier with no short-period bit pattern (2^64 / φ).
const LANE_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for LaneHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    /// Keys that are not a lane (a test's `&str`): eight bytes a word.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u16(&mut self, word: u16) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(LANE_MIX);
    }
}

/// [`BuildHasher`] for tables keyed by a [`Fingerprint`] lane: no
/// SipHash, no per-process `RandomState`. Iteration order of such a table
/// is a function of its insertion history, not of a seed — nothing may
/// depend on it either way.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildLaneHasher;

impl BuildHasher for BuildLaneHasher {
    type Hasher = LaneHasher;

    #[inline]
    fn build_hasher(&self) -> LaneHasher {
        LaneHasher::default()
    }
}

/// A seeded streaming hasher implementing [`std::hash::Hasher`].
///
/// Streams bytes through the fingerprint lanes and folds the seed in at
/// finalization, so [`SeededHasher::finish`] agrees with [`hash_one`] (and
/// with lane `h1` of the fingerprint path) for the same bytes and seed.
#[derive(Debug, Clone)]
pub struct SeededHasher {
    lanes: FingerprintHasher,
    seed: u64,
}

impl SeededHasher {
    /// Creates a hasher keyed by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SeededHasher {
            lanes: FingerprintHasher::new(),
            seed,
        }
    }
}

impl Hasher for SeededHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.lanes.fingerprint().pair(self.seed).0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.lanes.write(bytes);
    }
}

/// Hashes `item` with the family keyed by `seed`, returning one 64-bit value.
#[inline]
#[must_use]
pub fn hash_one<T: Hash + ?Sized>(item: &T, seed: u64) -> u64 {
    Fingerprint::of(item).pair(seed).0
}

/// Derives the double-hashing pair `(h1, h2)` for `item` under `seed`.
///
/// Thin wrapper over [`Fingerprint::pair`]; the two are identical by
/// construction (the property tests assert it).
#[inline]
#[must_use]
pub fn index_pair<T: Hash + ?Sized>(item: &T, seed: u64) -> (u64, u64) {
    Fingerprint::of(item).pair(seed)
}

/// A 128-bit fingerprint of `item`, used where near-exact identity is needed
/// (e.g. the exact-LRU bookkeeping behind the L1 array).
#[inline]
#[must_use]
pub fn fingerprint128<T: Hash + ?Sized>(item: &T, seed: u64) -> u128 {
    Fingerprint::of(item).identity128(seed)
}

/// Iterator over the `k` probe indices of an item in a filter of `m` bits.
///
/// Produced by [`probe_indices`] and [`Fingerprint::probes`]; see the module
/// docs for the construction.
#[derive(Debug, Clone)]
pub struct ProbeIndices {
    h1: u64,
    h2: u64,
    m: u64,
    remaining: u32,
}

impl Iterator for ProbeIndices {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let idx = (self.h1 % self.m) as usize;
        self.h1 = self.h1.wrapping_add(self.h2);
        Some(idx)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for ProbeIndices {}

/// Returns the `k` probe indices for `item` in a filter of `m` bits keyed by
/// `seed`.
///
/// # Panics
///
/// Panics if `m == 0`; a zero-width filter is a construction error upstream.
#[inline]
#[must_use]
pub fn probe_indices<T: Hash + ?Sized>(item: &T, seed: u64, m: usize, k: u32) -> ProbeIndices {
    Fingerprint::of(item).probes(seed, m, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn splitmix_is_bijective_on_samples() {
        let mut seen = HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(splitmix64(i)), "collision at {i}");
        }
    }

    #[test]
    fn hash_one_depends_on_seed() {
        let a = hash_one("path/to/file", 1);
        let b = hash_one("path/to/file", 2);
        assert_ne!(a, b);
    }

    #[test]
    fn hash_one_is_deterministic() {
        assert_eq!(hash_one(&42u64, 7), hash_one(&42u64, 7));
    }

    #[test]
    fn hash_one_matches_streaming_hasher() {
        let mut hasher = SeededHasher::new(9);
        "path/to/file".hash(&mut hasher);
        assert_eq!(hasher.finish(), hash_one("path/to/file", 9));
    }

    #[test]
    fn index_pair_h2_is_odd() {
        for i in 0..100u32 {
            let (_, h2) = index_pair(&i, 99);
            assert_eq!(h2 & 1, 1);
        }
    }

    #[test]
    fn fingerprint_pair_matches_index_pair() {
        for i in 0..200u64 {
            let fp = Fingerprint::of(&i);
            for seed in [0u64, 1, 42, u64::MAX] {
                assert_eq!(fp.pair(seed), index_pair(&i, seed));
            }
        }
    }

    #[test]
    fn fingerprint_probes_match_probe_indices() {
        let fp = Fingerprint::of("some/long/path/name.ext");
        let from_fp: Vec<usize> = fp.probes(11, 4096, 6).collect();
        let direct: Vec<usize> = probe_indices("some/long/path/name.ext", 11, 4096, 6).collect();
        assert_eq!(from_fp, direct);
    }

    #[test]
    fn probe_rows_into_matches_probes() {
        let fp = Fingerprint::of("batched/path");
        let mut rows = Vec::new();
        fp.probe_rows_into(11, 4096, 6, &mut rows);
        let direct: Vec<u32> = fp.probes(11, 4096, 6).map(|r| r as u32).collect();
        assert_eq!(rows, direct);
        // Appends rather than clears: a batch reuses one scratch vector.
        fp.probe_rows_into(11, 4096, 6, &mut rows);
        assert_eq!(rows.len(), 12);
    }

    #[test]
    fn fingerprint_lane_roundtrip() {
        let fp = Fingerprint::of("x");
        let (a, b) = fp.lanes();
        assert_eq!(Fingerprint::from_lanes(a, b), fp);
    }

    #[test]
    fn probe_indices_yields_exactly_k() {
        let idx: Vec<usize> = probe_indices("f", 3, 1024, 7).collect();
        assert_eq!(idx.len(), 7);
        assert!(idx.iter().all(|&i| i < 1024));
    }

    #[test]
    fn probe_indices_exact_size_hint() {
        let it = probe_indices("f", 3, 1024, 5);
        assert_eq!(it.len(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn probe_indices_zero_width_panics() {
        let _ = probe_indices("f", 3, 0, 1);
    }

    #[test]
    fn fingerprints_distinguish_items() {
        let mut seen = HashSet::new();
        for i in 0..50_000u64 {
            assert!(seen.insert(fingerprint128(&i, 0)), "collision at {i}");
        }
    }

    /// `std`'s table picks a bucket group by the low bits of `finish()`
    /// and tags entries by its top seven; raw FNV lanes are avalanched in
    /// neither. Over 100 k paths of the benchmark's shape, every one of
    /// the 4,096 low-12-bit cells and of the 128 tag values must hold
    /// within a factor of its uniform share: 2.5× for the cells (24.4
    /// expected; a Poisson tail that far out is < 1e-9 per cell), ±15 %
    /// for the tags (781 expected, σ ≈ 28).
    #[test]
    fn lane_hasher_spreads_benchmark_paths_over_index_and_tag_bits() {
        let samples = 100_000u64;
        let mut low = vec![0u32; 1 << 12];
        let mut tag = vec![0u32; 1 << 7];
        for id in 0..samples {
            let path = format!("/v{}/d{:03}/f{id}", id % 13, (id / 13) % 257);
            let hash = BuildLaneHasher.hash_one(Fingerprint::of(path.as_str()));
            low[(hash & 0xFFF) as usize] += 1;
            tag[(hash >> 57) as usize] += 1;
        }
        let expected = samples as f64 / low.len() as f64;
        for (cell, &n) in low.iter().enumerate() {
            assert!(f64::from(n) < 2.5 * expected, "low cell {cell}: {n}");
            assert!(n > 0, "low cell {cell} empty");
        }
        let expected = samples as f64 / tag.len() as f64;
        for (value, &n) in tag.iter().enumerate() {
            let off = (f64::from(n) - expected).abs() / expected;
            assert!(off < 0.15, "tag {value}: {n} vs {expected}");
        }
    }

    /// A key written as several words (the repeat set's `(entry,
    /// fingerprint)`) depends on each of them, in order.
    #[test]
    fn lane_hasher_folds_every_word() {
        let one = |words: &[u64]| {
            let mut hasher = BuildLaneHasher.build_hasher();
            for &word in words {
                hasher.write_u64(word);
            }
            hasher.finish()
        };
        assert_ne!(one(&[1, 2]), one(&[2, 1]));
        assert_ne!(one(&[1, 2]), one(&[1, 3]));
        let mut bytes = BuildLaneHasher.build_hasher();
        bytes.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        assert_eq!(bytes.finish(), one(&[1, 2]));
    }

    #[test]
    fn probe_distribution_is_roughly_uniform() {
        // Chi-square-ish sanity check: across many items, bucket occupancy
        // of the first probe should be close to uniform.
        let m = 64usize;
        let mut counts = vec![0u32; m];
        let samples = 64_000;
        for i in 0..samples {
            let first = probe_indices(&i, 11, m, 1).next().unwrap();
            counts[first] += 1;
        }
        let expected = samples as f64 / m as f64;
        for (bucket, &c) in counts.iter().enumerate() {
            let deviation = (f64::from(c) - expected).abs() / expected;
            assert!(
                deviation < 0.15,
                "bucket {bucket} off by {deviation:.2} ({c} vs {expected})"
            );
        }
    }
}
