//! The authoritative per-MDS metadata store — the simulator's "disk".
//!
//! Bloom filters only summarize; the ground truth about which files an MDS
//! manages lives here. L4 queries and unique-hit verifications consult this
//! store, which is why they can never return a wrong answer (only pay more
//! latency).
//!
//! # Keyed by the admission fingerprint
//!
//! Hash-once reaches the store (admission → filters → overlay → store): a
//! key is the path **and** the first lane of its fingerprint, the table
//! homes a key by its lane (one multiply, no byte-wise hash), and
//! equality compares the lane, then the path bytes — so the store stays
//! authoritative, and two paths sharing a lane cost one extra compare,
//! never an answer. The `*_fp` methods take the fingerprint the caller
//! already holds; the `&str` ones fingerprint once and defer to them. The
//! trust model (not HashDoS-hardened; a crafted collision degrades a
//! probe chain as it already degrades the filters) is stated in
//! [`ghba_bloom::hash`].
//!
//! # One table, homed by the lane
//!
//! The store is one open-addressed table. A key's *home* slot is a pure
//! function of its lane — the top bits of `lane × 2^64/φ` — so a caller
//! holding a fingerprint knows which bucket a lookup will read before it
//! reads anything: the walk asks each server its verdict names to
//! prefetch that bucket an item ahead (`MetadataStore::prefetch`). Keys
//! are probed linearly from the home; a remove shifts the rest of its
//! run back (no tombstones); the table doubles before it is more than
//! 7/8 full, at the sizes std's hash map would take.
//!
//! Beside the buckets, one tag byte per slot — 0 for empty, else seven
//! more bits of the same product — is read eight at a time: a miss or
//! an insert reads tags only, and a lookup reads the bucket whose tag
//! matches.
//!
//! # A short path lives in its bucket
//!
//! A key's path is a [`CompactPath`]: up to [`INLINE_PATH_BYTES`] bytes
//! held inline, longer ones boxed. A bucket — path, lane and
//! [`FileAttrs`] — is 64 bytes and 64-byte aligned: one cache line, so a
//! verification that finds its tag reads one line, with no dependent
//! load for a short path's bytes.
//!
//! Iteration order ([`MetadataStore::paths`], [`MetadataStore::drain`]) is
//! a function of the store's insertion history — no longer of a
//! per-process seed — and nothing may depend on it: checkpoints sort.

use core::hash::{Hash, Hasher};

use ghba_bloom::Fingerprint;

/// Attributes held for each file (a compact stand-in for a real inode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileAttrs {
    /// Inode-like identifier, unique per store.
    pub ino: u64,
    /// File size in bytes (synthetic).
    pub size: u64,
    /// Version counter, bumped by metadata mutations.
    pub version: u32,
}

/// The most bytes a [`CompactPath`] holds inline: 30 makes the type 32
/// bytes, so a path, its lane and its attributes fill a 64-byte store
/// bucket exactly.
pub const INLINE_PATH_BYTES: usize = 30;

/// A pathname held inline when it has at most [`INLINE_PATH_BYTES`]
/// bytes, boxed otherwise — one 32-byte value from admission to the
/// store key, so a short path is copied, never allocated.
///
/// Always UTF-8: it is only ever built from a `str`. Comparisons and
/// encoders read [`as_bytes`](CompactPath::as_bytes);
/// [`as_str`](CompactPath::as_str) re-checks an inline path's UTF-8
/// (this crate has no `unsafe`), so hot code never calls it.
#[derive(Clone)]
pub struct CompactPath(Repr);

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]` is the path; the rest is zero.
    Inline {
        len: u8,
        bytes: [u8; INLINE_PATH_BYTES],
    },
    Boxed(Box<str>),
}

impl CompactPath {
    /// The path's bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Boxed(path) => path.as_bytes(),
        }
    }

    /// The path as a `str` (an inline path's UTF-8 is checked again).
    #[must_use]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { .. } => {
                core::str::from_utf8(self.as_bytes()).expect("a CompactPath is built from a str")
            }
            Repr::Boxed(path) => path,
        }
    }

    /// The path as an owned `String` (a boxed path without a copy).
    #[must_use]
    pub fn into_string(self) -> String {
        match self.0 {
            Repr::Inline { .. } => self.as_str().to_owned(),
            Repr::Boxed(path) => path.into_string(),
        }
    }
}

impl From<&str> for CompactPath {
    fn from(path: &str) -> Self {
        if path.len() > INLINE_PATH_BYTES {
            return CompactPath(Repr::Boxed(path.into()));
        }
        let mut bytes = [0; INLINE_PATH_BYTES];
        bytes[..path.len()].copy_from_slice(path.as_bytes());
        CompactPath(Repr::Inline {
            len: path.len() as u8,
            bytes,
        })
    }
}

impl From<String> for CompactPath {
    /// A long `String` becomes the box as it is (no copy when its
    /// capacity is exact); a short one is copied inline.
    fn from(path: String) -> Self {
        if path.len() > INLINE_PATH_BYTES {
            CompactPath(Repr::Boxed(path.into_boxed_str()))
        } else {
            CompactPath::from(path.as_str())
        }
    }
}

impl PartialEq for CompactPath {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for CompactPath {}

impl PartialEq<str> for CompactPath {
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

/// Hashes exactly as the `str` it holds does (`str`'s `Hash` writes the
/// bytes, then `0xff`), so `Fingerprint::of(&path)` is the path's
/// fingerprint with no UTF-8 re-check.
impl Hash for CompactPath {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl core::fmt::Debug for CompactPath {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::Debug::fmt(self.as_str(), f)
    }
}

/// An owned store key: the fingerprint's first lane (where the key is
/// homed) and the path (its identity).
#[derive(Clone)]
struct StoreKey {
    lane: u64,
    path: CompactPath,
}

/// One slot of the table: a key and its attributes on a cache line of
/// their own (`Option`'s `None` takes a niche of [`CompactPath`], so a
/// slot is 64 bytes too).
#[derive(Clone)]
#[repr(align(64))]
struct Bucket {
    key: StoreKey,
    attrs: FileAttrs,
}

/// The tag of an empty slot; an occupied slot's has its top bit set.
const EMPTY: u8 = 0;

/// Tags read per step of a probe: one `u64`.
const GROUP: usize = 8;

/// The top bit of each byte of a group, and the low bit.
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;
const LOW_BITS: u64 = 0x0101_0101_0101_0101;

/// 2^64 / φ: the odd multiplier whose product carries every bit of a
/// lane into its top bits (Fibonacci hashing).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// How many files `slots` slots hold: 7/8 of them, and all but one of a
/// table under 8 slots.
fn capacity_of(slots: usize) -> usize {
    if slots < 8 {
        slots.saturating_sub(1)
    } else {
        slots / 8 * 7
    }
}

/// The fewest slots (a power of two, at least 4) that hold `files`.
fn slots_for(files: usize) -> usize {
    match files {
        0..=3 => 4,
        4..=7 => 8,
        _ => (files * 8 / 7).next_power_of_two(),
    }
}

/// An in-memory map standing in for the on-disk metadata table of one
/// MDS: an open-addressed table homed by the fingerprint lane (see the
/// module docs).
#[derive(Clone, Default)]
pub struct MetadataStore {
    /// One byte per slot — [`EMPTY`], or `0x80` | 7 bits of the key's
    /// hash — then the first `GROUP - 1` of them again, so a probe reads
    /// a whole group from any slot without wrapping.
    tags: Vec<u8>,
    /// One per slot (a power of two, or none); `Some` exactly where the
    /// tag is not [`EMPTY`].
    buckets: Vec<Option<Bucket>>,
    len: usize,
    next_ino: u64,
}

impl core::fmt::Debug for MetadataStore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let files: Vec<_> = self
            .buckets
            .iter()
            .flatten()
            .map(|bucket| (&bucket.key.path, &bucket.attrs))
            .collect();
        f.debug_struct("MetadataStore")
            .field("files", &files)
            .field("next_ino", &self.next_ino)
            .finish()
    }
}

impl MetadataStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        MetadataStore::default()
    }

    /// Number of files stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no file is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Where `lane` starts probing and the tag its slot carries, both
    /// from the top of one product: the home is its top `log2(slots)`
    /// bits, the tag the seven under them. (A lane's low bits pick
    /// replicas and write shards, so a store's lanes share them.) The
    /// table must have slots.
    fn place(&self, lane: u64) -> (usize, u8) {
        let product = lane.wrapping_mul(GOLDEN);
        let shift = 64 - self.buckets.len().trailing_zeros();
        (
            (product >> shift) as usize,
            (product >> (shift - 7)) as u8 | 0x80,
        )
    }

    /// The group of tags starting at slot `at`.
    fn group(&self, at: usize) -> u64 {
        let bytes = &self.tags[at..at + GROUP];
        u64::from_le_bytes(bytes.try_into().expect("a group is eight tags"))
    }

    /// Probes for `(lane, path)` from its home, a group of tags at a
    /// time: `Ok` with its slot, or `Err` with the first empty slot,
    /// where it would go. A bucket is read only where its tag matches.
    /// The table must have slots.
    ///
    /// The home slot is tried first on its own: a key is usually there,
    /// and a branch on its one tag lets the CPU load the bucket while the
    /// tag is still on its way (a group's match mask must arrive before
    /// any bucket address is known: with the group scan alone, a cold
    /// hit over 48 stores of 4,000 files took ≈ 25 % longer).
    fn probe(&self, lane: u64, path: &[u8]) -> Result<usize, usize> {
        let mask = self.buckets.len() - 1;
        let (mut at, tag) = self.place(lane);
        if self.tags[at] == tag {
            if let Some(bucket) = &self.buckets[at] {
                if bucket.key.lane == lane && bucket.key.path.as_bytes() == path {
                    return Ok(at);
                }
            }
        }
        let wanted = u64::from(tag) * LOW_BITS;
        loop {
            let group = self.group(at);
            let empty = !group & HIGH_BITS;
            // Bytes equal to the tag (and, rarely, one just above such a
            // byte: the bucket's own compare rejects it), up to the first
            // empty slot, which ends the run.
            let same = group ^ wanted;
            let first_empty = empty & empty.wrapping_neg();
            let mut hits = same.wrapping_sub(LOW_BITS) & !same & HIGH_BITS;
            hits &= first_empty.wrapping_sub(1);
            while hits != 0 {
                let slot = (at + hits.trailing_zeros() as usize / 8) & mask;
                if let Some(bucket) = &self.buckets[slot] {
                    if bucket.key.lane == lane && bucket.key.path.as_bytes() == path {
                        return Ok(slot);
                    }
                }
                hits &= hits - 1;
            }
            if empty != 0 {
                return Err((at + empty.trailing_zeros() as usize / 8) & mask);
            }
            at = (at + GROUP) & mask;
        }
    }

    /// The first empty slot at or after `at` (tags only).
    fn first_empty(&self, mut at: usize) -> usize {
        let mask = self.buckets.len() - 1;
        loop {
            let empty = !self.group(at) & HIGH_BITS;
            if empty != 0 {
                return (at + empty.trailing_zeros() as usize / 8) & mask;
            }
            at = (at + GROUP) & mask;
        }
    }

    /// Writes `slot`'s tag, and its copies past the end.
    fn set_tag(&mut self, slot: usize, tag: u8) {
        self.tags[slot] = tag;
        let slots = self.buckets.len();
        let mut copy = slot;
        while copy < GROUP - 1 {
            self.tags[slots + copy] = tag;
            copy += slots;
        }
    }

    /// The slot holding `(lane, path)`, if it is stored.
    fn find(&self, lane: u64, path: &[u8]) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        self.probe(lane, path).ok()
    }

    /// Inserts metadata for `path`, returning the previous attributes if
    /// the path already existed (idempotent re-create bumps the version).
    pub fn create(&mut self, path: impl AsRef<str> + Into<CompactPath>) -> Option<FileAttrs> {
        let fp = Fingerprint::of(path.as_ref());
        self.create_fp(path, &fp)
    }

    /// [`create`](MetadataStore::create) for a caller holding `path`'s
    /// fingerprint. A [`CompactPath`] (a drained record's) moves into the
    /// bucket as it is.
    pub fn create_fp(
        &mut self,
        path: impl Into<CompactPath>,
        fp: &Fingerprint,
    ) -> Option<FileAttrs> {
        let ino = self.next_ino;
        self.next_ino += 1;
        self.reserve(1);
        let key = StoreKey {
            lane: fp.lanes().0,
            path: path.into(),
        };
        match self.probe(key.lane, key.path.as_bytes()) {
            Ok(at) => {
                let attrs = &mut self.buckets[at].as_mut().expect("a tagged slot").attrs;
                let old = *attrs;
                attrs.version += 1;
                Some(old)
            }
            Err(at) => {
                self.set_tag(at, self.place(key.lane).1);
                let attrs = FileAttrs {
                    ino,
                    size: 0,
                    version: 0,
                };
                self.fill(at, Bucket { key, attrs });
                self.len += 1;
                None
            }
        }
    }

    /// Makes room for `additional` more files without a resize.
    pub fn reserve(&mut self, additional: usize) {
        let capacity = capacity_of(self.buckets.len());
        if additional > capacity - self.len {
            self.resize(slots_for((self.len + additional).max(capacity + 1)));
        }
    }

    /// Moves every file into a table of `slots` slots.
    fn resize(&mut self, slots: usize) {
        let old = core::mem::replace(&mut self.buckets, (0..slots).map(|_| None).collect());
        self.tags = vec![EMPTY; slots + GROUP - 1];
        for bucket in old.into_iter().flatten() {
            let (home, tag) = self.place(bucket.key.lane);
            let at = self.first_empty(home);
            self.set_tag(at, tag);
            self.fill(at, bucket);
        }
    }

    /// Puts `bucket` in the empty slot `at`. The slot holds `None`, so
    /// there is nothing to drop: forgetting what `replace` returns lets
    /// the compiler skip the load an assignment's drop would make — a
    /// cache miss on every insert into a cold table.
    fn fill(&mut self, at: usize, bucket: Bucket) {
        debug_assert!(self.buckets[at].is_none(), "slot {at} is taken");
        core::mem::forget(self.buckets[at].replace(bucket));
    }

    /// `true` if metadata for `path` is stored here. This is the
    /// authoritative membership check behind every filter verification.
    #[must_use]
    pub fn contains(&self, path: &str) -> bool {
        self.contains_fp(path.as_bytes(), &Fingerprint::of(path))
    }

    /// [`contains`](MetadataStore::contains) for a caller holding the
    /// path's bytes and fingerprint: no byte-wise hash, one compare of
    /// the bucket's own bytes on a tag hit.
    #[must_use]
    pub fn contains_fp(&self, path: &[u8], fp: &Fingerprint) -> bool {
        self.find(fp.lanes().0, path).is_some()
    }

    /// Hints the cache at the tag and the bucket of the slot `fp`'s path
    /// is homed at — where a [`contains_fp`](MetadataStore::contains_fp)
    /// of it starts reading (and, unless a collision displaced it, the
    /// path's own bucket). The tag's line is asked for too: a probe reads
    /// it before the bucket. No-op on an empty store.
    pub(crate) fn prefetch(&self, fp: &Fingerprint) {
        if !self.buckets.is_empty() {
            let home = self.place(fp.lanes().0).0;
            ghba_bloom::prefetch_slot(&self.tags, home);
            ghba_bloom::prefetch_slot(&self.buckets, home);
        }
    }

    /// Reads the attributes of `path`.
    #[must_use]
    pub fn get(&self, path: &str) -> Option<&FileAttrs> {
        self.get_fp(path.as_bytes(), &Fingerprint::of(path))
    }

    /// [`get`](MetadataStore::get) for a caller holding the path's bytes
    /// and fingerprint.
    #[must_use]
    pub fn get_fp(&self, path: &[u8], fp: &Fingerprint) -> Option<&FileAttrs> {
        let at = self.find(fp.lanes().0, path)?;
        self.buckets[at].as_ref().map(|bucket| &bucket.attrs)
    }

    /// Removes `path`, returning its attributes.
    pub fn remove(&mut self, path: &str) -> Option<FileAttrs> {
        self.remove_fp(path.as_bytes(), &Fingerprint::of(path))
    }

    /// [`remove`](MetadataStore::remove) for a caller holding the path's
    /// bytes and fingerprint. Backward-shift deletion: each later file of
    /// the probe run moves back into the hole unless that would put it
    /// before its home, so no tombstone is left behind.
    pub fn remove_fp(&mut self, path: &[u8], fp: &Fingerprint) -> Option<FileAttrs> {
        let mut hole = self.find(fp.lanes().0, path)?;
        let removed = self.buckets[hole].take().expect("a tagged slot");
        self.set_tag(hole, EMPTY);
        self.len -= 1;
        let mask = self.buckets.len() - 1;
        let mut at = (hole + 1) & mask;
        while self.tags[at] != EMPTY {
            let lane = self.buckets[at].as_ref().expect("a tagged slot").key.lane;
            let (home, tag) = self.place(lane);
            if at.wrapping_sub(home) & mask >= at.wrapping_sub(hole) & mask {
                self.buckets.swap(hole, at);
                self.set_tag(hole, tag);
                self.set_tag(at, EMPTY);
                hole = at;
            }
            at = (at + 1) & mask;
        }
        Some(removed.attrs)
    }

    /// Iterates stored paths in arbitrary order.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.buckets
            .iter()
            .flatten()
            .map(|bucket| bucket.key.path.as_str())
    }

    /// Iterates `(lane, path bytes)` in arbitrary order: each stored path
    /// with the fingerprint lane it is keyed by — what a checkpoint sorts
    /// by, without hashing or re-checking a path.
    pub(crate) fn keyed_paths(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.buckets
            .iter()
            .flatten()
            .map(|bucket| (bucket.key.lane, bucket.key.path.as_bytes()))
    }

    /// Drains every entry out of the store (used when a departing MDS
    /// hands its files to a peer). The store is empty, its table freed,
    /// as soon as this returns, whether or not the iterator is run out.
    pub fn drain(&mut self) -> impl Iterator<Item = (CompactPath, FileAttrs)> + '_ {
        self.tags = Vec::new();
        self.len = 0;
        core::mem::take(&mut self.buckets)
            .into_iter()
            .flatten()
            .map(|bucket| (bucket.key.path, bucket.attrs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_lookup_remove() {
        let mut store = MetadataStore::new();
        assert!(store.create("/a/b").is_none());
        assert!(store.contains("/a/b"));
        assert_eq!(store.len(), 1);
        let attrs = store.remove("/a/b").unwrap();
        assert_eq!(attrs.version, 0);
        assert!(!store.contains("/a/b"));
        assert!(store.is_empty());
    }

    #[test]
    fn recreate_bumps_version() {
        let mut store = MetadataStore::new();
        store.create("/x");
        let old = store.create("/x").unwrap();
        assert_eq!(old.version, 0);
        assert_eq!(store.get("/x").unwrap().version, 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn inos_are_unique() {
        let mut store = MetadataStore::new();
        store.create("/a");
        store.create("/b");
        let ia = store.get("/a").unwrap().ino;
        let ib = store.get("/b").unwrap().ino;
        assert_ne!(ia, ib);
    }

    #[test]
    fn drain_empties() {
        let mut store = MetadataStore::new();
        store.create("/a");
        store.create("/b");
        let drained: Vec<_> = store.drain().collect();
        assert_eq!(drained.len(), 2);
        assert!(store.is_empty());
    }

    #[test]
    fn missing_path_reads() {
        let store = MetadataStore::new();
        assert!(!store.contains("/ghost"));
        assert!(store.get("/ghost").is_none());
    }

    /// Paths forged onto one lane are separate files — created, found,
    /// re-created and removed independently, an inline key beside a
    /// boxed one — and a further path with that lane is a miss: a lane
    /// collision costs a compare, never an answer.
    #[test]
    fn forged_lane_collisions_cannot_change_an_answer() {
        let lane = 0xDEAD_BEEF;
        let long = "/a/path/of/thirty-one/bytes/abc";
        assert_eq!(long.len(), INLINE_PATH_BYTES + 1);
        let (fp_a, fp_b, fp_long) = (
            Fingerprint::from_lanes(lane, 1),
            Fingerprint::from_lanes(lane, 2),
            Fingerprint::from_lanes(lane, 3),
        );
        let get = |store: &MetadataStore, path: &str| {
            let at = store.find(lane, path.as_bytes())?;
            store.buckets[at].as_ref().map(|bucket| bucket.attrs)
        };
        let mut store = MetadataStore::new();
        assert!(store.create_fp("/a", &fp_a).is_none());
        assert!(store.create_fp("/b", &fp_b).is_none());
        assert!(store.create_fp(long, &fp_long).is_none());
        assert_eq!(store.len(), 3);
        assert!(store.contains_fp(b"/a", &fp_a) && store.contains_fp(b"/b", &fp_b));
        assert!(
            store.contains_fp(long.as_bytes(), &fp_a),
            "the boxed key on the lane"
        );
        assert!(
            !store.contains_fp(b"/c", &fp_a),
            "a fourth path on the lane"
        );
        assert!(
            !store.contains_fp(&long.as_bytes()[..30], &fp_a),
            "the long path's prefix"
        );
        assert!(get(&store, "/c").is_none());
        assert_ne!(
            get(&store, "/a").unwrap().ino,
            get(&store, "/b").unwrap().ino
        );
        let mut paths: Vec<&str> = store.paths().collect();
        paths.sort_unstable();
        assert_eq!(paths, ["/a", long, "/b"]);
        // A re-create bumps its own path only.
        assert_eq!(store.create_fp("/a", &fp_a).unwrap().version, 0);
        assert_eq!(get(&store, "/a").unwrap().version, 1);
        assert_eq!(get(&store, "/b").unwrap().version, 0);
        assert_eq!(get(&store, long).unwrap().version, 0);
        assert!(store.remove_fp(b"/c", &fp_b).is_none());
        assert_eq!(store.remove_fp(b"/a", &fp_a).unwrap().version, 1);
        assert!(!store.contains_fp(b"/a", &fp_a) && store.contains_fp(b"/b", &fp_b));
        assert!(store.remove_fp(long.as_bytes(), &fp_long).is_some());
        assert!(!store.contains_fp(long.as_bytes(), &fp_long));
        assert_eq!(store.len(), 1);
        // The `&str` entries fingerprint for themselves: an honestly
        // keyed "/b" is a different key from the forged one.
        assert!(!store.contains("/b"));
    }

    /// `peak_rss_mb` rests on this: a short path lives in its bucket, and
    /// a slot is 64 bytes on a 64-byte boundary (a `String` key made 48
    /// plus a heap block per path), so a verification reads one line. A
    /// 2,048-slot table is then a 131,072-byte bucket array — at glibc's
    /// 128 KiB mmap threshold: freeing one raises the allocator's dynamic
    /// thresholds, which is what `net_mixed`'s `peak_rss_mb` sees — plus
    /// a 2,055-byte tag array (a tag per slot, and the first seven again).
    #[test]
    fn a_bucket_is_64_bytes() {
        assert_eq!(core::mem::size_of::<CompactPath>(), 32);
        assert_eq!(core::mem::size_of::<Option<Bucket>>(), 64);
        assert_eq!(core::mem::align_of::<Option<Bucket>>(), 64);
    }

    /// A lane whose product with [`GOLDEN`] is all ones: homed at the
    /// last slot of every table, so its probe runs wrap to slot 0.
    fn last_slot_lane() -> u64 {
        // Newton's iteration for the inverse of an odd number mod 2^64.
        let mut inverse = GOLDEN;
        for _ in 0..5 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(GOLDEN.wrapping_mul(inverse)));
        }
        u64::MAX.wrapping_mul(inverse)
    }

    /// Paths forged onto the last slot's lane fill the table's end and
    /// wrap to its start; removing from the middle of that run shifts
    /// the rest back across the seam, and every path is still found.
    #[test]
    fn a_probe_run_wraps_at_the_end_and_shifts_back_across_it() {
        let lane = last_slot_lane();
        let mut store = MetadataStore::new();
        store.reserve(7);
        assert_eq!(store.buckets.len(), 8);
        let fp = |i: u64| Fingerprint::from_lanes(lane, i);
        let paths: Vec<String> = (0..5).map(|i| format!("/wrap/{i}")).collect();
        for (i, path) in (0..).zip(&paths) {
            assert!(store.create_fp(path.as_str(), &fp(i)).is_none());
        }
        assert_eq!(store.place(lane).0, 7);
        assert!(
            store.tags[..4].iter().all(|&tag| tag != EMPTY),
            "the run wrapped"
        );
        assert!(store.remove_fp(paths[1].as_bytes(), &fp(1)).is_some());
        assert_eq!(store.tags[3], EMPTY, "the run's last slot was shifted back");
        for (i, path) in (0..).zip(&paths) {
            assert_eq!(store.contains_fp(path.as_bytes(), &fp(i)), i != 1, "{path}");
        }
        assert_eq!(store.len(), 4);
    }

    /// A prefetch is a hint: on a store with no table it reads nothing.
    #[test]
    fn prefetch_on_an_empty_store_is_a_no_op() {
        let mut store = MetadataStore::new();
        store.prefetch(&Fingerprint::of("/a"));
        store.create("/a");
        store.drain().for_each(drop);
        store.prefetch(&Fingerprint::of("/a"));
        assert!(store.is_empty() && !store.contains("/a"));
    }

    /// The table follows std's: at most 7/8 full (3 of 4 and 7 of 8
    /// below that), doubling when an insert finds it full.
    #[test]
    fn the_table_grows_at_seven_eighths() {
        let mut store = MetadataStore::new();
        assert!(store.tags.is_empty() && store.buckets.is_empty());
        let mut sizes = Vec::new();
        for i in 0..200 {
            store.create(format!("/f/{i}").as_str());
            assert!(store.len() <= capacity_of(store.buckets.len()));
            if sizes.last() != Some(&store.buckets.len()) {
                sizes.push(store.buckets.len());
            }
        }
        assert_eq!(sizes, [4, 8, 16, 32, 64, 128, 256]);
        assert_eq!(store.tags.len(), store.buckets.len() + GROUP - 1);
        store.reserve(1_000);
        assert_eq!(store.buckets.len(), 2_048);
    }

    fn inline(path: &CompactPath) -> bool {
        matches!(path.0, Repr::Inline { .. })
    }

    /// 30 bytes stay inline and 31 are boxed, whatever the characters;
    /// both read back as the `str` they were built from.
    #[test]
    fn thirty_bytes_stay_inline_and_thirty_one_are_boxed() {
        let thirty = "x".repeat(INLINE_PATH_BYTES);
        let thirty_one = "x".repeat(INLINE_PATH_BYTES + 1);
        // "é" is two bytes: at 29 + 2 it straddles byte 30.
        let straddling = format!("{}é", "x".repeat(INLINE_PATH_BYTES - 1));
        let two_byte_end = format!("{}é", "x".repeat(INLINE_PATH_BYTES - 2));
        for (path, inlined) in [
            ("", true),
            ("/", true),
            (thirty.as_str(), true),
            (two_byte_end.as_str(), true),
            (thirty_one.as_str(), false),
            (straddling.as_str(), false),
        ] {
            for compact in [CompactPath::from(path), CompactPath::from(path.to_owned())] {
                assert_eq!(inline(&compact), inlined, "{path:?}");
                assert_eq!(compact.as_bytes(), path.as_bytes());
                assert_eq!(compact.as_str(), path);
                assert!(compact == *path);
                assert_eq!(format!("{compact:?}"), format!("{path:?}"));
                assert_eq!(compact.clone().into_string(), path);
                assert_eq!(compact, CompactPath::from(path));
                assert_eq!(Fingerprint::of(&compact), Fingerprint::of(path));
            }
        }
        let short = CompactPath::from("/a");
        assert!(short != *"/b" && short != *"/a/");
        assert_ne!(CompactPath::from(""), CompactPath::from("/"));
    }

    /// A long `String` becomes the box without a copy.
    #[test]
    fn a_long_string_is_boxed_in_place() {
        let long = "/".repeat(64);
        let at = long.as_ptr();
        let back = CompactPath::from(long).into_string();
        assert_eq!(back.as_ptr(), at);
    }
}
