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
//! hashes the lane ([`BuildLaneHasher`]: one multiply, no byte-wise hash),
//! and equality compares the lane, then the path bytes — so the store
//! stays authoritative, and two paths sharing a lane cost one extra
//! compare, never an answer. The `*_fp` methods take the fingerprint the
//! caller already holds; the `&str` ones fingerprint once and defer to
//! them. The trust model (not HashDoS-hardened; a crafted collision
//! degrades a probe chain as it already degrades the filters) is stated
//! in [`ghba_bloom::hash`].
//!
//! # A short path lives in its bucket
//!
//! A key's path is a [`CompactPath`]: up to [`INLINE_PATH_BYTES`] bytes
//! held inline, longer ones boxed. A bucket is 64 bytes, laid out path
//! (bytes 0..32), lane (32..40), [`FileAttrs`] (40..64). It is not one
//! cache line: the table's buckets start 16 bytes into a line (hashbrown
//! aligns its allocation to 16, and glibc hands back line + 16 for
//! blocks of this size — every table probed, 1k–50k entries, did), so
//! each bucket straddles two lines. The 40 bytes a verification reads —
//! the path and the lane — sit in the first of them, the one the probe
//! loads. With a boxed `str` key the path was a third dependent miss
//! behind the control byte and the bucket, and on `read_hot` the first
//! load of it was the walk's largest stall.
//!
//! Iteration order ([`MetadataStore::paths`], [`MetadataStore::drain`]) is
//! a function of the store's insertion history — no longer of a
//! per-process seed — and nothing may depend on it: checkpoints sort.

use core::borrow::Borrow;
use core::hash::{Hash, Hasher};
use std::collections::hash_map::{Entry, HashMap};

use ghba_bloom::{BuildLaneHasher, Fingerprint};

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
/// bytes and a store bucket 64. (At 22 a bucket is 56 bytes and its
/// offset within a cache line drifts from bucket to bucket, so the bytes
/// a verification reads cross into a second line far more often.)
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

/// What a store key is looked up by: the fingerprint's first lane (the
/// table position) and the path bytes (the identity).
trait Keyed {
    fn lane(&self) -> u64;
    fn path(&self) -> &[u8];
}

/// An owned store key: compared lane first, then path bytes. With
/// [`FileAttrs`] it makes a 64-byte bucket that holds a short path.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StoreKey {
    lane: u64,
    path: CompactPath,
}

impl Keyed for StoreKey {
    fn lane(&self) -> u64 {
        self.lane
    }
    fn path(&self) -> &[u8] {
        self.path.as_bytes()
    }
}

/// A borrowed lookup key: `(lane, path bytes)`.
impl Keyed for (u64, &[u8]) {
    fn lane(&self) -> u64 {
        self.0
    }
    fn path(&self) -> &[u8] {
        self.1
    }
}

impl<'a> Borrow<dyn Keyed + 'a> for StoreKey {
    fn borrow(&self) -> &(dyn Keyed + 'a) {
        self
    }
}

impl Hash for dyn Keyed + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.lane());
    }
}

impl PartialEq for dyn Keyed + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.lane() == other.lane() && self.path() == other.path()
    }
}

impl Eq for dyn Keyed + '_ {}

// The owned key hashes as its borrowed form does (`Borrow`'s law; the
// derived equality already compares what `dyn Keyed`'s does).
impl Hash for StoreKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.lane);
    }
}

/// An in-memory map standing in for the on-disk metadata table of one MDS.
#[derive(Debug, Clone, Default)]
pub struct MetadataStore {
    files: HashMap<StoreKey, FileAttrs, BuildLaneHasher>,
    next_ino: u64,
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
        self.files.len()
    }

    /// `true` when no file is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
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
        let key = StoreKey {
            lane: fp.lanes().0,
            path: path.into(),
        };
        match self.files.entry(key) {
            Entry::Occupied(mut slot) => {
                let old = *slot.get();
                slot.get_mut().version += 1;
                Some(old)
            }
            Entry::Vacant(slot) => {
                slot.insert(FileAttrs {
                    ino,
                    size: 0,
                    version: 0,
                });
                None
            }
        }
    }

    /// Makes room for `additional` more files without rehashing.
    pub fn reserve(&mut self, additional: usize) {
        self.files.reserve(additional);
    }

    /// `true` if metadata for `path` is stored here. This is the
    /// authoritative membership check behind every filter verification.
    #[must_use]
    pub fn contains(&self, path: &str) -> bool {
        self.contains_fp(path.as_bytes(), &Fingerprint::of(path))
    }

    /// [`contains`](MetadataStore::contains) for a caller holding the
    /// path's bytes and fingerprint: no byte-wise hash, one compare of
    /// the bucket's own bytes on a lane hit.
    #[must_use]
    pub fn contains_fp(&self, path: &[u8], fp: &Fingerprint) -> bool {
        self.files.contains_key(&(fp.lanes().0, path) as &dyn Keyed)
    }

    /// Reads the attributes of `path`.
    #[must_use]
    pub fn get(&self, path: &str) -> Option<&FileAttrs> {
        self.files
            .get(&(Fingerprint::of(path).lanes().0, path.as_bytes()) as &dyn Keyed)
    }

    /// Removes `path`, returning its attributes.
    pub fn remove(&mut self, path: &str) -> Option<FileAttrs> {
        self.remove_fp(path.as_bytes(), &Fingerprint::of(path))
    }

    /// [`remove`](MetadataStore::remove) for a caller holding the path's
    /// bytes and fingerprint.
    pub fn remove_fp(&mut self, path: &[u8], fp: &Fingerprint) -> Option<FileAttrs> {
        self.files.remove(&(fp.lanes().0, path) as &dyn Keyed)
    }

    /// Iterates stored paths in arbitrary order.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(|key| key.path.as_str())
    }

    /// Iterates `(lane, path bytes)` in arbitrary order: each stored path
    /// with the fingerprint lane it is keyed by — what a checkpoint sorts
    /// by, without hashing or re-checking a path.
    pub(crate) fn keyed_paths(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.files.keys().map(|key| (key.lane, key.path.as_bytes()))
    }

    /// Drains every entry out of the store (used when a departing MDS
    /// hands its files to a peer).
    pub fn drain(&mut self) -> impl Iterator<Item = (CompactPath, FileAttrs)> + '_ {
        self.files.drain().map(|(key, attrs)| (key.path, attrs))
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
            store
                .files
                .get(&(lane, path.as_bytes()) as &dyn Keyed)
                .copied()
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
    /// a bucket is 64 bytes (a `String` key made 48 plus a heap block per
    /// path) — not a cache line: it starts 16 bytes into one, and only
    /// its first 48 bytes, the path and lane a verification reads among
    /// them, share that line. A 2,048-bucket table is then 133 KB, just over glibc's
    /// 128 KiB mmap threshold: freeing one raises the allocator's dynamic
    /// thresholds, which is what `net_mixed`'s `peak_rss_mb` sees.
    #[test]
    fn a_bucket_is_64_bytes() {
        assert_eq!(core::mem::size_of::<CompactPath>(), 32);
        assert_eq!(core::mem::size_of::<(StoreKey, FileAttrs)>(), 64);
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
