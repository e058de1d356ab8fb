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

/// What a store key is looked up by: the fingerprint's first lane (the
/// table position) and the path (the identity).
trait Keyed {
    fn lane(&self) -> u64;
    fn path(&self) -> &str;
}

/// An owned store key: compared lane first, then path. With
/// [`FileAttrs`] it makes a 48-byte bucket — what `(String, FileAttrs)`
/// took, the boxed path's spare word now holding the lane.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StoreKey {
    lane: u64,
    path: Box<str>,
}

impl Keyed for StoreKey {
    fn lane(&self) -> u64 {
        self.lane
    }
    fn path(&self) -> &str {
        &self.path
    }
}

/// A borrowed lookup key: `(lane, path)`.
impl Keyed for (u64, &str) {
    fn lane(&self) -> u64 {
        self.0
    }
    fn path(&self) -> &str {
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
    pub fn create(&mut self, path: impl AsRef<str> + Into<String>) -> Option<FileAttrs> {
        let fp = Fingerprint::of(path.as_ref());
        self.create_fp(path, &fp)
    }

    /// [`create`](MetadataStore::create) for a caller holding `path`'s
    /// fingerprint. An owned `String` becomes the key as it is (no copy
    /// when its capacity is exact, as `to_owned`'s and a decoder's are).
    pub fn create_fp(&mut self, path: impl Into<String>, fp: &Fingerprint) -> Option<FileAttrs> {
        let ino = self.next_ino;
        self.next_ino += 1;
        let key = StoreKey {
            lane: fp.lanes().0,
            path: path.into().into_boxed_str(),
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
        self.contains_fp(path, &Fingerprint::of(path))
    }

    /// [`contains`](MetadataStore::contains) for a caller holding `path`'s
    /// fingerprint: no byte-wise hash, one path compare on a lane hit.
    #[must_use]
    pub fn contains_fp(&self, path: &str, fp: &Fingerprint) -> bool {
        self.files.contains_key(&(fp.lanes().0, path) as &dyn Keyed)
    }

    /// Reads the attributes of `path`.
    #[must_use]
    pub fn get(&self, path: &str) -> Option<&FileAttrs> {
        self.files
            .get(&(Fingerprint::of(path).lanes().0, path) as &dyn Keyed)
    }

    /// Removes `path`, returning its attributes.
    pub fn remove(&mut self, path: &str) -> Option<FileAttrs> {
        self.remove_fp(path, &Fingerprint::of(path))
    }

    /// [`remove`](MetadataStore::remove) for a caller holding `path`'s
    /// fingerprint.
    pub fn remove_fp(&mut self, path: &str, fp: &Fingerprint) -> Option<FileAttrs> {
        self.files.remove(&(fp.lanes().0, path) as &dyn Keyed)
    }

    /// Iterates stored paths in arbitrary order.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(|key| &*key.path)
    }

    /// Iterates `(lane, path)` in arbitrary order: each stored path with
    /// the fingerprint lane it is keyed by — what a checkpoint sorts by,
    /// without hashing a path again.
    pub(crate) fn keyed_paths(&self) -> impl Iterator<Item = (u64, &str)> {
        self.files.keys().map(|key| (key.lane, &*key.path))
    }

    /// Drains every entry out of the store (used when a departing MDS
    /// hands its files to a peer).
    pub fn drain(&mut self) -> impl Iterator<Item = (String, FileAttrs)> + '_ {
        self.files
            .drain()
            .map(|(key, attrs)| (key.path.into_string(), attrs))
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

    /// Two paths forged onto one lane are two files: created, found,
    /// re-created and removed independently, and a third path with that
    /// lane is a miss — a lane collision costs a compare, never an answer.
    #[test]
    fn forged_lane_collisions_cannot_change_an_answer() {
        let lane = 0xDEAD_BEEF;
        let (fp_a, fp_b) = (
            Fingerprint::from_lanes(lane, 1),
            Fingerprint::from_lanes(lane, 2),
        );
        let get = |store: &MetadataStore, path: &str| {
            store.files.get(&(lane, path) as &dyn Keyed).copied()
        };
        let mut store = MetadataStore::new();
        assert!(store.create_fp("/a", &fp_a).is_none());
        assert!(store.create_fp("/b", &fp_b).is_none());
        assert_eq!(store.len(), 2);
        assert!(store.contains_fp("/a", &fp_a) && store.contains_fp("/b", &fp_b));
        assert!(!store.contains_fp("/c", &fp_a), "a third path on the lane");
        assert!(get(&store, "/c").is_none());
        assert_ne!(
            get(&store, "/a").unwrap().ino,
            get(&store, "/b").unwrap().ino
        );
        let mut paths: Vec<&str> = store.paths().collect();
        paths.sort_unstable();
        assert_eq!(paths, ["/a", "/b"]);
        // A re-create bumps its own path only.
        assert_eq!(store.create_fp("/a", &fp_a).unwrap().version, 0);
        assert_eq!(get(&store, "/a").unwrap().version, 1);
        assert_eq!(get(&store, "/b").unwrap().version, 0);
        assert!(store.remove_fp("/c", &fp_b).is_none());
        assert_eq!(store.remove_fp("/a", &fp_a).unwrap().version, 1);
        assert!(!store.contains_fp("/a", &fp_a) && store.contains_fp("/b", &fp_b));
        assert_eq!(store.len(), 1);
        // The `&str` entries fingerprint for themselves: an honestly
        // keyed "/b" is a different key from the forged one.
        assert!(!store.contains("/b"));
    }

    /// `peak_rss_mb` rests on this: the lane took the word `String`'s
    /// capacity held, so a bucket is what it was.
    #[test]
    fn a_bucket_is_48_bytes() {
        assert_eq!(core::mem::size_of::<(StoreKey, FileAttrs)>(), 48);
        assert_eq!(core::mem::size_of::<(String, FileAttrs)>(), 48);
    }
}
