//! The authoritative per-MDS metadata store — the simulator's "disk".
//!
//! Bloom filters only summarize; the ground truth about which files an MDS
//! manages lives here. L4 queries and unique-hit verifications consult this
//! store, which is why they can never return a wrong answer (only pay more
//! latency).

use std::collections::HashMap;

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

/// An in-memory map standing in for the on-disk metadata table of one MDS.
#[derive(Debug, Clone, Default)]
pub struct MetadataStore {
    files: HashMap<String, FileAttrs>,
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
    /// An owned `String` is moved into the table, a `&str` copied only
    /// when the path is new.
    pub fn create(&mut self, path: impl AsRef<str> + Into<String>) -> Option<FileAttrs> {
        let ino = self.next_ino;
        self.next_ino += 1;
        match self.files.get_mut(path.as_ref()) {
            Some(attrs) => {
                let old = *attrs;
                attrs.version += 1;
                Some(old)
            }
            None => {
                self.files.insert(
                    path.into(),
                    FileAttrs {
                        ino,
                        size: 0,
                        version: 0,
                    },
                );
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
        self.files.contains_key(path)
    }

    /// Reads the attributes of `path`.
    #[must_use]
    pub fn get(&self, path: &str) -> Option<&FileAttrs> {
        self.files.get(path)
    }

    /// Removes `path`, returning its attributes.
    pub fn remove(&mut self, path: &str) -> Option<FileAttrs> {
        self.files.remove(path)
    }

    /// Iterates stored paths in arbitrary order.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(String::as_str)
    }

    /// Drains every entry out of the store (used when a departing MDS
    /// hands its files to a peer).
    pub fn drain(&mut self) -> impl Iterator<Item = (String, FileAttrs)> + '_ {
        self.files.drain()
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
}
