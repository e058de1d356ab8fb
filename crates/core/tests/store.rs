//! The metadata store against a `HashMap` reference: random streams of
//! creates, re-creates, removes, membership checks, reads and reserves —
//! short and long paths, honest and forged fingerprint lanes — must
//! answer every call as the reference does, and list and drain the same
//! files at the end.

use std::collections::hash_map::{Entry, HashMap};

use ghba_bloom::Fingerprint;
use ghba_core::{FileAttrs, MetadataStore, INLINE_PATH_BYTES};
use proptest::prelude::*;

/// Keys a stream draws from: enough to grow the table from nothing past
/// 1,024 slots.
const KEYS: u16 = 1_200;

/// 2^64 / φ, the multiplier the store homes a lane by (top bits of
/// `lane × GOLDEN`).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// A lane whose product with [`GOLDEN`] is all ones: homed at the last
/// slot of a table of any size, so the run of paths forged onto it wraps
/// past the table's end.
fn last_slot_lane() -> u64 {
    // Newton's iteration for the inverse of an odd number mod 2^64.
    let mut inverse = GOLDEN;
    for _ in 0..5 {
        inverse = inverse.wrapping_mul(2u64.wrapping_sub(GOLDEN.wrapping_mul(inverse)));
    }
    u64::MAX.wrapping_mul(inverse)
}

/// Key `i`'s path and fingerprint. Every third path is longer than
/// [`INLINE_PATH_BYTES`] (boxed); every fourth key is forged onto one of
/// three shared lanes, one of them homed at the table's last slot.
fn key(i: u16) -> (String, Fingerprint) {
    let path = if i.is_multiple_of(3) {
        format!("/a/long/path/beyond/the/inline/bytes/{i:05}")
    } else {
        format!("/f/{i}")
    };
    debug_assert_eq!(path.len() > INLINE_PATH_BYTES, i.is_multiple_of(3));
    let fp = if i.is_multiple_of(4) {
        let lanes = [last_slot_lane(), 0xDEAD_BEEF, 0];
        Fingerprint::from_lanes(lanes[usize::from(i / 4) % 3], u64::from(i))
    } else {
        Fingerprint::of(path.as_str())
    };
    (path, fp)
}

#[derive(Debug, Clone)]
enum Op {
    Create(u16),
    Remove(u16),
    Contains(u16),
    Get(u16),
    Reserve(u16),
}

/// Create-heavy in the first half of a stream and remove-heavy in the
/// second, so a stream grows the table through its resizes and then
/// empties it (backward shifts across the seam included).
fn arb_phase(creates: u32, removes: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        creates => (0..KEYS).prop_map(Op::Create),
        removes => (0..KEYS).prop_map(Op::Remove),
        2 => (0..KEYS).prop_map(Op::Contains),
        2 => (0..KEYS).prop_map(Op::Get),
        1 => (0u16..300).prop_map(Op::Reserve),
    ]
}

/// The reference: `(lane, path bytes)` → attributes, with the store's
/// ino counter (every create takes one, a re-create included).
#[derive(Default)]
struct Reference {
    files: HashMap<(u64, Vec<u8>), FileAttrs>,
    next_ino: u64,
}

impl Reference {
    fn create(&mut self, lane: u64, path: &str) -> Option<FileAttrs> {
        let ino = self.next_ino;
        self.next_ino += 1;
        match self.files.entry((lane, path.as_bytes().to_vec())) {
            Entry::Occupied(mut file) => {
                let old = *file.get();
                file.get_mut().version += 1;
                Some(old)
            }
            Entry::Vacant(file) => {
                file.insert(FileAttrs {
                    ino,
                    size: 0,
                    version: 0,
                });
                None
            }
        }
    }

    fn sorted_paths(&self) -> Vec<String> {
        let mut paths: Vec<String> = self
            .files
            .keys()
            .map(|(_, path)| String::from_utf8(path.clone()).expect("UTF-8"))
            .collect();
        paths.sort_unstable();
        paths
    }
}

/// Runs `ops` against a store and the reference, comparing every answer.
fn replay(
    store: &mut MetadataStore,
    reference: &mut Reference,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Create(i) => {
                let (path, fp) = key(i);
                let lane = fp.lanes().0;
                let expected = reference.create(lane, &path);
                let got = if i % 2 == 0 {
                    store.create_fp(path.as_str(), &fp)
                } else {
                    store.create_fp(path.clone(), &fp)
                };
                prop_assert_eq!(got, expected, "step {}: create {}", step, path);
            }
            Op::Remove(i) => {
                let (path, fp) = key(i);
                let expected = reference
                    .files
                    .remove(&(fp.lanes().0, path.clone().into_bytes()));
                prop_assert_eq!(
                    store.remove_fp(path.as_bytes(), &fp),
                    expected,
                    "step {}: remove {}",
                    step,
                    path
                );
            }
            Op::Contains(i) => {
                let (path, fp) = key(i);
                let expected = reference
                    .files
                    .contains_key(&(fp.lanes().0, path.clone().into_bytes()));
                prop_assert_eq!(
                    store.contains_fp(path.as_bytes(), &fp),
                    expected,
                    "step {}: contains {}",
                    step,
                    path
                );
                if fp == Fingerprint::of(path.as_str()) {
                    prop_assert_eq!(store.contains(&path), expected, "step {}", step);
                }
            }
            Op::Get(i) => {
                let (path, fp) = key(i);
                let expected = reference
                    .files
                    .get(&(fp.lanes().0, path.clone().into_bytes()))
                    .copied();
                prop_assert_eq!(
                    store.get_fp(path.as_bytes(), &fp).copied(),
                    expected,
                    "step {}: get {}",
                    step,
                    path
                );
                if fp == Fingerprint::of(path.as_str()) {
                    prop_assert_eq!(store.get(&path).copied(), expected, "step {}", step);
                }
            }
            Op::Reserve(additional) => store.reserve(usize::from(additional)),
        }
        prop_assert_eq!(store.len(), reference.files.len(), "step {}: len", step);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every call answers as the reference does; at the end `len`,
    /// `paths()` and a full `drain()` list the reference's files.
    #[test]
    fn the_store_answers_as_a_hash_map_does(
        growing in proptest::collection::vec(arb_phase(6, 1), 1..2_500),
        shrinking in proptest::collection::vec(arb_phase(1, 6), 1..2_500),
    ) {
        let mut store = MetadataStore::new();
        let mut reference = Reference::default();
        replay(&mut store, &mut reference, &growing)?;
        replay(&mut store, &mut reference, &shrinking)?;
        let mut paths: Vec<String> = store.paths().map(str::to_owned).collect();
        paths.sort_unstable();
        prop_assert_eq!(paths, reference.sorted_paths());
        let mut drained: Vec<(String, FileAttrs)> = store
            .drain()
            .map(|(path, attrs)| (path.into_string(), attrs))
            .collect();
        drained.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut expected: Vec<(String, FileAttrs)> = reference
            .files
            .iter()
            .map(|((_, path), attrs)| (String::from_utf8(path.clone()).expect("UTF-8"), *attrs))
            .collect();
        expected.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        prop_assert_eq!(drained, expected);
        prop_assert!(store.is_empty() && store.paths().next().is_none());
    }

    /// A drain dropped after `taken` files still leaves the store empty,
    /// and the store takes new files afterwards.
    #[test]
    fn a_drain_dropped_early_leaves_the_store_empty(
        creates in proptest::collection::vec(0..KEYS, 1..400),
        taken in 0usize..3,
    ) {
        let mut store = MetadataStore::new();
        for &i in &creates {
            let (path, fp) = key(i);
            store.create_fp(path.as_str(), &fp);
        }
        store.drain().take(taken).for_each(drop);
        prop_assert!(store.is_empty());
        prop_assert_eq!(store.paths().count(), 0);
        for &i in &creates {
            let (path, fp) = key(i);
            prop_assert!(!store.contains_fp(path.as_bytes(), &fp));
        }
        let (path, fp) = key(creates[0]);
        prop_assert!(store.create_fp(path.as_str(), &fp).is_none());
        prop_assert!(store.contains_fp(path.as_bytes(), &fp));
        prop_assert_eq!(store.len(), 1);
    }
}
