//! The reference the property suites hold [`SharedShapeArray`] to: an
//! ordered list of independent [`BloomFilter`]s probed one by one.
//!
//! Each query visits `N` separate bit vectors; the bit-sliced array turns
//! the same query into `k` row loads and an AND-reduction. Both must
//! classify every probe into the same [`Hit`].
//!
//! [`SharedShapeArray`]: ghba_bloom::SharedShapeArray

use std::hash::Hash;

use ghba_bloom::{BloomError, BloomFilter, Fingerprint, Hit};

/// An ordered collection of `(id, filter)` pairs probed together. It
/// keeps insertion order and rejects duplicate ids.
#[derive(Debug, Clone, Default)]
pub struct BloomFilterArray<I> {
    entries: Vec<(I, BloomFilter)>,
}

impl<I: Copy + Eq> BloomFilterArray<I> {
    /// Creates an empty array.
    pub fn new() -> Self {
        BloomFilterArray {
            entries: Vec::new(),
        }
    }

    /// Adds a filter for `id`; refuses an id already present.
    pub fn push(&mut self, id: I, filter: BloomFilter) -> Result<(), BloomError> {
        if self.entries.iter().any(|(eid, _)| *eid == id) {
            return Err(BloomError::DuplicateId);
        }
        self.entries.push((id, filter));
        Ok(())
    }

    /// Mutably borrows the filter for `id`.
    pub fn get_mut(&mut self, id: I) -> Option<&mut BloomFilter> {
        let entry = self.entries.iter_mut().find(|(eid, _)| *eid == id);
        entry.map(|(_, filter)| filter)
    }

    /// Probes every filter with `item` and classifies the positives.
    pub fn query<T: Hash + ?Sized>(&self, item: &T) -> Hit<I> {
        self.query_fp(&Fingerprint::of(item))
    }

    /// Hash-once probe: each filter derives its probe stream from `fp`.
    pub fn query_fp(&self, fp: &Fingerprint) -> Hit<I> {
        let positives: Vec<I> = self
            .entries
            .iter()
            .filter(|(_, filter)| filter.contains_fp(fp))
            .map(|&(id, _)| id)
            .collect();
        match positives.len() {
            0 => Hit::None,
            1 => Hit::Unique(positives[0]),
            _ => Hit::Multiple(positives),
        }
    }
}

impl<I: Copy + Eq> FromIterator<(I, BloomFilter)> for BloomFilterArray<I> {
    /// Builds an array from pairs; later duplicates of an id are dropped.
    fn from_iter<T: IntoIterator<Item = (I, BloomFilter)>>(iter: T) -> Self {
        let mut array = BloomFilterArray::new();
        for (id, filter) in iter {
            let _ = array.push(id, filter);
        }
        array
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter_with(items: &[&str]) -> BloomFilter {
        let mut f = BloomFilter::new(4096, 5, 11);
        for item in items {
            f.insert(item);
        }
        f
    }

    #[test]
    fn reference_classifies_zero_one_and_many() {
        let mut array = BloomFilterArray::new();
        array.push(1u32, filter_with(&["a", "dup"])).unwrap();
        array.push(2u32, filter_with(&["c", "dup"])).unwrap();
        assert_eq!(array.query("c"), Hit::Unique(2));
        assert_eq!(array.query("a"), Hit::Unique(1));
        assert_eq!(array.query("nothing-here"), Hit::None);
        assert_eq!(array.query("dup"), Hit::Multiple(vec![1, 2]));
    }

    #[test]
    fn reference_refuses_duplicate_ids() {
        let mut array = BloomFilterArray::new();
        array.push(1u32, filter_with(&[])).unwrap();
        assert_eq!(
            array.push(1u32, filter_with(&[])),
            Err(BloomError::DuplicateId)
        );
        let collected: BloomFilterArray<u32> =
            vec![(1, filter_with(&["first"])), (1, filter_with(&["second"]))]
                .into_iter()
                .collect();
        assert_eq!(collected.query("first"), Hit::Unique(1));
        assert_eq!(collected.query("second"), Hit::None);
    }

    #[test]
    fn reference_filters_mutate_in_place() {
        let mut array: BloomFilterArray<u32> = (0..3).map(|id| (id, filter_with(&[]))).collect();
        array.get_mut(2).unwrap().insert("late");
        assert_eq!(array.query("late"), Hit::Unique(2));
        assert!(array.get_mut(9).is_none());
    }
}
