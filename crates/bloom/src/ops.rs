//! Set algebra over Bloom filters (§3.4 of the paper) and the sparse delta
//! encoding used by the replica-update protocol.
//!
//! * Property 1: `BF(A ∪ B)` = bitwise OR — exact for unions.
//! * Property 2: `BF(A) & BF(B)` over-approximates `BF(A ∩ B)`.
//! * Property 3: `BF(A ⊕ B) = BF(A−B) ∪ BF(B−A)`; with only the two filters
//!   in hand the bitwise XOR is the usable proxy, and its popcount (the
//!   [`BloomFilter::xor_distance`]) drives update scheduling.

use crate::error::BloomError;
use crate::filter::BloomFilter;

/// Returns `BF(A ∪ B)` (Property 1).
///
/// # Errors
///
/// Returns [`BloomError::IncompatibleFilters`] when shapes differ.
pub fn union(a: &BloomFilter, b: &BloomFilter) -> Result<BloomFilter, BloomError> {
    let mut out = a.clone();
    out.union_assign(b)?;
    Ok(out)
}

/// Returns the bitwise-AND filter, an over-approximation of `BF(A ∩ B)`
/// (Property 2).
///
/// # Errors
///
/// Returns [`BloomError::IncompatibleFilters`] when shapes differ.
pub fn intersect(a: &BloomFilter, b: &BloomFilter) -> Result<BloomFilter, BloomError> {
    let mut out = a.clone();
    out.intersect_assign(b)?;
    Ok(out)
}

/// Returns the bitwise-XOR filter — the usable proxy for `BF(A ⊕ B)`
/// (Property 3). Positions set here are positions where exactly one of the
/// two filters has a bit, i.e. the candidate difference region.
///
/// # Errors
///
/// Returns [`BloomError::IncompatibleFilters`] when shapes differ.
pub fn symmetric_difference(a: &BloomFilter, b: &BloomFilter) -> Result<BloomFilter, BloomError> {
    if a.shape() != b.shape() {
        return Err(BloomError::IncompatibleFilters {
            left: a.shape(),
            right: b.shape(),
        });
    }
    let mut out = a.clone();
    for (w, src) in out.words_mut().iter_mut().zip(b.words()) {
        *w ^= src;
    }
    // Item count is not meaningful for an XOR filter; report 0 and let the
    // caller reason from the bit vector.
    out.set_items(0);
    Ok(out)
}

/// A sparse, wire-friendly encoding of "how to turn filter `old` into
/// filter `new`": the 64-bit words that changed, by index. Beside each it
/// keeps `old ^ new`, so applying it visits only the bits that flipped; a
/// receiver derives those from its own copy, so they are not wire payload.
///
/// When a home MDS refreshes the replicas of its filter, shipping a
/// `FilterDelta` instead of the whole filter shrinks update traffic in
/// proportion to the churn since the last refresh.
///
/// # Examples
///
/// ```
/// use ghba_bloom::{BloomFilter, FilterDelta};
///
/// let old = BloomFilter::new(1024, 4, 0);
/// let mut new = old.clone();
/// new.insert("freshly-created-file");
/// let delta = FilterDelta::between(&old, &new)?;
/// let mut replica = old.clone();
/// delta.apply(&mut replica)?;
/// assert!(replica.contains("freshly-created-file"));
/// # Ok::<(), ghba_bloom::BloomError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterDelta {
    shape: crate::error::FilterShape,
    /// `(word index, new value, old ^ new)`.
    changed: Vec<(u32, u64, u64)>,
    new_items: usize,
}

impl FilterDelta {
    /// Computes the delta turning `old` into `new`.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::IncompatibleFilters`] when shapes differ.
    pub fn between(old: &BloomFilter, new: &BloomFilter) -> Result<Self, BloomError> {
        if old.shape() != new.shape() {
            return Err(BloomError::IncompatibleFilters {
                left: old.shape(),
                right: new.shape(),
            });
        }
        let changed = old
            .words()
            .iter()
            .zip(new.words())
            .enumerate()
            .filter(|(_, (o, n))| o != n)
            .map(|(i, (o, n))| (i as u32, *n, o ^ n))
            .collect();
        Ok(FilterDelta {
            shape: old.shape(),
            changed,
            new_items: new.item_count(),
        })
    }

    /// Number of changed words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.changed.len()
    }

    /// `true` when the delta is a no-op.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty()
    }

    /// Bytes this delta would occupy on the wire: 4 (index) + 8 (word) per
    /// entry plus a fixed 24-byte header.
    #[must_use]
    pub fn wire_bytes(&self) -> usize {
        24 + self.changed.len() * 12
    }

    /// Applies the delta to `target`, which must look like the `old` side.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::IncompatibleFilters`] if `target`'s shape does
    /// not match, or [`BloomError::Corrupt`] if a word index is out of
    /// range.
    pub fn apply(&self, target: &mut BloomFilter) -> Result<(), BloomError> {
        if target.shape() != self.shape {
            return Err(BloomError::IncompatibleFilters {
                left: target.shape(),
                right: self.shape,
            });
        }
        let word_count = target.words().len();
        if self
            .changed
            .iter()
            .any(|&(idx, ..)| idx as usize >= word_count)
        {
            return Err(BloomError::Corrupt("delta word index out of range"));
        }
        for &(idx, word, _) in &self.changed {
            target.words_mut()[idx as usize] = word;
        }
        target.set_items(self.new_items);
        Ok(())
    }

    /// The filter geometry this delta applies to.
    #[must_use]
    pub fn shape(&self) -> crate::error::FilterShape {
        self.shape
    }

    /// The changed 64-bit words as `(word index, new value, old ^ new)` —
    /// the sparse payload [`SharedShapeArray::apply_delta`] writes directly
    /// into a slab column, one cell per set bit of `old ^ new`.
    ///
    /// [`SharedShapeArray::apply_delta`]: crate::SharedShapeArray::apply_delta
    #[must_use]
    pub fn changed_words(&self) -> &[(u32, u64, u64)] {
        &self.changed
    }

    /// The item count of the post-delta filter.
    #[must_use]
    pub fn new_items(&self) -> usize {
        self.new_items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (BloomFilter, BloomFilter) {
        let mut a = BloomFilter::new(2048, 4, 3);
        let mut b = BloomFilter::new(2048, 4, 3);
        for i in 0..50u32 {
            a.insert(&("a", i));
            b.insert(&("b", i));
        }
        (a, b)
    }

    #[test]
    fn union_is_commutative_on_bits() {
        let (a, b) = pair();
        let ab = union(&a, &b).unwrap();
        let ba = union(&b, &a).unwrap();
        assert_eq!(ab.words(), ba.words());
    }

    #[test]
    fn union_never_loses_membership() {
        let (a, b) = pair();
        let u = union(&a, &b).unwrap();
        for i in 0..50u32 {
            assert!(u.contains(&("a", i)));
            assert!(u.contains(&("b", i)));
        }
    }

    #[test]
    fn intersect_contains_shared_members() {
        let mut a = BloomFilter::new(4096, 4, 3);
        let mut b = BloomFilter::new(4096, 4, 3);
        a.insert("both");
        b.insert("both");
        a.insert("only-a");
        b.insert("only-b");
        let i = intersect(&a, &b).unwrap();
        assert!(i.contains("both"));
    }

    #[test]
    fn symmetric_difference_clears_common_bits() {
        let (a, _) = pair();
        let x = symmetric_difference(&a, &a).unwrap();
        assert_eq!(x.ones(), 0);
    }

    #[test]
    fn symmetric_difference_popcount_matches_xor_distance() {
        let (a, b) = pair();
        let x = symmetric_difference(&a, &b).unwrap();
        assert_eq!(x.ones(), a.xor_distance(&b).unwrap());
    }

    #[test]
    fn delta_roundtrip() {
        let old = BloomFilter::new(4096, 4, 3);
        let mut new = old.clone();
        for i in 0..20u32 {
            new.insert(&i);
        }
        let delta = FilterDelta::between(&old, &new).unwrap();
        assert!(!delta.is_empty());
        let mut replica = old.clone();
        delta.apply(&mut replica).unwrap();
        assert_eq!(replica, new);
    }

    #[test]
    fn empty_delta_for_identical_filters() {
        let (a, _) = pair();
        let delta = FilterDelta::between(&a, &a).unwrap();
        assert!(delta.is_empty());
        assert_eq!(delta.wire_bytes(), 24);
    }

    #[test]
    fn delta_wire_size_scales_with_churn() {
        let old = BloomFilter::new(65_536, 4, 3);
        let mut small_change = old.clone();
        small_change.insert("one");
        let mut big_change = old.clone();
        for i in 0..2_000u32 {
            big_change.insert(&i);
        }
        let small = FilterDelta::between(&old, &small_change).unwrap();
        let big = FilterDelta::between(&old, &big_change).unwrap();
        assert!(small.wire_bytes() < big.wire_bytes());
        assert!(small.wire_bytes() < old.memory_bytes());
    }

    #[test]
    fn mismatched_shapes_rejected_everywhere() {
        let a = BloomFilter::new(64, 2, 0);
        let b = BloomFilter::new(128, 2, 0);
        assert!(union(&a, &b).is_err());
        assert!(intersect(&a, &b).is_err());
        assert!(symmetric_difference(&a, &b).is_err());
        assert!(FilterDelta::between(&a, &b).is_err());
        let delta = FilterDelta::between(&a, &a).unwrap();
        let mut c = BloomFilter::new(128, 2, 0);
        assert!(delta.apply(&mut c).is_err());
    }
}
