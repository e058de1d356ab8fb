//! Set algebra over Bloom filters (§3.4 of the paper).
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
    fn mismatched_shapes_rejected_everywhere() {
        let a = BloomFilter::new(64, 2, 0);
        let b = BloomFilter::new(128, 2, 0);
        assert!(union(&a, &b).is_err());
        assert!(intersect(&a, &b).is_err());
        assert!(symmetric_difference(&a, &b).is_err());
    }
}
