//! Error types for the Bloom filter toolkit.

use core::fmt;

/// The shape parameters that two filters must share before any algebraic
/// operation (union, intersection, XOR distance, delta application) between
/// them is meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FilterShape {
    /// Number of bits in the filter.
    pub bits: usize,
    /// Number of hash functions.
    pub hashes: u32,
    /// Seed of the hash family.
    pub seed: u64,
}

impl fmt::Display for FilterShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "m={} bits, k={}, seed={:#x}",
            self.bits, self.hashes, self.seed
        )
    }
}

/// Errors produced by filter and filter-array operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BloomError {
    /// Two filters with different geometry or hash seeds were combined.
    IncompatibleFilters {
        /// Shape of the left-hand filter.
        left: FilterShape,
        /// Shape of the right-hand filter.
        right: FilterShape,
    },
    /// An identifier was inserted twice into an array.
    DuplicateId,
    /// An operation referenced an identifier absent from the array.
    UnknownId,
    /// A slot was asked of an array that had already given it to
    /// another identifier.
    SlotTaken,
    /// A serialized filter failed validation while decoding.
    Corrupt(&'static str),
    /// A counting-filter removal was requested for an item that is not
    /// present (some counter is already zero).
    AbsentItem,
}

impl fmt::Display for BloomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BloomError::IncompatibleFilters { left, right } => {
                write!(f, "incompatible filters: {left} vs {right}")
            }
            BloomError::DuplicateId => write!(f, "identifier already present in array"),
            BloomError::UnknownId => write!(f, "identifier not present in array"),
            BloomError::SlotTaken => write!(f, "slot already holds another identifier"),
            BloomError::Corrupt(what) => write!(f, "corrupt filter encoding: {what}"),
            BloomError::AbsentItem => write!(f, "item not present in counting filter"),
        }
    }
}

impl std::error::Error for BloomError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_incompatible_mentions_both_shapes() {
        let err = BloomError::IncompatibleFilters {
            left: FilterShape {
                bits: 64,
                hashes: 3,
                seed: 1,
            },
            right: FilterShape {
                bits: 128,
                hashes: 3,
                seed: 1,
            },
        };
        let text = err.to_string();
        assert!(text.contains("m=64"));
        assert!(text.contains("m=128"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BloomError>();
    }

    #[test]
    fn display_is_lowercase_without_trailing_period() {
        for err in [
            BloomError::DuplicateId,
            BloomError::UnknownId,
            BloomError::SlotTaken,
            BloomError::Corrupt("magic"),
            BloomError::AbsentItem,
        ] {
            let text = err.to_string();
            assert!(!text.ends_with('.'), "{text:?} ends with a period");
            assert!(
                text.chars().next().is_some_and(|c| c.is_lowercase()),
                "{text:?} starts uppercase"
            );
        }
    }
}
