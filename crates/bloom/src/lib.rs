//! Bloom filter toolkit for G-HBA-style distributed metadata management.
//!
//! This crate provides every probabilistic structure the G-HBA paper (Hua,
//! Zhu, Jiang, Feng, Tian — *Scalable and Adaptive Metadata Management in
//! Ultra Large-scale File Systems*) builds on:
//!
//! * [`BloomFilter`] — the plain bit-vector filter each metadata server
//!   (MDS) maintains over its local files and replicates to peers;
//! * [`CountingBloomFilter`] — deletable filters, used by the ID Bloom
//!   filter array (IDBFA) that tracks replica placement within a group;
//! * [`SharedShapeArray`] — an array of filters sharing one
//!   [`FilterShape`], bit-sliced so an N-filter probe is `k` word-row
//!   loads plus an AND-reduction instead of N filter walks, classifying
//!   results as zero / unique / multiple [`Hit`]s;
//! * [`Fingerprint`] ([`hash`]) — hash-once digests: one pass over the item
//!   bytes derives every filter's probe stream by O(1) seed-mixing;
//! * [`LruBloomArray`] — the L1 "hot data" structure capturing temporal
//!   locality;
//! * [`analysis`] — closed-form false-rate formulas, including the paper's
//!   Equation (1).
//!
//! # Quick start
//!
//! ```
//! use ghba_bloom::{BloomFilter, Hit, SharedShapeArray};
//!
//! // Each MDS summarizes its local files…
//! let mut mds0 = BloomFilter::for_items(10_000, 12.0);
//! let mut mds1 = mds0.clone();
//! mds0.insert("/projects/ghba/paper.tex");
//! mds1.insert("/home/alice/notes.txt");
//!
//! // …and peers assemble replicas into an array they can query.
//! let mut array = SharedShapeArray::new(mds0.shape());
//! array.push_filter(0u16, &mds0)?;
//! array.push_filter(1u16, &mds1)?;
//! assert_eq!(array.query("/home/alice/notes.txt"), Hit::Unique(1));
//! # Ok::<(), ghba_bloom::BloomError>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
mod counting;
mod error;
mod filter;
pub mod hash;
mod lru;
mod shared;

pub use counting::CountingBloomFilter;
pub use error::{BloomError, FilterShape};
pub use filter::BloomFilter;
pub use hash::{BuildLaneHasher, Fingerprint};
pub use lru::LruBloomArray;
pub use shared::{prefetch_slot, Hit, ProbeBatch, RowDeriver, SharedShapeArray, SlotMask};
