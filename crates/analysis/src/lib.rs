//! Closed-form models from the G-HBA paper.
//!
//! * [`eq`] — Equations 2–4: space overhead, expected operation latency,
//!   and the normalized throughput Γ.
//! * [`optimal`] — the unimodal Γ analysis of Figures 6–7 and the
//!   optimal group size `M*`.
//! * [`memory`] — the Table 5 per-MDS memory overhead comparison
//!   (BFA8 / BFA16 / HBA / G-HBA).
//! * False-rate formulas, including Equation 1, live in
//!   [`ghba_bloom::analysis`] and are re-exported as [`falserate`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod eq;
pub mod memory;
pub mod optimal;

/// False-positive-rate analysis (Equation 1 and the standard formulas),
/// re-exported from the Bloom filter substrate.
pub mod falserate {
    pub use ghba_bloom::analysis::{
        array_ambiguity, optimal_fpp, optimal_hash_count, segment_false_hit, standard_fpp,
    };
}

pub use eq::{normalized_throughput, operation_latency, space_overhead, LatencyTerms};
pub use memory::MemoryModel;
pub use optimal::AnalyticModel;
