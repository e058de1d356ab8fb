//! Closed-form models from the G-HBA paper.
//!
//! * [`eq`] — Equations 2–4: space overhead, expected operation latency,
//!   and the normalized throughput Γ.
//! * [`optimal`] — the unimodal Γ analysis of Figures 6–7 and the
//!   optimal group size `M*`.
//! * [`memory`] — the Table 5 per-MDS memory overhead comparison
//!   (BFA8 / BFA16 / HBA / G-HBA).
//! * False-rate formulas, including Equation 1, live in
//!   [`ghba_bloom::analysis`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod eq;
pub mod memory;
pub mod optimal;

pub use eq::{normalized_throughput, operation_latency, space_overhead, LatencyTerms};
pub use memory::MemoryModel;
pub use optimal::AnalyticModel;
