//! Baseline metadata schemes from the G-HBA paper's comparison (Table 1
//! and the evaluation figures):
//!
//! * [`HbaCluster`] — HBA (Zhu, Jiang & Wang): every server mirrors every
//!   filter; fast until the mirror outgrows RAM. A re-export: it is
//!   `ghba_core`'s one cluster engine under the full-mirror layout, so
//!   HBA and G-HBA share the walk, the op pipeline and the update
//!   cadence line for line and differ only in where replicas live.
//! * [`BfaCluster`] — pure Bloom Filter Arrays (BFA8/BFA16), HBA without
//!   the LRU level (a thin wrapper that disables it and names the
//!   scheme); the Table 5 normalization baseline.
//! * [`HashPlacement`] — modular-hash replica placement, the
//!   reconfiguration strawman of Figure 11.
//!
//! All lookup-capable schemes implement
//! [`ghba_core::MetadataService`], so experiments drive them and G-HBA
//! through one interface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bfa;
mod hashing;
mod hba;

pub use bfa::BfaCluster;
pub use hashing::{expected_hash_migrations, HashPlacement};
pub use hba::HbaCluster;
