//! # G-HBA — Group-based Hierarchical Bloom filter Arrays
//!
//! A full Rust reproduction of *Scalable and Adaptive Metadata Management
//! in Ultra Large-scale File Systems* (Hua, Zhu, Jiang, Feng & Tian,
//! ICDCS 2008): scalable, adaptive, decentralized metadata lookup for
//! clusters of metadata servers, built on grouped Bloom filter arrays.
//!
//! This facade crate re-exports the whole workspace and adds the
//! trace-replay driver used by the examples and figure binaries:
//!
//! * [`bloom`] — Bloom filter toolkit (plain/counting filters, arrays,
//!   LRU arrays, set algebra, false-rate analysis);
//! * [`simnet`] — deterministic simulation substrate (virtual clock,
//!   seeded RNG, latency and memory models);
//! * [`trace`] — synthetic INS/RES/HP workloads with TIF intensification;
//! * [`core`] — the G-HBA cluster itself;
//! * [`baselines`] — HBA, BFA, and hash-placement comparators;
//! * [`analysis`] — the paper's closed-form models (Equations 1–4,
//!   optimal group size, Table 5);
//! * [`net`] — the multi-process networked deployment (binary wire
//!   protocol, rendezvous/replica/loadgen binaries, loopback harness);
//! * [`replay`] — drive any scheme with any workload;
//! * [`scenario`] — time-varying load curves on the simnet event queue,
//!   with the online group controller ticking in-band.
//!
//! ## Quick start
//!
//! ```
//! use ghba::core::{GhbaCluster, GhbaConfig};
//! use ghba::trace::{WorkloadGenerator, WorkloadProfile};
//!
//! let config = GhbaConfig::default().with_filter_capacity(5_000).with_seed(1);
//! let mut cluster = GhbaCluster::with_servers(config, 12);
//!
//! // Populate and replay a slice of an HP-like workload.
//! let generator = WorkloadGenerator::new(WorkloadProfile::hp(), 1);
//! for i in 0..1_000 {
//!     cluster.create_file(&generator.path_of(i));
//! }
//! cluster.flush_all_updates();
//! let report = ghba::replay::replay(&mut cluster, generator.take(2_000));
//! assert_eq!(report.operations, 2_000);
//! ```

#![forbid(unsafe_code)]

pub use ghba_analysis as analysis;
pub use ghba_baselines as baselines;
pub use ghba_bloom as bloom;
pub use ghba_core as core;
pub use ghba_net as net;
pub use ghba_simnet as simnet;
pub use ghba_trace as trace;

pub mod replay;
pub mod scenario;
