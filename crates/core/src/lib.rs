//! G-HBA — Group-based Hierarchical Bloom filter Arrays.
//!
//! A from-scratch reproduction of the metadata management system of Hua,
//! Zhu, Jiang, Feng & Tian, *Scalable and Adaptive Metadata Management in
//! Ultra Large-scale File Systems* (ICDCS 2008): N metadata servers (MDS)
//! organized into groups of at most `M`, each group collectively mirroring
//! the whole system through Bloom filter replicas while each server stores
//! only `≈(N − M′)/M′` of them.
//!
//! Queries walk a four-level hierarchy ([`Cluster::lookup_from`]):
//!
//! 1. **L1** — the entry server's LRU Bloom filter array (temporal
//!    locality);
//! 2. **L2** — its segment array: the replicas it holds plus its own live
//!    filter;
//! 3. **L3** — a multicast within its group (which collectively sees the
//!    entire system);
//! 4. **L4** — a system-wide multicast, authoritative by construction.
//!
//! # One walk, one driver, one engine
//!
//! That hierarchy is implemented **once**: a pinned walk that resolves
//! one query against one immutable routing snapshot from `&self`.
//! Every read entry is that walk plus a thin epilogue:
//!
//! * `&self` entries ([`Cluster::lookup_concurrent`],
//!   [`MetadataService::execute_concurrent`]) add their statistics to
//!   one mutex-guarded tally, once per pin, and **never fill L1**; the
//!   owner folds it (and replays pending writes) at its next `&mut`
//!   entry or an explicit [`Cluster::drain_concurrent`].
//! * `&mut` entries ([`Cluster::lookup_from`], [`MetadataService::execute`])
//!   drain first, run the same walk, then apply the L1 LRU fill per
//!   occurrence in stream order and **fold the statistics before
//!   returning**.
//!
//! Writes take one path from either entry: a create or remove is a
//! shard-log record that the drain replays into the stores (appending it
//! to the write-ahead log first, when one is attached). The `&self`
//! entries leave it for the owner's next drain; a `&mut` entry drains it
//! at once and then runs its home's gated replica update.
//!
//! Mixed op batches run through one driver over one set of hooks:
//! `execute` hands it the cluster itself, `execute_concurrent` a
//! per-batch value binding `&self` to the snapshot pinned at admission.
//!
//! The cluster is one engine too. [`Cluster`] owns everything that does
//! not depend on where replicas live — servers, snapshot cell, rng,
//! stats, shard logs, the unfolded tally and load windows, optional
//! WAL, and the walk, driver hooks, update cadence and drain —
//! and is parameterised by a sealed replica layout with exactly two
//! implementations: [`Grouped`] ([`GhbaCluster`]) and [`FullMirror`]
//! ([`HbaCluster`], the paper's baseline: every server mirrors every
//! filter). The baseline therefore shares G-HBA's op path line for
//! line, and a difference in the numbers is a difference in layout. A
//! layout decides only:
//!
//! * the level structure of the walk — the L2 candidate state of an
//!   entry (its θ held replicas vs all `N − 1`), whether an L3 group
//!   stage exists, and which (pseudo-)group a walk's load is charged to;
//! * join/leave placement and its [`ReconfigReport`];
//! * who a replica update reaches (one holder per foreign group, located
//!   through the IDBFA, vs everyone else);
//! * the held-replica count behind a server's filter memory (Table 5);
//! * the rows of a load report;
//! * its own structural invariants, the scheme name and the rng fork.
//!
//! The walk's L2/L3 plans (candidate masks, held counts, probe costs)
//! live in the pinned route snapshot's plan table, for both layouts:
//! each is built by the first walk that needs it and carried into the
//! successor snapshot while its group keeps its `GroupEpoch`.
//!
//! Group membership is elastic: joins trigger light-weight replica
//! migration and, on overflow, group splits; departures trigger merges
//! ([`Cluster::add_mds`], [`Cluster::remove_mds`]). Replica
//! staleness is governed by the XOR-distance update protocol
//! ([`Cluster::push_update`]).
//!
//! # Quick start
//!
//! ```
//! use ghba_core::{GhbaCluster, GhbaConfig, MetadataService};
//!
//! let config = GhbaConfig::default()
//!     .with_max_group_size(4)
//!     .with_filter_capacity(1_000)
//!     .with_seed(7);
//! let mut cluster = GhbaCluster::with_servers(config, 10);
//!
//! let home = cluster.create("/data/experiment/run-1.log");
//! let outcome = cluster.lookup("/data/experiment/run-1.log");
//! assert_eq!(outcome.home, Some(home));
//!
//! // Membership is elastic; invariants hold throughout.
//! cluster.add_mds();
//! cluster.check_invariants().expect("mirror and balance preserved");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// The public `Cluster` is bounded by the crate-private `Topology` on
// purpose: that is what seals the engine to its two layouts.
#![allow(private_bounds)]

pub mod adapt;
mod cluster;
pub mod codec;
mod concurrent;
mod config;
mod group;
mod ids;
pub mod load;
mod mds;
mod metadata;
mod mirror;
mod op;
mod query;
mod reconcile;
mod reconfig;
mod service;
mod snapshot;
mod update;
pub mod wal;

pub use adapt::{AdaptAction, ControllerConfig, GroupController, TargetM};
pub use cluster::{Cluster, ClusterStats, EventCounts, GhbaCluster, Grouped};
pub use concurrent::{WriteKind, WriteRecord};
pub use config::GhbaConfig;
pub use group::{Group, IdFilterArray};
pub use ids::{GroupEpoch, GroupId, MdsId, MembershipEpoch};
pub use load::{GroupLoad, LoadReport, MaskCacheStats};
pub use mds::{published_shape, Mds, META_ENTRY_BYTES};
pub use metadata::{CompactPath, FileAttrs, MetadataStore, INLINE_PATH_BYTES};
pub use mirror::{FullMirror, HbaCluster};
pub use op::{EntryPolicy, MetadataOp, OpBatch, OpOutcome, PathKey};
pub use query::{LevelCounts, QueryLevel, QueryOutcome};
pub use reconcile::Reconciler;
pub use reconfig::{ReconfigError, ReconfigReport};
pub use service::MetadataService;
pub use snapshot::ReconfigHandle;
pub use update::UpdateReport;
pub use wal::{
    Checkpoint, SyncPolicy, Wal, WalError, WalEvent, WalOptions, WalRecord, WalRecovery,
};
