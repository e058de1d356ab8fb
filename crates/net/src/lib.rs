//! A real multi-process networked deployment of the G-HBA pipeline:
//! wire protocol, rendezvous/replica servers, a fleet client, and a
//! loopback harness — `std::net` TCP only, zero external dependencies.
//!
//! The simulation crates model the paper's cluster in one process;
//! this crate runs it as processes. The namespace is sharded across
//! `R` replica servers by admission fingerprint ([`replica_of`]), each
//! replica owning a full `GhbaCluster` whose batches execute through
//! the pin-once concurrent pipeline. A rendezvous service maps shard
//! indices to addresses; clients discover the fleet there and route
//! every batch with [`execute_sharded`] — the *same* planner the
//! in-process [`Federation`] ground truth uses, which is what lets the
//! end-to-end tests demand bit-identical outcomes across the wire.
//!
//! # Layers
//!
//! * [`wire`] — length-prefixed, versioned binary framing
//!   (`Frame`/`WireCodec`) with typed, panic-free decode errors;
//! * [`proto`] — the [`NetMessage`] set: batch execution, membership
//!   gossip, group-probe multicasts, drain barriers, stats;
//! * [`route`] — fingerprint sharding, the [`BatchTransport`] seam,
//!   the two-wave cross-replica rename plan, and the in-process
//!   [`Federation`];
//! * [`rendezvous`] / [`replica`] — the servers behind the
//!   `rendezvous` and `replica` binaries;
//! * [`client`] — [`NetClient`], the fleet-wide transport (plus
//!   [`record_batches`] translating trace records into op batches);
//! * [`loopback`] — [`LoopbackNet`], the whole fleet in one process on
//!   ephemeral `127.0.0.1` ports, for tests and benches.
//!
//! # Binaries
//!
//! `rendezvous --bind <addr>`, `replica --index <i> ...`, and
//! `loadgen --clients <k> ...` compose into a real deployment; see
//! each binary's `--help`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batching;
pub mod client;
pub mod loopback;
pub mod proto;
pub mod rendezvous;
pub mod replica;
pub mod route;
mod serve;
pub mod wire;

pub use batching::{record_batches, RecordBatches};
pub use client::{send_shutdown, NetClient, ReplicaStats, RetryPolicy};
pub use loopback::{FleetSpec, LoopbackNet};
pub use proto::NetMessage;
pub use rendezvous::Rendezvous;
pub use replica::{ReplicaConfig, ReplicaServer};
pub use route::{execute_sharded, replica_config, replica_of, BatchTransport, Federation, Pick};
pub use wire::{Frame, WireCodec, WireError, MAX_FRAME_LEN, WIRE_MAGIC, WIRE_VERSION};
