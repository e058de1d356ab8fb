//! Deterministic discrete-event simulation substrate for the G-HBA
//! reproduction.
//!
//! The paper evaluates metadata-management schemes with trace-driven
//! simulations over clusters of up to 200 metadata servers. This crate
//! provides the simulation plumbing those experiments stand on:
//!
//! * [`SimTime`] / [`EventQueue`] — a virtual clock and deterministic
//!   event scheduling (FIFO tie-breaking, no wall-clock dependence);
//! * [`DetRng`] — seeded xoshiro256++ randomness with independent stream
//!   forking, so every figure regenerates byte-identically;
//! * [`LatencyModel`] — the memory-probe / LAN / multicast / disk cost
//!   model that gives simulated operations their latencies (a replica
//!   spilled from a server's RAM pays the disk access; the servers keep
//!   their own charges);
//! * [`LatencyStats`] — latency distributions.
//!
//! Design note: the original work drove a Linux prototype; we replace the
//! asynchronous runtime with *deterministic* simulation so results are
//! reproducible in CI, and cover real concurrency separately in
//! `ghba-net` (processes over TCP) and the engine's concurrency suites.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod events;
mod latency;
mod rng;
mod stats;

pub use clock::SimTime;
pub use events::EventQueue;
pub use latency::LatencyModel;
pub use rng::DetRng;
pub use stats::LatencyStats;
