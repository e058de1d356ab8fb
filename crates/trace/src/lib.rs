//! Synthetic metadata workloads standing in for the paper's traces.
//!
//! The G-HBA evaluation replays three traces — INS and RES (Roselli et
//! al., USENIX ATC 2000) and the HP File System trace (Riedel et al.,
//! FAST 2002) — intensified by the TIF procedure of §4. The raw traces are
//! not redistributable, so this crate synthesizes statistically equivalent
//! streams:
//!
//! * [`WorkloadProfile`] — the published aggregate statistics of each
//!   trace (Tables 3–4) as generator parameters;
//! * [`WorkloadGenerator`] — an infinite, deterministic record stream
//!   realizing a profile (op mix, Zipf popularity, LRU-stack locality,
//!   open/close pairing);
//! * [`intensify`] / [`IntensifiedTrace`] — the paper's spatial+temporal
//!   scale-up: TIF concurrent subtraces with disjoint namespaces, users,
//!   and hosts, merged in timestamp order;
//! * [`ClientPartition`] — the "intensified Zipf, K-client partition"
//!   profile: per-client streams for a networked load-generator fleet,
//!   write-disjoint but overlapping on the shared Zipf-hot head;
//! * [`LoadCurve`] — time-varying intensity and skew phases (the
//!   diurnal + flash-crowd curve driving the adaptive-control bench);
//! * [`Namespace`], [`Zipf`], [`LocalityStack`] — the building blocks;
//! * [`TraceRecord`], [`MetaOp`], [`TraceStats`] — the replayable unit and
//!   its aggregate statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod generator;
mod intensify;
pub mod io;
mod loadcurve;
mod namespace;
mod partition;
mod profiles;
mod record;
mod zipf;

pub use generator::WorkloadGenerator;
pub use intensify::{intensify, IntensifiedTrace};
pub use loadcurve::{LoadCurve, LoadPhase};
pub use namespace::Namespace;
pub use partition::{ClientPartition, ClientWorkload, DEFAULT_SHARED_READ_RATIO};
pub use profiles::{OpMix, WorkloadProfile};
pub use record::{MetaOp, TraceRecord, TraceStats};
pub use zipf::{LocalityStack, Zipf};
