//! `ghba-benchmark`: the repo's benchmark.
//!
//! Four named workloads drive the G-HBA reproduction through its public
//! API — an in-process cluster read-mostly, under namespace churn with a
//! WAL, under scheduled reconfiguration, and as a loopback TCP fleet —
//! and report seven end-to-end metrics each, with every outcome checked
//! against a shadow namespace. A traced round times each layer from
//! outside. See `README.md` for the names and how to run it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod compare;
pub mod gen;
pub mod host;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod oracle;
pub mod quiet;
pub mod recorder;
pub mod report;
pub mod round;
pub mod run;
pub mod spans;
pub mod target;
