//! Trace replay: drive any [`MetadataService`] with a workload stream.
//!
//! Replay is **vectored**: trace records are admitted into mixed-op
//! [`OpBatch`] windows (reads *and* writes together, each path hashed once
//! at admission) and drained through [`MetadataService::execute`]. The
//! batch is never flushed because a write arrived — the scheme's own
//! pipeline orders writes against the reads around them — so the batched
//! slab paths stay hot through flash-crowd traces that interleave creates
//! with the lookup bursts.

use core::time::Duration;

use ghba_core::{EntryPolicy, LevelCounts, MetadataService, OpBatch, OpOutcome};
use ghba_net::record_batches;
use ghba_simnet::LatencyStats;
use ghba_trace::TraceRecord;

/// Aggregate results of one replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Operations replayed.
    pub operations: u64,
    /// Lookups that found their file.
    pub found: u64,
    /// Lookups that found nothing.
    pub missing: u64,
    /// Per-level resolution counts.
    pub levels: LevelCounts,
    /// Lookup latency distribution.
    pub latency: LatencyStats,
    /// Network messages across all lookups.
    pub messages: u64,
}

impl ReplayReport {
    /// Mean lookup latency.
    #[must_use]
    pub fn mean_latency(&self) -> Duration {
        self.latency.mean()
    }
}

/// Creates admitted per [`OpBatch`] during [`populate`].
const POPULATE_WINDOW: usize = 256;

/// Pre-creates `paths` on the service (the "initially populated randomly"
/// step of §4), in batched create windows.
pub fn populate<S: MetadataService + ?Sized>(
    service: &mut S,
    paths: impl IntoIterator<Item = String>,
) {
    let mut batch = OpBatch::new();
    for path in paths {
        batch.push_create(path);
        if batch.len() >= POPULATE_WINDOW {
            let _ = service.execute(&batch);
            batch.clear();
        }
    }
    if !batch.is_empty() {
        let _ = service.execute(&batch);
    }
}

/// Trace records admitted per [`OpBatch`] window: the number of
/// concurrent client operations the cluster sees at once. Windows mix
/// reads and writes freely; the scheme's execute pipeline fuses the read
/// runs and orders the writes.
const OP_WINDOW: usize = 128;

/// Replays `records` against `service`, translating metadata operations
/// into typed ops through [`record_batches`] (the one record → op
/// mapping, shared with the networked clients): reads become lookups,
/// `create` inserts, `unlink` looks up then removes, `rename` migrates to
/// the record's destination (or a suffixed path for legacy records
/// without one).
///
/// Up to 128 consecutive records ([`OP_WINDOW`](self) internally) are
/// admitted into one mixed [`OpBatch`] — the window models concurrent
/// client requests arriving at the cluster — and drained through
/// [`MetadataService::execute`] in a single call. Writes never flush the
/// window: the execute pipeline resolves read runs through the batched
/// slab paths and applies writes in stream order between them,
/// outcome-identical to a sequential replay of the same ops.
pub fn replay<S: MetadataService + ?Sized>(
    service: &mut S,
    records: impl IntoIterator<Item = TraceRecord>,
) -> ReplayReport {
    let mut report = ReplayReport::default();
    let mut operations = 0;
    let records = records.into_iter().inspect(|_| operations += 1);
    for batch in record_batches(records, OP_WINDOW, EntryPolicy::Random) {
        for outcome in service.execute(&batch) {
            if let OpOutcome::Resolved(outcome) = outcome {
                report.levels.record(outcome.level);
                report.latency.record(outcome.latency);
                report.messages += u64::from(outcome.messages);
                if outcome.found() {
                    report.found += 1;
                } else {
                    report.missing += 1;
                }
            }
        }
    }
    report.operations = operations;
    report
}
