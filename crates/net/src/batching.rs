//! Trace-record → [`OpBatch`] translation — the one mapping, used by the
//! networked clients and by the facade's in-process replay driver alike,
//! so both issue the same op stream:
//!
//! * `Open`/`Close`/`Stat`/`Readdir` → one lookup;
//! * `Create` → one create;
//! * `Unlink` → a lookup **then** a remove (the unlinking client
//!   resolves the path first; a miss makes the remove a no-op);
//! * `Rename` → one rename, falling back to `{path}~renamed` when the
//!   record carries no destination.
//!
//! A [`RoundRobin`](EntryPolicy::RoundRobin) cursor advances across
//! batch boundaries (via [`EntryPolicy::advance`]), so cutting one
//! record stream into windows of any size resolves every op to the
//! same entry server a single giant batch would.

use ghba_core::{EntryPolicy, OpBatch};
use ghba_trace::{MetaOp, TraceRecord};

/// Cuts a record stream into [`OpBatch`] windows of at most `window`
/// ops (an `Unlink` may overflow a window by its paired remove).
///
/// # Examples
///
/// ```
/// use ghba_core::EntryPolicy;
/// use ghba_net::record_batches;
/// use ghba_trace::{WorkloadGenerator, WorkloadProfile};
///
/// let records = WorkloadGenerator::subtrace(WorkloadProfile::res(), 7, 0).take(1_000);
/// let batches: Vec<_> =
///     record_batches(records, 64, EntryPolicy::RoundRobin { start: 0 }).collect();
/// assert!(batches.iter().all(|b| b.len() >= 1 && b.len() <= 65));
/// assert!(batches.iter().map(|b| b.len()).sum::<usize>() >= 1_000);
/// ```
pub fn record_batches<I>(
    records: I,
    window: usize,
    policy: EntryPolicy,
) -> RecordBatches<I::IntoIter>
where
    I: IntoIterator<Item = TraceRecord>,
{
    assert!(window > 0, "batch window must be positive");
    RecordBatches {
        records: records.into_iter(),
        window,
        policy,
    }
}

/// Iterator returned by [`record_batches`].
#[derive(Debug, Clone)]
pub struct RecordBatches<I> {
    records: I,
    window: usize,
    policy: EntryPolicy,
}

impl<I: Iterator<Item = TraceRecord>> Iterator for RecordBatches<I> {
    type Item = OpBatch;

    fn next(&mut self) -> Option<OpBatch> {
        let mut batch = OpBatch::new();
        while batch.len() < self.window {
            let Some(record) = self.records.next() else {
                break;
            };
            match record.op {
                MetaOp::Open | MetaOp::Close | MetaOp::Stat | MetaOp::Readdir => {
                    batch.push_lookup(record.path);
                }
                MetaOp::Create => batch.push_create(record.path),
                MetaOp::Unlink => {
                    batch.push_lookup(record.path.clone());
                    batch.push_remove(record.path);
                }
                MetaOp::Rename => {
                    let to = record
                        .rename_to
                        .unwrap_or_else(|| format!("{}~renamed", record.path));
                    batch.push_rename(record.path, to);
                }
            }
        }
        if batch.is_empty() {
            return None;
        }
        let ops = batch.len();
        Some(batch.with_entry(self.policy.advance(ops)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghba_core::{MdsId, MetadataOp};
    use ghba_trace::{WorkloadGenerator, WorkloadProfile};

    #[test]
    fn round_robin_cursor_spans_batches() {
        let records: Vec<_> = WorkloadGenerator::subtrace(WorkloadProfile::ins(), 3, 0)
            .take(500)
            .collect();
        let windowed: Vec<OpBatch> =
            record_batches(records.clone(), 32, EntryPolicy::RoundRobin { start: 0 }).collect();
        let giant: Vec<OpBatch> =
            record_batches(records, usize::MAX, EntryPolicy::RoundRobin { start: 0 }).collect();
        assert_eq!(giant.len(), 1);
        // Flattened, every op resolves to the same entry server the
        // single giant batch would pick.
        let ids: Vec<MdsId> = (0..8).map(MdsId).collect();
        let mut flat_index = 0usize;
        for batch in &windowed {
            let policy = batch.entry_policy();
            for i in 0..batch.len() {
                assert_eq!(
                    policy.resolve_deterministic(&ids, i),
                    giant[0]
                        .entry_policy()
                        .resolve_deterministic(&ids, flat_index),
                );
                flat_index += 1;
            }
        }
        assert_eq!(flat_index, giant[0].len());
    }

    #[test]
    fn unlink_becomes_lookup_then_remove() {
        let record = TraceRecord {
            timestamp: ghba_simnet::SimTime::ZERO,
            op: MetaOp::Unlink,
            path: "/u/x".to_string(),
            rename_to: None,
            user: 0,
            host: 0,
            subtrace: 0,
        };
        let batches: Vec<_> = record_batches([record], 64, EntryPolicy::Random).collect();
        assert_eq!(batches.len(), 1);
        let ops = batches[0].ops();
        assert!(matches!(&ops[0], MetadataOp::Lookup(k) if k.path() == "/u/x"));
        assert!(matches!(&ops[1], MetadataOp::Remove(k) if k.path() == "/u/x"));
    }

    #[test]
    fn rename_without_destination_falls_back() {
        let record = TraceRecord {
            timestamp: ghba_simnet::SimTime::ZERO,
            op: MetaOp::Rename,
            path: "/r/x".to_string(),
            rename_to: None,
            user: 0,
            host: 0,
            subtrace: 0,
        };
        let batches: Vec<_> = record_batches([record], 64, EntryPolicy::Random).collect();
        let ops = batches[0].ops();
        assert!(matches!(&ops[0], MetadataOp::Rename { from, to }
                if from.path() == "/r/x" && to.path() == "/r/x~renamed"));
    }
}
