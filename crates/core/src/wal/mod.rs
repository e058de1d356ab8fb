//! Durability: the write-ahead op log, periodic checkpoints, and crash
//! recovery ([`GhbaCluster::recover`](crate::GhbaCluster::recover)).
//!
//! # What is logged
//!
//! The WAL hooks the pin-once pipeline at its single serialization
//! point: the shard-log drain. When
//! [`drain_concurrent`](crate::GhbaCluster::drain_concurrent) takes the
//! pending write records out of the namespace shards, the batch —
//! every resolved [`WriteRecord`], in drain order — is
//! appended (and, per policy, synced) **before any effect is applied**,
//! so nothing the cluster ever published can be missing from the log.
//! Every namespace write takes this path: an owner's write is the same
//! record, drained at once — a drain of its own, so one appended record
//! (synced under [`SyncPolicy::EveryBatch`]) and one step towards
//! `checkpoint_every` per write.
//! [`flush_all_updates`](crate::GhbaCluster::flush_all_updates) barriers are
//! logged the same way, so the publish *history* (which filters were
//! refreshed when) replays exactly, not just the namespace — except a
//! barrier that would change nothing (no drift to publish, no cadence
//! counter to restart), which logs nothing: replaying it would change
//! nothing either, and an idle replica's log stops growing.
//!
//! The log deliberately records post-admission `WriteRecord`s rather
//! than raw `OpBatch`es: by drain time every write has a resolved home,
//! so replay is independent of entry-policy RNG draws and of how
//! concurrent batches interleaved — the drain order *is* the total
//! order. Records are length-prefixed, CRC-checked, sequence-numbered,
//! and carry a versioned header, mirroring the wire-frame discipline of
//! `crates/net`. They hold paths, never fingerprints: the decoder derives
//! each write's fingerprint from its path, so a record whose fingerprint
//! disagrees with its path cannot be written, and the CRC is what
//! detects damage.
//!
//! # Durability contract, per [`SyncPolicy`]
//!
//! The durability point is the **drain**: a batch whose drain
//! completed is recoverable; writes executed but not yet drained are
//! lost by a crash (exactly the pipeline's visibility contract — their
//! effects had not published either). On top of that:
//!
//! * [`SyncPolicy::EveryBatch`] — `fdatasync` after every appended
//!   record. A drained batch survives process kill *and* power loss.
//! * [`SyncPolicy::GroupCommit`] — appends are written to the OS
//!   immediately but synced at most once per interval. A drained batch
//!   survives process kill (SIGKILL included: the page cache outlives
//!   the process). Under power loss the bound is one interval plus one
//!   *caller tick*: there is no timer, but every append and every
//!   [`flush_all_updates`](crate::GhbaCluster::flush_all_updates) checks the
//!   deadline — an append syncs when the interval has elapsed since the
//!   last sync, and a flush with nothing to log calls
//!   [`Wal::sync_if_due`], which syncs an unsynced tail on the same
//!   condition. A `ghba-net` replica's reconciler flushes every tick, so
//!   its tail reaches disk about one interval plus one tick after it was
//!   written, without an idle tick writing a record. An embedder that
//!   neither appends nor flushes has no bound short of
//!   [`Wal::sync_if_due`] on its own clock or
//!   [`detach_wal`](crate::GhbaCluster::detach_wal) + [`Wal::sync`]; an ack
//!   that waits for the sync is the per-batch `Ack::{Visible, Durable}`
//!   work (ROADMAP direction 1).
//! * [`SyncPolicy::None`] — no explicit sync. Survives process kill;
//!   power loss may lose everything since the last checkpoint install
//!   (which always syncs).
//!
//! Checkpoints serialize the namespace shards, each server's published
//! filter, and the membership/group shape into `checkpoint.bin`
//! (written tmp → fsync → rename, then the log is truncated — a crash
//! between rename and truncate is safe because replay skips records at
//! or below the checkpoint's sequence watermark).
//!
//! # What durability costs
//!
//! Every durable byte is encoded once, in place, into the one buffer
//! the [`Wal`] owns (frame header reserved, body written behind it,
//! length and checksum patched in) and checksummed eight bytes per
//! step. No byte is a fingerprint (format 3): a write record is
//! `[op][home][path]` and a checkpoint entry the length-prefixed path.
//! Measured with `ghba-benchmark`'s `write_churn` (48 servers, one
//! 2-core host):
//!
//! * **An append is O(drain).** ≈ 25.3 bytes per write op
//!   (`wal.bytes_per_write_op`) and ≈ 31–47 ns per write record
//!   (`wal.tax_ns_per_record`), no allocation once the buffer has grown
//!   to a drain's size, one `write` per drain.
//! * **A checkpoint is O(namespace).** It walks every store, sorts every
//!   path by the fingerprint lane its store is keyed by (integer
//!   compares; a path is read only when two lanes tie; nothing is
//!   hashed) and writes every published filter: 1.74 MB in ≈ 5.8 ms at
//!   50 k files (`wal.checkpoint_ms`). It allocates per server, never
//!   per path. A published filter exists only as a slab column, so the
//!   writer first reads all of them in one transposed pass over the slab
//!   ([`SharedShapeArray::extract_filters`](ghba_bloom::SharedShapeArray::extract_filters),
//!   the inverse of the restore's load).
//!
//! Checkpoints still run on the draining thread, inside the drain that
//! crossed `checkpoint_every`: every request behind that drain waits the
//! whole O(namespace) term. Taking them off the serving path, or making
//! them incremental (per-server segments), is what is left of ROADMAP
//! direction 2.
//!
//! # What recovery costs
//!
//! A restart reads each byte once and writes each slab column once: the
//! checkpoint decodes to paths and filter bytes, each server's store and
//! counters take its paths with one hash per path while its live column
//! is built in a filter of its own, and each slab takes all its columns
//! in **one** load — the live slab the columns just built, the published
//! slab the restored filters as one slab op. For each 64-bit word index,
//! the words of up to 64 filters are one 64×64 bit transpose and 64
//! masked row stores
//! ([`SharedShapeArray::load_filters`](ghba_bloom::SharedShapeArray::load_filters)).
//! The tail's last flush then copies only the blocks each server
//! dirtied — every block of a server the checkpoint caught dirty — in
//! one pass per slab. `write_churn`'s restart of a 50 k-file namespace
//! (`recovery_ms`) takes ≈ 20 ms; the per-phase timings are in
//! `CHANGES.md`.
//!
//! # What is *not* durable
//!
//! * L1 LRU caches and the walk's plans — caches, cold after recovery
//!   (outcome-invisible at `lru_capacity = 0`).
//! * Statistics, telemetry windows, and load reports.
//! * The position of the deterministic RNG stream —
//!   [`EntryPolicy::Random`](crate::EntryPolicy) draws resume from the
//!   fork point, so bit-identical recovery requires deterministic entry
//!   policies (the networked e2e recipe already does).
//! * `FileAttrs` inode numbers (reassigned on replay; never observable
//!   through an [`OpOutcome`](crate::OpOutcome)).
//! * The owner's gated per-write publish. An owner write (the `&mut`
//!   [`execute`](crate::MetadataService::execute), `create_file_at`,
//!   `remove_file`) is a shard-log record drained — and logged — at
//!   once, but the `maybe_publish` → `push_update` that may follow it
//!   is not logged: a recovered cluster has every home back, and
//!   publishes that drift at its first flush instead. Logging it needs
//!   a record kind of its own (ROADMAP direction 11). The replica
//!   pipeline never publishes per write.
//! * Within-group replica *placement* for controller-reshaped clusters:
//!   the checkpoint records group membership and epochs exactly, and
//!   recovery rebuilds replica placement deterministically
//!   (lightest-member-first), which can differ from a path-dependent
//!   pre-crash placement — identical homes, but a lookup may resolve at
//!   another level (L2 where it was L3) and modelled latency. Unreshaped
//!   clusters (the deployment default) recover bit-identically.
//! * Reconfiguration after the last checkpoint. A join, leave, split or
//!   merge is not logged, so a restart rebuilds the shape the last
//!   checkpoint holds (or the startup shape) and replays the tail onto
//!   it. A split after the checkpoint is lost: one restart brought a
//!   cluster at membership epoch 19 back at 16. A join after it breaks
//!   the replay: the joined server's logged creates are refused with
//!   `logged create targets unknown server mds8`. Logging
//!   reconfiguration is ROADMAP direction 11.
//!
//! # Layout
//!
//! The bytes go through the crate's one codec ([`crate::codec`], shared
//! with the wire protocol). `record` holds the CRC, the frame and the
//! record codec; `checkpoint` the checkpoint layout; `log` the [`Wal`]
//! and every filesystem call; `recover` the cluster glue (attach,
//! checkpoint, recover).
//!
//! # Recovery
//!
//! [`GhbaCluster::recover`](crate::GhbaCluster::recover) rebuilds a serving cluster from a WAL
//! directory: apply the checkpoint (config-guarded — a mismatched
//! seed/geometry is a typed error, never a silently wrong cluster),
//! then replay the log tail above the watermark through the same
//! drain/flush code paths the original execution took. Torn or
//! truncated tails — a crash mid-append: a frame that is short,
//! over-long, empty or fails its checksum — are truncated to the last
//! complete, CRC-valid, sequence-monotonic record. A frame that is
//! complete and CRC-valid but does not decode (a record of another
//! format version, an unknown kind) is *not* a tail: [`Wal::open`]
//! returns its [`WalError::Corrupt`] and leaves the log untouched
//! rather than erasing everything behind it. Either way recovery
//! **never panics** on malformed bytes (the wire decoder's
//! malformed-frame discipline).

mod checkpoint;
mod log;
mod record;
mod recover;

use std::time::Duration;

use crate::codec::CodecError;
use crate::concurrent::WriteRecord;

pub use checkpoint::{Checkpoint, ConfigGuard, GroupShape, ServerState};
pub use log::{Wal, WalRecovery};
pub use record::{crc32, decode_record, encode_record};

/// On-disk format version (bump on any layout change, and regenerate
/// the golden fixtures alongside).
pub const WAL_VERSION: u16 = 3;

/// Upper bound on one frame body — a corrupt length prefix must not
/// provoke a giant allocation.
const MAX_FRAME_BYTES: usize = 1 << 28;

/// When appended records are forced to stable storage.
///
/// See the module docs for the exact guarantee each policy buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fdatasync` after every appended record.
    EveryBatch,
    /// Sync at most once per interval (group commit): when an append
    /// arrives, or an idle flush calls [`Wal::sync_if_due`], at least one
    /// interval after the last sync. There is no timer: the tail appended
    /// inside an interval stays unsynced until the next append or flush.
    GroupCommit(Duration),
    /// Never sync explicitly; the OS flushes on its own schedule.
    None,
}

/// How a [`Wal`] behaves once open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// When appends reach stable storage.
    pub sync: SyncPolicy,
    /// Install a checkpoint (and truncate the log) after this many
    /// appended records; `0` disables automatic checkpoints
    /// ([`GhbaCluster::checkpoint_now`](crate::GhbaCluster::checkpoint_now) still works).
    pub checkpoint_every: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            sync: SyncPolicy::EveryBatch,
            checkpoint_every: 0,
        }
    }
}

/// Typed durability errors. Corruption and configuration mismatches are
/// reported, never panicked on.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// Bytes that cannot be a record/checkpoint of this version.
    Corrupt(String),
    /// A checkpoint captured under an incompatible configuration.
    ConfigMismatch(String),
    /// A record or checkpoint too large for one frame: refused before
    /// anything is written, because no reader would accept it back.
    TooLarge(String),
}

impl From<std::io::Error> for WalError {
    fn from(err: std::io::Error) -> Self {
        WalError::Io(err)
    }
}

/// The codec's typed failures as the log reports them: bytes that run
/// short, are not UTF-8 or run long are corrupt; a region over its cap
/// is too large to write.
impl From<CodecError> for WalError {
    fn from(err: CodecError) -> Self {
        match err {
            CodecError::TooLarge { .. } => WalError::TooLarge(err.to_string()),
            CodecError::Truncated { .. }
            | CodecError::BadUtf8
            | CodecError::TrailingBytes { .. } => WalError::Corrupt(err.to_string()),
        }
    }
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(err) => write!(f, "wal i/o: {err}"),
            WalError::Corrupt(detail) => write!(f, "wal corrupt: {detail}"),
            WalError::ConfigMismatch(detail) => write!(f, "wal config mismatch: {detail}"),
            WalError::TooLarge(detail) => write!(f, "wal frame too large: {detail}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(err) => Some(err),
            _ => None,
        }
    }
}

/// One durable event, as decoded from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalEvent {
    /// One shard-log drain: the resolved write records, in drain order.
    Drain {
        /// Resolved namespace writes, in total (drain) order.
        records: Vec<WriteRecord>,
    },
    /// A `flush_all_updates` barrier (every drifted filter published).
    FlushAll,
}

/// One sequenced log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonic sequence number (1-based; never reset, even across
    /// checkpoints).
    pub seq: u64,
    /// The logged event.
    pub event: WalEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each codec failure lands on the variant the log already had:
    /// short, non-UTF-8 or overlong bytes are corrupt, a region over its
    /// cap is too large (with the frame writer's wording).
    #[test]
    fn codec_errors_map_onto_wal_errors() {
        for err in [
            CodecError::Truncated {
                needed: 8,
                available: 2,
            },
            CodecError::BadUtf8,
            CodecError::TrailingBytes { extra: 1 },
        ] {
            assert!(
                matches!(WalError::from(err), WalError::Corrupt(detail) if detail == err.to_string()),
                "{err}"
            );
        }
        assert!(matches!(
            WalError::from(CodecError::TooLarge { len: 17, cap: 16 }),
            WalError::TooLarge(detail) if detail == "frame body of 17 bytes exceeds cap 16"
        ));
    }
}
