//! The PR-10 durability benchmark: WAL overhead per sync policy and
//! recovery time vs log length.
//!
//! **Question 1 — what does durability cost at the drain?** The WAL
//! hooks the pin-once pipeline at shard-log drain: committed batches
//! are logged (and, per policy, synced) before their effects publish.
//! The bench replays an identical seeded create/remove workload —
//! `GHBA_WAL_BATCHES` batches of `GHBA_WAL_OPS` ops, one
//! `drain_concurrent` barrier per batch, a filter flush every 16
//! batches — against four configurations: no WAL at all (the PR-7
//! in-memory baseline), `SyncPolicy::None` (append only, OS-paced),
//! `SyncPolicy::GroupCommit(5ms)` (sync at most every 5 ms of drains),
//! and `SyncPolicy::EveryBatch` (fdatasync per drain). Reported per
//! policy: wall time, per-drain overhead vs in-memory, and log bytes.
//!
//! **Question 2 — what does a restart pay?** Recovery replays
//! checkpoint-plus-WAL-tail through the same drain/flush paths
//! original execution took. The bench writes logs of increasing length
//! (0.25×, 1×, 4× the workload) with no checkpoints — recovery cost
//! must scale with the tail — then repeats the longest run with
//! `checkpoint_every = 64` drains, which bounds the tail regardless of
//! history. Reported per length: log bytes, records, recovery wall ms.
//!
//! **The correctness bar is in-bench and unconditional**: every single
//! recovery in both parts must rebuild a cluster whose durable state —
//! [`Checkpoint`] capture with the WAL watermark masked: namespaces,
//! fingerprints, published filter bytes, group shape, membership and
//! per-group epochs, publish/drift counters — is byte-identical to the
//! writer's at its final drain. On full runs (`CRITERION_MEASURE_MS`
//! ≥ 600) the structural bars are asserted too: the checkpointed log's
//! tail stays under the un-checkpointed one and recovery replays only
//! past the watermark. Wall numbers are printed for context; no timing
//! ordering is asserted (container noise owns that), the shape of the
//! curve is what `BENCH_HISTORY.md` (PR 10) records.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ghba::core::{
    Checkpoint, EntryPolicy, GhbaCluster, GhbaConfig, MetadataService, OpBatch, SyncPolicy, Wal,
    WalOptions,
};

/// MDS servers in the cluster (6 groups of 4 at the default shape).
const SERVERS: usize = 24;

fn env_size(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

fn config() -> GhbaConfig {
    GhbaConfig::default()
        .with_filter_capacity(20_000)
        .with_lru_capacity(0)
        .with_seed(0x0A1D)
}

fn path_of(i: u64) -> String {
    format!("/wal/d{}/f{i}", i % 13)
}

/// The seeded workload: `batches` barriers of `ops` mutations each.
/// Every 4th batch removes the previous batch's low quarter (so the
/// log carries removes and re-creates, not just appends), and every
/// 16th barrier flushes all filters (so `FlushAll` records replay
/// too). Deterministic: no RNG, `RoundRobin` entries only.
fn run_workload(cluster: &mut GhbaCluster, batches: u64, ops: u64) {
    for b in 0..batches {
        let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin {
            start: b as usize % SERVERS,
        });
        for i in 0..ops {
            batch.push_create(path_of(b * ops + i));
        }
        if b % 4 == 3 {
            for i in 0..ops / 4 {
                batch.push_remove(path_of((b - 1) * ops + i));
            }
        }
        cluster.execute_concurrent(&batch);
        cluster.drain_concurrent();
        if b % 16 == 15 {
            cluster.flush_all_updates();
        }
    }
}

/// The writer's durable state with the WAL watermark masked — what a
/// recovery must reproduce bit-for-bit.
fn durable_state(cluster: &mut GhbaCluster) -> Checkpoint {
    let mut state = cluster.capture_checkpoint();
    state.wal_seq = 0;
    state
}

/// Asserts the recovered cluster is bit-identical to the writer where
/// durability promises it: the in-bench correctness bar.
fn assert_recovered(writer: &mut GhbaCluster, dir: &Path, label: &str) -> Duration {
    let start = Instant::now();
    let mut recovered = GhbaCluster::recover(config(), SERVERS, dir, WalOptions::default())
        .unwrap_or_else(|err| panic!("{label}: recovery failed: {err}"));
    let elapsed = start.elapsed();
    assert_eq!(
        durable_state(&mut recovered),
        durable_state(writer),
        "{label}: recovered durable state diverged from the writer's"
    );
    elapsed
}

/// On-disk size of the live log segment.
fn log_bytes(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("wal.log")).map_or(0, |m| m.len())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ghba-wal-bench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    let full = env_size("CRITERION_MEASURE_MS", 1_200) >= 600;
    let batches = env_size("GHBA_WAL_BATCHES", if full { 256 } else { 24 });
    let ops = env_size("GHBA_WAL_OPS", 64);

    // Part 1: drain-path overhead per sync policy, against in-memory.
    let mut in_memory = Duration::ZERO;
    let policies: [(&str, Option<SyncPolicy>); 4] = [
        ("in_memory", None),
        ("sync_none", Some(SyncPolicy::None)),
        (
            "group_commit_5ms",
            Some(SyncPolicy::GroupCommit(Duration::from_millis(5))),
        ),
        ("every_batch", Some(SyncPolicy::EveryBatch)),
    ];
    for (label, policy) in policies {
        let mut cluster = GhbaCluster::with_servers(config(), SERVERS);
        let dir = temp_dir(label);
        if let Some(sync) = policy {
            let (wal, _) = Wal::open(
                &dir,
                WalOptions {
                    sync,
                    checkpoint_every: 0,
                },
            )
            .expect("wal");
            cluster.attach_wal(wal);
        }
        let start = Instant::now();
        run_workload(&mut cluster, batches, ops);
        let elapsed = start.elapsed();
        let records = cluster.wal().map_or(0, Wal::tail_len);
        let log_bytes = log_bytes(&dir);
        if policy.is_none() {
            in_memory = elapsed;
        }
        let overhead_ns = elapsed.saturating_sub(in_memory).as_nanos() as f64 / batches as f64;
        eprintln!(
            "wal_recovery/overhead/{label}: {:.1} ms total, {overhead_ns:.0} ns/drain over \
             in-memory, {records} records / {log_bytes} log bytes ({batches} drains x {ops} ops)",
            elapsed.as_secs_f64() * 1e3,
        );
        if policy.is_some() {
            let recovery = assert_recovered(&mut cluster, &dir, label);
            eprintln!(
                "wal_recovery/overhead/{label}: recovered bit-identical in {:.1} ms",
                recovery.as_secs_f64() * 1e3
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Part 2: recovery time vs log length (pure replay), then the
    // same longest history with a bounded, checkpointed tail.
    let lengths = [batches / 4, batches, batches * 4];
    let mut longest_bytes = 0u64;
    for length in lengths {
        let dir = temp_dir(&format!("replay-{length}"));
        let mut cluster = GhbaCluster::with_servers(config(), SERVERS);
        let (wal, _) = Wal::open(
            &dir,
            WalOptions {
                sync: SyncPolicy::None,
                checkpoint_every: 0,
            },
        )
        .expect("wal");
        cluster.attach_wal(wal);
        run_workload(&mut cluster, length, ops);
        let records = cluster.wal().expect("attached").tail_len();
        let bytes = log_bytes(&dir);
        longest_bytes = bytes;
        let recovery = assert_recovered(&mut cluster, &dir, "replay");
        eprintln!(
            "wal_recovery/replay/{length}_drains: {records} records, {bytes} log bytes, \
             recovered bit-identical in {:.1} ms",
            recovery.as_secs_f64() * 1e3
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    {
        let length = batches * 4;
        let dir = temp_dir("checkpointed");
        let mut cluster = GhbaCluster::with_servers(config(), SERVERS);
        let (wal, _) = Wal::open(
            &dir,
            WalOptions {
                sync: SyncPolicy::None,
                checkpoint_every: 64,
            },
        )
        .expect("wal");
        cluster.attach_wal(wal);
        run_workload(&mut cluster, length, ops);
        let tail_records = cluster.wal().expect("attached").tail_len();
        let tail_bytes = log_bytes(&dir);
        assert!(
            tail_bytes < longest_bytes,
            "checkpoints must bound the log: tail {tail_bytes} vs full {longest_bytes} bytes"
        );
        let recovery = assert_recovered(&mut cluster, &dir, "checkpointed");
        eprintln!(
            "wal_recovery/replay/{length}_drains_checkpointed: {tail_records} tail records / \
             {tail_bytes} bytes (vs {longest_bytes} unbounded), recovered bit-identical in \
             {:.1} ms",
            recovery.as_secs_f64() * 1e3
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    eprintln!(
        "wal_recovery: correctness bar held on every recovery ({} mode)",
        if full { "full" } else { "smoke" }
    );
}
