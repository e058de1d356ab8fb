//! Durability integration suite: the WAL record and checkpoint formats
//! pinned byte-exactly against golden fixtures, property-based
//! round-trips, the corruption sweep (bit flips and truncations yield
//! typed errors and clean tail recovery, never a panic), and
//! end-to-end recover-equivalence: a cluster rebuilt from checkpoint +
//! WAL tail is bit-identical to its uninterrupted in-memory twin. The
//! property suites' paths span 1–64 bytes ([`paths::path_of`]): short
//! ones held inline, long ones boxed.

mod paths;

use std::fs;
use std::path::{Path, PathBuf};

use ghba_bloom::Fingerprint;
use ghba_core::wal::{crc32, decode_record, encode_record, WAL_VERSION};
use ghba_core::{
    Checkpoint, EntryPolicy, GhbaCluster, GhbaConfig, GroupId, MdsId, MetadataService, OpBatch,
    SyncPolicy, Wal, WalError, WalEvent, WalOptions, WalRecord, WriteKind, WriteRecord,
    INLINE_PATH_BYTES,
};
use paths::path_of;
use proptest::prelude::*;

fn test_config() -> GhbaConfig {
    GhbaConfig::default()
        .with_filter_capacity(2_000)
        .with_max_group_size(4)
        .with_lru_capacity(0)
        .with_seed(0x1A6)
}

/// A fresh scratch WAL directory under the system temp root; removed
/// before use so reruns never see stale state.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ghba-wal-test-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn options(sync: SyncPolicy, checkpoint_every: u64) -> WalOptions {
    WalOptions {
        sync,
        checkpoint_every,
    }
}

fn record(path: &str, kind: fn(MdsId) -> WriteKind, home: u16) -> WriteRecord {
    WriteRecord {
        path: path.into(),
        fp: Fingerprint::of(path),
        kind: kind(MdsId(home)),
    }
}

fn workload_paths() -> Vec<String> {
    (0..120).map(|i| format!("/wal/d{}/f{i}", i % 7)).collect()
}

/// A deterministic mixed workload through the pin-once pipeline:
/// create batches with interleaved drains and flush barriers, then a
/// remove batch. Two clusters built from the same config and driven
/// through this are bit-identical twins.
fn run_workload(cluster: &mut GhbaCluster) {
    let paths = workload_paths();
    for (w, chunk) in paths.chunks(30).enumerate() {
        let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: w });
        for path in chunk {
            batch.push_create(path);
        }
        cluster.execute_concurrent(&batch);
        cluster.drain_concurrent();
        if w % 2 == 1 {
            cluster.flush_all_updates();
        }
    }
    let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 3 });
    for path in &paths[..20] {
        batch.push_remove(path);
    }
    cluster.execute_concurrent(&batch);
    cluster.drain_concurrent();
}

/// Captures comparable durable state: the full checkpoint with the WAL
/// watermark masked out (a recovered cluster's log position reflects
/// its history; the namespace, filters, and shape must not).
fn durable_state(cluster: &mut GhbaCluster) -> Checkpoint {
    let mut checkpoint = cluster.capture_checkpoint();
    checkpoint.wal_seq = 0;
    checkpoint
}

/// Bit-identical lookup probe: the same pinned-entry lookup batch on
/// both clusters must yield identical `OpOutcome` streams (homes,
/// levels, hop counts — everything).
fn assert_lookups_identical(a: &GhbaCluster, b: &GhbaCluster) {
    let paths = workload_paths();
    for entry in 0..a.server_count() as u16 {
        let mut batch = OpBatch::new().with_entry(EntryPolicy::Pinned(MdsId(entry)));
        for path in &paths {
            batch.push_lookup(path);
        }
        assert_eq!(
            a.execute_concurrent(&batch),
            b.execute_concurrent(&batch),
            "outcomes diverge from entry server {entry}"
        );
    }
}

/// Installs a checkpoint and holds the two users of the layout encoder to
/// each other at that watermark: the bytes the serving path streamed
/// from the live cluster into `checkpoint.bin` are the bytes of the owned
/// capture, and decode back to it.
fn assert_installed_checkpoint_is_the_capture(cluster: &mut GhbaCluster, dir: &Path) {
    assert!(cluster.checkpoint_now().expect("install checkpoint"));
    let installed = fs::read(dir.join("checkpoint.bin")).expect("checkpoint installed");
    let capture = cluster.capture_checkpoint();
    assert_eq!(installed, capture.to_bytes());
    assert_eq!(
        Checkpoint::from_bytes(&installed).expect("installed checkpoint decodes"),
        capture
    );
}

// ---------------------------------------------------------------------------
// Golden fixtures: the on-disk formats, byte for byte.
// ---------------------------------------------------------------------------

/// The canonical record sequence frozen in `tests/data/wal_records.bin`.
fn golden_records() -> Vec<WalRecord> {
    vec![
        WalRecord {
            seq: 1,
            event: WalEvent::Drain {
                records: vec![
                    record("/golden/a", WriteKind::Create, 2),
                    record("/golden/b", WriteKind::Create, 0),
                ],
            },
        },
        WalRecord {
            seq: 2,
            event: WalEvent::FlushAll,
        },
        WalRecord {
            seq: 3,
            event: WalEvent::Drain {
                records: vec![record("/golden/a", WriteKind::Remove, 2)],
            },
        },
    ]
}

fn golden_log_bytes() -> Vec<u8> {
    golden_records()
        .iter()
        .flat_map(|r| encode_record(r.seq, &r.event))
        .collect()
}

/// The canonical cluster whose checkpoint is frozen in
/// `tests/data/checkpoint_v3.bin` — fully deterministic (seeded RNG,
/// deterministic entry policies), so re-deriving it must reproduce the
/// fixture byte for byte.
fn golden_cluster() -> GhbaCluster {
    let mut cluster = GhbaCluster::with_servers(test_config(), 6);
    run_workload(&mut cluster);
    cluster
}

#[test]
fn golden_wal_records_are_byte_exact() {
    let fixture: &[u8] = include_bytes!("data/wal_records.bin");
    assert_eq!(
        golden_log_bytes(),
        fixture,
        "WAL record encoding changed; bump WAL_VERSION and regenerate the fixture"
    );
    let mut at = 0;
    let mut decoded = Vec::new();
    while at < fixture.len() {
        let (record, consumed) = decode_record(&fixture[at..]).expect("fixture decodes");
        decoded.push(record);
        at += consumed;
    }
    assert_eq!(decoded, golden_records());
}

#[test]
fn golden_checkpoint_is_byte_exact() {
    let fixture: &[u8] = include_bytes!("data/checkpoint_v3.bin");
    let expected = golden_cluster().capture_checkpoint();
    assert_eq!(
        expected.to_bytes(),
        fixture,
        "checkpoint encoding or capture changed; bump WAL_VERSION and regenerate the fixture"
    );
    let decoded = Checkpoint::from_bytes(fixture).expect("fixture decodes");
    assert_eq!(decoded, expected);
    assert_eq!(
        decoded.to_bytes(),
        fixture,
        "re-encode must be byte-identical"
    );
}

/// A well-formed frame of an older format (valid checksum, version field
/// 1 or 2) is refused with a typed error before any of its body is
/// interpreted, so nothing older code wrote — v1's drain records carried
/// a trailing home list, v2's entries carried 16 bytes of fingerprint
/// lanes before each path — can be half-decoded or replayed. No reader
/// of an older version is kept.
#[test]
fn v1_frames_are_refused_by_the_version_check() {
    assert_eq!(WAL_VERSION, 3);
    // `[len u32][crc u32][magic 4][version u16]…`: restamp the version
    // and the checksum over the body.
    let as_version = |version: u16, mut bytes: Vec<u8>| {
        bytes[12..14].copy_from_slice(&version.to_le_bytes());
        let crc = crc32(&bytes[8..]);
        bytes[4..8].copy_from_slice(&crc.to_le_bytes());
        bytes
    };
    for version in [1u16, 2] {
        let refused = format!("unsupported wal version {version}");
        let record = as_version(version, encode_record(1, &golden_records()[0].event));
        assert!(matches!(
            decode_record(&record),
            Err(WalError::Corrupt(detail)) if detail == refused
        ));
        let checkpoint = as_version(version, include_bytes!("data/checkpoint_v3.bin").to_vec());
        assert!(matches!(
            Checkpoint::from_bytes(&checkpoint),
            Err(WalError::Corrupt(detail))
                if detail == format!("unsupported checkpoint version {version}")
        ));
        // The directory case: a complete old record in `wal.log` is not
        // a torn tail, so opening refuses it and truncates nothing.
        let dir = temp_dir(&format!("v{version}-log"));
        fs::create_dir_all(&dir).expect("create dir");
        fs::write(dir.join("wal.log"), &record).expect("write old log");
        let opts = options(SyncPolicy::None, 0);
        assert!(matches!(
            Wal::open(&dir, opts),
            Err(WalError::Corrupt(detail)) if detail == refused
        ));
        assert!(matches!(
            GhbaCluster::recover(test_config(), 6, &dir, opts),
            Err(WalError::Corrupt(detail)) if detail == refused
        ));
        assert_eq!(fs::read(dir.join("wal.log")).expect("read log"), record);
        // An old checkpoint in the directory is refused the same way.
        fs::remove_file(dir.join("wal.log")).expect("drop the log");
        fs::write(dir.join("checkpoint.bin"), &checkpoint).expect("write old checkpoint");
        assert!(matches!(
            GhbaCluster::recover(test_config(), 6, &dir, opts),
            Err(WalError::Corrupt(detail))
                if detail == format!("unsupported checkpoint version {version}")
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Regenerates the golden fixtures after an intentional format change:
/// `cargo test -p ghba-core --test wal -- --ignored regenerate`.
#[test]
#[ignore = "regenerates tests/data fixtures in the source tree"]
fn regenerate_golden_fixtures() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data");
    fs::create_dir_all(dir).expect("create fixture dir");
    fs::write(format!("{dir}/wal_records.bin"), golden_log_bytes()).expect("write records");
    fs::write(
        format!("{dir}/checkpoint_v3.bin"),
        golden_cluster().capture_checkpoint().to_bytes(),
    )
    .expect("write checkpoint");
}

// ---------------------------------------------------------------------------
// Property round-trips and the corruption sweep.
// ---------------------------------------------------------------------------

fn arb_write(selector: (bool, u16, u16)) -> WriteRecord {
    let (remove, home, file) = selector;
    let path = path_of(&format!("prop/d{}", file % 11), u32::from(file));
    let kind = if remove {
        WriteKind::Remove(MdsId(home % 32))
    } else {
        WriteKind::Create(MdsId(home % 32))
    };
    WriteRecord {
        fp: Fingerprint::of(path.as_str()),
        path: path.into(),
        kind,
    }
}

fn arb_event() -> impl Strategy<Value = WalEvent> {
    prop_oneof![
        1 => Just(WalEvent::FlushAll),
        4 => proptest::collection::vec((any::<bool>(), any::<u16>(), any::<u16>()), 0..12)
            .prop_map(|writes| WalEvent::Drain {
                records: writes.into_iter().map(arb_write).collect(),
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every encodable record decodes back to itself, consuming exactly
    /// its own bytes — even when followed by arbitrary garbage.
    #[test]
    fn wal_records_round_trip(
        events in proptest::collection::vec(arb_event(), 1..8),
        garbage in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        let mut log = Vec::new();
        let mut boundaries = Vec::new();
        for (i, event) in events.iter().enumerate() {
            log.extend_from_slice(&encode_record(i as u64 + 1, event));
            boundaries.push(log.len());
        }
        log.extend_from_slice(&garbage);
        let mut at = 0;
        for (i, event) in events.iter().enumerate() {
            let (record, consumed) = decode_record(&log[at..]).expect("clean record decodes");
            prop_assert_eq!(&record.event, event);
            prop_assert_eq!(record.seq, i as u64 + 1);
            at += consumed;
            prop_assert_eq!(at, boundaries[i]);
        }
    }

    /// Truncating a log at *any* byte recovers exactly the records whose
    /// frames survived whole — typed errors internally, never a panic —
    /// and physically truncates the torn tail so a second open is clean.
    #[test]
    fn torn_tails_recover_to_the_last_complete_record(
        events in proptest::collection::vec(arb_event(), 1..7),
        cut_selector in any::<u64>(),
    ) {
        let mut log = Vec::new();
        let mut boundaries = vec![0usize];
        for (i, event) in events.iter().enumerate() {
            log.extend_from_slice(&encode_record(i as u64 + 1, event));
            boundaries.push(log.len());
        }
        let cut = (cut_selector % (log.len() as u64 + 1)) as usize;
        let survivors = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();

        let dir = temp_dir(&format!("torn-{cut_selector}"));
        fs::create_dir_all(&dir).expect("create dir");
        fs::write(dir.join("wal.log"), &log[..cut]).expect("write torn log");

        let (wal, recovery) =
            Wal::open(&dir, options(SyncPolicy::None, 0)).expect("open never fails on torn tails");
        prop_assert_eq!(recovery.records.len(), survivors);
        for (i, record) in recovery.records.iter().enumerate() {
            prop_assert_eq!(&record.event, &events[i]);
        }
        prop_assert_eq!(
            recovery.truncated_bytes,
            (cut - boundaries[survivors]) as u64
        );
        prop_assert_eq!(wal.last_seq(), survivors as u64);
        drop(wal);

        // The torn tail was physically removed: reopening is clean.
        let (_, second) = Wal::open(&dir, options(SyncPolicy::None, 0)).expect("reopen");
        prop_assert_eq!(second.truncated_bytes, 0);
        prop_assert_eq!(second.records.len(), survivors);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flipping any single bit anywhere in the log never panics and
    /// never fabricates state: recovery yields a strict prefix of the
    /// original records (the CRC stops the scan at the damage).
    #[test]
    fn bit_flips_recover_to_a_clean_prefix(
        events in proptest::collection::vec(arb_event(), 1..6),
        flip_selector in any::<u64>(),
    ) {
        let mut log = Vec::new();
        for (i, event) in events.iter().enumerate() {
            log.extend_from_slice(&encode_record(i as u64 + 1, event));
        }
        let byte = (flip_selector % log.len() as u64) as usize;
        let bit = ((flip_selector >> 32) % 8) as u8;
        log[byte] ^= 1 << bit;

        let dir = temp_dir(&format!("flip-{flip_selector}"));
        fs::create_dir_all(&dir).expect("create dir");
        fs::write(dir.join("wal.log"), &log).expect("write flipped log");

        let (_, recovery) =
            Wal::open(&dir, options(SyncPolicy::None, 0)).expect("open never fails on bit flips");
        prop_assert!(recovery.records.len() <= events.len());
        for (i, record) in recovery.records.iter().enumerate() {
            prop_assert_eq!(record.seq, i as u64 + 1, "recovered records must stay in order");
            prop_assert_eq!(
                &record.event, &events[i],
                "a recovered record must be byte-faithful to the original"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A flipped bit anywhere in an installed checkpoint is a typed
    /// error (there is nothing safe to fall back to), never a panic and
    /// never a silently different cluster.
    #[test]
    fn checkpoint_bit_flips_are_typed_errors(flip_selector in any::<u64>()) {
        let bytes = golden_cluster().capture_checkpoint().to_bytes();
        let mut dirty = bytes.clone();
        let byte = (flip_selector % bytes.len() as u64) as usize;
        let bit = ((flip_selector >> 32) % 8) as u8;
        dirty[byte] ^= 1 << bit;
        match Checkpoint::from_bytes(&dirty) {
            Ok(decoded) => prop_assert_eq!(
                decoded.to_bytes(), bytes,
                "a decode of damaged bytes must not change meaning"
            ),
            Err(WalError::Corrupt(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Recover-equivalence: checkpoint + tail replay vs the uninterrupted twin.
// ---------------------------------------------------------------------------

#[test]
fn recovery_replays_a_full_log_bit_identically() {
    let dir = temp_dir("full-log");
    let opts = options(SyncPolicy::EveryBatch, 0);
    let mut twin = GhbaCluster::with_servers(test_config(), 6);
    run_workload(&mut twin);
    {
        let mut cluster = GhbaCluster::with_servers(test_config(), 6);
        let (wal, recovery) = Wal::open(&dir, opts).expect("fresh wal");
        assert!(recovery.checkpoint.is_none());
        assert!(recovery.records.is_empty());
        cluster.attach_wal(wal);
        run_workload(&mut cluster);
        assert_eq!(durable_state(&mut cluster), durable_state(&mut twin));
        // Dropped without any checkpoint: recovery must come entirely
        // from the log.
    }
    let mut recovered = GhbaCluster::recover(test_config(), 6, &dir, opts).expect("recover");
    recovered.check_invariants().expect("recovered invariants");
    assert_eq!(durable_state(&mut recovered), durable_state(&mut twin));
    assert_lookups_identical(&recovered, &twin);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovery_from_checkpoint_plus_tail_matches_and_bounds_the_log() {
    let dir = temp_dir("ckpt-tail");
    let opts = options(SyncPolicy::EveryBatch, 3);
    let mut twin = GhbaCluster::with_servers(test_config(), 6);
    run_workload(&mut twin);
    {
        let mut cluster = GhbaCluster::with_servers(test_config(), 6);
        let (wal, _) = Wal::open(&dir, opts).expect("fresh wal");
        cluster.attach_wal(wal);
        run_workload(&mut cluster);
        let wal = cluster.wal().expect("attached");
        assert!(
            wal.tail_len() < wal.last_seq(),
            "automatic checkpoints must have truncated the log at least once \
             (tail {} of {} records)",
            wal.tail_len(),
            wal.last_seq()
        );
    }
    let checkpoint_bytes = fs::read(dir.join("checkpoint.bin")).expect("checkpoint installed");
    assert!(!checkpoint_bytes.is_empty());
    let mut recovered = GhbaCluster::recover(test_config(), 6, &dir, opts).expect("recover");
    recovered.check_invariants().expect("recovered invariants");
    assert_eq!(durable_state(&mut recovered), durable_state(&mut twin));
    assert_lookups_identical(&recovered, &twin);
    let _ = fs::remove_dir_all(&dir);
}

/// A crash torn mid-append recovers to exactly the state as of the last
/// *complete* drain: run N drains, snapshot durable state after each,
/// then tear the final record and recover.
#[test]
fn torn_tail_recovers_to_the_previous_drain_state() {
    // Cut a few bytes off the log tail.
    torn_tail_case("torn-drain", |log, _| log.truncate(log.len() - 3));
    // The file was extended but the final record's bytes never landed:
    // a zero-filled tail (which frames as "length 0, checksum 0").
    torn_tail_case("zero-tail", |log, last| log[last..].fill(0));
}

fn torn_tail_case(name: &str, tear: fn(&mut Vec<u8>, usize)) {
    let dir = temp_dir(name);
    let opts = options(SyncPolicy::EveryBatch, 0);
    let paths = workload_paths();
    let mut snapshots = Vec::new();
    {
        let mut cluster = GhbaCluster::with_servers(test_config(), 6);
        let (wal, _) = Wal::open(&dir, opts).expect("fresh wal");
        cluster.attach_wal(wal);
        for (w, chunk) in paths.chunks(40).enumerate() {
            let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: w });
            for path in chunk {
                batch.push_create(path);
            }
            cluster.execute_concurrent(&batch);
            cluster.drain_concurrent();
            snapshots.push(durable_state(&mut cluster));
        }
    }
    let log_path = dir.join("wal.log");
    let mut log = fs::read(&log_path).expect("read log");
    // Offset of the final record.
    let mut last = 0;
    loop {
        let (_, consumed) = decode_record(&log[last..]).expect("the log is clean so far");
        if last + consumed == log.len() {
            break;
        }
        last += consumed;
    }
    tear(&mut log, last);
    fs::write(&log_path, &log).expect("tear tail");

    let mut recovered = GhbaCluster::recover(test_config(), 6, &dir, opts).expect("recover");
    recovered.check_invariants().expect("recovered invariants");
    assert_eq!(
        durable_state(&mut recovered),
        snapshots[snapshots.len() - 2],
        "a torn final record must roll back to the last complete drain"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Recovery restores a controller-reshaped group layout exactly:
/// membership, group epochs, and the membership epoch — not the
/// deterministic startup shape.
#[test]
fn recovery_restores_a_reshaped_group_layout() {
    let dir = temp_dir("reshape");
    let config = test_config().with_max_group_size(8);
    let opts = options(SyncPolicy::EveryBatch, 0);
    let mut twin = GhbaCluster::with_servers(config.clone(), 8);
    assert_eq!(twin.reconfig_handle().group_ids().len(), 1);
    twin.reconfig_handle()
        .split_group(GroupId(0))
        .expect("split the lone group");
    run_workload(&mut twin);
    {
        let mut cluster = GhbaCluster::with_servers(config.clone(), 8);
        cluster
            .reconfig_handle()
            .split_group(GroupId(0))
            .expect("split the lone group");
        let (wal, _) = Wal::open(&dir, opts).expect("fresh wal");
        cluster.attach_wal(wal);
        run_workload(&mut cluster);
        assert_installed_checkpoint_is_the_capture(&mut cluster, &dir);
    }
    let mut recovered = GhbaCluster::recover(config, 8, &dir, opts).expect("recover");
    recovered.check_invariants().expect("recovered invariants");
    assert_eq!(recovered.membership_epoch(), twin.membership_epoch());
    assert_eq!(
        recovered.reconfig_handle().group_ids(),
        twin.reconfig_handle().group_ids()
    );
    assert_eq!(durable_state(&mut recovered), durable_state(&mut twin));
    assert_lookups_identical(&recovered, &twin);
    let _ = fs::remove_dir_all(&dir);
}

/// Recovery after merges and splits that reused a group id restores the
/// shape the checkpoint holds, and an id freed before the checkpoint is
/// the next one minted on both sides: restore sets no allocator, both
/// clusters take the lowest id no live group holds.
#[test]
fn recovery_after_reused_group_ids_mints_the_same_next_id() {
    let dir = temp_dir("reuse");
    let config = test_config().with_max_group_size(6);
    let opts = options(SyncPolicy::EveryBatch, 0);
    // From groups 0 and 1 of six: split 0 (→ 2), merge 0 into 2, split
    // 1 (→ 0 again), merge 1 into 0, leaving a hole at 1.
    let reshape = |cluster: &GhbaCluster| {
        let handle = cluster.reconfig_handle();
        assert_eq!(handle.group_ids(), [GroupId(0), GroupId(1)]);
        assert_eq!(handle.split_group(GroupId(0)), Some(GroupId(2)));
        assert!(handle.merge_groups(GroupId(2), GroupId(0)));
        assert_eq!(handle.split_group(GroupId(1)), Some(GroupId(0)));
        assert!(handle.merge_groups(GroupId(0), GroupId(1)));
        assert_eq!(handle.group_ids(), [GroupId(0), GroupId(2)]);
    };
    let mut twin = GhbaCluster::with_servers(config.clone(), 12);
    reshape(&twin);
    run_workload(&mut twin);
    {
        let mut cluster = GhbaCluster::with_servers(config.clone(), 12);
        let (wal, _) = Wal::open(&dir, opts).expect("fresh wal");
        cluster.attach_wal(wal);
        reshape(&cluster);
        run_workload(&mut cluster);
        assert_installed_checkpoint_is_the_capture(&mut cluster, &dir);
        assert_eq!(cluster.capture_checkpoint().group_id_bound, 3);
    }
    let mut recovered = GhbaCluster::recover(config, 12, &dir, opts).expect("recover");
    recovered.check_invariants().expect("recovered invariants");
    assert_eq!(recovered.membership_epoch(), twin.membership_epoch());
    assert_eq!(durable_state(&mut recovered), durable_state(&mut twin));
    // Replica placement is rebuilt, not restored (see the `wal` module
    // docs), so the level a lookup resolves at may differ; its home not.
    for path in workload_paths() {
        assert_eq!(recovered.true_home(&path), twin.true_home(&path));
        assert_eq!(recovered.lookup(&path).home, twin.true_home(&path));
    }
    for cluster in [&recovered, &twin] {
        let minted = cluster.reconfig_handle().split_group(GroupId(0));
        assert_eq!(minted, Some(GroupId(1)), "the hole is the lowest free id");
    }
    recovered.check_invariants().expect("split after recovery");
    let _ = fs::remove_dir_all(&dir);
}

/// Recovery of a cluster wider than one slab word (70 servers: stride 2)
/// from checkpoint + tail: the restore's bulk column load maps slots past
/// 63 to the second word of every row.
#[test]
fn recovery_past_64_servers_matches_from_checkpoint_plus_tail() {
    const SERVERS: usize = 70;
    let dir = temp_dir("wide");
    let opts = options(SyncPolicy::None, 4);
    // `run_workload`'s paths, each batch's entries spread over every
    // server so that columns past slot 63 are published too.
    let drive = |cluster: &mut GhbaCluster| {
        let paths = workload_paths();
        for (w, chunk) in paths.chunks(40).enumerate() {
            let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 40 * w });
            for path in chunk {
                batch.push_create(path);
            }
            cluster.execute_concurrent(&batch);
            cluster.drain_concurrent();
            cluster.flush_all_updates();
        }
        let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 60 });
        for path in &paths[..20] {
            batch.push_remove(path);
        }
        cluster.execute_concurrent(&batch);
        cluster.drain_concurrent();
    };
    let mut twin = GhbaCluster::with_servers(test_config(), SERVERS);
    drive(&mut twin);
    {
        let mut cluster = GhbaCluster::with_servers(test_config(), SERVERS);
        let (wal, _) = Wal::open(&dir, opts).expect("fresh wal");
        cluster.attach_wal(wal);
        drive(&mut cluster);
        let wal = cluster.wal().expect("attached");
        assert!(
            wal.tail_len() > 0 && wal.tail_len() < wal.last_seq(),
            "recovery must load a checkpoint and replay a tail (tail {} of {})",
            wal.tail_len(),
            wal.last_seq()
        );
    }
    let mut recovered = GhbaCluster::recover(test_config(), SERVERS, &dir, opts).expect("recover");
    recovered.check_invariants().expect("recovered invariants");
    let wide = (64..SERVERS as u16)
        .filter(|&id| {
            recovered
                .published_filter(MdsId(id))
                .is_some_and(|published| published.ones() > 0)
        })
        .count();
    assert!(wide > 0, "no published column past slot 63 to restore");
    assert_eq!(durable_state(&mut recovered), durable_state(&mut twin));
    assert_lookups_identical(&recovered, &twin);
    let _ = fs::remove_dir_all(&dir);
}

/// A restore lands each server's publish cadence from the checkpoint
/// alone (the log is truncated behind it): servers captured clean come
/// back clean — their replayed live filters are their restored published
/// ones (invariant 9) — servers captured dirty come back dirty, and every
/// walk, which answers the clean ones from the slab, matches the twin.
#[test]
fn a_restore_brings_clean_servers_back_clean() {
    const DIRTY: [MdsId; 2] = [MdsId(0), MdsId(3)];
    let dir = temp_dir("clean");
    let opts = options(SyncPolicy::EveryBatch, 0);
    let drive = |cluster: &mut GhbaCluster| {
        run_workload(cluster);
        cluster.flush_all_updates();
        for home in DIRTY {
            let mut batch = OpBatch::new().with_entry(EntryPolicy::Pinned(home));
            batch.push_create(format!("/wal/late{}", home.0));
            cluster.execute_concurrent(&batch);
        }
        cluster.drain_concurrent();
    };
    let mut twin = GhbaCluster::with_servers(test_config(), 6);
    drive(&mut twin);
    {
        let mut cluster = GhbaCluster::with_servers(test_config(), 6);
        let (wal, _) = Wal::open(&dir, opts).expect("fresh wal");
        cluster.attach_wal(wal);
        drive(&mut cluster);
        assert!(cluster.checkpoint_now().expect("install checkpoint"));
        assert_eq!(cluster.wal().expect("attached").tail_len(), 0);
    }
    let mut recovered = GhbaCluster::recover(test_config(), 6, &dir, opts).expect("recover");
    recovered.check_invariants().expect("recovered invariants");
    for id in recovered.server_ids() {
        let clean = |cluster: &GhbaCluster| cluster.mds(id).expect("live").is_clean();
        assert_eq!(clean(&recovered), !DIRTY.contains(&id), "{id}");
        assert_eq!(clean(&recovered), clean(&twin), "{id}");
    }
    assert_eq!(durable_state(&mut recovered), durable_state(&mut twin));
    assert_lookups_identical(&recovered, &twin);
    let _ = fs::remove_dir_all(&dir);
}

/// Paths of exactly `INLINE_PATH_BYTES` (the most a path holds inline)
/// and one byte more (boxed), ending in a one-, two- or three-byte
/// character, through create, rename, remove, drain, a checkpoint and a
/// WAL tail: the recovered cluster is its twin, path for path.
#[test]
fn paths_at_the_inline_capacity_recover_bit_identically() {
    let dir = temp_dir("inline-capacity");
    let opts = options(SyncPolicy::EveryBatch, 0);
    let sized = |len: usize, last: &str| format!("/{}{last}", "c".repeat(len - 1 - last.len()));
    let paths: Vec<String> = [INLINE_PATH_BYTES, INLINE_PATH_BYTES + 1]
        .into_iter()
        .flat_map(|len| ["a", "é", "€"].map(|last| sized(len, last)))
        .collect();
    let renamed: Vec<String> = paths.iter().map(|p| p.replacen('c', "r", 1)).collect();
    let drive = |cluster: &mut GhbaCluster, checkpoint: bool| {
        let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 1 });
        for path in &paths {
            batch.push_create(path);
        }
        cluster.execute_concurrent(&batch);
        cluster.drain_concurrent();
        if checkpoint {
            assert!(cluster.checkpoint_now().expect("install checkpoint"));
        }
        let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 4 });
        for (from, to) in paths.iter().zip(&renamed).step_by(2) {
            batch.push_rename(from, to);
        }
        batch.push_remove(&paths[1]);
        batch.push_remove(&renamed[4]);
        cluster.execute_concurrent(&batch);
        cluster.drain_concurrent();
        cluster.flush_all_updates();
    };
    let mut twin = GhbaCluster::with_servers(test_config(), 6);
    drive(&mut twin, false);
    {
        let mut cluster = GhbaCluster::with_servers(test_config(), 6);
        let (wal, _) = Wal::open(&dir, opts).expect("fresh wal");
        cluster.attach_wal(wal);
        drive(&mut cluster, true);
        assert!(
            cluster.wal().expect("attached").tail_len() > 0,
            "a tail to replay"
        );
    }
    let mut recovered = GhbaCluster::recover(test_config(), 6, &dir, opts).expect("recover");
    recovered.check_invariants().expect("recovered invariants");
    assert_eq!(durable_state(&mut recovered), durable_state(&mut twin));
    let stored = |cluster: &GhbaCluster, path: &str| cluster.true_home(path).is_some();
    for (i, (path, to)) in paths.iter().zip(&renamed).enumerate() {
        let (moved, gone) = (i % 2 == 0, i == 1 || i == 4);
        assert_eq!(stored(&recovered, path), !moved && !gone, "{path}");
        assert_eq!(stored(&recovered, to), moved && !gone, "{to}");
    }
    let mut batch = OpBatch::new().with_entry(EntryPolicy::Pinned(MdsId(2)));
    for path in paths.iter().chain(&renamed) {
        batch.push_lookup(path);
    }
    assert_eq!(
        recovered.execute_concurrent(&batch),
        twin.execute_concurrent(&batch)
    );
    let _ = fs::remove_dir_all(&dir);
}

/// An idle replica's log stops growing: drain + flush rounds with
/// nothing to drain or publish leave `wal.log` byte-identical and the
/// sequence where it was, and recovery without those flushes is the
/// twin that ran them. A flush that publishes nothing but restarts a
/// drift cadence (a create and a remove of one path in one drain) is
/// still logged, because its counters are durable state.
#[test]
fn idle_flushes_log_nothing_and_recover_bit_identically() {
    let dir = temp_dir("idle");
    let opts = options(SyncPolicy::EveryBatch, 0);
    let idle_rounds = |cluster: &mut GhbaCluster| {
        for _ in 0..5 {
            cluster.drain_concurrent();
            cluster.flush_all_updates();
        }
    };
    let ghost = |cluster: &mut GhbaCluster| {
        let mut batch = OpBatch::new().with_entry(EntryPolicy::Pinned(MdsId(2)));
        batch.push_create("/idle/ghost");
        batch.push_remove("/idle/ghost");
        cluster.execute_concurrent(&batch);
        cluster.flush_all_updates();
    };
    let mut twin = GhbaCluster::with_servers(test_config(), 6);
    run_workload(&mut twin);
    twin.flush_all_updates();
    idle_rounds(&mut twin);
    ghost(&mut twin);
    {
        let mut cluster = GhbaCluster::with_servers(test_config(), 6);
        let (wal, _) = Wal::open(&dir, opts).expect("fresh wal");
        cluster.attach_wal(wal);
        run_workload(&mut cluster);
        cluster.flush_all_updates();
        let log = || fs::read(dir.join("wal.log")).expect("read log");
        let (before, seq) = (log(), cluster.wal().expect("attached").next_seq());
        idle_rounds(&mut cluster);
        assert_eq!(log(), before, "idle rounds wrote to the log");
        assert_eq!(cluster.wal().expect("attached").next_seq(), seq);

        ghost(&mut cluster);
        assert_eq!(
            cluster.wal().expect("attached").next_seq(),
            seq + 2,
            "the ghost's drain and the flush that restarts its cadence"
        );
        idle_rounds(&mut cluster);
        assert_eq!(cluster.wal().expect("attached").next_seq(), seq + 2);
    }
    let mut recovered = GhbaCluster::recover(test_config(), 6, &dir, opts).expect("recover");
    recovered.check_invariants().expect("recovered invariants");
    assert_eq!(durable_state(&mut recovered), durable_state(&mut twin));
    assert_lookups_identical(&recovered, &twin);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovery_on_an_empty_directory_is_a_fresh_cluster() {
    let dir = temp_dir("fresh");
    let opts = options(SyncPolicy::None, 0);
    let mut recovered = GhbaCluster::recover(test_config(), 6, &dir, opts).expect("recover");
    let mut fresh = GhbaCluster::with_servers(test_config(), 6);
    assert_eq!(durable_state(&mut recovered), durable_state(&mut fresh));
    // And the attached log is live: the first drain appends.
    let mut batch = OpBatch::new().with_entry(EntryPolicy::Pinned(MdsId(0)));
    batch.push_create("/fresh/a");
    recovered.execute_concurrent(&batch);
    recovered.drain_concurrent();
    assert_eq!(recovered.wal().expect("attached").last_seq(), 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovery_refuses_a_mismatched_configuration() {
    let dir = temp_dir("mismatch");
    let opts = options(SyncPolicy::EveryBatch, 0);
    {
        let mut cluster = GhbaCluster::with_servers(test_config(), 6);
        let (wal, _) = Wal::open(&dir, opts).expect("fresh wal");
        cluster.attach_wal(wal);
        run_workload(&mut cluster);
        cluster.checkpoint_now().expect("install checkpoint");
    }
    // A different seed changes every filter: refuse, don't corrupt.
    let reseeded = test_config().with_seed(0xBAD);
    assert!(matches!(
        GhbaCluster::recover(reseeded, 6, &dir, opts),
        Err(WalError::ConfigMismatch(_))
    ));
    // A different roster cannot host the checkpointed namespace.
    assert!(matches!(
        GhbaCluster::recover(test_config(), 7, &dir, opts),
        Err(WalError::ConfigMismatch(_))
    ));
    // The matching configuration still recovers cleanly afterwards.
    GhbaCluster::recover(test_config(), 6, &dir, opts).expect("matching config recovers");
    let _ = fs::remove_dir_all(&dir);
}

/// The owner-side stream of the two owner-write tests: the workload's
/// 120 creates as four `execute` batches of 30, then its first 20 paths
/// removed through one more.
fn run_owner_workload(cluster: &mut GhbaCluster) {
    let paths = workload_paths();
    for (w, chunk) in paths.chunks(30).enumerate() {
        let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: w });
        for path in chunk {
            batch.push_create(path);
        }
        cluster.execute(&batch);
    }
    let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 3 });
    for path in &paths[..20] {
        batch.push_remove(path);
    }
    cluster.execute(&batch);
}

/// An owner write is durable: a create or a remove through the `&mut`
/// entry — `execute`, `create_file_at`, `remove_file` — is a shard-log
/// record drained at once, so it reaches the WAL like any drain, and a
/// cluster recovered from the log alone has every home back.
#[test]
fn owner_writes_recover_every_home() {
    let dir = temp_dir("owner-writes");
    let opts = options(SyncPolicy::EveryBatch, 0);
    let paths = workload_paths();
    let at = "/wal/owner/at";
    let names = || paths.iter().map(String::as_str).chain([at]);
    let homes: Vec<Option<MdsId>> = {
        let mut cluster = GhbaCluster::with_servers(test_config(), 6);
        let (wal, _) = Wal::open(&dir, opts).expect("fresh wal");
        cluster.attach_wal(wal);
        let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 0 });
        for path in &paths {
            batch.push_create(path);
        }
        cluster.execute(&batch);
        cluster.create_file_at(at, MdsId(3));
        assert!(cluster.remove(&paths[0]).is_some());
        assert_eq!(cluster.pending_concurrent_writes(), 0);
        names().map(|path| cluster.true_home(path)).collect()
    };
    assert_eq!(homes[0], None);
    assert_eq!(homes[paths.len()], Some(MdsId(3)));
    let recovered = GhbaCluster::recover(test_config(), 6, &dir, opts).expect("recover");
    recovered.check_invariants().expect("recovered invariants");
    let created = &paths[1..];
    let back = created
        .iter()
        .zip(&homes[1..])
        .filter(|&(path, &home)| recovered.true_home(path) == home)
        .count();
    assert_eq!(
        back,
        created.len(),
        "recovered {back} of the {} paths created through execute",
        created.len()
    );
    let recovered_homes: Vec<Option<MdsId>> = names().map(|p| recovered.true_home(p)).collect();
    assert_eq!(recovered_homes, homes);
    let _ = fs::remove_dir_all(&dir);
}

/// What an owner write still leaves unlogged: the gated per-write
/// publish (`maybe_publish` → `push_update`) after its drain. Where no
/// gated push fires (`update_threshold_bits` 2,048 for this stream),
/// the recovered durable state is the unlogged twin's exactly; where
/// they fire (threshold 8: every write crosses it), the published
/// columns and cadence counters they moved are not in the log, and
/// recovery still puts every path at its home.
#[test]
fn owner_gated_publishes_are_what_stays_unlogged() {
    for (threshold, pushes) in [(2_048, false), (8, true)] {
        let config = test_config().with_update_threshold(threshold);
        let dir = temp_dir(&format!("owner-gate-{threshold}"));
        let opts = options(SyncPolicy::EveryBatch, 0);
        let mut twin = GhbaCluster::with_servers(config.clone(), 6);
        run_owner_workload(&mut twin);
        assert_eq!(
            twin.stats().update_latency.count() > 0,
            pushes,
            "threshold {threshold}"
        );
        {
            let mut cluster = GhbaCluster::with_servers(config.clone(), 6);
            let (wal, _) = Wal::open(&dir, opts).expect("fresh wal");
            cluster.attach_wal(wal);
            run_owner_workload(&mut cluster);
        }
        let mut recovered = GhbaCluster::recover(config, 6, &dir, opts).expect("recover");
        recovered.check_invariants().expect("recovered invariants");
        if pushes {
            for path in workload_paths() {
                assert_eq!(recovered.true_home(&path), twin.true_home(&path), "{path}");
            }
        } else {
            assert_eq!(durable_state(&mut recovered), durable_state(&mut twin));
            assert_lookups_identical(&recovered, &twin);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary create/remove/rename streams with arbitrary drain and
    /// flush points recover bit-identically from checkpoint + tail — at
    /// every sync policy and checkpoint cadence.
    #[test]
    fn arbitrary_workloads_recover_bit_identically(
        steps in proptest::collection::vec(
            (
                proptest::collection::vec((0u8..3, any::<u16>()), 1..10),
                any::<bool>(),
            ),
            1..8,
        ),
        policy_selector in any::<u8>(),
        checkpoint_every in 0u64..4,
    ) {
        let sync = match policy_selector % 3 {
            0 => SyncPolicy::EveryBatch,
            1 => SyncPolicy::GroupCommit(std::time::Duration::from_millis(5)),
            _ => SyncPolicy::None,
        };
        let opts = options(sync, checkpoint_every);
        let dir = temp_dir(&format!("prop-{policy_selector}-{checkpoint_every}"));

        let drive = |cluster: &mut GhbaCluster| {
            for (w, (ops, flush)) in steps.iter().enumerate() {
                let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: w });
                for &(kind, file) in ops {
                    let path = path_of(&format!("pw/d{}", file % 5), u32::from(file % 97));
                    match kind {
                        0 => batch.push_create(&path),
                        1 => batch.push_remove(&path),
                        _ => batch.push_rename(&path, path_of("pw/r", u32::from(file % 97))),
                    }
                }
                cluster.execute_concurrent(&batch);
                cluster.drain_concurrent();
                if *flush {
                    cluster.flush_all_updates();
                }
            }
        };

        let mut twin = GhbaCluster::with_servers(test_config(), 5);
        drive(&mut twin);
        {
            let mut cluster = GhbaCluster::with_servers(test_config(), 5);
            let (wal, _) = Wal::open(&dir, opts).expect("fresh wal");
            cluster.attach_wal(wal);
            drive(&mut cluster);
            // SyncPolicy only affects power-loss durability; process
            // death keeps the page cache, which dropping the File models.
        }
        let mut recovered = GhbaCluster::recover(test_config(), 5, &dir, opts).expect("recover");
        recovered.check_invariants().expect("recovered invariants");
        prop_assert_eq!(durable_state(&mut recovered), durable_state(&mut twin));
        assert_installed_checkpoint_is_the_capture(&mut recovered, &dir);
        let _ = fs::remove_dir_all(&dir);
    }
}
