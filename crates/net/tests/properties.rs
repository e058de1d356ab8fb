//! Property tests for the wire codec: arbitrary `OpBatch`es (renames
//! and empty batches included) survive the frame round trip exactly,
//! and the decoder never panics on malformed bytes — truncations,
//! corrupt prefixes, random garbage. The in-place writers and the pooled
//! decoder are held to the plain ones: the frame a wave writes from its
//! borrowed batch is the frame of the materialised sub-batch, and the
//! pooled decode of a frame sequence is `NetMessage::decode`'s, errors
//! included.

use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

use ghba_core::{EntryPolicy, GhbaConfig, MdsId, MetadataOp, OpBatch, OpOutcome, PathKey};
use ghba_net::proto::NetMessage;
use ghba_net::wire::{Frame, WireError};
use ghba_net::{execute_sharded, replica_of, BatchTransport, Federation, Pick};

fn arb_policy() -> impl Strategy<Value = EntryPolicy> {
    prop_oneof![
        Just(EntryPolicy::Random),
        (0u64..16).prop_map(|id| EntryPolicy::Pinned(MdsId(id as u16))),
        (0u64..1_000_000).prop_map(|start| EntryPolicy::RoundRobin {
            start: start as usize
        }),
    ]
}

fn arb_op() -> impl Strategy<Value = MetadataOp> {
    prop_oneof![
        "[a-z0-9/._ -]{1,32}".prop_map(|p| MetadataOp::Create(PathKey::new(p))),
        "[a-z0-9/._ -]{1,32}".prop_map(|p| MetadataOp::Lookup(PathKey::new(p))),
        "[a-z0-9/._ -]{1,32}".prop_map(|p| MetadataOp::Remove(PathKey::new(p))),
        ("[a-z0-9/]{1,24}", "[a-z0-9/]{1,24}").prop_map(|(from, to)| MetadataOp::Rename {
            from: PathKey::new(from),
            to: PathKey::new(to),
        }),
    ]
}

fn arb_batch() -> impl Strategy<Value = (EntryPolicy, Vec<MetadataOp>)> {
    // 0..n op lists include the empty batch.
    (arb_policy(), proptest::collection::vec(arb_op(), 0..24))
}

/// Ops over a dozen names, so renames find their sources and split
/// across replicas: `(kind, from, to)` indices.
fn arb_pool_ops() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    proptest::collection::vec((0u64..4, 0u64..12, 0u64..12), 0..32)
}

fn pool_batch(policy: EntryPolicy, ops: &[(u64, u64, u64)]) -> OpBatch {
    let name = |i: u64| format!("/pool/{}/f{i}", "d".repeat(i as usize));
    let mut batch = OpBatch::new().with_entry(policy);
    for &(kind, a, b) in ops {
        match kind {
            0 => batch.push_create(name(a)),
            1 => batch.push_lookup(name(a)),
            2 => batch.push_remove(name(a)),
            _ => batch.push_rename(name(a), name(b)),
        }
    }
    batch
}

/// The sub-batch a pick list stands for, cloned out of `batch`.
fn materialize(batch: &OpBatch, picks: &[Pick]) -> OpBatch {
    let mut sub = OpBatch::new().with_entry(batch.entry_policy());
    for &pick in picks {
        let (Pick::Op(i) | Pick::RemoveFrom(i) | Pick::CreateTo(i)) = pick;
        let op = batch.ops()[i].clone();
        sub.push(match (pick, op) {
            (Pick::Op(_), op) => op,
            (Pick::RemoveFrom(_), MetadataOp::Rename { from, .. }) => MetadataOp::Remove(from),
            (Pick::CreateTo(_), MetadataOp::Rename { to, .. }) => MetadataOp::Create(to),
            (pick, op) => panic!("{pick:?} names {op:?}"),
        });
    }
    sub
}

/// A transport that writes each wave's frames the way `NetClient` does
/// (from the borrowed batch, into one reused buffer per replica),
/// checks every frame against the materialised sub-batch's, and
/// answers through an in-process fleet.
struct FrameChecker {
    fleet: Federation,
    frames: Vec<Vec<u8>>,
    next_seq: u64,
    waves: usize,
}

impl BatchTransport for FrameChecker {
    fn replica_count(&self) -> usize {
        self.fleet.replica_count()
    }

    fn execute_on(&mut self, replica: usize, batch: &OpBatch) -> Result<Vec<OpOutcome>, WireError> {
        self.fleet.execute_on(replica, batch)
    }

    fn execute_wave(
        &mut self,
        batch: &OpBatch,
        picks: &[Vec<Pick>],
    ) -> Result<Vec<Vec<OpOutcome>>, WireError> {
        self.waves += 1;
        let mut outcomes = Vec::new();
        for (replica, list) in picks.iter().enumerate() {
            if list.is_empty() {
                outcomes.push(Vec::new());
                continue;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let frame = &mut self.frames[replica];
            NetMessage::encode_execute_frame_into(frame, seq, batch, list.iter().copied());
            let sub = materialize(batch, list);
            assert_eq!(
                frame.as_slice(),
                Frame::from_payload(&NetMessage::encode_execute_batch(seq, &sub)).bytes(),
                "replica {replica}'s frame differs from its materialised sub-batch's"
            );
            outcomes.push(self.fleet.execute_on(replica, &sub)?);
        }
        Ok(outcomes)
    }
}

fn small_fleet(replicas: usize) -> Federation {
    let config = GhbaConfig::default()
        .with_filter_capacity(2_000)
        .with_lru_capacity(0);
    Federation::new(&config, replicas, 3)
}

/// `NetMessage::decode_execute_batch_into` over `frames` in order with
/// one kept batch and pool, checked against `NetMessage::decode` frame
/// by frame: same batch and `seq`, or the same error.
fn check_pooled_decode(payloads: &[Vec<u8>]) {
    let mut batch = OpBatch::new();
    let mut pool = Vec::new();
    let mut most_paths = 0;
    for (i, payload) in payloads.iter().enumerate() {
        let pooled = NetMessage::decode_execute_batch_into(payload, &mut batch, &mut pool);
        match (NetMessage::decode(payload), pooled) {
            (Ok(NetMessage::ExecuteBatch { seq, batch: plain }), Ok(Some(pooled_seq))) => {
                assert_eq!(pooled_seq, seq, "frame {i}");
                assert_eq!(batch, plain, "frame {i}");
                let paths = plain
                    .ops()
                    .iter()
                    .map(|op| 1 + usize::from(matches!(op, MetadataOp::Rename { .. })))
                    .sum::<usize>();
                most_paths = most_paths.max(paths);
                assert!(
                    pool.len() + paths <= most_paths,
                    "frame {i}: the pool outgrew the largest batch"
                );
            }
            (Ok(other), Ok(None)) => {
                assert!(
                    !matches!(other, NetMessage::ExecuteBatch { .. }),
                    "frame {i}"
                );
            }
            (Err(plain), Err(pooled)) => assert_eq!(pooled.to_string(), plain.to_string()),
            (plain, pooled) => panic!("frame {i}: decode gave {plain:?}, pooled {pooled:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any batch — any policy, any op mix including renames, empty
    /// included — crosses the wire bit-exactly.
    #[test]
    fn arbitrary_batches_round_trip(input in arb_batch(), seq in proptest::prelude::any::<u64>()) {
        let (policy, ops) = input;
        let mut batch = OpBatch::new().with_entry(policy);
        for op in ops {
            batch.push(op);
        }
        let msg = NetMessage::ExecuteBatch { seq, batch };
        let frame = msg.to_frame();
        let (decoded, consumed) = NetMessage::parse_frame(frame.bytes())
            .expect("well-formed frame must parse");
        prop_assert_eq!(consumed, frame.bytes().len());
        prop_assert_eq!(decoded, msg);
    }

    /// Truncating a valid frame at any point yields a typed error (or,
    /// for a cut through the length prefix itself, a Truncated length),
    /// never a panic and never a bogus decode.
    #[test]
    fn truncations_fail_typed(input in arb_batch(), cut in proptest::prelude::any::<u64>()) {
        let (policy, ops) = input;
        let mut batch = OpBatch::new().with_entry(policy);
        for op in ops {
            batch.push(op);
        }
        let frame = NetMessage::ExecuteBatch { seq: 1, batch }.to_frame();
        let bytes = frame.bytes();
        let cut = (cut as usize) % bytes.len();
        prop_assert!(
            NetMessage::parse_frame(&bytes[..cut]).is_err(),
            "a frame cut to {cut} of {} bytes must not parse",
            bytes.len()
        );
    }

    /// Random byte prefixes never panic the parser: every outcome is a
    /// clean `Ok` (an accidental valid frame) or a typed `WireError`.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256)) {
        if let Ok((_, consumed)) = NetMessage::parse_frame(&bytes) {
            prop_assert!(consumed <= bytes.len());
        }
        // The raw frame layer holds the same guarantee.
        if let Ok((payload, consumed)) = Frame::parse(&bytes) {
            prop_assert!(consumed <= bytes.len());
            prop_assert!(payload.len() < consumed);
        }
    }

    /// Flipping any single byte of a valid frame never panics the
    /// parser; flips that land in a fingerprint lane are caught as
    /// CorruptFingerprint rather than admitted.
    #[test]
    fn single_byte_corruption_never_panics(input in arb_batch(), flip in proptest::prelude::any::<u64>()) {
        let (policy, ops) = input;
        let mut batch = OpBatch::new().with_entry(policy);
        for op in ops {
            batch.push(op);
        }
        let frame = NetMessage::ExecuteBatch { seq: 2, batch }.to_frame();
        let mut bytes = frame.bytes().to_vec();
        let index = (flip as usize) % bytes.len();
        bytes[index] ^= 1 << (flip % 8);
        let _ = NetMessage::parse_frame(&bytes);
    }

    /// Outcome replies round trip too — every OpOutcome shape.
    #[test]
    fn outcome_replies_round_trip(homes in proptest::collection::vec(proptest::prelude::any::<bool>(), 0..16)) {
        let outcomes: Vec<OpOutcome> = homes
            .iter()
            .enumerate()
            .map(|(i, &present)| match i % 3 {
                0 => OpOutcome::Created {
                    home: MdsId(i as u16),
                },
                1 => OpOutcome::Removed {
                    home: present.then_some(MdsId(i as u16)),
                },
                _ => OpOutcome::Renamed {
                    old_home: present.then_some(MdsId(0)),
                    new_home: present.then_some(MdsId(1)),
                },
            })
            .collect();
        let msg = NetMessage::BatchReply { seq: 9, outcomes };
        let (decoded, _) = NetMessage::parse_frame(msg.to_frame().bytes()).expect("parses");
        prop_assert_eq!(decoded, msg);
    }
}

/// Deterministic corruption coverage on top of the random sweeps: a
/// tampered fingerprint lane is always rejected as CorruptFingerprint.
#[test]
fn tampered_fingerprint_lane_is_always_caught() {
    let mut batch = OpBatch::new();
    batch.push_create("/exact/path");
    let mut payload = NetMessage::ExecuteBatch { seq: 0, batch }.encode();
    // The create's fingerprint occupies the final 16 bytes of the
    // payload; flip one bit in each lane byte and demand rejection.
    let len = payload.len();
    for i in (len - 16)..len {
        payload[i] ^= 0x80;
        let err = NetMessage::decode(&payload).expect_err("corrupt lane must fail");
        assert!(
            matches!(err, WireError::CorruptFingerprint { ref path } if path == "/exact/path"),
            "byte {i}: got {err}"
        );
        payload[i] ^= 0x80;
    }
    // Restored, it decodes again.
    assert!(NetMessage::decode(&payload).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every frame of wave 1 and wave 2 written from the borrowed batch
    /// is byte-identical to the frame of the materialised sub-batch, and
    /// the plan answers exactly as the in-process fleet's.
    #[test]
    fn wave_frames_are_the_materialised_sub_batches(
        ops in arb_pool_ops(),
        replicas in 2u64..4,
        start in 0u64..8,
    ) {
        let replicas = replicas as usize;
        let policy = EntryPolicy::RoundRobin { start: start as usize };
        let mut setup = OpBatch::new().with_entry(policy);
        for i in 0..12 {
            setup.push_create(format!("/pool/{}/f{i}", "d".repeat(i)));
        }
        let batch = pool_batch(policy, &ops);
        let mut checker = FrameChecker {
            fleet: small_fleet(replicas),
            frames: vec![Vec::new(); replicas],
            next_seq: 0,
            waves: 0,
        };
        let mut truth = small_fleet(replicas);
        for fleet in [&mut checker.fleet, &mut truth] {
            execute_sharded(fleet, &setup).expect("setup");
            fleet.drain_all();
        }
        checker.waves = 0;
        let checked = execute_sharded(&mut checker, &batch).expect("checked plan");
        // Wave 2 runs exactly when a split rename's source existed.
        let moved = batch.ops().iter().zip(&checked).any(|(op, outcome)| {
            matches!(
                (op, outcome),
                (MetadataOp::Rename { from, to }, OpOutcome::Renamed { old_home: Some(_), .. })
                    if replica_of(from, replicas) != replica_of(to, replicas)
            )
        });
        prop_assert_eq!(checker.waves, 1 + usize::from(moved));
        prop_assert_eq!(checked, execute_sharded(&mut truth, &batch).expect("ground truth"));
    }

    /// Random sequences of batches decode through one kept batch and
    /// pool exactly as `NetMessage::decode` decodes them.
    #[test]
    fn pooled_decode_matches_decode(batches in proptest::collection::vec(arb_pool_ops(), 1..6)) {
        let payloads: Vec<Vec<u8>> = batches
            .iter()
            .enumerate()
            .map(|(seq, ops)| {
                NetMessage::encode_execute_batch(seq as u64, &pool_batch(EntryPolicy::Random, ops))
            })
            .collect();
        check_pooled_decode(&payloads);
    }
}

/// A long path then a short one, a rename after lookups, an empty
/// batch and other messages between batches, through one kept batch.
#[test]
fn pooled_decode_of_a_frame_sequence_matches_decode() {
    let mut long = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 2 });
    long.push_create(format!("/long/{}", "x".repeat(300)));
    long.push_lookup("/long/a");
    let mut short = OpBatch::new().with_entry(EntryPolicy::Pinned(MdsId(1)));
    short.push_lookup("/s");
    short.push_lookup("/t");
    short.push_rename("/s", "/u");
    let payloads = vec![
        NetMessage::encode_execute_batch(1, &long),
        NetMessage::Ping { nonce: 5 }.encode(),
        NetMessage::encode_execute_batch(2, &short),
        NetMessage::encode_execute_batch(3, &OpBatch::new()),
        NetMessage::Drain.encode(),
        NetMessage::encode_execute_batch(4, &long),
    ];
    check_pooled_decode(&payloads);
}

/// A path whose buffer the pool already holds is refilled in place: the
/// second batch's paths live in the first batch's allocations.
#[test]
fn pooled_decode_reuses_path_buffers() {
    let mut first = OpBatch::new();
    first.push_lookup(format!("/first/{}", "a".repeat(64)));
    first.push_rename(
        format!("/first/{}", "b".repeat(64)),
        format!("/first/{}", "c".repeat(64)),
    );
    let mut second = OpBatch::new();
    second.push_create("/second/a");
    second.push_lookup("/second/b");
    second.push_remove("/second/c");
    let mut batch = OpBatch::new();
    let mut pool = Vec::new();
    NetMessage::decode_execute_batch_into(
        &NetMessage::encode_execute_batch(0, &first),
        &mut batch,
        &mut pool,
    )
    .expect("decodes");
    let held: Vec<*const u8> = batch.ops().iter().flat_map(op_path_ptrs).collect();
    NetMessage::decode_execute_batch_into(
        &NetMessage::encode_execute_batch(1, &second),
        &mut batch,
        &mut pool,
    )
    .expect("decodes");
    assert_eq!(batch, second);
    for ptr in batch.ops().iter().flat_map(op_path_ptrs) {
        assert!(held.contains(&ptr), "a path was allocated afresh");
    }
    assert!(pool.is_empty(), "three paths back, three taken");
}

fn op_path_ptrs(op: &MetadataOp) -> Vec<*const u8> {
    match op {
        MetadataOp::Create(key) | MetadataOp::Lookup(key) | MetadataOp::Remove(key) => {
            vec![key.path().as_ptr()]
        }
        MetadataOp::Rename { from, to } => vec![from.path().as_ptr(), to.path().as_ptr()],
    }
}

/// Each corruption mid-batch fails the pooled decode with the error
/// `NetMessage::decode` returns: a bad fingerprint, bad UTF-8, a
/// trailing byte, an unknown op tag.
#[test]
fn pooled_decode_fails_like_decode() {
    let mut batch = OpBatch::new().with_entry(EntryPolicy::Random);
    batch.push_lookup("/ok/a");
    batch.push_create("/ok/b");
    batch.push_lookup("/ok/c");
    let clean = NetMessage::encode_execute_batch(9, &batch);
    // tag + seq + policy + count, then per op: tag, u32 len, path, 16 lane bytes.
    let second_op = 1 + 8 + 1 + 4 + (1 + 4 + 5 + 16);
    let mut bad_fp = clean.clone();
    bad_fp[second_op + 1 + 4 + 5] ^= 1;
    let mut bad_utf8 = clean.clone();
    bad_utf8[second_op + 1 + 4] = 0xFF;
    let mut trailing = clean.clone();
    trailing.push(0);
    let mut bad_tag = clean.clone();
    bad_tag[second_op] = 9;
    let cases = [
        (bad_fp, "CorruptFingerprint"),
        (bad_utf8, "BadUtf8"),
        (trailing, "TrailingBytes"),
        (bad_tag, "UnknownEnum"),
    ];
    for (payload, variant) in &cases {
        let plain = NetMessage::decode(payload).expect_err(variant);
        assert!(
            format!("{plain:?}").starts_with(variant),
            "decode gave {plain:?}"
        );
    }
    // One kept batch and pool across the clean and the corrupt frames.
    let mut payloads = vec![clean];
    payloads.extend(cases.into_iter().map(|(payload, _)| payload));
    check_pooled_decode(&payloads);
}
