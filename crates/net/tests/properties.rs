//! Property tests for the wire codec, read the way the sockets read:
//! every frame goes through `wire::read_payload_into`, the one frame
//! reader, and its payload is decoded in a replica connection's order —
//! into one kept batch (`NetMessage::decode_execute_batch_into`), else
//! `NetMessage::decode`. Arbitrary `OpBatch`es (renames and empty
//! batches included) survive the round trip exactly, and nothing panics
//! on malformed bytes — truncations, single-byte corruption, random
//! garbage; a truncated stream fails as the module docs of `wire` say.
//! The in-place writers and the kept-batch decoder are held to the plain
//! ones: the frame a wave writes from its borrowed batch is the frame of
//! the materialised sub-batch, and the decode of a frame sequence into
//! one kept batch is `NetMessage::decode`'s, errors included. Paths span
//! 1–64 bytes with non-ASCII characters, on both sides of the inline
//! capacity.

#[path = "../../core/tests/paths/mod.rs"]
mod paths;

use paths::path_of;
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

use ghba_core::{EntryPolicy, GhbaConfig, MdsId, MetadataOp, OpBatch, OpOutcome, PathKey};
use ghba_net::proto::NetMessage;
use ghba_net::wire::{close_frame, open_frame, read_payload_into, WireError};
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

/// A path of 1–64 bytes: free-form characters (up to 21, of one to
/// three bytes), or a file id's sized path (a sixteenth of them exactly
/// at the inline capacity, another sixteenth one byte over).
fn arb_path() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z0-9/._ é€-]{1,21}",
        (0u64..100_000).prop_map(|id| path_of("w", id as u32)),
    ]
}

fn arb_op() -> impl Strategy<Value = MetadataOp> {
    prop_oneof![
        arb_path().prop_map(|p| MetadataOp::Create(PathKey::new(p))),
        arb_path().prop_map(|p| MetadataOp::Lookup(PathKey::new(p))),
        arb_path().prop_map(|p| MetadataOp::Remove(PathKey::new(p))),
        (arb_path(), arb_path()).prop_map(|(from, to)| MetadataOp::Rename {
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

/// A dozen file names: 0 is exactly at the inline capacity, 1 one byte
/// over.
fn pool_name(i: u64) -> String {
    path_of("pool", i as u32)
}

fn pool_batch(policy: EntryPolicy, ops: &[(u64, u64, u64)]) -> OpBatch {
    let name = pool_name;
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
            NetMessage::encode_execute_frame_into(frame, seq, batch, list.iter().copied())?;
            let sub = materialize(batch, list);
            assert_eq!(
                frame.as_slice(),
                framed(&NetMessage::ExecuteBatch {
                    seq,
                    batch: sub.clone()
                }),
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

/// The frame of `msg`.
fn framed(msg: &NetMessage) -> Vec<u8> {
    let mut frame = Vec::new();
    msg.encode_frame_into(&mut frame).expect("fits one frame");
    frame
}

/// `payloads`, each framed as it is (valid or not), back to back.
fn stream_of(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut frame = Vec::new();
    for payload in payloads {
        let (mut w, len) = open_frame(&mut frame);
        w.bytes(payload);
        close_frame(w, len).expect("fits one frame");
        bytes.extend_from_slice(&frame);
    }
    bytes
}

/// One frame off the front of `stream`, read the way a replica's
/// connection reads it: `read_payload_into` (the outer error; `None` at a
/// clean end of stream), then the payload decoded into the kept `batch`
/// by `decode_execute_batch_into`, or by `decode` for any other message
/// (the inner result). The kept-batch decode must equal
/// `NetMessage::decode`'s of the same payload: the same batch and `seq`,
/// or the same error.
fn serve_read(
    stream: &mut &[u8],
    payload: &mut Vec<u8>,
    batch: &mut OpBatch,
) -> Result<Option<Result<NetMessage, WireError>>, WireError> {
    if !read_payload_into(stream, payload)? {
        return Ok(None);
    }
    let plain = NetMessage::decode(payload);
    let decoded = match (NetMessage::decode_execute_batch_into(payload, batch), plain) {
        (Ok(None), plain) => {
            assert!(
                !matches!(plain, Ok(NetMessage::ExecuteBatch { .. })),
                "the kept batch passed over {plain:?}"
            );
            plain
        }
        (Ok(Some(seq)), Ok(plain)) => {
            let kept = NetMessage::ExecuteBatch {
                seq,
                batch: batch.clone(),
            };
            assert_eq!(kept, plain);
            Ok(kept)
        }
        (Err(kept), Err(plain)) => {
            assert_eq!(kept.to_string(), plain.to_string());
            Err(kept)
        }
        (kept, plain) => panic!("decode gave {plain:?}, the kept batch {kept:?}"),
    };
    Ok(Some(decoded))
}

/// Every frame of `stream` through [`serve_read`] with one kept batch,
/// until a clean end of stream or a framing error (a frame whose payload
/// does not decode was still read whole, so the read goes on): each
/// frame's decode, and how the stream ended.
fn read_stream(mut stream: &[u8]) -> (Vec<Result<NetMessage, WireError>>, Result<(), WireError>) {
    let (mut payload, mut batch) = (Vec::new(), OpBatch::new());
    let mut read = Vec::new();
    loop {
        match serve_read(&mut stream, &mut payload, &mut batch) {
            Ok(Some(decoded)) => read.push(decoded),
            Ok(None) => return (read, Ok(())),
            Err(err) => return (read, Err(err)),
        }
    }
}

/// The one message `frame` holds, read and decoded as a replica does.
fn read_back(frame: &[u8]) -> NetMessage {
    let (mut read, end) = read_stream(frame);
    end.expect("the stream ends cleanly");
    assert_eq!(read.len(), 1, "one frame");
    read.remove(0).expect("the frame decodes")
}

/// The `ExecuteBatch` payload of `batch` under `seq`.
fn execute_payload(seq: u64, batch: OpBatch) -> Vec<u8> {
    NetMessage::ExecuteBatch { seq, batch }.encode()
}

fn batch_of(policy: EntryPolicy, ops: Vec<MetadataOp>) -> OpBatch {
    let mut batch = OpBatch::new().with_entry(policy);
    for op in ops {
        batch.push(op);
    }
    batch
}

/// `payloads` framed and read through one kept batch: every frame is
/// read whole and decodes as `NetMessage::decode` decodes it.
fn check_kept_batch_decode(payloads: &[Vec<u8>]) {
    let (read, end) = read_stream(&stream_of(payloads));
    end.expect("the stream ends cleanly");
    assert_eq!(read.len(), payloads.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any batch — any policy, any op mix including renames, empty
    /// included — crosses the wire bit-exactly.
    #[test]
    fn arbitrary_batches_round_trip(input in arb_batch(), seq in proptest::prelude::any::<u64>()) {
        let (policy, ops) = input;
        let msg = NetMessage::ExecuteBatch { seq, batch: batch_of(policy, ops) };
        prop_assert_eq!(read_back(&framed(&msg)), msg);
    }

    /// A valid frame cut at any point fails as the wire's contract says:
    /// a cut at 0 is a clean end of stream, a cut inside the length
    /// prefix is `Truncated`, a cut after it the transport's
    /// `UnexpectedEof` — never a panic and never a bogus decode.
    #[test]
    fn truncations_fail_typed(input in arb_batch(), cut in proptest::prelude::any::<u64>()) {
        let (policy, ops) = input;
        let frame = framed(&NetMessage::ExecuteBatch { seq: 1, batch: batch_of(policy, ops) });
        let cut = (cut as usize) % frame.len();
        let (read, end) = read_stream(&frame[..cut]);
        prop_assert!(read.is_empty(), "a frame cut to {cut} of {} bytes must not read", frame.len());
        match cut {
            0 => prop_assert!(end.is_ok(), "cut at 0: {end:?}"),
            1..=3 => prop_assert!(
                matches!(end, Err(WireError::Truncated { needed: 4, available }) if available == cut),
                "cut at {cut}: {end:?}"
            ),
            _ => prop_assert!(
                matches!(end, Err(WireError::Io(ref e)) if e.kind() == std::io::ErrorKind::UnexpectedEof),
                "cut at {cut}: {end:?}"
            ),
        }
    }

    /// Random bytes never panic the reader or either decoder: read as a
    /// stream, framed as a payload, and framed behind an `ExecuteBatch`
    /// tag (so the kept-batch decoder reads them), every outcome is a
    /// clean `Ok` or a typed `WireError`, and both decoders agree.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256)) {
        let _ = read_stream(&bytes);
        let mut payloads = vec![execute_payload(0, OpBatch::new())[..1].to_vec()];
        payloads[0].extend_from_slice(&bytes);
        if !bytes.is_empty() {
            // (An empty payload has no tag: a runt frame.)
            payloads.push(bytes);
        }
        let (read, end) = read_stream(&stream_of(&payloads));
        prop_assert!(end.is_ok(), "framed payloads read whole: {end:?}");
        prop_assert_eq!(read.len(), payloads.len());
    }

    /// Flipping any single bit of a valid frame never panics the reader
    /// or either decoder, and both decoders agree on what it holds.
    #[test]
    fn single_byte_corruption_never_panics(input in arb_batch(), flip in proptest::prelude::any::<u64>()) {
        let (policy, ops) = input;
        let mut bytes = framed(&NetMessage::ExecuteBatch { seq: 2, batch: batch_of(policy, ops) });
        let index = (flip as usize) % bytes.len();
        bytes[index] ^= 1 << (flip % 8);
        let _ = read_stream(&bytes);
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
        prop_assert_eq!(read_back(&framed(&msg)), msg);
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
            setup.push_create(pool_name(i));
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

    /// Random sequences of batches decode through one kept batch
    /// exactly as `NetMessage::decode` decodes them.
    #[test]
    fn kept_batch_decode_matches_decode(batches in proptest::collection::vec(arb_pool_ops(), 1..6)) {
        let payloads: Vec<Vec<u8>> = batches
            .iter()
            .enumerate()
            .map(|(seq, ops)| {
                execute_payload(seq as u64, pool_batch(EntryPolicy::Random, ops))
            })
            .collect();
        check_kept_batch_decode(&payloads);
    }
}

/// A long path then short ones, a rename after lookups, a rename from a
/// path at the inline capacity to one a byte over, an empty batch and
/// other messages between batches, through one kept batch.
#[test]
fn kept_batch_decode_of_a_frame_sequence_matches_decode() {
    let mut long = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 2 });
    long.push_create(format!("/long/{}", "x".repeat(300)));
    long.push_lookup("/long/a");
    let mut short = OpBatch::new().with_entry(EntryPolicy::Pinned(MdsId(1)));
    short.push_lookup("/s");
    short.push_lookup("/t");
    short.push_rename("/s", "/u");
    short.push_rename(pool_name(0), pool_name(1));
    let payloads = vec![
        execute_payload(1, long.clone()),
        NetMessage::Ping { nonce: 5 }.encode(),
        execute_payload(2, short),
        execute_payload(3, OpBatch::new()),
        NetMessage::Drain.encode(),
        execute_payload(4, long),
    ];
    check_kept_batch_decode(&payloads);
}

/// Each corruption mid-batch fails the kept-batch decode with the error
/// `NetMessage::decode` returns: a bad fingerprint, bad UTF-8, a
/// trailing byte, an unknown op tag.
#[test]
fn kept_batch_decode_fails_like_decode() {
    let mut batch = OpBatch::new().with_entry(EntryPolicy::Random);
    batch.push_lookup("/ok/a");
    batch.push_create("/ok/b");
    batch.push_lookup("/ok/c");
    let clean = execute_payload(9, batch);
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
    // One kept batch across the clean and the corrupt frames.
    let mut payloads = vec![clean];
    payloads.extend(cases.into_iter().map(|(payload, _)| payload));
    check_kept_batch_decode(&payloads);
}
