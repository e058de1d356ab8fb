//! Golden-file compatibility test for the binary wire format.
//!
//! The checked-in fixture (`tests/data/frames.bin`) freezes wire
//! version 1: a concatenated sequence of frames covering every message
//! tag, every `MetadataOp` variant (`Rename` included), an empty
//! batch, a unicode pathname, and every `OpOutcome` shape. Any future
//! touch of the codec must keep these bytes parsing — and re-encoding
//! — **byte-identically**; a change that breaks this test breaks every
//! peer already deployed on version 1.
//!
//! Regenerate (only alongside a deliberate `WIRE_VERSION` bump):
//! `cargo test -p ghba-net --test golden -- --ignored regenerate`.

use std::time::Duration;

use ghba_bloom::Fingerprint;
use ghba_core::{
    EntryPolicy, MdsId, MembershipEpoch, OpBatch, OpOutcome, QueryLevel, QueryOutcome,
};
use ghba_net::proto::NetMessage;
use ghba_net::wire::Frame;

const GOLDEN: &[u8] = include_bytes!("data/frames.bin");

/// The frozen message sequence the fixture encodes.
fn canonical_messages() -> Vec<NetMessage> {
    let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 5 });
    batch.push_lookup("/projects/ghba/paper.tex");
    batch.push_create("/projects/ghba/κεφάλαιο-δύο.tex");
    batch.push_remove("/tmp/scratch");
    batch.push_rename("/projects/ghba/draft", "/archive/ghba/draft-2008");
    vec![
        NetMessage::RegisterReplica {
            replica: 3,
            addr: "127.0.0.1:47113".to_string(),
        },
        NetMessage::RegisterAck { epoch: 4 },
        NetMessage::FetchMap,
        NetMessage::MapReply {
            epoch: 4,
            replicas: vec![
                (0, "127.0.0.1:9000".to_string()),
                (3, "127.0.0.1:47113".to_string()),
            ],
        },
        NetMessage::ExecuteBatch { seq: 99, batch },
        NetMessage::ExecuteBatch {
            seq: 100,
            batch: OpBatch::new().with_entry(EntryPolicy::Pinned(MdsId(7))),
        },
        NetMessage::BatchReply {
            seq: 99,
            outcomes: vec![
                OpOutcome::Resolved(QueryOutcome {
                    home: Some(MdsId(2)),
                    level: QueryLevel::L2Segment,
                    latency: Duration::from_nanos(1_250_000),
                    messages: 3,
                    entry: MdsId(5),
                    epoch: MembershipEpoch(2),
                }),
                OpOutcome::Created { home: MdsId(6) },
                OpOutcome::Removed { home: None },
                OpOutcome::Renamed {
                    old_home: Some(MdsId(1)),
                    new_home: Some(MdsId(0)),
                },
            ],
        },
        NetMessage::Gossip {
            epoch: 7,
            members: vec![MdsId(0), MdsId(1), MdsId(2), MdsId(3)],
        },
        NetMessage::GroupProbe {
            qid: 41,
            fp: Fingerprint::of("/projects/ghba/paper.tex"),
        },
        NetMessage::ProbeReply {
            qid: 41,
            replica: 3,
            positives: vec![MdsId(2), MdsId(5)],
        },
        NetMessage::Drain,
        NetMessage::DrainAck {
            drained: 17,
            pending: 0,
        },
        NetMessage::Stats,
        NetMessage::StatsReply {
            pending: 2,
            batches_served: 101,
            gossip_epoch: 7,
        },
        NetMessage::Ping { nonce: 0xDEAD_BEEF },
        NetMessage::Pong { nonce: 0xDEAD_BEEF },
        NetMessage::Shutdown,
        NetMessage::ErrorReply {
            code: 405,
            detail: "rendezvous does not serve Drain".to_string(),
        },
    ]
}

fn encode_all(messages: &[NetMessage]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for msg in messages {
        bytes.extend_from_slice(msg.to_frame().bytes());
    }
    bytes
}

#[test]
fn golden_bytes_decode_to_the_canonical_messages() {
    let expected = canonical_messages();
    let mut decoded = Vec::new();
    let mut rest = GOLDEN;
    while !rest.is_empty() {
        let (msg, consumed) = NetMessage::parse_frame(rest).expect("golden frame parses");
        decoded.push(msg);
        rest = &rest[consumed..];
    }
    assert_eq!(decoded, expected);
}

#[test]
fn canonical_messages_reencode_byte_identically() {
    assert_eq!(
        encode_all(&canonical_messages()),
        GOLDEN,
        "re-encoding the canonical messages must reproduce the fixture byte for byte; \
         if the format changed deliberately, bump WIRE_VERSION and regenerate"
    );
}

/// The in-place frame writer reproduces `Frame::from_payload` over the
/// payload, message by message, in one reused buffer.
#[test]
fn encode_frame_into_matches_the_framed_payload() {
    let mut frame = Vec::new();
    for msg in canonical_messages() {
        msg.encode_frame_into(&mut frame);
        assert_eq!(frame, Frame::from_payload(&msg.encode()).bytes(), "{msg:?}");
        assert_eq!(frame, msg.to_frame().bytes(), "{msg:?}");
    }
}

#[test]
fn golden_stream_reads_through_the_codec() {
    // The same bytes, consumed through the stream reader (BufReader
    // semantics, clean EOF at the end).
    let mut reader = GOLDEN;
    let mut decoded = Vec::new();
    while let Some(msg) = NetMessage::read_from(&mut reader).expect("stream reads") {
        decoded.push(msg);
    }
    assert_eq!(decoded, canonical_messages());
}

/// Writes the fixture. Run only alongside a deliberate format change.
#[test]
#[ignore = "regenerates the checked-in fixture"]
fn regenerate() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/frames.bin");
    std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
    std::fs::write(path, encode_all(&canonical_messages())).unwrap();
}
