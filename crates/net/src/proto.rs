//! The versioned, typed message set carried by [`crate::wire`] frames.
//!
//! One [`NetMessage`] enum covers the whole deployment:
//!
//! * **Discovery** — replicas [`RegisterReplica`] with the rendezvous
//!   service and clients [`FetchMap`] the membership map plus its
//!   epoch ([`MapReply`]);
//! * **Serving** — clients ship [`ExecuteBatch`] frames carrying whole
//!   [`OpBatch`]es (every [`MetadataOp`] variant encodes explicitly,
//!   `Rename` included) and receive [`BatchReply`] frames carrying one
//!   [`OpOutcome`] per op, `Resolved` outcomes complete with level,
//!   latency, message count, and pinned epoch;
//! * **Gossip** — [`Gossip`] frames announce a membership view and its
//!   epoch to peers;
//! * **Group probes** — [`GroupProbe`] multicasts a bare fingerprint
//!   (the hash-once admission fingerprint travels as its two lanes;
//!   the path bytes stay home) and [`ProbeReply`] returns the servers
//!   whose published filters claim it;
//! * **Control** — [`Drain`] forces a replica's reconciliation +
//!   publish flush (a barrier for tests and orderly shutdown),
//!   [`Stats`] samples a replica's counters, [`Ping`]/[`Pong`] probe
//!   liveness, [`Shutdown`] stops a server remotely.
//!
//! `PathKey`s travel as pathname **plus** fingerprint lanes and are
//! re-verified on decode ([`PathKey::from_parts`]): a flipped bit in
//! either half is a [`WireError::CorruptFingerprint`], not a silently
//! mis-probing key.
//!
//! [`RegisterReplica`]: NetMessage::RegisterReplica
//! [`FetchMap`]: NetMessage::FetchMap
//! [`MapReply`]: NetMessage::MapReply
//! [`ExecuteBatch`]: NetMessage::ExecuteBatch
//! [`BatchReply`]: NetMessage::BatchReply
//! [`Gossip`]: NetMessage::Gossip
//! [`GroupProbe`]: NetMessage::GroupProbe
//! [`ProbeReply`]: NetMessage::ProbeReply
//! [`Drain`]: NetMessage::Drain
//! [`Stats`]: NetMessage::Stats
//! [`Ping`]: NetMessage::Ping
//! [`Pong`]: NetMessage::Pong
//! [`Shutdown`]: NetMessage::Shutdown

use std::io::{Read, Write};
use std::time::Duration;

use ghba_bloom::Fingerprint;
use ghba_core::{
    EntryPolicy, MdsId, MembershipEpoch, MetadataOp, OpBatch, OpOutcome, PathKey, QueryLevel,
    QueryOutcome,
};

use crate::route::{split_halves, Pick};
use crate::wire::{ByteReader, ByteWriter, Frame, WireCodec, WireError};

/// Every message of wire version 1.
#[derive(Debug, Clone, PartialEq)]
pub enum NetMessage {
    /// Replica → rendezvous: "I serve shard `replica` at `addr`".
    RegisterReplica {
        /// The replica's shard index in the fleet.
        replica: u16,
        /// Its `host:port` serving address.
        addr: String,
    },
    /// Rendezvous → replica: registration accepted; the membership
    /// epoch after the insert.
    RegisterAck {
        /// Epoch after this registration.
        epoch: u64,
    },
    /// Client → rendezvous: fetch the membership map.
    FetchMap,
    /// Rendezvous → client: the registered fleet and its epoch.
    MapReply {
        /// Current membership epoch (bumps on every registration).
        epoch: u64,
        /// `(shard index, host:port)` for every registered replica.
        replicas: Vec<(u16, String)>,
    },
    /// Client → replica: execute an [`OpBatch`] through the pin-once
    /// pipeline.
    ExecuteBatch {
        /// Client-chosen sequence number, echoed in the reply.
        seq: u64,
        /// The batch (policy + typed ops, fingerprints verified on
        /// decode).
        batch: OpBatch,
    },
    /// Replica → client: the batch's outcomes, one per op in order.
    BatchReply {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Per-op outcomes.
        outcomes: Vec<OpOutcome>,
    },
    /// Peer → replica: a membership view and its epoch. A replica
    /// adopts the view iff the epoch is newer than what it holds.
    Gossip {
        /// The announced epoch.
        epoch: u64,
        /// The announced live server set.
        members: Vec<MdsId>,
    },
    /// Client → replica (multicast): "which of your servers' published
    /// filters claim this fingerprint?" The pathname never travels.
    GroupProbe {
        /// Correlation id echoed in the reply.
        qid: u64,
        /// The admission fingerprint, as its two lanes.
        fp: Fingerprint,
    },
    /// Replica → client: the probe's positive servers.
    ProbeReply {
        /// Echo of the probe's correlation id.
        qid: u64,
        /// The answering replica's shard index.
        replica: u16,
        /// Servers whose published filter claims the fingerprint
        /// (Bloom semantics: false positives possible, negatives
        /// authoritative).
        positives: Vec<MdsId>,
    },
    /// Client → replica: drain the concurrent shard logs and flush all
    /// pending filter publishes — the barrier every phase boundary of
    /// the end-to-end tests stands on.
    Drain,
    /// Replica → client: drain finished.
    DrainAck {
        /// Write records reconciled by this drain.
        drained: u64,
        /// Records still pending after it (always 0 today).
        pending: u64,
    },
    /// Client → replica: sample counters without perturbing anything.
    Stats,
    /// Replica → client: the sample.
    StatsReply {
        /// Write records currently awaiting reconciliation.
        pending: u64,
        /// Batches served since startup.
        batches_served: u64,
        /// Newest epoch adopted from [`NetMessage::Gossip`] (0 if
        /// none).
        gossip_epoch: u64,
    },
    /// Liveness probe.
    Ping {
        /// Echoed verbatim.
        nonce: u64,
    },
    /// Liveness answer.
    Pong {
        /// Echo of the probe's nonce.
        nonce: u64,
    },
    /// Stop the receiving server (rendezvous or replica) remotely.
    Shutdown,
    /// Any-direction: the peer rejected a request.
    ErrorReply {
        /// Machine-readable code (see server docs).
        code: u16,
        /// Human-readable detail.
        detail: String,
    },
}

mod tags {
    pub const REGISTER_REPLICA: u8 = 1;
    pub const REGISTER_ACK: u8 = 2;
    pub const FETCH_MAP: u8 = 3;
    pub const MAP_REPLY: u8 = 4;
    pub const EXECUTE_BATCH: u8 = 5;
    pub const BATCH_REPLY: u8 = 6;
    pub const GOSSIP: u8 = 7;
    pub const GROUP_PROBE: u8 = 8;
    pub const PROBE_REPLY: u8 = 9;
    pub const DRAIN: u8 = 10;
    pub const DRAIN_ACK: u8 = 11;
    pub const STATS: u8 = 12;
    pub const STATS_REPLY: u8 = 13;
    pub const PING: u8 = 14;
    pub const PONG: u8 = 15;
    pub const SHUTDOWN: u8 = 16;
    pub const ERROR_REPLY: u8 = 17;
}

/// [`MetadataOp`] discriminants inside an `ExecuteBatch` body.
mod op_tags {
    pub const CREATE: u8 = 0;
    pub const LOOKUP: u8 = 1;
    pub const REMOVE: u8 = 2;
    pub const RENAME: u8 = 3;
}

fn put_mds(w: &mut ByteWriter<'_>, id: MdsId) {
    w.u16(id.0);
}

fn get_mds(r: &mut ByteReader<'_>) -> Result<MdsId, WireError> {
    Ok(MdsId(r.u16()?))
}

fn put_mds_list(w: &mut ByteWriter<'_>, ids: &[MdsId]) {
    w.u32(ids.len() as u32);
    for &id in ids {
        put_mds(w, id);
    }
}

fn get_mds_list(r: &mut ByteReader<'_>) -> Result<Vec<MdsId>, WireError> {
    let n = r.u32()? as usize;
    let mut ids = Vec::with_capacity(n.min(4_096));
    for _ in 0..n {
        ids.push(get_mds(r)?);
    }
    Ok(ids)
}

fn put_fingerprint(w: &mut ByteWriter<'_>, fp: &Fingerprint) {
    let (a, b) = fp.lanes();
    w.u64(a);
    w.u64(b);
}

fn get_fingerprint(r: &mut ByteReader<'_>) -> Result<Fingerprint, WireError> {
    let a = r.u64()?;
    let b = r.u64()?;
    Ok(Fingerprint::from_lanes(a, b))
}

fn put_path_key(w: &mut ByteWriter<'_>, key: &PathKey) {
    w.string(key.path());
    put_fingerprint(w, key.fingerprint());
}

/// Decodes a key whose path `String` comes from `pool` when it holds
/// one: cleared, then filled from the frame's UTF-8-checked bytes. The
/// path is still re-hashed against the fingerprint that travelled.
fn get_path_key(r: &mut ByteReader<'_>, pool: &mut Vec<String>) -> Result<PathKey, WireError> {
    let path = r.str_ref()?;
    let fp = get_fingerprint(r)?;
    let owned = match pool.pop() {
        Some(mut owned) => {
            owned.clear();
            owned.push_str(path);
            owned
        }
        None => path.to_owned(),
    };
    PathKey::from_parts(owned, fp).map_err(|path| WireError::CorruptFingerprint { path })
}

fn put_entry_policy(w: &mut ByteWriter<'_>, policy: EntryPolicy) {
    match policy {
        EntryPolicy::Random => w.u8(0),
        EntryPolicy::Pinned(id) => {
            w.u8(1);
            put_mds(w, id);
        }
        EntryPolicy::RoundRobin { start } => {
            w.u8(2);
            w.u64(start as u64);
        }
    }
}

fn get_entry_policy(r: &mut ByteReader<'_>) -> Result<EntryPolicy, WireError> {
    match r.u8()? {
        0 => Ok(EntryPolicy::Random),
        1 => Ok(EntryPolicy::Pinned(get_mds(r)?)),
        2 => Ok(EntryPolicy::RoundRobin {
            start: r.u64()? as usize,
        }),
        value => Err(WireError::UnknownEnum {
            what: "EntryPolicy",
            value,
        }),
    }
}

fn put_keyed(w: &mut ByteWriter<'_>, tag: u8, key: &PathKey) {
    w.u8(tag);
    put_path_key(w, key);
}

/// Encodes the op `pick` names in `ops`: the op itself, or one half of
/// a split rename as the `Remove` / `Create` it stands for.
fn put_pick(w: &mut ByteWriter<'_>, ops: &[MetadataOp], pick: Pick) {
    match pick {
        Pick::Op(i) => match &ops[i] {
            MetadataOp::Create(key) => put_keyed(w, op_tags::CREATE, key),
            MetadataOp::Lookup(key) => put_keyed(w, op_tags::LOOKUP, key),
            MetadataOp::Remove(key) => put_keyed(w, op_tags::REMOVE, key),
            MetadataOp::Rename { from, to } => {
                put_keyed(w, op_tags::RENAME, from);
                put_path_key(w, to);
            }
        },
        Pick::RemoveFrom(i) => put_keyed(w, op_tags::REMOVE, split_halves(&ops[i]).0),
        Pick::CreateTo(i) => put_keyed(w, op_tags::CREATE, split_halves(&ops[i]).1),
    }
}

fn get_op(r: &mut ByteReader<'_>, pool: &mut Vec<String>) -> Result<MetadataOp, WireError> {
    match r.u8()? {
        op_tags::CREATE => Ok(MetadataOp::Create(get_path_key(r, pool)?)),
        op_tags::LOOKUP => Ok(MetadataOp::Lookup(get_path_key(r, pool)?)),
        op_tags::REMOVE => Ok(MetadataOp::Remove(get_path_key(r, pool)?)),
        op_tags::RENAME => Ok(MetadataOp::Rename {
            from: get_path_key(r, pool)?,
            to: get_path_key(r, pool)?,
        }),
        value => Err(WireError::UnknownEnum {
            what: "MetadataOp",
            value,
        }),
    }
}

/// The one `ExecuteBatch` writer: tag, seq, `batch`'s policy, then the
/// ops `picks` names, borrowed from `batch`.
fn put_execute_batch(
    w: &mut ByteWriter<'_>,
    seq: u64,
    batch: &OpBatch,
    picks: impl ExactSizeIterator<Item = Pick>,
) {
    w.u8(tags::EXECUTE_BATCH);
    w.u64(seq);
    put_entry_policy(w, batch.entry_policy());
    w.u32(picks.len() as u32);
    for pick in picks {
        put_pick(w, batch.ops(), pick);
    }
}

/// An `ExecuteBatch` body after the tag, up to its ops: `(seq, policy,
/// op count)`.
fn get_execute_header(r: &mut ByteReader<'_>) -> Result<(u64, EntryPolicy, usize), WireError> {
    Ok((r.u64()?, get_entry_policy(r)?, r.u32()? as usize))
}

/// Decodes `n` ops onto `batch`, their paths' `String`s taken from
/// `pool` while it holds one.
fn get_ops(
    r: &mut ByteReader<'_>,
    n: usize,
    batch: &mut OpBatch,
    pool: &mut Vec<String>,
) -> Result<(), WireError> {
    for _ in 0..n {
        batch.push(get_op(r, pool)?);
    }
    Ok(())
}

fn put_level(w: &mut ByteWriter<'_>, level: QueryLevel) {
    w.u8(match level {
        QueryLevel::L1Lru => 0,
        QueryLevel::L2Segment => 1,
        QueryLevel::L3Group => 2,
        QueryLevel::L4Global => 3,
        QueryLevel::Nonexistent => 4,
    });
}

fn get_level(r: &mut ByteReader<'_>) -> Result<QueryLevel, WireError> {
    match r.u8()? {
        0 => Ok(QueryLevel::L1Lru),
        1 => Ok(QueryLevel::L2Segment),
        2 => Ok(QueryLevel::L3Group),
        3 => Ok(QueryLevel::L4Global),
        4 => Ok(QueryLevel::Nonexistent),
        value => Err(WireError::UnknownEnum {
            what: "QueryLevel",
            value,
        }),
    }
}

fn put_opt_mds(w: &mut ByteWriter<'_>, id: Option<MdsId>) {
    match id {
        None => w.u8(0),
        Some(id) => {
            w.u8(1);
            put_mds(w, id);
        }
    }
}

fn get_opt_mds(r: &mut ByteReader<'_>) -> Result<Option<MdsId>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(get_mds(r)?)),
        value => Err(WireError::UnknownEnum {
            what: "Option<MdsId>",
            value,
        }),
    }
}

fn put_query_outcome(w: &mut ByteWriter<'_>, q: &QueryOutcome) {
    put_opt_mds(w, q.home);
    put_level(w, q.level);
    // Nanosecond precision covers every simulated latency the models
    // emit (u64 nanoseconds spans ~584 years).
    w.u64(q.latency.as_nanos().min(u128::from(u64::MAX)) as u64);
    w.u32(q.messages);
    put_mds(w, q.entry);
    w.u64(q.epoch.0);
}

fn get_query_outcome(r: &mut ByteReader<'_>) -> Result<QueryOutcome, WireError> {
    Ok(QueryOutcome {
        home: get_opt_mds(r)?,
        level: get_level(r)?,
        latency: Duration::from_nanos(r.u64()?),
        messages: r.u32()?,
        entry: get_mds(r)?,
        epoch: MembershipEpoch(r.u64()?),
    })
}

fn put_outcome(w: &mut ByteWriter<'_>, outcome: &OpOutcome) {
    match outcome {
        OpOutcome::Created { home } => {
            w.u8(0);
            put_mds(w, *home);
        }
        OpOutcome::Resolved(q) => {
            w.u8(1);
            put_query_outcome(w, q);
        }
        OpOutcome::Removed { home } => {
            w.u8(2);
            put_opt_mds(w, *home);
        }
        OpOutcome::Renamed { old_home, new_home } => {
            w.u8(3);
            put_opt_mds(w, *old_home);
            put_opt_mds(w, *new_home);
        }
    }
}

fn get_outcome(r: &mut ByteReader<'_>) -> Result<OpOutcome, WireError> {
    match r.u8()? {
        0 => Ok(OpOutcome::Created { home: get_mds(r)? }),
        1 => Ok(OpOutcome::Resolved(get_query_outcome(r)?)),
        2 => Ok(OpOutcome::Removed {
            home: get_opt_mds(r)?,
        }),
        3 => Ok(OpOutcome::Renamed {
            old_home: get_opt_mds(r)?,
            new_home: get_opt_mds(r)?,
        }),
        value => Err(WireError::UnknownEnum {
            what: "OpOutcome",
            value,
        }),
    }
}

/// The one message writer behind [`NetMessage::encode`] and
/// [`NetMessage::encode_frame_into`]: tag byte + body.
fn put_message(w: &mut ByteWriter<'_>, msg: &NetMessage) {
    match msg {
        NetMessage::RegisterReplica { replica, addr } => {
            w.u8(tags::REGISTER_REPLICA);
            w.u16(*replica);
            w.string(addr);
        }
        NetMessage::RegisterAck { epoch } => {
            w.u8(tags::REGISTER_ACK);
            w.u64(*epoch);
        }
        NetMessage::FetchMap => w.u8(tags::FETCH_MAP),
        NetMessage::MapReply { epoch, replicas } => {
            w.u8(tags::MAP_REPLY);
            w.u64(*epoch);
            w.u32(replicas.len() as u32);
            for (index, addr) in replicas {
                w.u16(*index);
                w.string(addr);
            }
        }
        NetMessage::ExecuteBatch { seq, batch } => {
            put_execute_batch(w, *seq, batch, (0..batch.len()).map(Pick::Op))
        }
        NetMessage::BatchReply { seq, outcomes } => {
            w.u8(tags::BATCH_REPLY);
            w.u64(*seq);
            w.u32(outcomes.len() as u32);
            for outcome in outcomes {
                put_outcome(w, outcome);
            }
        }
        NetMessage::Gossip { epoch, members } => {
            w.u8(tags::GOSSIP);
            w.u64(*epoch);
            put_mds_list(w, members);
        }
        NetMessage::GroupProbe { qid, fp } => {
            w.u8(tags::GROUP_PROBE);
            w.u64(*qid);
            put_fingerprint(w, fp);
        }
        NetMessage::ProbeReply {
            qid,
            replica,
            positives,
        } => {
            w.u8(tags::PROBE_REPLY);
            w.u64(*qid);
            w.u16(*replica);
            put_mds_list(w, positives);
        }
        NetMessage::Drain => w.u8(tags::DRAIN),
        NetMessage::DrainAck { drained, pending } => {
            w.u8(tags::DRAIN_ACK);
            w.u64(*drained);
            w.u64(*pending);
        }
        NetMessage::Stats => w.u8(tags::STATS),
        NetMessage::StatsReply {
            pending,
            batches_served,
            gossip_epoch,
        } => {
            w.u8(tags::STATS_REPLY);
            w.u64(*pending);
            w.u64(*batches_served);
            w.u64(*gossip_epoch);
        }
        NetMessage::Ping { nonce } => {
            w.u8(tags::PING);
            w.u64(*nonce);
        }
        NetMessage::Pong { nonce } => {
            w.u8(tags::PONG);
            w.u64(*nonce);
        }
        NetMessage::Shutdown => w.u8(tags::SHUTDOWN),
        NetMessage::ErrorReply { code, detail } => {
            w.u8(tags::ERROR_REPLY);
            w.u16(*code);
            w.string(detail);
        }
    }
}

impl NetMessage {
    /// Encodes the message payload: tag byte + body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        put_message(&mut ByteWriter::new(&mut payload), self);
        payload
    }

    /// Encodes the message as one complete frame into `frame`, replacing
    /// its contents and keeping its allocation: the bytes of
    /// [`Frame::from_payload`] over [`encode`](NetMessage::encode)'s
    /// payload, written in place.
    pub fn encode_frame_into(&self, frame: &mut Vec<u8>) {
        let mut w = ByteWriter::open_frame(frame);
        put_message(&mut w, self);
        w.close_frame();
    }

    /// The payload [`encode`](NetMessage::encode) produces for
    /// [`NetMessage::ExecuteBatch`], from a **borrowed** batch: a sender
    /// that keeps its batch does not clone every path into a message
    /// just to serialise it.
    #[must_use]
    pub fn encode_execute_batch(seq: u64, batch: &OpBatch) -> Vec<u8> {
        let mut payload = Vec::new();
        put_execute_batch(
            &mut ByteWriter::new(&mut payload),
            seq,
            batch,
            (0..batch.len()).map(Pick::Op),
        );
        payload
    }

    /// Encodes the [`NetMessage::ExecuteBatch`] frame of the sub-batch
    /// `picks` names in `batch` (under `batch`'s policy) into `frame`,
    /// replacing its contents: the frame of the materialised sub-batch,
    /// without cloning a path into one.
    ///
    /// # Panics
    ///
    /// Panics if a pick names an op `batch` does not have, or a split
    /// half names an op that is not a rename.
    pub fn encode_execute_frame_into(
        frame: &mut Vec<u8>,
        seq: u64,
        batch: &OpBatch,
        picks: impl ExactSizeIterator<Item = Pick>,
    ) {
        let mut w = ByteWriter::open_frame(frame);
        put_execute_batch(&mut w, seq, batch, picks);
        w.close_frame();
    }

    /// Decodes an [`NetMessage::ExecuteBatch`] payload into `batch`,
    /// returning its `seq`, or `Ok(None)` (`batch` untouched) when the
    /// payload is another message. `batch`'s previous paths go back to
    /// `pool` first, and every decoded path's `String` is taken from
    /// `pool` while it holds one, so a connection that keeps both
    /// allocates no path buffer it already has. Every check of
    /// [`NetMessage::decode`] holds, with the same [`WireError`].
    pub fn decode_execute_batch_into(
        payload: &[u8],
        batch: &mut OpBatch,
        pool: &mut Vec<String>,
    ) -> Result<Option<u64>, WireError> {
        let mut r = ByteReader::new(payload);
        if r.u8()? != tags::EXECUTE_BATCH {
            return Ok(None);
        }
        batch.recycle_paths(pool);
        let (seq, policy, n) = get_execute_header(&mut r)?;
        *batch = std::mem::take(batch).with_entry(policy);
        get_ops(&mut r, n, batch, pool)?;
        r.finish()?;
        Ok(Some(seq))
    }

    /// Decodes one message from a frame payload (tag byte + body),
    /// verifying the body is fully consumed. Never panics; every
    /// malformed shape maps to a typed [`WireError`].
    pub fn decode(payload: &[u8]) -> Result<NetMessage, WireError> {
        let mut r = ByteReader::new(payload);
        let tag = r.u8()?;
        let msg = match tag {
            tags::REGISTER_REPLICA => NetMessage::RegisterReplica {
                replica: r.u16()?,
                addr: r.string()?,
            },
            tags::REGISTER_ACK => NetMessage::RegisterAck { epoch: r.u64()? },
            tags::FETCH_MAP => NetMessage::FetchMap,
            tags::MAP_REPLY => {
                let epoch = r.u64()?;
                let n = r.u32()? as usize;
                let mut replicas = Vec::with_capacity(n.min(4_096));
                for _ in 0..n {
                    replicas.push((r.u16()?, r.string()?));
                }
                NetMessage::MapReply { epoch, replicas }
            }
            tags::EXECUTE_BATCH => {
                let (seq, policy, n) = get_execute_header(&mut r)?;
                let mut batch = OpBatch::with_capacity(n.min(65_536)).with_entry(policy);
                get_ops(&mut r, n, &mut batch, &mut Vec::new())?;
                NetMessage::ExecuteBatch { seq, batch }
            }
            tags::BATCH_REPLY => {
                let seq = r.u64()?;
                let n = r.u32()? as usize;
                let mut outcomes = Vec::with_capacity(n.min(65_536));
                for _ in 0..n {
                    outcomes.push(get_outcome(&mut r)?);
                }
                NetMessage::BatchReply { seq, outcomes }
            }
            tags::GOSSIP => NetMessage::Gossip {
                epoch: r.u64()?,
                members: get_mds_list(&mut r)?,
            },
            tags::GROUP_PROBE => NetMessage::GroupProbe {
                qid: r.u64()?,
                fp: get_fingerprint(&mut r)?,
            },
            tags::PROBE_REPLY => NetMessage::ProbeReply {
                qid: r.u64()?,
                replica: r.u16()?,
                positives: get_mds_list(&mut r)?,
            },
            tags::DRAIN => NetMessage::Drain,
            tags::DRAIN_ACK => NetMessage::DrainAck {
                drained: r.u64()?,
                pending: r.u64()?,
            },
            tags::STATS => NetMessage::Stats,
            tags::STATS_REPLY => NetMessage::StatsReply {
                pending: r.u64()?,
                batches_served: r.u64()?,
                gossip_epoch: r.u64()?,
            },
            tags::PING => NetMessage::Ping { nonce: r.u64()? },
            tags::PONG => NetMessage::Pong { nonce: r.u64()? },
            tags::SHUTDOWN => NetMessage::Shutdown,
            tags::ERROR_REPLY => NetMessage::ErrorReply {
                code: r.u16()?,
                detail: r.string()?,
            },
            tag => return Err(WireError::UnknownTag { tag }),
        };
        r.finish()?;
        Ok(msg)
    }

    /// Encodes into a complete wire [`Frame`] (length prefix + header +
    /// payload).
    #[must_use]
    pub fn to_frame(&self) -> Frame {
        let mut bytes = Vec::new();
        self.encode_frame_into(&mut bytes);
        Frame::from_closed(bytes)
    }

    /// Parses one framed message from the front of `bytes`, returning
    /// it and the bytes consumed.
    pub fn parse_frame(bytes: &[u8]) -> Result<(NetMessage, usize), WireError> {
        let (payload, consumed) = Frame::parse(bytes)?;
        Ok((NetMessage::decode(payload)?, consumed))
    }

    /// Writes the message as one frame and flushes.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), WireError> {
        let mut frame = Vec::new();
        self.encode_frame_into(&mut frame);
        w.write_all(&frame)?;
        w.flush()?;
        Ok(())
    }

    /// Reads one framed message; `Ok(None)` on clean end-of-stream.
    pub fn read_from(r: &mut impl Read) -> Result<Option<NetMessage>, WireError> {
        let mut payload = Vec::new();
        if !WireCodec::read_payload_into(r, &mut payload)? {
            return Ok(None);
        }
        NetMessage::decode(&payload).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: &NetMessage) {
        let frame = msg.to_frame();
        let (decoded, consumed) = NetMessage::parse_frame(frame.bytes()).expect("well-formed");
        assert_eq!(&decoded, msg);
        assert_eq!(consumed, frame.bytes().len());
    }

    fn sample_batch() -> OpBatch {
        let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 3 });
        batch.push_lookup("/t0/d1/f7");
        batch.push_create("/t1/d0/f1");
        batch.push_remove("/t1/d0/f2");
        batch.push_rename("/t1/d0/f1", "/t1/d9/moved");
        batch
    }

    #[test]
    fn every_message_round_trips() {
        let q = QueryOutcome {
            home: Some(MdsId(4)),
            level: QueryLevel::L3Group,
            latency: Duration::from_nanos(123_456_789),
            messages: 9,
            entry: MdsId(2),
            epoch: MembershipEpoch(11),
        };
        for msg in [
            NetMessage::RegisterReplica {
                replica: 2,
                addr: "127.0.0.1:4711".into(),
            },
            NetMessage::RegisterAck { epoch: 3 },
            NetMessage::FetchMap,
            NetMessage::MapReply {
                epoch: 5,
                replicas: vec![(0, "127.0.0.1:1".into()), (1, "127.0.0.1:2".into())],
            },
            NetMessage::ExecuteBatch {
                seq: 42,
                batch: sample_batch(),
            },
            NetMessage::BatchReply {
                seq: 42,
                outcomes: vec![
                    OpOutcome::Created { home: MdsId(1) },
                    OpOutcome::Resolved(q.clone()),
                    OpOutcome::Removed { home: None },
                    OpOutcome::Renamed {
                        old_home: Some(MdsId(0)),
                        new_home: Some(MdsId(3)),
                    },
                ],
            },
            NetMessage::Gossip {
                epoch: 7,
                members: vec![MdsId(0), MdsId(1), MdsId(2)],
            },
            NetMessage::GroupProbe {
                qid: 99,
                fp: Fingerprint::of("/t0/d1/f7"),
            },
            NetMessage::ProbeReply {
                qid: 99,
                replica: 1,
                positives: vec![MdsId(5)],
            },
            NetMessage::Drain,
            NetMessage::DrainAck {
                drained: 12,
                pending: 0,
            },
            NetMessage::Stats,
            NetMessage::StatsReply {
                pending: 1,
                batches_served: 2,
                gossip_epoch: 3,
            },
            NetMessage::Ping { nonce: 8 },
            NetMessage::Pong { nonce: 8 },
            NetMessage::Shutdown,
            NetMessage::ErrorReply {
                code: 1,
                detail: "not a rendezvous".into(),
            },
        ] {
            round_trip(&msg);
        }
    }

    #[test]
    fn empty_batch_round_trips() {
        round_trip(&NetMessage::ExecuteBatch {
            seq: 0,
            batch: OpBatch::new(),
        });
        round_trip(&NetMessage::BatchReply {
            seq: 0,
            outcomes: Vec::new(),
        });
    }

    #[test]
    fn corrupt_fingerprint_is_rejected() {
        let msg = NetMessage::ExecuteBatch {
            seq: 1,
            batch: sample_batch(),
        };
        let mut payload = msg.encode();
        // Flip one bit inside the first PathKey's fingerprint lanes
        // (path string "/t0/d1/f7" is 9 bytes; its length prefix starts
        // after tag + seq + policy tag + u64 start + op count + op tag).
        let pos = payload.len() - 1;
        payload[pos] ^= 0x01;
        let err = NetMessage::decode(&payload).expect_err("must reject");
        assert!(
            matches!(err, WireError::CorruptFingerprint { .. }),
            "got {err}"
        );
    }

    #[test]
    fn unknown_tag_and_enum_are_typed() {
        assert!(matches!(
            NetMessage::decode(&[0xEE]),
            Err(WireError::UnknownTag { tag: 0xEE })
        ));
        // An ExecuteBatch whose policy discriminant is junk.
        let mut payload = vec![super::tags::EXECUTE_BATCH];
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.push(9);
        assert!(matches!(
            NetMessage::decode(&payload),
            Err(WireError::UnknownEnum {
                what: "EntryPolicy",
                ..
            })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = NetMessage::Drain.encode();
        payload.push(0);
        assert!(matches!(
            NetMessage::decode(&payload),
            Err(WireError::TrailingBytes { extra: 1 })
        ));
    }
}
