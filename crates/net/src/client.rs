//! The networked client: discovers the fleet through the rendezvous,
//! keeps one connection per replica, and executes sharded batches
//! through the same [`execute_sharded`] planner the in-process
//! [`Federation`](crate::route::Federation) uses.
//!
//! # A wave crosses the wire once
//!
//! [`NetClient`] overrides [`BatchTransport::execute_wave`]: each
//! replica's `ExecuteBatch` frame is encoded straight from the caller's
//! borrowed batch into that connection's reused out-buffer, every frame
//! of the wave is encoded before any is written (a frame over
//! [`MAX_FRAME_LEN`](crate::MAX_FRAME_LEN) fails the wave with
//! [`WireError::Oversized`] and sends nothing), every frame is written
//! before any reply is read, and the replies are
//! read, in replica order, into the connection's reused in-buffer. The
//! replicas therefore work on one wave concurrently, and a path is
//! copied once: from the batch into the frame.
//!
//! Retry stays per replica inside a wave. A transport loss on replica
//! `r` reconnects `r` and resends the frame still in its out-buffer,
//! under the same `seq`; a reply already read from another replica is
//! kept and never requested again.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ghba_bloom::Fingerprint;
use ghba_core::{MdsId, OpBatch, OpOutcome};

use crate::proto::NetMessage;
use crate::route::{execute_sharded, BatchTransport, Pick};
use crate::wire::{read_payload_into, WireError};

/// One replica's counters, as sampled by [`NetClient::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Write records awaiting reconciliation.
    pub pending: u64,
    /// Batches served since startup.
    pub batches_served: u64,
    /// Newest gossiped membership epoch (0 = none).
    pub gossip_epoch: u64,
}

/// One replica connection and the two buffers every request reuses.
struct Conn {
    replica: u16,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The last frame sent, kept until its reply is read: a retry
    /// resends it as is.
    out: Vec<u8>,
    /// The last reply's payload.
    inbuf: Vec<u8>,
}

/// Reconnect-and-retry attempts per request after a transport loss.
/// With the backoff below this rides out a replica restart (~100 ms to
/// re-register) without masking a real outage for more than ~0.6 s.
const RETRY_ATTEMPTS: u32 = 4;
/// Sleep before the first retry; doubles per attempt.
const RETRY_INITIAL_BACKOFF: Duration = Duration::from_millis(25);
/// Backoff ceiling, so a long outage never sleeps unboundedly.
const RETRY_MAX_BACKOFF: Duration = Duration::from_millis(200);

/// A connected client of the whole fleet.
///
/// Implements [`BatchTransport`], so [`NetClient::execute`] routes a
/// mixed batch across the replicas — fingerprint partition, two-wave
/// cross-replica renames, stitched outcomes — via the shared planner.
pub struct NetClient {
    conns: Vec<Conn>,
    next_seq: u64,
    /// Rendezvous address, kept for reconnect map re-fetches.
    rendezvous: String,
    /// Reconnects that led to a successful retry, across all replicas.
    reconnects: u64,
}

impl std::fmt::Debug for NetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetClient")
            .field("replicas", &self.conns.len())
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

impl NetClient {
    /// Connects: polls the rendezvous at `rendezvous` until replicas
    /// `0..expected` have all registered **and** accept connections, or
    /// `timeout` elapses. A registration whose port refuses the
    /// connection — a replica that was just killed and is recovering
    /// from its WAL, still holding its stale map entry until it
    /// re-registers or liveness prunes it — is retried like an
    /// incomplete map rather than surfaced, so a fresh client rides
    /// out a restart the same way an existing client's retry does.
    ///
    /// # Errors
    ///
    /// Fails when the fleet does not fully register and accept
    /// connections within `timeout`.
    pub fn connect(
        rendezvous: &str,
        expected: usize,
        timeout: Duration,
    ) -> Result<NetClient, WireError> {
        assert!(expected > 0, "a fleet needs at least one replica");
        let deadline = Instant::now() + timeout;
        loop {
            match Self::connect_once(rendezvous, expected, timeout) {
                Ok(client) => return Ok(client),
                Err(err) if Instant::now() >= deadline => return Err(err),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// One full connection attempt: fetch the map, require it
    /// complete, open one connection per replica. Any failure aborts
    /// the attempt; [`NetClient::connect`] owns the retry loop.
    fn connect_once(
        rendezvous: &str,
        expected: usize,
        timeout: Duration,
    ) -> Result<NetClient, WireError> {
        let map = fetch_map(rendezvous)?;
        if !(0..expected).all(|r| map.iter().any(|(i, _)| *i == r as u16)) {
            return Err(WireError::Protocol {
                detail: format!(
                    "fleet incomplete after {timeout:?}: {} of {expected} replicas registered",
                    map.len()
                ),
            });
        }
        let mut conns = Vec::with_capacity(expected);
        for r in 0..expected as u16 {
            let addr = map
                .iter()
                .find(|(i, _)| *i == r)
                .map(|(_, addr)| addr.clone())
                .expect("checked above");
            conns.push(open_conn(r, &addr)?);
        }
        Ok(NetClient {
            conns,
            next_seq: 0,
            rendezvous: rendezvous.to_string(),
            reconnects: 0,
        })
    }

    /// Connections re-established by the retry path so far.
    #[must_use]
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Sends `msg` on replica `replica`'s connection and reads the
    /// reply, retrying a transport loss (see [`NetClient::reply`]).
    fn request(&mut self, replica: usize, msg: &NetMessage) -> Result<NetMessage, WireError> {
        msg.encode_frame_into(&mut self.conns[replica].out)?;
        let sent = self.send(replica);
        self.reply(replica, sent)
    }

    /// Writes the frame in replica `replica`'s out-buffer.
    fn send(&mut self, replica: usize) -> Result<(), WireError> {
        let conn = &mut self.conns[replica];
        conn.writer.write_all(&conn.out)?;
        Ok(())
    }

    /// Reads replica `replica`'s reply to the frame in its out-buffer,
    /// whose send had outcome `sent`. On a transport loss (an I/O error
    /// on either side, or the replica closing the connection),
    /// re-fetches the replica map from the rendezvous — a restarted
    /// replica re-registers under a **new** address — reconnects, and
    /// resends the frame, up to [`RETRY_ATTEMPTS`] times with a backoff
    /// doubling from [`RETRY_INITIAL_BACKOFF`] to [`RETRY_MAX_BACKOFF`].
    ///
    /// Retries are **at-least-once**: a request whose reply was lost may
    /// have been served before the connection died, so a retried create
    /// can observe its own first attempt. The losses this targets
    /// (replica crash and restart) discard the dead process's
    /// unreconciled state anyway, which is why the bound is small rather
    /// than infinite.
    fn reply(
        &mut self,
        replica: usize,
        sent: Result<(), WireError>,
    ) -> Result<NetMessage, WireError> {
        let mut backoff = RETRY_INITIAL_BACKOFF;
        let mut attempts_left = RETRY_ATTEMPTS;
        let mut attempt = sent.and_then(|()| self.receive(replica));
        loop {
            match attempt {
                Ok(reply) => return Ok(reply),
                // Only transport losses are worth a reconnect; a
                // replica that *answered* with an error stays final.
                Err(WireError::Io(_)) if attempts_left > 0 => {}
                Err(err) => return Err(err),
            }
            attempts_left -= 1;
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(RETRY_MAX_BACKOFF);
            match self.reconnect(replica) {
                Ok(()) => self.reconnects += 1,
                // The replica may still be re-registering: the next
                // attempt on the stale connection fails fast and spends
                // another attempt, so the budget stays bounded — but
                // surface the rendezvous-side error once it's gone.
                Err(reconnect_err) if attempts_left == 0 => return Err(reconnect_err),
                Err(_) => {}
            }
            attempt = self.send(replica).and_then(|()| self.receive(replica));
        }
    }

    /// Reads one reply on replica `replica`'s current connection, no
    /// retry.
    fn receive(&mut self, replica: usize) -> Result<NetMessage, WireError> {
        let conn = &mut self.conns[replica];
        if !read_payload_into(&mut conn.reader, &mut conn.inbuf)? {
            // A clean EOF is the same loss as a reset for our purposes:
            // classify as I/O so the retry path reconnects.
            return Err(WireError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                format!("replica {} closed the connection", conn.replica),
            )));
        }
        match NetMessage::decode(&conn.inbuf)? {
            NetMessage::ErrorReply { code, detail } => Err(WireError::Protocol {
                detail: format!(
                    "replica {} rejected the request ({code}): {detail}",
                    conn.replica
                ),
            }),
            reply => Ok(reply),
        }
    }

    /// Writes `msg` to every replica without awaiting a reply.
    fn broadcast(&mut self, msg: &NetMessage) -> Result<(), WireError> {
        for replica in 0..self.conns.len() {
            msg.encode_frame_into(&mut self.conns[replica].out)?;
            self.send(replica)?;
        }
        Ok(())
    }

    /// Re-fetches the replica map (a restarted replica re-registers
    /// under a new address) and reopens replica `replica`'s connection.
    fn reconnect(&mut self, replica: usize) -> Result<(), WireError> {
        let index = self.conns[replica].replica;
        let map = fetch_map(&self.rendezvous)?;
        let addr = map
            .iter()
            .find(|(i, _)| *i == index)
            .map(|(_, addr)| addr.clone())
            .ok_or_else(|| WireError::Protocol {
                detail: format!("replica {index} is no longer in the rendezvous map"),
            })?;
        let (reader, writer) = open_stream(&addr)?;
        let conn = &mut self.conns[replica];
        conn.reader = reader;
        conn.writer = writer;
        Ok(())
    }

    /// Executes `batch` across the fleet (see [`execute_sharded`]).
    ///
    /// # Errors
    ///
    /// Propagates the first transport or protocol failure.
    pub fn execute(&mut self, batch: &OpBatch) -> Result<Vec<OpOutcome>, WireError> {
        execute_sharded(self, batch)
    }

    /// Forces a synchronous drain barrier on every replica, returning
    /// each replica's `(drained, pending)` ack.
    ///
    /// # Errors
    ///
    /// Propagates the first transport or protocol failure.
    pub fn drain_all(&mut self) -> Result<Vec<(u64, u64)>, WireError> {
        let mut acks = Vec::with_capacity(self.conns.len());
        for replica in 0..self.conns.len() {
            match self.request(replica, &NetMessage::Drain)? {
                NetMessage::DrainAck { drained, pending } => acks.push((drained, pending)),
                reply => {
                    return Err(WireError::Protocol {
                        detail: format!("expected DrainAck, got {reply:?}"),
                    })
                }
            }
        }
        Ok(acks)
    }

    /// Samples replica `replica`'s counters.
    ///
    /// # Errors
    ///
    /// Propagates the first transport or protocol failure.
    pub fn stats(&mut self, replica: usize) -> Result<ReplicaStats, WireError> {
        match self.request(replica, &NetMessage::Stats)? {
            NetMessage::StatsReply {
                pending,
                batches_served,
                gossip_epoch,
            } => Ok(ReplicaStats {
                pending,
                batches_served,
                gossip_epoch,
            }),
            reply => Err(WireError::Protocol {
                detail: format!("expected StatsReply, got {reply:?}"),
            }),
        }
    }

    /// Multicasts a [`NetMessage::GroupProbe`] for `fp` to every
    /// replica, returning `(replica, positive servers)` per reply —
    /// the networked form of the L3/L4 group multicast.
    ///
    /// # Errors
    ///
    /// Propagates the first transport or protocol failure.
    pub fn probe_all(
        &mut self,
        qid: u64,
        fp: &Fingerprint,
    ) -> Result<Vec<(u16, Vec<MdsId>)>, WireError> {
        let mut replies = Vec::with_capacity(self.conns.len());
        for replica in 0..self.conns.len() {
            match self.request(replica, &NetMessage::GroupProbe { qid, fp: *fp })? {
                NetMessage::ProbeReply {
                    qid: echoed,
                    replica: index,
                    positives,
                } if echoed == qid => replies.push((index, positives)),
                reply => {
                    return Err(WireError::Protocol {
                        detail: format!("expected ProbeReply(qid={qid}), got {reply:?}"),
                    })
                }
            }
        }
        Ok(replies)
    }

    /// Announces a membership view to every replica (one-way; confirm
    /// adoption via [`NetClient::stats`] on the same client, whose
    /// requests are ordered behind the gossip on each connection).
    ///
    /// # Errors
    ///
    /// Propagates the first write failure.
    pub fn gossip(&mut self, epoch: u64, members: &[MdsId]) -> Result<(), WireError> {
        self.broadcast(&NetMessage::Gossip {
            epoch,
            members: members.to_vec(),
        })
    }

    /// Pings every replica and verifies the echoed nonce.
    ///
    /// # Errors
    ///
    /// Propagates the first transport or protocol failure.
    pub fn ping_all(&mut self, nonce: u64) -> Result<(), WireError> {
        for replica in 0..self.conns.len() {
            match self.request(replica, &NetMessage::Ping { nonce })? {
                NetMessage::Pong { nonce: echoed } if echoed == nonce => {}
                reply => {
                    return Err(WireError::Protocol {
                        detail: format!("expected Pong({nonce}), got {reply:?}"),
                    })
                }
            }
        }
        Ok(())
    }

    /// Asks every replica to shut down (one-way; the servers close the
    /// connections as they stop).
    ///
    /// # Errors
    ///
    /// Propagates the first write failure.
    pub fn shutdown_fleet(&mut self) -> Result<(), WireError> {
        self.broadcast(&NetMessage::Shutdown)
    }
}

impl BatchTransport for NetClient {
    fn replica_count(&self) -> usize {
        self.conns.len()
    }

    fn execute_on(&mut self, replica: usize, batch: &OpBatch) -> Result<Vec<OpOutcome>, WireError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        NetMessage::encode_execute_frame_into(
            &mut self.conns[replica].out,
            seq,
            batch,
            (0..batch.len()).map(Pick::Op),
        )?;
        let sent = self.send(replica);
        let reply = self.reply(replica, sent)?;
        batch_outcomes(replica, seq, batch.len(), reply)
    }

    /// Encodes every non-empty list's frame, sends them all, then reads
    /// every reply (see the module docs). A frame over the cap fails the
    /// wave before any frame is sent. Every reply is read even after one
    /// fails, so no connection is left holding an unread reply.
    fn execute_wave(
        &mut self,
        batch: &OpBatch,
        picks: &[Vec<Pick>],
    ) -> Result<Vec<Vec<OpOutcome>>, WireError> {
        let mut sent = Vec::with_capacity(picks.len());
        for (replica, list) in picks.iter().enumerate() {
            if list.is_empty() {
                sent.push(None);
                continue;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            NetMessage::encode_execute_frame_into(
                &mut self.conns[replica].out,
                seq,
                batch,
                list.iter().copied(),
            )?;
            sent.push(Some((seq, Ok(()))));
        }
        for (replica, entry) in sent.iter_mut().enumerate() {
            if let Some((_, outcome)) = entry {
                *outcome = self.send(replica);
            }
        }
        let mut outcomes = Vec::with_capacity(picks.len());
        let mut first_err = None;
        for (replica, sent) in sent.into_iter().enumerate() {
            let Some((seq, sent)) = sent else {
                outcomes.push(Vec::new());
                continue;
            };
            match self
                .reply(replica, sent)
                .and_then(|reply| batch_outcomes(replica, seq, picks[replica].len(), reply))
            {
                Ok(list) => outcomes.push(list),
                Err(err) => {
                    first_err.get_or_insert(err);
                }
            }
        }
        first_err.map_or(Ok(outcomes), Err)
    }
}

/// Checks a reply to the `ExecuteBatch` of `ops` ops sent to `replica`
/// under `seq`: a `BatchReply` echoing `seq` with one outcome per op.
fn batch_outcomes(
    replica: usize,
    seq: u64,
    ops: usize,
    reply: NetMessage,
) -> Result<Vec<OpOutcome>, WireError> {
    match reply {
        NetMessage::BatchReply {
            seq: echoed,
            outcomes,
        } if echoed == seq => {
            if outcomes.len() == ops {
                Ok(outcomes)
            } else {
                Err(WireError::Protocol {
                    detail: format!(
                        "replica {replica} answered {} outcomes for {ops} ops",
                        outcomes.len(),
                    ),
                })
            }
        }
        reply => Err(WireError::Protocol {
            detail: format!("expected BatchReply(seq={seq}), got {reply:?}"),
        }),
    }
}

/// Opens one replica connection with empty buffers.
fn open_conn(replica: u16, addr: &str) -> Result<Conn, WireError> {
    let (reader, writer) = open_stream(addr)?;
    Ok(Conn {
        replica,
        reader,
        writer,
        out: Vec::new(),
        inbuf: Vec::new(),
    })
}

/// Connects to `addr` (nodelay) and splits the stream into a buffered
/// read half and a write half.
fn open_stream(addr: &str) -> Result<(BufReader<TcpStream>, TcpStream), WireError> {
    let stream = TcpStream::connect(addr).map_err(WireError::Io)?;
    stream.set_nodelay(true).ok();
    let read_half = stream.try_clone().map_err(WireError::Io)?;
    Ok((BufReader::new(read_half), stream))
}

/// One-shot rendezvous map fetch.
fn fetch_map(rendezvous: &str) -> Result<Vec<(u16, String)>, WireError> {
    let stream = TcpStream::connect(rendezvous).map_err(WireError::Io)?;
    let mut writer = stream.try_clone().map_err(WireError::Io)?;
    NetMessage::FetchMap.write_to(&mut writer)?;
    let mut reader = BufReader::new(stream);
    match NetMessage::read_from(&mut reader)? {
        Some(NetMessage::MapReply { replicas, .. }) => Ok(replicas),
        Some(reply) => Err(WireError::Protocol {
            detail: format!("expected MapReply, got {reply:?}"),
        }),
        None => Err(WireError::Protocol {
            detail: "rendezvous closed the connection".to_string(),
        }),
    }
}

/// Sends one [`NetMessage::Shutdown`] to `addr` (rendezvous or
/// replica).
///
/// # Errors
///
/// Propagates connection or write failures.
pub fn send_shutdown(addr: &str) -> Result<(), WireError> {
    let mut stream = TcpStream::connect(addr).map_err(WireError::Io)?;
    NetMessage::Shutdown.write_to(&mut stream)
}
