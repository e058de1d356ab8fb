//! The networked client: discovers the fleet through the rendezvous,
//! keeps one connection per replica, and executes sharded batches
//! through the same [`execute_sharded`] planner the in-process
//! [`Federation`](crate::route::Federation) uses.

use std::io::BufReader;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ghba_bloom::Fingerprint;
use ghba_core::{MdsId, OpBatch, OpOutcome};

use crate::proto::NetMessage;
use crate::route::{execute_sharded, BatchTransport};
use crate::wire::{WireCodec, WireError};

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

struct Conn {
    replica: u16,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Bounded reconnect policy for lost replica connections.
///
/// When a request hits an I/O failure (or the replica closes the
/// connection mid-stream), the client re-fetches the replica map from
/// the rendezvous — a restarted replica re-registers under a **new**
/// address — reconnects, and retries the request, sleeping an
/// exponentially growing backoff between attempts. Retries are
/// **at-least-once**: a request whose reply was lost may have been
/// served before the connection died, so a retried create can observe
/// its own first attempt. The loss scenarios this targets (replica
/// crash and restart) discard the dead process's unreconciled state
/// anyway, which is why the bound is small rather than infinite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Reconnect-and-retry attempts per request (`0` disables retry —
    /// the first failure propagates, the pre-PR-9 behaviour).
    pub attempts: u32,
    /// Sleep before the first retry; doubles per attempt.
    pub initial_backoff: Duration,
    /// Backoff ceiling, so a long outage never sleeps unboundedly.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    /// Four attempts, 25ms → 200ms backoff: rides out a replica
    /// restart (~100ms re-register) without masking a real outage for
    /// more than ~0.6s.
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            initial_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// No retry: every transport failure propagates immediately.
    #[must_use]
    pub fn disabled() -> Self {
        RetryPolicy {
            attempts: 0,
            ..RetryPolicy::default()
        }
    }
}

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
    retry: RetryPolicy,
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
    /// out a restart the same way an existing client's
    /// [`RetryPolicy`] does.
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
            retry: RetryPolicy::default(),
            reconnects: 0,
        })
    }

    /// Overrides the reconnect/retry policy (builder style); see
    /// [`RetryPolicy`].
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Connections re-established by the retry path so far.
    #[must_use]
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Sends one request — `payload`, an encoded [`NetMessage`] — on
    /// replica `replica`'s connection and reads the reply. On a
    /// transport loss (I/O error or the replica closing the
    /// connection), re-fetches the replica map from the rendezvous,
    /// reconnects, and retries under [`RetryPolicy`].
    fn request(&mut self, replica: usize, payload: &[u8]) -> Result<NetMessage, WireError> {
        let mut backoff = self.retry.initial_backoff;
        let mut attempts_left = self.retry.attempts;
        loop {
            match self.request_once(replica, payload) {
                Ok(reply) => return Ok(reply),
                // Only transport losses are worth a reconnect; a
                // replica that *answered* with an error stays final.
                Err(err @ WireError::Io(_)) if attempts_left > 0 => err,
                Err(err) => return Err(err),
            };
            attempts_left -= 1;
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(self.retry.max_backoff);
            match self.reconnect(replica) {
                Ok(()) => self.reconnects += 1,
                // The replica may still be re-registering: the next
                // `request_once` on the stale connection fails fast and
                // spends another attempt, so the budget stays bounded —
                // but surface the rendezvous-side error once it's gone.
                Err(reconnect_err) if attempts_left == 0 => return Err(reconnect_err),
                Err(_) => {}
            }
        }
    }

    /// One send/receive on the current connection, no retry.
    fn request_once(&mut self, replica: usize, payload: &[u8]) -> Result<NetMessage, WireError> {
        let conn = &mut self.conns[replica];
        WireCodec::write_payload(&mut conn.writer, payload)?;
        match NetMessage::read_from(&mut conn.reader)? {
            Some(NetMessage::ErrorReply { code, detail }) => Err(WireError::Protocol {
                detail: format!(
                    "replica {} rejected the request ({code}): {detail}",
                    conn.replica
                ),
            }),
            Some(reply) => Ok(reply),
            // A clean EOF is the same loss as a reset for our purposes:
            // classify as I/O so the retry path reconnects.
            None => Err(WireError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                format!("replica {} closed the connection", conn.replica),
            ))),
        }
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
        self.conns[replica] = open_conn(index, &addr)?;
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
            match self.request(replica, &NetMessage::Drain.encode())? {
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
        match self.request(replica, &NetMessage::Stats.encode())? {
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
            match self.request(replica, &NetMessage::GroupProbe { qid, fp: *fp }.encode())? {
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
        for conn in &mut self.conns {
            NetMessage::Gossip {
                epoch,
                members: members.to_vec(),
            }
            .write_to(&mut conn.writer)?;
        }
        Ok(())
    }

    /// Pings every replica and verifies the echoed nonce.
    ///
    /// # Errors
    ///
    /// Propagates the first transport or protocol failure.
    pub fn ping_all(&mut self, nonce: u64) -> Result<(), WireError> {
        for replica in 0..self.conns.len() {
            match self.request(replica, &NetMessage::Ping { nonce }.encode())? {
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
        for conn in &mut self.conns {
            NetMessage::Shutdown.write_to(&mut conn.writer)?;
        }
        Ok(())
    }
}

impl BatchTransport for NetClient {
    fn replica_count(&self) -> usize {
        self.conns.len()
    }

    fn execute_on(&mut self, replica: usize, batch: &OpBatch) -> Result<Vec<OpOutcome>, WireError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        match self.request(replica, &NetMessage::encode_execute_batch(seq, batch))? {
            NetMessage::BatchReply {
                seq: echoed,
                outcomes,
            } if echoed == seq => {
                if outcomes.len() == batch.len() {
                    Ok(outcomes)
                } else {
                    Err(WireError::Protocol {
                        detail: format!(
                            "replica {replica} answered {} outcomes for {} ops",
                            outcomes.len(),
                            batch.len()
                        ),
                    })
                }
            }
            reply => Err(WireError::Protocol {
                detail: format!("expected BatchReply(seq={seq}), got {reply:?}"),
            }),
        }
    }
}

/// Opens one replica connection (nodelay, split read/write halves).
fn open_conn(replica: u16, addr: &str) -> Result<Conn, WireError> {
    let stream = TcpStream::connect(addr).map_err(WireError::Io)?;
    stream.set_nodelay(true).ok();
    let read_half = stream.try_clone().map_err(WireError::Io)?;
    Ok(Conn {
        replica,
        reader: BufReader::new(read_half),
        writer: stream,
    })
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
