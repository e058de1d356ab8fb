//! Shared TCP server plumbing for the rendezvous and replica services:
//! bind, thread-per-connection accept loop, framed request/reply
//! dispatch, and prompt shutdown.
//!
//! # Connection lifecycle
//!
//! Each accepted connection gets its own worker thread running
//! [`conn_loop`]: read one framed [`NetMessage`], hand it to the
//! service's [`Service::handle`], write the reply (if any), repeat.
//! Clean end-of-stream ends the loop; a malformed frame gets one typed
//! [`NetMessage::ErrorReply`] before the connection closes — the
//! decoder's errors are data, never panics.
//!
//! # A connection's buffers
//!
//! `conn_loop` owns an in-buffer, an out-buffer and one [`OpBatch`], all
//! kept across frames. Every frame is read into the in-buffer. An
//! `ExecuteBatch` decodes into the kept batch
//! ([`NetMessage::decode_execute_batch_into`]), whose op vector keeps its
//! allocation: a path of at most
//! [`INLINE_PATH_BYTES`](ghba_core::INLINE_PATH_BYTES) bytes lands inline
//! in its op slot, so decoding allocates nothing for it. A longer path
//! costs one box per decode (no workload of the benchmark sends one).
//! The batch goes to [`Service::execute`], and its reply is encoded in
//! place into the out-buffer and written with one `write_all`. Every
//! other message goes through [`NetMessage::decode`] and
//! [`Service::handle`].
//!
//! # Shutdown without timeouts
//!
//! Blocking reads never carry read timeouts (a timeout firing
//! mid-frame would desynchronize the stream). Instead:
//!
//! * every live connection is tracked in a [`ConnRegistry`] of
//!   `try_clone`d handles; shutdown calls `shutdown(Both)` on each,
//!   which fails the worker's blocking read immediately. A connection
//!   whose loop ends shuts its stream down and leaves the registry, so
//!   the peer sees the close at once;
//! * the accept loop is unblocked by a self-connection "poke" after
//!   the stop flag is raised.
//!
//! Both the explicit handle shutdown and a remote
//! [`NetMessage::Shutdown`] frame funnel through the same path, and
//! every thread is joined before [`ServerCore::shutdown`] returns.

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use ghba_core::{OpBatch, OpOutcome};

use crate::proto::NetMessage;
use crate::wire::{read_payload_into, WireError};

/// Error code carried by [`NetMessage::ErrorReply`] for malformed
/// requests.
pub const ERR_BAD_REQUEST: u16 = 400;
/// Error code for structurally valid messages the service does not
/// serve (e.g. `ExecuteBatch` sent to the rendezvous).
pub const ERR_UNSUPPORTED: u16 = 405;

/// What a service does with one decoded request.
pub(crate) enum ServiceReply {
    /// Write this reply, keep the connection open.
    Message(NetMessage),
    /// No reply (one-way messages like gossip); keep the connection.
    Silent,
    /// Stop the whole server. The connection closes without a reply.
    Shutdown,
}

/// One request/reply service dispatched by [`conn_loop`].
pub(crate) trait Service: Send + Sync + 'static {
    fn handle(&self, msg: NetMessage) -> ServiceReply;

    /// Executes a batch decoded into the connection's kept buffers, or
    /// returns `None` when the service serves no batches: the frame
    /// then reaches [`Service::handle`] as a [`NetMessage::ExecuteBatch`].
    fn execute(&self, _batch: &OpBatch) -> Option<Vec<OpOutcome>> {
        None
    }
}

/// Tracked clones of every live connection, so shutdown can fail their
/// blocking reads from outside. A connection leaves when its loop ends.
#[derive(Default)]
pub(crate) struct ConnRegistry {
    streams: Mutex<BTreeMap<u64, TcpStream>>,
}

impl ConnRegistry {
    fn streams(&self) -> MutexGuard<'_, BTreeMap<u64, TcpStream>> {
        self.streams.lock().expect("connection registry poisoned")
    }

    /// Tracks a clone of `stream` under a key unique among the live
    /// connections (`None` when the clone fails).
    fn track(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let mut streams = self.streams();
        let key = streams.last_key_value().map_or(0, |(key, _)| key + 1);
        streams.insert(key, clone);
        Some(key)
    }

    fn forget(&self, key: u64) {
        self.streams().remove(&key);
    }

    fn shutdown_all(&self) {
        for stream in std::mem::take(&mut *self.streams()).into_values() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }

    #[cfg(test)]
    fn tracked(&self) -> usize {
        self.streams().len()
    }
}

/// A bound listener plus its accept loop and worker threads.
pub(crate) struct ServerCore {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<ConnRegistry>,
    accept: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for ServerCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerCore")
            .field("addr", &self.addr)
            .field("stopped", &self.stop.load(Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

impl ServerCore {
    /// Binds `bind` (use port 0 for an ephemeral port) and starts the
    /// accept loop, dispatching every connection to `service`.
    pub(crate) fn spawn(
        bind: &str,
        name: &'static str,
        service: Arc<dyn Service>,
    ) -> std::io::Result<ServerCore> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(ConnRegistry::default());
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();

        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let workers = Arc::clone(&workers);
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || loop {
                    let stream = match listener.accept() {
                        Ok((stream, _)) => stream,
                        Err(_) if stop.load(Ordering::Acquire) => break,
                        Err(_) => continue,
                    };
                    if stop.load(Ordering::Acquire) {
                        // The post-stop poke (or a late client): close
                        // and exit.
                        break;
                    }
                    let key = conns.track(&stream);
                    let service = Arc::clone(&service);
                    let stop_flag = Arc::clone(&stop);
                    let registry = Arc::clone(&conns);
                    let poke_addr = addr;
                    if let Ok(worker) = std::thread::Builder::new()
                        .name(format!("{name}-conn"))
                        .spawn(move || {
                            conn_loop(stream, &*service, &stop_flag, poke_addr);
                            if let Some(key) = key {
                                registry.forget(key);
                            }
                        })
                    {
                        let mut workers = workers.lock().expect("worker registry poisoned");
                        // Reap finished workers: a long-lived server holds
                        // one thread per live connection, not per accept.
                        for finished in workers.extract_if(.., |worker| worker.is_finished()) {
                            let _ = finished.join();
                        }
                        workers.push(worker);
                    } else if let Some(key) = key {
                        conns.forget(key);
                    }
                })?
        };

        Ok(ServerCore {
            addr,
            stop,
            conns,
            accept: Some(accept),
            workers,
        })
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `true` once a stop has been requested (locally or by a remote
    /// [`NetMessage::Shutdown`] frame).
    pub(crate) fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Stops the accept loop, fails every in-flight read, and joins
    /// every thread. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.conns.shutdown_all();
        let workers: Vec<_> = self
            .workers
            .lock()
            .expect("worker registry poisoned")
            .drain(..)
            .collect();
        for worker in workers {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerCore {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves one connection until end-of-stream, error, or shutdown, then
/// shuts the stream down: the peer reads end-of-stream right behind the
/// last reply, and a peer still writing fails instead of blocking.
fn conn_loop(stream: TcpStream, service: &dyn Service, stop: &AtomicBool, poke_addr: SocketAddr) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = &stream;
    let mut inbuf = Vec::new();
    let mut out = Vec::new();
    let mut batch = OpBatch::new();
    loop {
        let request = read_payload_into(&mut reader, &mut inbuf).and_then(|more| {
            if !more {
                return Ok(None);
            }
            Ok(Some(
                match NetMessage::decode_execute_batch_into(&inbuf, &mut batch)? {
                    Some(seq) => match service.execute(&batch) {
                        Some(outcomes) => {
                            ServiceReply::Message(NetMessage::BatchReply { seq, outcomes })
                        }
                        None => service.handle(NetMessage::ExecuteBatch {
                            seq,
                            batch: std::mem::take(&mut batch),
                        }),
                    },
                    None => service.handle(NetMessage::decode(&inbuf)?),
                },
            ))
        });
        match request {
            Ok(Some(ServiceReply::Message(reply))) => {
                // A reply over the frame cap would be refused by the
                // peer's reader: answer with a typed error instead (the
                // request was read whole, so the stream stays in step).
                if let Err(err) = reply.encode_frame_into(&mut out) {
                    encode_error(&err, &mut out);
                }
                if writer.write_all(&out).is_err() {
                    break;
                }
            }
            Ok(Some(ServiceReply::Silent)) => {}
            Ok(Some(ServiceReply::Shutdown)) => {
                stop.store(true, Ordering::Release);
                // Poke the accept loop awake so the server winds
                // down without waiting for another client.
                let _ = TcpStream::connect(poke_addr);
                break;
            }
            Ok(None) | Err(WireError::Io(_)) => break,
            Err(err) => {
                // Malformed frame: answer with a typed error, then
                // close (the stream position is unrecoverable).
                encode_error(&err, &mut out);
                let _ = writer.write_all(&out);
                break;
            }
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Encodes the [`NetMessage::ErrorReply`] for `err` into `out`.
fn encode_error(err: &WireError, out: &mut Vec<u8>) {
    // `detail` is one error's text: far under any frame cap.
    let _ = NetMessage::ErrorReply {
        code: ERR_BAD_REQUEST,
        detail: err.to_string(),
    }
    .encode_frame_into(out);
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use super::*;

    /// Answers pings, ignores everything else; ping 0's answer is one
    /// byte over the frame cap.
    struct Echo;

    impl Service for Echo {
        fn handle(&self, msg: NetMessage) -> ServiceReply {
            match msg {
                NetMessage::Ping { nonce: 0 } => ServiceReply::Message(NetMessage::ErrorReply {
                    code: 0,
                    detail: "x".repeat(crate::MAX_FRAME_LEN as usize),
                }),
                NetMessage::Ping { nonce } => ServiceReply::Message(NetMessage::Pong { nonce }),
                _ => ServiceReply::Silent,
            }
        }
    }

    /// A connection leaves the registry when its loop ends: after 64
    /// connections were served and closed, only the one still open is
    /// tracked — and shutdown still fails that one's blocked read.
    #[test]
    fn a_server_forgets_every_connection_that_ended() -> Result<(), WireError> {
        let mut core = ServerCore::spawn("127.0.0.1:0", "echo", Arc::new(Echo))?;
        let mut idle = TcpStream::connect(core.addr())?;
        for nonce in 1..=64 {
            let mut stream = TcpStream::connect(core.addr())?;
            NetMessage::Ping { nonce }.write_to(&mut stream)?;
            let reply = NetMessage::read_from(&mut stream)?;
            assert_eq!(reply, Some(NetMessage::Pong { nonce }));
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while core.conns.tracked() > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(core.conns.tracked(), 1, "only the idle connection");
        core.shutdown();
        assert_eq!(core.conns.tracked(), 0);
        idle.set_read_timeout(Some(Duration::from_secs(5)))?;
        assert_eq!(
            NetMessage::read_from(&mut idle)?,
            None,
            "closed by shutdown"
        );
        Ok(())
    }

    /// A reply the peer's reader would refuse is not sent: the request
    /// gets a typed error in its place, and the connection serves on.
    #[test]
    fn an_oversized_reply_becomes_a_typed_error() -> Result<(), WireError> {
        let mut core = ServerCore::spawn("127.0.0.1:0", "echo", Arc::new(Echo))?;
        let mut stream = TcpStream::connect(core.addr())?;
        NetMessage::Ping { nonce: 0 }.write_to(&mut stream)?;
        let reply = NetMessage::read_from(&mut stream)?;
        assert!(
            matches!(
                &reply,
                Some(NetMessage::ErrorReply { code: ERR_BAD_REQUEST, detail })
                    if detail.contains("exceeds")
            ),
            "{reply:?}"
        );
        NetMessage::Ping { nonce: 7 }.write_to(&mut stream)?;
        assert_eq!(
            NetMessage::read_from(&mut stream)?,
            Some(NetMessage::Pong { nonce: 7 })
        );
        core.shutdown();
        Ok(())
    }
}
