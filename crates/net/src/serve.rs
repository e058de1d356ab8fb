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
//! * every accepted stream is tracked in a [`ConnRegistry`] of
//!   `try_clone`d handles; shutdown calls `shutdown(Both)` on each,
//!   which fails the worker's blocking read immediately;
//! * the accept loop is unblocked by a self-connection "poke" after
//!   the stop flag is raised.
//!
//! Both the explicit handle shutdown and a remote
//! [`NetMessage::Shutdown`] frame funnel through the same path, and
//! every thread is joined before [`ServerCore::shutdown`] returns.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use ghba_core::{OpBatch, OpOutcome};

use crate::proto::NetMessage;
use crate::wire::{WireCodec, WireError};

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
/// blocking reads from outside.
#[derive(Default)]
pub(crate) struct ConnRegistry {
    streams: Mutex<Vec<TcpStream>>,
}

impl ConnRegistry {
    fn track(&self, stream: &TcpStream) {
        if let Ok(clone) = stream.try_clone() {
            self.streams
                .lock()
                .expect("connection registry poisoned")
                .push(clone);
        }
    }

    fn shutdown_all(&self) {
        for stream in self
            .streams
            .lock()
            .expect("connection registry poisoned")
            .drain(..)
        {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
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
                    conns.track(&stream);
                    let service = Arc::clone(&service);
                    let stop_flag = Arc::clone(&stop);
                    let poke_addr = addr;
                    if let Ok(worker) = std::thread::Builder::new()
                        .name(format!("{name}-conn"))
                        .spawn(move || conn_loop(stream, &*service, &stop_flag, poke_addr))
                    {
                        workers
                            .lock()
                            .expect("worker registry poisoned")
                            .push(worker);
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

/// Serves one connection until end-of-stream, error, or shutdown.
fn conn_loop(stream: TcpStream, service: &dyn Service, stop: &AtomicBool, poke_addr: SocketAddr) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut inbuf = Vec::new();
    let mut out = Vec::new();
    let mut batch = OpBatch::new();
    loop {
        let request = WireCodec::read_payload_into(&mut reader, &mut inbuf).and_then(|more| {
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
                reply.encode_frame_into(&mut out);
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
                NetMessage::ErrorReply {
                    code: ERR_BAD_REQUEST,
                    detail: err.to_string(),
                }
                .encode_frame_into(&mut out);
                let _ = writer.write_all(&out);
                break;
            }
        }
    }
}
