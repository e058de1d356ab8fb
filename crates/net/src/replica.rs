//! The replica server: one shard of the namespace, one full
//! [`GhbaCluster`], served over TCP.
//!
//! # Serve/drain lifecycle
//!
//! A replica's life has two interleaved strands:
//!
//! * **Serving** (`&self`): every connection thread answers
//!   [`NetMessage::ExecuteBatch`] through the pin-once concurrent
//!   pipeline — a **read** lock on the cluster and a call to
//!   [`MetadataService::execute_concurrent`]. Any number of batches
//!   execute in parallel; each pins one route snapshot and appends its
//!   writes to the fingerprint-sharded namespace logs.
//! * **Draining** (`&mut self`): the shard logs are taken, appended to
//!   the WAL, and replayed into the authoritative stores, then every
//!   drifted filter is flushed to its replicas (serving itself never
//!   publishes). Two triggers exist: the background [`Reconciler`] thread
//!   ticks on a configurable cadence
//!   ([`ReplicaConfig::drain_cadence`]), and clients force a
//!   synchronous barrier with [`NetMessage::Drain`] (answered by
//!   [`NetMessage::DrainAck`] once the **write** lock has been taken,
//!   the logs replayed, and all pending publishes pushed). Serving
//!   pauses for as long as that lock is held — log replay, WAL append
//!   and the flush of every drifted filter as one successor snapshot:
//!   ≈ 1.3 ms per tick on the benchmark's 24-server replicas (≈ 1.9 ms
//!   while the flush swapped one snapshot per server, 9.9 ms before it
//!   cost only what changed; breakdown in `ghba-core`'s
//!   `reconcile.rs`). The cadence is the sleep *between* ticks, not
//!   their period.
//!
//! The end-to-end tests exploit the split: they set a long cadence (so
//! the background thread never interferes) and place explicit `Drain`
//! barriers at phase boundaries, making the publish points — and hence
//! every outcome — deterministic.
//!
//! Beyond batches, a replica answers [`NetMessage::GroupProbe`]
//! multicasts (probing each local server's published filter with the
//! fingerprint from the frame — the wire form of the in-process
//! group multicast), adopts newer membership views from
//! [`NetMessage::Gossip`], and reports counters via
//! [`NetMessage::Stats`].

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use ghba_core::{
    ControllerConfig, GhbaCluster, GhbaConfig, GroupController, MdsId, MetadataService, OpBatch,
    OpOutcome, Reconciler, SyncPolicy, WalOptions,
};

use crate::proto::NetMessage;
use crate::route::replica_config;
use crate::serve::{ServerCore, Service, ServiceReply, ERR_UNSUPPORTED};
use crate::wire::WireError;

/// How a [`ReplicaServer`] is built.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// This replica's shard index in the fleet.
    pub replica: u16,
    /// MDS servers inside this replica's cluster.
    pub servers: usize,
    /// The fleet's base cluster configuration; the per-replica seed
    /// offset is applied by [`replica_config`].
    pub base: GhbaConfig,
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub bind: String,
    /// Rendezvous address to register with, if any.
    pub rendezvous: Option<String>,
    /// Background reconciliation cadence. Long cadences effectively
    /// disable the background strand (tests drive drains explicitly).
    pub drain_cadence: Duration,
    /// When set, an online [`GroupController`] rides the reconciler
    /// cadence: each tick closes a load window
    /// ([`GhbaCluster::load_report`]) and actuates any planned
    /// split/merge/rebalance through the cluster's reconfig handle —
    /// the adaptive control plane, on by opt-in only.
    pub controller: Option<ControllerConfig>,
    /// When set, the replica is durable: on spawn it recovers the
    /// cluster from this WAL directory (checkpoint + log-tail replay;
    /// an empty directory is a fresh first boot) and every subsequent
    /// drain is write-ahead logged there.
    pub wal_dir: Option<PathBuf>,
    /// WAL sync policy (only meaningful with
    /// [`wal_dir`](ReplicaConfig::wal_dir) set).
    pub sync_policy: SyncPolicy,
    /// Install a checkpoint and truncate the log every this many WAL
    /// records; `0` disables automatic checkpoints.
    pub checkpoint_every: u64,
    /// Fault injection: `abort()` the whole process (no drain, no
    /// unwind — SIGABRT, the in-tree stand-in for SIGKILL) after
    /// serving this many `ExecuteBatch` frames. For crash-recovery
    /// harnesses only; `None` in any real deployment.
    pub crash_after_batches: Option<u64>,
}

impl ReplicaConfig {
    /// A replica of `fleet_index` with `servers` MDSs on an ephemeral
    /// loopback port, background drains every 50ms.
    #[must_use]
    pub fn new(replica: u16, servers: usize, base: GhbaConfig) -> Self {
        ReplicaConfig {
            replica,
            servers,
            base,
            bind: "127.0.0.1:0".to_string(),
            rendezvous: None,
            drain_cadence: Duration::from_millis(50),
            controller: None,
            wal_dir: None,
            sync_policy: SyncPolicy::EveryBatch,
            checkpoint_every: 0,
            crash_after_batches: None,
        }
    }

    /// Registers with a rendezvous server at `addr` on startup
    /// (builder style).
    #[must_use]
    pub fn with_rendezvous(mut self, addr: impl Into<String>) -> Self {
        self.rendezvous = Some(addr.into());
        self
    }

    /// Overrides the background drain cadence (builder style).
    #[must_use]
    pub fn with_drain_cadence(mut self, cadence: Duration) -> Self {
        self.drain_cadence = cadence;
        self
    }

    /// Enables the adaptive control plane: a [`GroupController`] with
    /// this configuration ticks on the reconciler cadence (builder
    /// style).
    #[must_use]
    pub fn with_controller(mut self, cfg: ControllerConfig) -> Self {
        self.controller = Some(cfg);
        self
    }

    /// Makes the replica durable: recover from (and keep logging to)
    /// this WAL directory (builder style).
    #[must_use]
    pub fn with_wal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.wal_dir = Some(dir.into());
        self
    }

    /// Overrides the WAL sync policy (builder style).
    #[must_use]
    pub fn with_sync_policy(mut self, policy: SyncPolicy) -> Self {
        self.sync_policy = policy;
        self
    }

    /// Enables automatic checkpoints every `records` WAL records
    /// (builder style).
    #[must_use]
    pub fn with_checkpoint_every(mut self, records: u64) -> Self {
        self.checkpoint_every = records;
        self
    }

    /// Fault injection: abort the process after `batches` served
    /// batches (builder style; see
    /// [`crash_after_batches`](ReplicaConfig::crash_after_batches)).
    #[must_use]
    pub fn with_crash_after_batches(mut self, batches: u64) -> Self {
        self.crash_after_batches = Some(batches);
        self
    }
}

/// State shared between connection threads and the reconciler.
struct ReplicaShared {
    replica: u16,
    cluster: RwLock<GhbaCluster>,
    /// Newest gossiped `(epoch, members)` view (epoch 0 = none yet).
    membership: Mutex<(u64, Vec<MdsId>)>,
    batches_served: AtomicU64,
    /// Write records reconciled over the server's lifetime (both
    /// barrier drains and background ticks).
    drained_total: AtomicU64,
    /// Reconfigurations the online controller actuated (splits +
    /// merges + rebalances) over the server's lifetime.
    adapt_actions: AtomicU64,
    /// Directory epoch the rendezvous acked our most recent
    /// registration under (0 = never registered). Strictly increases
    /// across restart/re-register cycles — including re-registration
    /// after a liveness prune.
    registration_epoch: AtomicU64,
    /// Fault injection: abort the process after this many served
    /// batches (0 = disabled; see
    /// [`ReplicaConfig::crash_after_batches`]).
    crash_after_batches: u64,
}

impl ReplicaShared {
    /// Drains under the write lock; returns records reconciled — the
    /// drain's own count of what it replayed, one sweep of the shard
    /// locks. None are left pending: the drain takes every shard log
    /// while the write lock keeps batches out, which is why a barrier
    /// reply's `pending` is 0 without another sweep.
    fn drain(&self) -> u64 {
        let mut cluster = self.cluster.write().expect("cluster lock poisoned");
        let drained = cluster.drain_concurrent();
        let _ = cluster.flush_all_updates();
        self.drained_total.fetch_add(drained, Ordering::Relaxed);
        drained
    }

    /// One control-plane tick: closes the cluster's load window and
    /// actuates whatever the controller plans through the reconfig
    /// handle. Runs under the **read** lock — actuation is a
    /// one-pointer snapshot swap, so serving never pauses for it.
    fn adapt_tick(&self, controller: &mut GroupController) {
        let cluster = self.cluster.read().expect("cluster lock poisoned");
        let report = cluster.load_report();
        let handle = cluster.reconfig_handle();
        drop(cluster);
        let accepted = controller.actuate(&report, &handle);
        self.adapt_actions
            .fetch_add(accepted.len() as u64, Ordering::Relaxed);
    }
}

impl Service for ReplicaShared {
    /// Runs `batch` under the read lock: the pin-once pipeline, then
    /// the served-batch count and the crash injection.
    fn execute(&self, batch: &OpBatch) -> Option<Vec<OpOutcome>> {
        let cluster = self.cluster.read().expect("cluster lock poisoned");
        let outcomes = cluster.execute_concurrent(batch);
        drop(cluster);
        let served = self.batches_served.fetch_add(1, Ordering::Relaxed) + 1;
        if self.crash_after_batches > 0 && served >= self.crash_after_batches {
            // Fault injection: die like a SIGKILL would — no reply, no
            // drain, no unwinding. Whatever the WAL synced is all
            // recovery gets.
            std::process::abort();
        }
        Some(outcomes)
    }

    fn handle(&self, msg: NetMessage) -> ServiceReply {
        match msg {
            NetMessage::Drain => {
                let drained = self.drain();
                ServiceReply::Message(NetMessage::DrainAck {
                    drained,
                    pending: 0,
                })
            }
            NetMessage::GroupProbe { qid, fp } => {
                let cluster = self.cluster.read().expect("cluster lock poisoned");
                let positives = cluster.published_positives(&fp);
                ServiceReply::Message(NetMessage::ProbeReply {
                    qid,
                    replica: self.replica,
                    positives,
                })
            }
            NetMessage::Gossip { epoch, members } => {
                let mut view = self.membership.lock().expect("membership poisoned");
                if epoch > view.0 {
                    *view = (epoch, members);
                }
                ServiceReply::Silent
            }
            NetMessage::Stats => {
                let pending = self
                    .cluster
                    .read()
                    .expect("cluster lock poisoned")
                    .pending_concurrent_writes();
                ServiceReply::Message(NetMessage::StatsReply {
                    pending,
                    batches_served: self.batches_served.load(Ordering::Relaxed),
                    gossip_epoch: self.membership.lock().expect("membership poisoned").0,
                })
            }
            NetMessage::Ping { nonce } => ServiceReply::Message(NetMessage::Pong { nonce }),
            NetMessage::Shutdown => ServiceReply::Shutdown,
            other => ServiceReply::Message(NetMessage::ErrorReply {
                code: ERR_UNSUPPORTED,
                detail: format!("replica does not serve {other:?}"),
            }),
        }
    }
}

/// A running replica server. Dropping it stops the reconciler and the
/// TCP server and joins every thread.
pub struct ReplicaServer {
    core: ServerCore,
    shared: Arc<ReplicaShared>,
    reconciler: Option<Reconciler>,
}

impl std::fmt::Debug for ReplicaServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaServer")
            .field("replica", &self.shared.replica)
            .field("addr", &self.core.addr())
            .finish_non_exhaustive()
    }
}

impl ReplicaServer {
    /// Builds the shard cluster (seed offset per
    /// [`replica_config`]), binds, starts serving, spawns the
    /// background reconciler, and — when a rendezvous address is
    /// configured — registers, retrying for a few seconds while the
    /// rendezvous comes up.
    ///
    /// # Errors
    ///
    /// Fails when the bind fails or registration cannot reach the
    /// rendezvous.
    pub fn spawn(config: ReplicaConfig) -> std::io::Result<ReplicaServer> {
        let shard_config = replica_config(&config.base, config.replica as usize);
        let cluster = match &config.wal_dir {
            Some(dir) => GhbaCluster::recover(
                shard_config,
                config.servers,
                dir,
                WalOptions {
                    sync: config.sync_policy,
                    checkpoint_every: config.checkpoint_every,
                },
            )
            .map_err(|err| std::io::Error::other(format!("wal recovery: {err}")))?,
            None => GhbaCluster::with_servers(shard_config, config.servers),
        };
        let shared = Arc::new(ReplicaShared {
            replica: config.replica,
            cluster: RwLock::new(cluster),
            membership: Mutex::new((0, Vec::new())),
            batches_served: AtomicU64::new(0),
            drained_total: AtomicU64::new(0),
            adapt_actions: AtomicU64::new(0),
            registration_epoch: AtomicU64::new(0),
            crash_after_batches: config.crash_after_batches.unwrap_or(0),
        });
        let core = ServerCore::spawn(
            &config.bind,
            "replica",
            Arc::<ReplicaShared>::clone(&shared) as Arc<dyn Service>,
        )?;
        let reconciler = {
            let shared = Arc::clone(&shared);
            let mut controller = config.controller.clone().map(GroupController::new);
            Reconciler::spawn(config.drain_cadence, move || {
                shared.drain();
                if let Some(controller) = controller.as_mut() {
                    shared.adapt_tick(controller);
                }
            })
        };
        let server = ReplicaServer {
            core,
            shared,
            reconciler: Some(reconciler),
        };
        if let Some(rendezvous) = &config.rendezvous {
            server.register(rendezvous)?;
        }
        Ok(server)
    }

    /// Registers this replica's serving address with the rendezvous,
    /// retrying the connection for ~5s.
    fn register(&self, rendezvous: &str) -> std::io::Result<()> {
        let mut last_err = None;
        for _ in 0..100 {
            match std::net::TcpStream::connect(rendezvous) {
                Ok(mut stream) => {
                    let msg = NetMessage::RegisterReplica {
                        replica: self.shared.replica,
                        addr: self.core.addr().to_string(),
                    };
                    if let Err(err) = msg.write_to(&mut stream) {
                        last_err = Some(wire_to_io(err));
                    } else {
                        let mut reader = std::io::BufReader::new(stream);
                        return match NetMessage::read_from(&mut reader) {
                            Ok(Some(NetMessage::RegisterAck { epoch })) => {
                                // The directory epoch our entry became
                                // visible under — strictly above any
                                // epoch that pruned a previous
                                // incarnation of this replica.
                                self.shared
                                    .registration_epoch
                                    .store(epoch, Ordering::Release);
                                Ok(())
                            }
                            Ok(reply) => Err(std::io::Error::other(format!(
                                "unexpected registration reply: {reply:?}"
                            ))),
                            Err(err) => Err(wire_to_io(err)),
                        };
                    }
                }
                Err(err) => last_err = Some(err),
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        Err(last_err.unwrap_or_else(|| std::io::Error::other("registration failed")))
    }

    /// The bound serving address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.core.addr()
    }

    /// This replica's shard index.
    #[must_use]
    pub fn replica(&self) -> u16 {
        self.shared.replica
    }

    /// Write records reconciled since startup.
    #[must_use]
    pub fn drained_total(&self) -> u64 {
        self.shared.drained_total.load(Ordering::Relaxed)
    }

    /// Reconfigurations the online controller actuated since startup
    /// (0 when [`ReplicaConfig::controller`] is unset).
    #[must_use]
    pub fn adapt_actions(&self) -> u64 {
        self.shared.adapt_actions.load(Ordering::Relaxed)
    }

    /// The rendezvous directory epoch this replica's most recent
    /// registration was acked under (0 when never registered). After a
    /// recovery re-registration this is strictly above the epoch any
    /// liveness prune of the previous incarnation bumped the directory
    /// to.
    #[must_use]
    pub fn registration_epoch(&self) -> u64 {
        self.shared.registration_epoch.load(Ordering::Acquire)
    }

    /// `true` once a stop has been requested (locally or by a remote
    /// [`NetMessage::Shutdown`] frame) — the binaries poll this.
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.core.is_stopped()
    }

    /// Stops the reconciler (running one final drain) and the TCP
    /// server, joining every thread.
    pub fn shutdown(mut self) {
        if let Some(reconciler) = self.reconciler.take() {
            reconciler.shutdown();
        }
        self.core.shutdown();
    }

    /// In-process crash injection: stops the TCP server and the
    /// reconciler **without** the final drain (the reconciler thread is
    /// aborted, not shut down), then drops the cluster — un-drained
    /// shard writes and un-synced WAL buffers are lost exactly as a
    /// process kill would lose them. The WAL directory survives for a
    /// successor [`spawn`](ReplicaServer::spawn) to recover from.
    pub fn kill(mut self) {
        if let Some(reconciler) = self.reconciler.take() {
            reconciler.abort();
        }
        self.core.shutdown();
    }
}

impl Drop for ReplicaServer {
    fn drop(&mut self) {
        if let Some(reconciler) = self.reconciler.take() {
            reconciler.shutdown();
        }
        self.core.shutdown();
    }
}

fn wire_to_io(err: WireError) -> std::io::Error {
    match err {
        WireError::Io(io) => io,
        other => std::io::Error::other(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rendezvous::Rendezvous;
    use std::io::BufReader;
    use std::net::TcpStream;

    fn config() -> GhbaConfig {
        GhbaConfig::default()
            .with_filter_capacity(10_000)
            .with_lru_capacity(0)
    }

    fn request(addr: SocketAddr, msg: &NetMessage) -> NetMessage {
        let mut stream = TcpStream::connect(addr).expect("connect");
        msg.write_to(&mut stream).expect("send");
        let mut reader = BufReader::new(stream);
        NetMessage::read_from(&mut reader)
            .expect("well-formed reply")
            .expect("a reply")
    }

    #[test]
    fn serves_batches_and_drains_on_request() {
        let server = ReplicaServer::spawn(
            ReplicaConfig::new(0, 4, config()).with_drain_cadence(Duration::from_secs(3600)),
        )
        .expect("spawn");
        let mut batch = OpBatch::new().with_entry(ghba_core::EntryPolicy::Pinned(MdsId(2)));
        batch.push_create("/r/a");
        batch.push_lookup("/r/a");
        let reply = request(server.addr(), &NetMessage::ExecuteBatch { seq: 7, batch });
        let NetMessage::BatchReply { seq, outcomes } = reply else {
            panic!("got {reply:?}");
        };
        assert_eq!(seq, 7);
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].home(), Some(MdsId(2)));

        let ack = request(server.addr(), &NetMessage::Drain);
        let NetMessage::DrainAck { drained, pending } = ack else {
            panic!("got {ack:?}");
        };
        assert!(drained >= 1, "the create was pending");
        assert_eq!(pending, 0);
        server.shutdown();
    }

    #[test]
    fn background_reconciler_drains_without_barriers() {
        let server = ReplicaServer::spawn(
            ReplicaConfig::new(0, 2, config()).with_drain_cadence(Duration::from_millis(5)),
        )
        .expect("spawn");
        let mut batch = OpBatch::new().with_entry(ghba_core::EntryPolicy::Pinned(MdsId(0)));
        batch.push_create("/bg/a");
        request(server.addr(), &NetMessage::ExecuteBatch { seq: 0, batch });
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let NetMessage::StatsReply { pending, .. } = request(server.addr(), &NetMessage::Stats)
            else {
                panic!("stats reply");
            };
            if pending == 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "reconciler never drained the pending create"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(server.drained_total() >= 1);
        server.shutdown();
    }

    #[test]
    fn gossip_adopts_only_newer_epochs() {
        let server = ReplicaServer::spawn(
            ReplicaConfig::new(1, 2, config()).with_drain_cadence(Duration::from_secs(3600)),
        )
        .expect("spawn");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        NetMessage::Gossip {
            epoch: 5,
            members: vec![MdsId(0)],
        }
        .write_to(&mut stream)
        .expect("send");
        NetMessage::Gossip {
            epoch: 3,
            members: vec![MdsId(9)],
        }
        .write_to(&mut stream)
        .expect("send");
        // Same connection: the Stats request is handled after both
        // gossip frames.
        NetMessage::Stats.write_to(&mut stream).expect("send");
        let mut reader = BufReader::new(stream);
        let reply = NetMessage::read_from(&mut reader)
            .expect("well-formed")
            .expect("a reply");
        let NetMessage::StatsReply { gossip_epoch, .. } = reply else {
            panic!("got {reply:?}");
        };
        assert_eq!(gossip_epoch, 5, "older epoch must not regress the view");
        server.shutdown();
    }

    #[test]
    fn group_probe_reports_published_homes() {
        let server = ReplicaServer::spawn(
            ReplicaConfig::new(0, 4, config()).with_drain_cadence(Duration::from_secs(3600)),
        )
        .expect("spawn");
        let mut batch = OpBatch::new().with_entry(ghba_core::EntryPolicy::Pinned(MdsId(3)));
        batch.push_create("/probe/x");
        request(server.addr(), &NetMessage::ExecuteBatch { seq: 0, batch });
        // Publish via drain so the published filters see the create.
        request(server.addr(), &NetMessage::Drain);
        let fp = *ghba_core::PathKey::new("/probe/x").fingerprint();
        let reply = request(server.addr(), &NetMessage::GroupProbe { qid: 11, fp });
        let NetMessage::ProbeReply {
            qid,
            replica,
            positives,
        } = reply
        else {
            panic!("got {reply:?}");
        };
        assert_eq!((qid, replica), (11, 0));
        assert!(
            positives.contains(&MdsId(3)),
            "published filter must claim the create (got {positives:?})"
        );
        server.shutdown();
    }

    #[test]
    fn controller_splits_hot_group_under_live_traffic() {
        // 16 servers in two groups of 8: pinning every lookup into the
        // first group gives it a 1.0 traffic share (fair is 0.5, hot
        // threshold 0.8), so the controller riding the reconciler
        // cadence must split it — without pausing the serving strand.
        let server = ReplicaServer::spawn(
            ReplicaConfig::new(0, 16, config().with_max_group_size(8))
                .with_drain_cadence(Duration::from_millis(10))
                .with_controller(ghba_core::ControllerConfig::default()),
        )
        .expect("spawn");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut seq = 0u64;
        while server.adapt_actions() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "controller never actuated on an all-hot group"
            );
            let mut batch = OpBatch::new().with_entry(ghba_core::EntryPolicy::Pinned(MdsId(0)));
            for i in 0..96 {
                batch.push_lookup(format!("/hot/f{i}"));
            }
            let reply = request(server.addr(), &NetMessage::ExecuteBatch { seq, batch });
            assert!(matches!(reply, NetMessage::BatchReply { .. }));
            seq += 1;
        }
        // Serving continues across the actuated reconfiguration.
        let mut batch = OpBatch::new().with_entry(ghba_core::EntryPolicy::Pinned(MdsId(0)));
        batch.push_create("/hot/after");
        batch.push_lookup("/hot/after");
        let reply = request(server.addr(), &NetMessage::ExecuteBatch { seq, batch });
        let NetMessage::BatchReply { outcomes, .. } = reply else {
            panic!("got {reply:?}");
        };
        assert!(outcomes[1].home().is_some(), "lookup after split resolves");
        server.shutdown();
    }

    #[test]
    fn registers_with_rendezvous_on_spawn() {
        let rendezvous = Rendezvous::spawn("127.0.0.1:0").expect("bind");
        let server = ReplicaServer::spawn(
            ReplicaConfig::new(2, 2, config())
                .with_rendezvous(rendezvous.addr().to_string())
                .with_drain_cadence(Duration::from_secs(3600)),
        )
        .expect("spawn");
        let (epoch, replicas) = rendezvous.snapshot();
        assert_eq!(epoch, 1);
        assert_eq!(replicas, vec![(2, server.addr().to_string())]);
        server.shutdown();
        rendezvous.shutdown();
    }
}
