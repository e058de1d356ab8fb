//! The loopback harness: a whole fleet — rendezvous plus `R` replica
//! servers — inside one process, on ephemeral `127.0.0.1` ports.
//!
//! This is real TCP end to end (real frames, real accept loops, real
//! thread-per-connection replicas), just without process boundaries —
//! the configuration the end-to-end tests and `ghba-benchmark`'s
//! `net_mixed` workload run, and a deterministic twin of the
//! multi-process deployment the binaries provide.
//!
//! [`LoopbackNet::ground_truth`] builds the in-process
//! [`Federation`] with the *same* base config, replica count, and
//! seed derivation, so a test can replay identical batches through
//! both transports and demand bit-identical outcomes.

use std::path::PathBuf;
use std::time::Duration;

use ghba_core::{GhbaConfig, SyncPolicy};

use crate::client::NetClient;
use crate::rendezvous::Rendezvous;
use crate::replica::{ReplicaConfig, ReplicaServer};
use crate::route::Federation;
use crate::wire::WireError;

/// The shape of a loopback fleet.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Number of replica servers (namespace shards).
    pub replicas: usize,
    /// MDS servers per replica cluster.
    pub servers: usize,
    /// Base cluster configuration (per-replica seeds derive from it).
    pub base: GhbaConfig,
    /// Background reconciliation cadence for every replica.
    pub drain_cadence: Duration,
    /// Durability root: replica `r` logs under `<wal_root>/replica-r`.
    /// `None` keeps the fleet in-memory.
    pub wal_root: Option<PathBuf>,
    /// WAL sync policy for every replica (ignored without `wal_root`).
    pub sync_policy: SyncPolicy,
}

impl FleetSpec {
    /// A fleet of `replicas` shards with `servers` MDSs each and a
    /// one-hour cadence — background drains effectively disabled, so
    /// tests control every publish point with explicit barriers.
    #[must_use]
    pub fn new(replicas: usize, servers: usize, base: GhbaConfig) -> Self {
        FleetSpec {
            replicas,
            servers,
            base,
            drain_cadence: Duration::from_secs(3600),
            wal_root: None,
            sync_policy: SyncPolicy::EveryBatch,
        }
    }

    /// Overrides the background drain cadence (builder style).
    #[must_use]
    pub fn with_drain_cadence(mut self, cadence: Duration) -> Self {
        self.drain_cadence = cadence;
        self
    }

    /// Makes every replica durable under `root` (builder style):
    /// replica `r` writes its checkpoint and WAL to `root/replica-r`,
    /// and [`LoopbackNet::restart_replica`] recovers from there.
    #[must_use]
    pub fn with_wal_root(mut self, root: impl Into<PathBuf>) -> Self {
        self.wal_root = Some(root.into());
        self
    }

    /// Overrides the WAL sync policy (builder style).
    #[must_use]
    pub fn with_sync_policy(mut self, policy: SyncPolicy) -> Self {
        self.sync_policy = policy;
        self
    }

    fn replica_config(&self, r: usize, rendezvous_addr: String) -> ReplicaConfig {
        let mut config = ReplicaConfig::new(r as u16, self.servers, self.base.clone())
            .with_rendezvous(rendezvous_addr)
            .with_drain_cadence(self.drain_cadence)
            .with_sync_policy(self.sync_policy);
        if let Some(root) = &self.wal_root {
            config = config.with_wal_dir(root.join(format!("replica-{r}")));
        }
        config
    }
}

/// A running loopback fleet. Dropping it shuts everything down.
#[derive(Debug)]
pub struct LoopbackNet {
    spec: FleetSpec,
    rendezvous: Rendezvous,
    replicas: Vec<Option<ReplicaServer>>,
}

impl LoopbackNet {
    /// Launches the rendezvous and every replica (each registering
    /// itself), all on ephemeral loopback ports.
    ///
    /// # Errors
    ///
    /// Fails when any bind or registration fails.
    pub fn launch(spec: FleetSpec) -> std::io::Result<LoopbackNet> {
        assert!(spec.replicas > 0, "a fleet needs at least one replica");
        let rendezvous = Rendezvous::spawn("127.0.0.1:0")?;
        let rendezvous_addr = rendezvous.addr().to_string();
        let mut replicas = Vec::with_capacity(spec.replicas);
        for r in 0..spec.replicas {
            replicas.push(Some(ReplicaServer::spawn(
                spec.replica_config(r, rendezvous_addr.clone()),
            )?));
        }
        Ok(LoopbackNet {
            spec,
            rendezvous,
            replicas,
        })
    }

    /// The rendezvous address clients connect to.
    #[must_use]
    pub fn rendezvous_addr(&self) -> String {
        self.rendezvous.addr().to_string()
    }

    /// The fleet's shape.
    #[must_use]
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// Connects a new client to the whole fleet.
    ///
    /// # Errors
    ///
    /// Propagates discovery or connection failures.
    pub fn client(&self) -> Result<NetClient, WireError> {
        NetClient::connect(
            &self.rendezvous_addr(),
            self.spec.replicas,
            Duration::from_secs(10),
        )
    }

    /// The in-process twin of this fleet: identical base config,
    /// replica count, server count, and seed derivation. Replaying the
    /// same batches through it must yield bit-identical outcomes.
    #[must_use]
    pub fn ground_truth(&self) -> Federation {
        Federation::new(&self.spec.base, self.spec.replicas, self.spec.servers)
    }

    /// Kills replica `index` as a crash would: the accept loop stops,
    /// the background reconciler is abandoned mid-cycle (no final
    /// drain), and un-drained writes are lost exactly as a process
    /// kill would lose them. The replica's WAL directory (when the
    /// fleet has one) survives for [`LoopbackNet::restart_replica`].
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range or already killed.
    pub fn kill_replica(&mut self, index: usize) {
        self.replicas[index]
            .take()
            .expect("replica already killed")
            .kill();
    }

    /// Restarts a killed replica: a fresh [`ReplicaServer`] spawns on
    /// a new ephemeral port with the same index and configuration,
    /// recovers from its WAL directory (when the fleet has one), and
    /// re-registers with the rendezvous — bumping the directory epoch
    /// so clients re-discover the new address.
    ///
    /// # Errors
    ///
    /// Propagates recovery, bind, or registration failures.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range or the replica is running.
    pub fn restart_replica(&mut self, index: usize) -> std::io::Result<()> {
        assert!(
            self.replicas[index].is_none(),
            "replica {index} is still running"
        );
        let config = self.spec.replica_config(index, self.rendezvous_addr());
        self.replicas[index] = Some(ReplicaServer::spawn(config)?);
        Ok(())
    }

    /// The rendezvous registration epoch replica `index` last acked.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range or the replica is killed.
    #[must_use]
    pub fn registration_epoch(&self, index: usize) -> u64 {
        self.replicas[index]
            .as_ref()
            .expect("replica is killed")
            .registration_epoch()
    }

    /// Shuts the whole fleet down, joining every thread.
    pub fn shutdown(self) {
        for replica in self.replicas.into_iter().flatten() {
            replica.shutdown();
        }
        self.rendezvous.shutdown();
    }
}
