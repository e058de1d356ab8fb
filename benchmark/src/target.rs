//! The systems under test: how each workload's deployment is built,
//! driven one batch at a time, and recovered.
//!
//! Three deployments exist. [`ClusterTarget`] is one in-process
//! `GhbaCluster` (`read_hot`, `write_churn`, `reconfig_reads`).
//! [`NetTarget`] is the loopback TCP fleet (`net_mixed`). [`FedTarget`] is
//! that fleet's in-process twin, used only by the traced round to price
//! the wire. All calls go through public functions of the library crates,
//! wrapped in spans when the round is traced.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ghba_core::{
    Checkpoint, EntryPolicy, GhbaCluster, GhbaConfig, GroupId, MetadataService, OpBatch, OpOutcome,
    PathKey, ReconfigHandle, SyncPolicy, Wal, WalOptions,
};
use ghba_net::{
    execute_sharded, replica_config, replica_of, BatchTransport, Federation, FleetSpec,
    LoopbackNet, NetClient, WireError,
};

use crate::gen::{path_of, Generator, OpKind, OpSpec, Segment};
use crate::metrics::Workload;
use crate::oracle::Oracle;
use crate::spans::Spans;

/// Servers of the in-process cluster (8 groups of 6).
pub const CLUSTER_SERVERS: usize = 48;
/// Replicas of the loopback fleet.
pub const FLEET_REPLICAS: usize = 2;
/// Servers per fleet replica (4 groups of 6).
pub const FLEET_SERVERS: usize = 24;
/// Background reconciliation cadence of the fleet's replicas.
const FLEET_DRAIN_CADENCE: Duration = Duration::from_millis(25);
/// `write_churn` drains its shard logs after this many batches.
pub const DRAIN_EVERY: u64 = 4;
/// `write_churn` checkpoints after this many WAL records.
const CHECKPOINT_EVERY: u64 = 256;
/// `reconfig_reads` reconfigures after every this many batches.
pub const ACTION_EVERY: u64 = 40;
/// Every this many actions, the action is a split …
const SPLIT_EVERY: u64 = 8;
/// … undone by a merge this many actions later.
const MERGE_AFTER: u64 = 4;
/// `reconfig_reads` closes a load-telemetry window after this many
/// batches.
const REPORT_EVERY: u64 = 200;
/// Creates per population batch.
const POPULATE_BATCH: usize = 512;
/// The in-process fleet drains after this many batches: at the loopback
/// fleet's speed, about one reconciler cadence.
const FED_DRAIN_EVERY: u64 = 256;

/// The cluster configuration every workload runs (`G` in the README).
#[must_use]
pub fn base_config() -> GhbaConfig {
    GhbaConfig::default()
        .with_max_group_size(6)
        .with_lru_capacity(0)
        .with_filter_capacity(8_000)
}

/// A scratch directory under the benchmark's `out/`, removed on drop —
/// also when a panic unwinds through the round.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `out_dir/tmp-<pid>-<n>`.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error.
    pub fn create(out_dir: &Path) -> Result<TempDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = out_dir.join(format!(
            "tmp-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|err| format!("cannot create {}: {err}", path.display()))?;
        Ok(TempDir { path })
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Builds `OpBatch`es from generated ops: the admission step (one
/// `String` and one fingerprint per path), under a round-robin entry
/// policy whose cursor runs on across batches.
#[derive(Debug, Default)]
pub struct Admission {
    cursor: usize,
}

impl Admission {
    /// Admits `ops` as one batch.
    pub fn admit(&mut self, segment: &Segment, ops: &[OpSpec]) -> OpBatch {
        let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: self.cursor });
        self.cursor = self.cursor.wrapping_add(ops.len());
        for op in ops {
            match op.kind {
                OpKind::LookupLive | OpKind::LookupMissing => batch.push_lookup(segment.path(op)),
                OpKind::Create => batch.push_create(segment.path(op)),
                OpKind::Remove => batch.push_remove(segment.path(op)),
                OpKind::Rename => batch.push_rename(segment.path(op), segment.to_path(op)),
            }
        }
        batch
    }
}

/// What a round drives. `index` is the batch's position in the workload's
/// stream, counted from the first warm-up batch.
pub trait Target {
    /// Executes one batch of the stream, plus whatever the workload
    /// schedules after it (drains, reconfiguration, telemetry).
    ///
    /// # Errors
    ///
    /// A transport or protocol failure; the batch then counts as failed.
    fn step(
        &mut self,
        index: u64,
        batch: &OpBatch,
        spans: &mut Spans,
    ) -> Result<Vec<OpOutcome>, String>;

    /// Closes a segment: the workload's final drain and flush.
    ///
    /// # Errors
    ///
    /// A transport or protocol failure.
    fn close_segment(&mut self, spans: &mut Spans) -> Result<(), String>;

    /// Executes a batch outside the stream (population, audit).
    ///
    /// # Errors
    ///
    /// A transport or protocol failure.
    fn execute(&mut self, batch: &OpBatch) -> Result<Vec<OpOutcome>, String>;

    /// Publishes every pending write (drain and flush everywhere).
    ///
    /// # Errors
    ///
    /// A transport or protocol failure.
    fn settle(&mut self) -> Result<(), String>;
}

/// The scheduled reconfiguration of `reconfig_reads`: a pure function of
/// the seed and the batch index.
#[derive(Debug)]
pub struct ReconfigSchedule {
    handle: ReconfigHandle,
    seed: u64,
    /// The split not yet merged back: `(kept group, new group)`.
    outstanding: Option<(GroupId, GroupId)>,
    /// Actions performed so far.
    pub actions: u64,
}

/// One scheduled action, before it is bound to a live group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Rebalance the group with this ordinal (taken modulo the live
    /// group count).
    Rebalance(u64),
    /// Split the group with this ordinal.
    Split(u64),
    /// Merge the outstanding split back.
    Merge,
}

/// The action scheduled after `count` batches of the stream, if any.
#[must_use]
pub fn scheduled_action(seed: u64, count: u64) -> Option<Action> {
    if count == 0 || !count.is_multiple_of(ACTION_EVERY) {
        return None;
    }
    let number = count / ACTION_EVERY;
    Some(if number.is_multiple_of(SPLIT_EVERY) {
        Action::Split(seed.wrapping_add(number / SPLIT_EVERY))
    } else if number % SPLIT_EVERY == MERGE_AFTER {
        Action::Merge
    } else {
        Action::Rebalance(seed.wrapping_add(number))
    })
}

impl ReconfigSchedule {
    fn new(cluster: &GhbaCluster, seed: u64) -> Self {
        ReconfigSchedule {
            handle: cluster.reconfig_handle(),
            seed,
            outstanding: None,
            actions: 0,
        }
    }

    fn pick(&self, ordinal: u64) -> GroupId {
        let groups = self.handle.group_ids();
        groups[(ordinal % groups.len() as u64) as usize]
    }

    fn merge_outstanding(&mut self, spans: &mut Spans) {
        if let Some((kept, new)) = self.outstanding.take() {
            let handle = &self.handle;
            let merged = spans.scope("reconfig.merge", |_| handle.merge_groups(kept, new));
            assert!(merged, "the split's halves always fit back together");
            self.actions += 1;
        }
    }

    fn after_batch(&mut self, count: u64, cluster: &GhbaCluster, spans: &mut Spans) {
        match scheduled_action(self.seed, count) {
            None => {}
            Some(Action::Merge) => self.merge_outstanding(spans),
            Some(Action::Split(ordinal)) => {
                // At most one split is ever outstanding, so the group
                // count ends where it started.
                self.merge_outstanding(spans);
                let gid = self.pick(ordinal);
                let handle = &self.handle;
                let new = spans.scope("reconfig.split", |_| handle.split_group(gid));
                self.outstanding = new.map(|new| (gid, new));
                self.actions += 1;
            }
            Some(Action::Rebalance(ordinal)) => {
                let gid = self.pick(ordinal);
                let handle = &self.handle;
                let _moves = spans.scope("reconfig.rebalance", |_| handle.rebalance_group(gid));
                self.actions += 1;
            }
        }
        if count.is_multiple_of(REPORT_EVERY) {
            let _report = spans.scope("load.report", |_| cluster.load_report());
        }
    }
}

/// One in-process cluster and the workload-specific work around it.
#[derive(Debug)]
pub struct ClusterTarget {
    /// The cluster under test.
    pub cluster: GhbaCluster,
    drain_every: u64,
    schedule: Option<ReconfigSchedule>,
    wal: Option<(PathBuf, WalOptions)>,
    /// Shard-log records each traced in-loop drain reconciled.
    pub drain_records: Vec<u64>,
}

impl ClusterTarget {
    /// Actions the reconfiguration schedule has performed.
    #[must_use]
    pub fn reconfig_actions(&self) -> u64 {
        self.schedule.as_ref().map_or(0, |s| s.actions)
    }

    fn drain(&mut self, spans: &mut Spans) {
        if spans.enabled() {
            self.drain_records
                .push(self.cluster.pending_concurrent_writes());
        }
        let cluster = &mut self.cluster;
        spans.scope("cluster.drain", |_| cluster.drain_concurrent());
    }
}

impl Target for ClusterTarget {
    fn step(
        &mut self,
        index: u64,
        batch: &OpBatch,
        spans: &mut Spans,
    ) -> Result<Vec<OpOutcome>, String> {
        let cluster = &self.cluster;
        let outcomes = spans.scope("cluster.execute", |_| cluster.execute_concurrent(batch));
        let count = index + 1;
        if self.drain_every > 0 && count.is_multiple_of(self.drain_every) {
            self.drain(spans);
        }
        if let Some(schedule) = self.schedule.as_mut() {
            schedule.after_batch(count, &self.cluster, spans);
        }
        Ok(outcomes)
    }

    fn close_segment(&mut self, spans: &mut Spans) -> Result<(), String> {
        if self.drain_every > 0 {
            self.drain(spans);
            let cluster = &mut self.cluster;
            let _report = spans.scope("cluster.flush_updates", |_| cluster.flush_all_updates());
        }
        Ok(())
    }

    fn execute(&mut self, batch: &OpBatch) -> Result<Vec<OpOutcome>, String> {
        Ok(self.cluster.execute_concurrent(batch))
    }

    fn settle(&mut self) -> Result<(), String> {
        self.cluster.drain_concurrent();
        let _report = self.cluster.flush_all_updates();
        Ok(())
    }
}

/// [`NetClient`] behind a transport that opens one `client.request` span
/// per sub-batch, so `route.plan`'s self time is the planner's own work.
struct TimedTransport<'a> {
    client: &'a mut NetClient,
    spans: &'a mut Spans,
}

impl BatchTransport for TimedTransport<'_> {
    fn replica_count(&self) -> usize {
        self.client.replica_count()
    }

    fn execute_on(&mut self, replica: usize, batch: &OpBatch) -> Result<Vec<OpOutcome>, WireError> {
        let client = &mut *self.client;
        self.spans
            .scope("client.request", |_| client.execute_on(replica, batch))
    }
}

/// The loopback TCP fleet and its one client.
#[derive(Debug)]
pub struct NetTarget {
    // Declared before `net`: the client's connections close before the
    // fleet shuts down, also on unwind.
    /// The fleet's one client.
    pub client: NetClient,
    net: Option<LoopbackNet>,
}

impl NetTarget {
    /// Shuts the fleet down, joining every thread.
    pub fn shutdown(mut self) {
        if let Some(net) = self.net.take() {
            net.shutdown();
        }
    }
}

impl Target for NetTarget {
    fn step(
        &mut self,
        _index: u64,
        batch: &OpBatch,
        spans: &mut Spans,
    ) -> Result<Vec<OpOutcome>, String> {
        if !spans.enabled() {
            return self.execute(batch);
        }
        let client = &mut self.client;
        spans
            .scope("route.plan", |spans| {
                execute_sharded(&mut TimedTransport { client, spans }, batch)
            })
            .map_err(|err| err.to_string())
    }

    fn close_segment(&mut self, _spans: &mut Spans) -> Result<(), String> {
        // The replicas' reconcilers drain in the background.
        Ok(())
    }

    fn execute(&mut self, batch: &OpBatch) -> Result<Vec<OpOutcome>, String> {
        self.client.execute(batch).map_err(|err| err.to_string())
    }

    fn settle(&mut self) -> Result<(), String> {
        self.client
            .drain_all()
            .map(|_| ())
            .map_err(|err| err.to_string())
    }
}

/// The fleet's in-process twin: same planner, same per-replica clusters,
/// no sockets and no threads.
#[derive(Debug)]
pub struct FedTarget {
    fed: Federation,
}

impl FedTarget {
    /// The federation, for reading its clusters.
    #[must_use]
    pub fn federation(&self) -> &Federation {
        &self.fed
    }
}

impl Target for FedTarget {
    fn step(
        &mut self,
        index: u64,
        batch: &OpBatch,
        _spans: &mut Spans,
    ) -> Result<Vec<OpOutcome>, String> {
        let outcomes = self.execute(batch)?;
        if (index + 1).is_multiple_of(FED_DRAIN_EVERY) {
            self.fed.drain_all();
        }
        Ok(outcomes)
    }

    fn close_segment(&mut self, _spans: &mut Spans) -> Result<(), String> {
        Ok(())
    }

    fn execute(&mut self, batch: &OpBatch) -> Result<Vec<OpOutcome>, String> {
        execute_sharded(&mut self.fed, batch).map_err(|err| err.to_string())
    }

    fn settle(&mut self) -> Result<(), String> {
        self.fed.drain_all();
        Ok(())
    }
}

/// A deployment of one of the three kinds.
#[derive(Debug)]
pub enum Deployment {
    /// One in-process cluster.
    Cluster(Box<ClusterTarget>),
    /// The loopback TCP fleet.
    Net(Box<NetTarget>),
    /// The fleet's in-process twin.
    Fed(FedTarget),
}

impl Deployment {
    /// The deployment as the thing a round drives.
    pub fn target(&mut self) -> &mut dyn Target {
        match self {
            Deployment::Cluster(target) => &mut **target,
            Deployment::Net(target) => &mut **target,
            Deployment::Fed(target) => target,
        }
    }
}

/// Which build of a workload's deployment to set up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The deployment the workload measures.
    Primary,
    /// `write_churn` without a WAL: the baseline `wal.tax_ns_per_record`
    /// subtracts.
    NoWal,
    /// `write_churn` with `SyncPolicy::EveryBatch` and no checkpoints:
    /// prices the fsync and sizes the log.
    FsyncWal,
    /// `net_mixed` through the in-process federation: the baseline
    /// `serve.wire_tax_ns_per_op` subtracts.
    InProcessFleet,
}

/// A set-up workload: deployment, input stream, oracle, scratch space.
#[derive(Debug)]
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// Seed of the op stream (and of the reconfiguration schedule).
    pub seed: u64,
    /// The system under test.
    pub deployment: Deployment,
    /// The op stream, positioned after the warm-up.
    pub gen: Generator,
    /// The shadow namespace, holding every home reported so far.
    pub oracle: Oracle,
    /// Admission state (the round-robin cursor).
    pub admission: Admission,
    /// Stream index of the next batch.
    pub next_index: u64,
    /// Seconds spent generating inputs so far.
    pub generator_s: f64,
    /// Wall time of each step of the set-up, in order: generating inputs
    /// and building the deployment, every population batch, the settle,
    /// every warm-up batch, the closing flush. The same steps for the
    /// same arguments.
    pub setup_steps_ns: Vec<u64>,
    // Last: WAL directories outlive the deployment that writes them.
    tmp: TempDir,
}

/// Runs `segment` through `target.execute` and checks every outcome,
/// settling after every `settle_every` batches (0 = never) and calling
/// `after_batch` when a batch and its settling are done.
///
/// # Errors
///
/// A transport or protocol failure.
pub fn run_unscheduled(
    target: &mut dyn Target,
    admission: &mut Admission,
    oracle: &mut Oracle,
    segment: &Segment,
    settle_every: usize,
    mut after_batch: impl FnMut(),
) -> Result<(), String> {
    for (i, ops) in segment.batches().enumerate() {
        let batch = admission.admit(segment, ops);
        let outcomes = target.execute(&batch)?;
        oracle.check_batch(segment, ops, &outcomes);
        if settle_every > 0 && (i + 1) % settle_every == 0 {
            target.settle()?;
        }
        after_batch();
    }
    Ok(())
}

fn open_wal(dir: &Path, options: WalOptions) -> Result<Wal, String> {
    Wal::open(dir, options)
        .map(|(wal, _)| wal)
        .map_err(|err| format!("cannot open WAL in {}: {err}", dir.display()))
}

impl Bench {
    /// Builds the deployment of `workload`, populates it and warms it up
    /// — everything `setup_s` covers. Deterministic: the same arguments
    /// leave the same state behind.
    ///
    /// # Errors
    ///
    /// Filesystem, bind or connection failures, and any incorrect outcome
    /// during population or warm-up.
    pub fn setup(
        workload: Workload,
        seed: u64,
        scale: f64,
        variant: Variant,
        out_dir: &Path,
    ) -> Result<Bench, String> {
        let tmp = TempDir::create(out_dir)?;
        let started = Instant::now();
        let mut steps: Vec<u64> = Vec::new();
        let mut step_started = started;
        let mut lap = move |steps: &mut Vec<u64>| {
            let now = Instant::now();
            steps.push((now - step_started).as_nanos() as u64);
            step_started = now;
        };
        let mut gen = Generator::new(workload, seed, scale);
        let population = gen.populate(POPULATE_BATCH);
        let warmup = gen.next_batches(gen.shape().warmup_batches);
        let generator_s = started.elapsed().as_secs_f64();

        let mut deployment = match (workload, variant) {
            (Workload::NetMixed, Variant::InProcessFleet) => Deployment::Fed(FedTarget {
                fed: Federation::new(&base_config(), FLEET_REPLICAS, FLEET_SERVERS),
            }),
            (Workload::NetMixed, _) => {
                let spec = FleetSpec::new(FLEET_REPLICAS, FLEET_SERVERS, base_config())
                    .with_drain_cadence(FLEET_DRAIN_CADENCE)
                    .with_wal_root(tmp.path().join("fleet"))
                    .with_sync_policy(SyncPolicy::None);
                let net = LoopbackNet::launch(spec)
                    .map_err(|err| format!("fleet launch failed: {err}"))?;
                let client = net
                    .client()
                    .map_err(|err| format!("client connect failed: {err}"))?;
                Deployment::Net(Box::new(NetTarget {
                    client,
                    net: Some(net),
                }))
            }
            _ => {
                let mut cluster = GhbaCluster::with_servers(base_config(), CLUSTER_SERVERS);
                let wal = match (workload, variant) {
                    (Workload::WriteChurn, Variant::Primary) => Some(WalOptions {
                        sync: SyncPolicy::None,
                        checkpoint_every: CHECKPOINT_EVERY,
                    }),
                    (Workload::WriteChurn, Variant::FsyncWal) => Some(WalOptions {
                        sync: SyncPolicy::EveryBatch,
                        checkpoint_every: 0,
                    }),
                    _ => None,
                }
                .map(|options| (tmp.path().join("wal"), options));
                if let Some((dir, options)) = &wal {
                    cluster.attach_wal(open_wal(dir, *options)?);
                }
                let schedule = (workload == Workload::ReconfigReads)
                    .then(|| ReconfigSchedule::new(&cluster, seed));
                Deployment::Cluster(Box::new(ClusterTarget {
                    cluster,
                    drain_every: if workload == Workload::WriteChurn {
                        DRAIN_EVERY
                    } else {
                        0
                    },
                    schedule,
                    wal,
                    drain_records: Vec::new(),
                }))
            }
        };

        lap(&mut steps);
        let mut oracle = Oracle::new();
        let mut admission = Admission::default();
        run_unscheduled(
            deployment.target(),
            &mut admission,
            &mut oracle,
            &population,
            8,
            || lap(&mut steps),
        )?;
        deployment.target().settle()?;
        lap(&mut steps);
        let mut spans = Spans::disabled();
        let mut next_index = 0u64;
        for ops in warmup.batches() {
            let batch = admission.admit(&warmup, ops);
            let outcomes = deployment.target().step(next_index, &batch, &mut spans)?;
            oracle.check_batch(&warmup, ops, &outcomes);
            next_index += 1;
            lap(&mut steps);
        }
        deployment.target().close_segment(&mut spans)?;
        lap(&mut steps);
        if oracle.failed > 0 {
            return Err(format!(
                "{} of {} set-up ops were answered wrongly: {}",
                oracle.failed,
                oracle.attempted,
                oracle.first_failure().unwrap_or("?")
            ));
        }

        Ok(Bench {
            workload,
            seed,
            deployment,
            gen,
            oracle,
            admission,
            next_index,
            generator_s,
            setup_steps_ns: steps,
            tmp,
        })
    }

    /// Ends the round: takes the deployment down and returns what a
    /// restart of it recovers from, with the state the restart must
    /// arrive at, plus the oracle and the scratch directory the restart
    /// reads. Call after the closing audit, which settles every write.
    ///
    /// `write_churn` restarts from the WAL directory it logged to — the
    /// last automatic checkpoint plus the log above it. The fleet
    /// restarts from its replicas' directories: it never checkpoints, so
    /// that is a replay of the whole run. The read workloads run without
    /// a WAL; their restart loads a checkpoint of the final state,
    /// installed here, after the timed loop.
    ///
    /// # Errors
    ///
    /// The checkpoint of a read workload cannot be written.
    pub fn finish(self) -> Result<(Oracle, TempDir, Restart), String> {
        let Bench {
            deployment,
            gen,
            oracle,
            tmp,
            ..
        } = self;
        let restart = match deployment {
            Deployment::Fed(_) => return Err("the in-process fleet has no WAL".to_string()),
            Deployment::Net(target) => {
                target.shutdown();
                Restart {
                    clusters: (0..FLEET_REPLICAS)
                        .map(|replica| RecoverCluster {
                            config: replica_config(&base_config(), replica),
                            servers: FLEET_SERVERS,
                            dir: tmp.path().join(format!("fleet/replica-{replica}")),
                            options: WalOptions {
                                sync: SyncPolicy::None,
                                checkpoint_every: 0,
                            },
                        })
                        .collect(),
                    expect: Expect::Homes(
                        gen.live_ids()
                            .iter()
                            .map(|&id| (id, oracle.home(id)))
                            .collect(),
                    ),
                    tail_records: 0,
                }
            }
            Deployment::Cluster(mut target) => {
                let state = durable_state(&mut target.cluster);
                let (dir, options) = match target.wal.take() {
                    Some(wal) => wal,
                    None => {
                        let dir = tmp.path().join("restart");
                        open_wal(&dir, WalOptions::default())?
                            .install_checkpoint(&state)
                            .map_err(|err| format!("checkpoint failed: {err}"))?;
                        (dir, WalOptions::default())
                    }
                };
                Restart {
                    clusters: vec![RecoverCluster {
                        config: base_config(),
                        servers: CLUSTER_SERVERS,
                        dir,
                        options,
                    }],
                    tail_records: target.cluster.wal().map_or(0, Wal::tail_len),
                    expect: Expect::Capture(Box::new(state)),
                }
            }
        };
        Ok((oracle, tmp, restart))
    }
}

/// A cluster's durable state with the WAL watermark masked: what a
/// recovery must reproduce bit for bit.
fn durable_state(cluster: &mut GhbaCluster) -> Checkpoint {
    let mut state = cluster.capture_checkpoint();
    state.wal_seq = 0;
    state
}

#[derive(Debug)]
struct RecoverCluster {
    config: GhbaConfig,
    servers: usize,
    dir: PathBuf,
    options: WalOptions,
}

#[derive(Debug)]
enum Expect {
    /// The recovered cluster's capture must equal this one (watermark
    /// masked).
    Capture(Box<Checkpoint>),
    /// Every `(file id, home)` must be stored at that home on the replica
    /// its path routes to, and nothing else may exist.
    Homes(Vec<(u32, Option<ghba_core::MdsId>)>),
}

/// What a restart recovers from, and the state it must arrive at.
#[derive(Debug)]
pub struct Restart {
    clusters: Vec<RecoverCluster>,
    expect: Expect,
    tail_records: u64,
}

impl Restart {
    /// Makes the directories ready for the timed restarts. The fleet
    /// never checkpoints, so its first restart replays the whole run —
    /// about half as long as the run took, and as many flush records as
    /// the reconcilers happened to tick. That replay is checked here and
    /// followed by a checkpoint; the timed restarts load it.
    ///
    /// # Errors
    ///
    /// A failed or wrong recovery, or a failed checkpoint.
    pub fn prepare(&self) -> Result<(), String> {
        if self.clusters.len() == 1 {
            return Ok(());
        }
        let (_, mut recovered) = self.recover(&mut Spans::disabled())?;
        for cluster in &mut recovered {
            cluster
                .checkpoint_now()
                .map_err(|err| format!("checkpoint failed: {err}"))?;
        }
        Ok(())
    }

    /// WAL records above the checkpoint that a recovery replays.
    #[must_use]
    pub fn tail_records(&self) -> u64 {
        self.tail_records
    }

    /// Bytes of the installed checkpoint files.
    #[must_use]
    pub fn checkpoint_bytes(&self) -> u64 {
        self.clusters
            .iter()
            .filter_map(|c| std::fs::metadata(c.dir.join("checkpoint.bin")).ok())
            .map(|meta| meta.len())
            .sum()
    }

    /// Recovers every cluster from its directory (one after the other:
    /// a fleet restarting on one core), checks the recovered state
    /// against the expected one, and returns the wall time of the
    /// `GhbaCluster::recover` calls alone, with the recovered clusters.
    ///
    /// # Errors
    ///
    /// A failed recovery, or a recovered state that differs from the
    /// expected one.
    pub fn recover(&self, spans: &mut Spans) -> Result<(Duration, Vec<GhbaCluster>), String> {
        let mut elapsed = Duration::ZERO;
        let mut recovered = Vec::with_capacity(self.clusters.len());
        for c in &self.clusters {
            let started = Instant::now();
            let cluster = spans
                .scope("cluster.recover", |_| {
                    GhbaCluster::recover(c.config.clone(), c.servers, &c.dir, c.options)
                })
                .map_err(|err| format!("recovery of {} failed: {err}", c.dir.display()))?;
            elapsed += started.elapsed();
            recovered.push(cluster);
        }
        for cluster in &recovered {
            cluster
                .check_invariants()
                .map_err(|err| format!("recovered cluster breaks an invariant: {err}"))?;
        }
        match &self.expect {
            Expect::Capture(state) => {
                if durable_state(&mut recovered[0]) != **state {
                    return Err(
                        "recovered state differs from the state captured before the drop"
                            .to_string(),
                    );
                }
            }
            Expect::Homes(homes) => {
                let total: usize = recovered.iter().map(GhbaCluster::total_files).sum();
                if total != homes.len() {
                    return Err(format!(
                        "recovered fleet holds {total} files, the shadow {}",
                        homes.len()
                    ));
                }
                for &(id, home) in homes {
                    let path = path_of(id);
                    let replica = replica_of(&PathKey::new(path.as_str()), recovered.len());
                    if home.is_none() || recovered[replica].true_home(&path) != home {
                        return Err(format!(
                            "recovered fleet homes {path} at {:?}, the shadow at {home:?}",
                            recovered[replica].true_home(&path)
                        ));
                    }
                }
            }
        }
        Ok((elapsed, recovered))
    }
}
