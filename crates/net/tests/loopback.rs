//! End-to-end loopback deployment tests: rendezvous + 3 replica
//! servers + concurrent clients over real `127.0.0.1` TCP, checked
//! against the in-process [`Federation`] ground truth.
//!
//! The headline property: **every `OpOutcome` crossing the wire is
//! bit-identical to direct in-process `execute_concurrent` on the same
//! trace.** The recipe making that decidable under true concurrency:
//!
//! * deterministic entry policies only (`RoundRobin` per client — no
//!   RNG draws anywhere in the concurrent path);
//! * the "intensified Zipf, K-client partition" profile
//!   (`ClientPartition`): clients never mutate each other's
//!   namespaces, so per-client outcomes are independent of how the
//!   servers interleave the two clients' batches;
//! * a huge update threshold freezes gated filter publishes mid-phase,
//!   and explicit `Drain` barriers at phase boundaries are the *only*
//!   points where published state changes — mirrored on the ground
//!   truth by `Federation::drain_all` at the same boundaries;
//! * the replicas' background reconcilers run on an hour-long cadence,
//!   so no background drain can fire mid-phase.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use ghba_core::{EntryPolicy, GhbaConfig, OpBatch, OpOutcome};
use ghba_net::{
    execute_sharded, record_batches, FleetSpec, LoopbackNet, NetClient, NetMessage, Rendezvous,
    ReplicaConfig, ReplicaServer, WireError, MAX_FRAME_LEN,
};
use ghba_trace::{ClientPartition, WorkloadProfile};

const REPLICAS: usize = 3;
const SERVERS: usize = 4;
const CLIENTS: u32 = 2;
const SEED: u64 = 0x0E2E;
const BATCH_WINDOW: usize = 64;
const OPS_PER_CLIENT: usize = 1_500;

fn base_config() -> GhbaConfig {
    GhbaConfig::default()
        .with_filter_capacity(20_000)
        .with_lru_capacity(0)
        // Freeze gated publishes: only explicit Drain barriers change
        // published filter state mid-run.
        .with_update_threshold(1 << 24)
}

/// A small-population RES profile so pre-population stays fast.
fn profile() -> WorkloadProfile {
    let mut profile = WorkloadProfile::res();
    profile.total_files = 20_000;
    profile.active_files = 2_000;
    profile
}

fn populate_batches(fleet: &ClientPartition) -> Vec<OpBatch> {
    let mut batches = Vec::new();
    let mut policy = EntryPolicy::RoundRobin { start: 0 };
    let mut batch = OpBatch::new();
    for path in fleet.initial_paths() {
        batch.push_create(path);
        if batch.len() >= 256 {
            let ops = batch.len();
            batches.push(std::mem::take(&mut batch).with_entry(policy.advance(ops)));
        }
    }
    if !batch.is_empty() {
        let ops = batch.len();
        batches.push(batch.with_entry(policy.advance(ops)));
    }
    batches
}

fn client_batches(fleet: &ClientPartition, k: u32) -> Vec<OpBatch> {
    record_batches(
        fleet.client(k).take(OPS_PER_CLIENT),
        BATCH_WINDOW,
        EntryPolicy::RoundRobin { start: k as usize },
    )
    .collect()
}

/// The headline equivalence test: populate → barrier → two truly
/// concurrent clients replaying mixed traffic → barrier → read-only
/// audit, with every networked outcome demanded bit-identical to the
/// in-process ground truth.
#[test]
fn networked_outcomes_are_bit_identical_to_in_process_execution() {
    let net = LoopbackNet::launch(FleetSpec::new(REPLICAS, SERVERS, base_config()))
        .expect("fleet launches");
    let mut truth = net.ground_truth();
    let fleet = ClientPartition::new(profile(), CLIENTS, SEED);

    // Phase 1: populate (one client, serial) — outcomes must already
    // agree batch for batch.
    let mut client0 = net.client().expect("client connects");
    for batch in populate_batches(&fleet) {
        let net_out = client0.execute(&batch).expect("populate batch");
        let truth_out = execute_sharded(&mut truth, &batch).expect("ground truth");
        assert_eq!(net_out, truth_out, "populate outcomes diverged");
    }

    // Barrier: both sides drain + flush at the same point.
    let acks = client0.drain_all().expect("drain barrier");
    assert!(acks.iter().all(|&(_, pending)| pending == 0));
    truth.drain_all();

    // Phase 2: two concurrent clients replay mixed traffic over their
    // own connections — true thread-level concurrency on the wire.
    let mut handles = Vec::new();
    for k in 0..CLIENTS {
        let batches = client_batches(&fleet, k);
        let mut client = net.client().expect("client connects");
        handles.push(std::thread::spawn(move || -> Vec<Vec<OpOutcome>> {
            batches
                .iter()
                .map(|batch| client.execute(batch).expect("client batch"))
                .collect()
        }));
    }
    let net_phase2: Vec<Vec<Vec<OpOutcome>>> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();

    // Ground truth replays the same batches serially, client-major:
    // write-disjoint namespaces and frozen publishes make each
    // client's outcomes independent of the interleaving.
    for k in 0..CLIENTS {
        for (i, batch) in client_batches(&fleet, k).iter().enumerate() {
            let truth_out = execute_sharded(&mut truth, batch).expect("ground truth");
            assert_eq!(
                net_phase2[k as usize][i], truth_out,
                "client {k} batch {i}: networked outcome diverged from in-process execution"
            );
        }
    }

    // Barrier again, then a read-only audit over both namespaces.
    client0.drain_all().expect("drain barrier");
    truth.drain_all();
    let mut audit = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 1 });
    for path in fleet.shared_initial_paths().take(200) {
        audit.push_lookup(path);
    }
    for k in 0..CLIENTS {
        for path in fleet.client_initial_paths(k).take(100) {
            audit.push_lookup(path);
        }
    }
    let net_out = client0.execute(&audit).expect("audit");
    let truth_out = execute_sharded(&mut truth, &audit).expect("ground truth");
    assert_eq!(net_out, truth_out, "read-only audit diverged");
    // The audit is not vacuous: populated paths resolve.
    assert!(
        net_out.iter().filter_map(OpOutcome::home).count() > 350,
        "most audited paths must resolve to a home"
    );

    net.shutdown();
}

/// The fleet-wide group-probe multicast agrees with ground truth: the
/// true home's replica claims a published path, and a never-created
/// path draws no structural positives beyond Bloom false positives'
/// replica-local noise.
#[test]
fn group_probe_multicast_finds_published_homes() {
    let net =
        LoopbackNet::launch(FleetSpec::new(REPLICAS, 2, base_config())).expect("fleet launches");
    let mut client = net.client().expect("client connects");
    let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 0 });
    for i in 0..64 {
        batch.push_create(format!("/probe/f{i}"));
    }
    let outcomes = client.execute(&batch).expect("creates");
    client.drain_all().expect("publish");

    for (i, outcome) in outcomes.iter().enumerate() {
        let key = ghba_core::PathKey::new(format!("/probe/f{i}"));
        let home = outcome.home().expect("created");
        let home_replica = ghba_net::replica_of(&key, REPLICAS) as u16;
        let replies = client
            .probe_all(i as u64, key.fingerprint())
            .expect("probe");
        let (_, positives) = replies
            .iter()
            .find(|(replica, _)| *replica == home_replica)
            .expect("every replica answers");
        assert!(
            positives.contains(&home),
            "path {i}: home replica's published filter must claim its own file"
        );
    }
    net.shutdown();
}

/// Gossip frames propagate a membership view fleet-wide, visible via
/// stats on the same (ordered) connections; stale epochs never
/// regress it.
#[test]
fn gossip_epoch_propagates_fleet_wide() {
    let net =
        LoopbackNet::launch(FleetSpec::new(REPLICAS, 2, base_config())).expect("fleet launches");
    let mut client = net.client().expect("client connects");
    let members: Vec<_> = (0..4).map(ghba_core::MdsId).collect();
    client.gossip(42, &members).expect("gossip");
    client.gossip(7, &members).expect("stale gossip");
    for replica in 0..REPLICAS {
        let stats = client.stats(replica).expect("stats");
        assert_eq!(stats.gossip_epoch, 42, "replica {replica}");
    }
    net.shutdown();
}

/// The background reconciler drains pending writes without any client
/// barrier when given a short cadence.
#[test]
fn background_cadence_drains_without_barriers() {
    let net = LoopbackNet::launch(
        FleetSpec::new(2, 2, base_config()).with_drain_cadence(Duration::from_millis(5)),
    )
    .expect("fleet launches");
    let mut client = net.client().expect("client connects");
    let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 0 });
    for i in 0..128 {
        batch.push_create(format!("/bg/f{i}"));
    }
    client.execute(&batch).expect("creates");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let pending: u64 = (0..2)
            .map(|r| client.stats(r).expect("stats").pending)
            .sum();
        if pending == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "reconcilers never drained {pending} pending writes"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    net.shutdown();
}

/// A client survives a replica crash-and-restart: the retry path
/// re-fetches the map (the restarted replica re-registered under a
/// *new* ephemeral port), reconnects, and the request succeeds — no
/// failure surfaces to the caller.
#[test]
fn client_reconnects_after_replica_restart() {
    let rendezvous = Rendezvous::spawn("127.0.0.1:0").expect("rendezvous binds");
    let rv_addr = rendezvous.addr().to_string();
    let replica = ReplicaServer::spawn(
        ReplicaConfig::new(0, 2, base_config()).with_rendezvous(rv_addr.clone()),
    )
    .expect("replica spawns");
    let old_addr = replica.addr();

    let mut client =
        NetClient::connect(&rv_addr, 1, Duration::from_secs(10)).expect("client connects");
    client.ping_all(1).expect("fleet answers before the crash");

    // Crash: the replica goes away entirely, its port with it.
    replica.shutdown();
    // Restart under the same shard index — a new ephemeral port, so a
    // stale client connection (and a stale map) can't reach it.
    let replica =
        ReplicaServer::spawn(ReplicaConfig::new(0, 2, base_config()).with_rendezvous(rv_addr))
            .expect("replica restarts");
    assert_ne!(replica.addr(), old_addr, "restart must change the port");

    // The client's connection is dead, but the request still succeeds:
    // loss → map re-fetch → reconnect → retry, inside `request`.
    client.ping_all(2).expect("retry path hides the restart");
    assert!(client.reconnects() >= 1, "the success came via reconnect");
    let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 0 });
    batch.push_create("/retry/a");
    batch.push_lookup("/retry/a");
    let outcomes = client.execute(&batch).expect("batches flow again");
    assert!(outcomes[1].home().is_some());

    replica.shutdown();
    rendezvous.shutdown();
}

/// Retry inside a wave is per replica: with replica 1 restarted under
/// a stale connection, a batch touching both replicas in both waves
/// reconnects replica 1 and resends its frame, while replica 0 serves
/// each of its frames exactly once — and the outcomes are the
/// in-process fleet's.
#[test]
fn retry_inside_a_wave_resends_only_the_lost_replica() {
    let mut net =
        LoopbackNet::launch(FleetSpec::new(2, SERVERS, base_config())).expect("fleet launches");
    let mut truth = net.ground_truth();
    let mut client = net.client().expect("client connects");
    client
        .ping_all(1)
        .expect("fleet answers before the restart");
    let served_before = client.stats(0).expect("stats").batches_served;

    // Wave 1 creates on both replicas and removes a source created on
    // replica 1; wave 2 creates its destination on replica 0.
    let on = |replica: usize, stem: &str| {
        (0..)
            .map(|i| format!("/wave/{stem}{i}"))
            .find(|path| ghba_net::replica_of(&ghba_core::PathKey::new(path.clone()), 2) == replica)
            .expect("some path lands there")
    };
    let (src, dst) = (on(1, "src"), on(0, "dst"));
    let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 0 });
    batch.push_create(on(0, "a"));
    batch.push_create(src.clone());
    batch.push_rename(src, dst.clone());
    batch.push_lookup(dst);

    net.kill_replica(1);
    net.restart_replica(1).expect("replica restarts");
    let outcomes = client
        .execute(&batch)
        .expect("the wave rides out the restart");
    assert!(
        client.reconnects() >= 1,
        "replica 1 was reached by reconnect"
    );
    assert_eq!(
        outcomes,
        execute_sharded(&mut truth, &batch).expect("ground truth")
    );
    assert!(
        matches!(
            outcomes[2],
            OpOutcome::Renamed {
                old_home: Some(_),
                new_home: Some(_)
            }
        ),
        "the rename ran both waves"
    );
    assert_eq!(
        client.stats(0).expect("stats").batches_served,
        served_before + 2,
        "replica 0 serves one frame per wave, none re-sent"
    );
    net.shutdown();
}

/// The rendezvous liveness sweep prunes a replica that stops answering
/// pings — and only that one: the live replica stays registered while
/// the dead entry disappears and the epoch advances past the prune.
#[test]
fn rendezvous_liveness_prunes_silent_replicas() {
    let rendezvous = Rendezvous::spawn_with_liveness("127.0.0.1:0", Duration::from_millis(10), 2)
        .expect("rendezvous binds");
    let rv_addr = rendezvous.addr().to_string();
    let live = ReplicaServer::spawn(
        ReplicaConfig::new(0, 2, base_config()).with_rendezvous(rv_addr.clone()),
    )
    .expect("replica spawns");
    let doomed =
        ReplicaServer::spawn(ReplicaConfig::new(1, 2, base_config()).with_rendezvous(rv_addr))
            .expect("replica spawns");
    // Both registered; the sweep sees both answering.
    assert_eq!(rendezvous.snapshot().1.len(), 2);

    // Replica 1 goes silent (its port stops accepting).
    doomed.shutdown();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (_, replicas) = rendezvous.snapshot();
        if replicas.len() == 1 {
            assert_eq!(replicas[0].0, 0, "the live replica must survive");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "liveness sweep never pruned the dead replica"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    live.shutdown();
    rendezvous.shutdown();
}

/// The kill-and-recover headline: a WAL-backed replica is killed
/// mid-load (no final drain — un-drained writes die with it), restarts
/// from checkpoint + WAL replay, re-registers with the rendezvous, and
/// the federation's outcomes stay **bit-identical to an uninterrupted
/// in-process run** — before, across, and after the crash. Writes that
/// had reached a drain barrier survive; writes that hadn't vanish on
/// both sides, because the ground truth never executes them.
#[test]
fn kill_and_recover_preserves_bit_identical_outcomes() {
    const VICTIM: usize = 1;
    let wal_root = std::env::temp_dir().join(format!("ghba-wal-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_root);
    let mut net = LoopbackNet::launch(
        FleetSpec::new(REPLICAS, SERVERS, base_config()).with_wal_root(&wal_root),
    )
    .expect("fleet launches");
    let mut truth = net.ground_truth();
    let fleet = ClientPartition::new(profile(), CLIENTS, SEED);

    // Phase 1: populate, then a drain barrier — the durability point.
    let mut client = net.client().expect("client connects");
    for batch in populate_batches(&fleet) {
        let net_out = client.execute(&batch).expect("populate batch");
        let truth_out = execute_sharded(&mut truth, &batch).expect("ground truth");
        assert_eq!(net_out, truth_out, "populate outcomes diverged");
    }
    client.drain_all().expect("drain barrier");
    truth.drain_all();

    // Phase 2: half the mixed traffic lands and drains (durable)...
    let batches = client_batches(&fleet, 0);
    let (before, after) = batches.split_at(batches.len() / 2);
    for batch in before {
        let net_out = client.execute(batch).expect("pre-crash batch");
        let truth_out = execute_sharded(&mut truth, batch).expect("ground truth");
        assert_eq!(net_out, truth_out, "pre-crash outcomes diverged");
    }
    client.drain_all().expect("drain barrier");
    truth.drain_all();

    // ...then a burst of creates aimed at the victim's shard is
    // accepted but *never drained*: the crash must erase it. The
    // ground truth never executes these, so post-recovery equality
    // proves the un-drained writes died with the process.
    let mut doomed_paths = Vec::new();
    let mut i = 0usize;
    while doomed_paths.len() < 32 {
        let path = format!("/lost/f{i}");
        if ghba_net::replica_of(&ghba_core::PathKey::new(path.clone()), REPLICAS) == VICTIM {
            doomed_paths.push(path);
        }
        i += 1;
    }
    let mut doomed = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 0 });
    for path in &doomed_paths {
        doomed.push_create(path.clone());
    }
    let pre_crash = client.execute(&doomed).expect("doomed creates accepted");
    assert!(pre_crash.iter().all(|o| o.home().is_some()));

    // Crash mid-load and recover: replay checkpoint + WAL tail, bind a
    // new port, re-register (epoch bump → clients re-discover).
    net.kill_replica(VICTIM);
    net.restart_replica(VICTIM)
        .expect("replica recovers from its WAL");

    // Phase 3: the rest of the load flows through the client's
    // reconnect path, still bit-identical.
    for batch in after {
        let net_out = client.execute(batch).expect("post-recovery batch");
        let truth_out = execute_sharded(&mut truth, batch).expect("ground truth");
        assert_eq!(net_out, truth_out, "post-recovery outcomes diverged");
    }
    assert!(client.reconnects() >= 1, "phase 3 crossed the restart");
    let acks = client.drain_all().expect("drain barrier");
    assert!(acks.iter().all(|&(_, pending)| pending == 0));
    truth.drain_all();

    // Final audit: durable paths resolve identically on both sides;
    // the un-drained creates are gone from both.
    let mut audit = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 1 });
    for path in fleet.shared_initial_paths().take(200) {
        audit.push_lookup(path);
    }
    for k in 0..CLIENTS {
        for path in fleet.client_initial_paths(k).take(100) {
            audit.push_lookup(path);
        }
    }
    for path in &doomed_paths {
        audit.push_lookup(path.clone());
    }
    let net_out = client.execute(&audit).expect("audit");
    let truth_out = execute_sharded(&mut truth, &audit).expect("ground truth");
    assert_eq!(
        net_out, truth_out,
        "post-recovery audit diverged from the uninterrupted run"
    );
    assert!(
        net_out[..400].iter().filter_map(OpOutcome::home).count() > 350,
        "durable paths must still resolve after recovery"
    );
    assert!(
        net_out[400..].iter().all(|o| o.home().is_none()),
        "un-drained creates must not survive the crash"
    );

    net.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}

/// Regression (PR 9 + PR 10): a replica struck from the directory by
/// the liveness sweep recovers from its WAL and re-registers cleanly —
/// the acked registration epoch strictly exceeds the post-prune epoch
/// (monotonic advance, never a reuse), the entry survives further
/// sweeps, and the durable namespace is served again.
#[test]
fn pruned_replica_reregisters_with_a_monotonically_advanced_epoch() {
    let wal_root = std::env::temp_dir().join(format!("ghba-wal-prune-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_root);
    let rendezvous = Rendezvous::spawn_with_liveness("127.0.0.1:0", Duration::from_millis(10), 2)
        .expect("rendezvous binds");
    let rv_addr = rendezvous.addr().to_string();
    let config = || {
        ReplicaConfig::new(0, 2, base_config())
            .with_rendezvous(rv_addr.clone())
            .with_wal_dir(wal_root.clone())
    };
    let replica = ReplicaServer::spawn(config()).expect("replica spawns");
    let first_epoch = replica.registration_epoch();
    assert!(first_epoch >= 1, "registration acks a real epoch");

    // Something durable to serve after recovery.
    let mut client =
        NetClient::connect(&rv_addr, 1, Duration::from_secs(10)).expect("client connects");
    let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 0 });
    batch.push_create("/prune/survivor");
    client.execute(&batch).expect("create");
    client.drain_all().expect("durability point");

    // Crash without unregistering: the port goes silent and the
    // liveness sweep strikes the replica from the directory.
    replica.kill();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let pruned_epoch = loop {
        let (epoch, replicas) = rendezvous.snapshot();
        if replicas.is_empty() {
            break epoch;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "liveness sweep never pruned the killed replica"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        pruned_epoch > first_epoch,
        "the prune itself bumps the epoch"
    );

    // Recover under the same shard index and WAL directory: the
    // re-registration must land *after* the prune in epoch order.
    let replica = ReplicaServer::spawn(config()).expect("replica recovers");
    assert!(
        replica.registration_epoch() > pruned_epoch,
        "re-registration epoch must advance past the prune ({} vs {pruned_epoch})",
        replica.registration_epoch(),
    );

    // The re-registered entry answers pings, so further sweeps keep it.
    std::thread::sleep(Duration::from_millis(100));
    let (_, replicas) = rendezvous.snapshot();
    assert_eq!(replicas.len(), 1, "the recovered replica stays registered");
    assert_eq!(replicas[0].0, 0);

    // And the durable namespace came back with it.
    let mut client =
        NetClient::connect(&rv_addr, 1, Duration::from_secs(10)).expect("client reconnects");
    let mut read = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 0 });
    read.push_lookup("/prune/survivor");
    let outcomes = client.execute(&read).expect("lookup");
    assert!(
        outcomes[0].home().is_some(),
        "the recovered replica must serve its durable namespace"
    );

    replica.shutdown();
    rendezvous.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
}

/// Liveness plumbing: pings echo, batches are counted, and a fresh
/// client can join an already-running fleet through the rendezvous.
#[test]
fn fleet_liveness_and_late_joining_clients() {
    let net =
        LoopbackNet::launch(FleetSpec::new(REPLICAS, 2, base_config())).expect("fleet launches");
    let mut first = net.client().expect("client connects");
    first.ping_all(0x1234).expect("pings echo");
    let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 0 });
    batch.push_create("/live/a");
    first.execute(&batch).expect("create");

    let mut late = net.client().expect("late client connects");
    let mut read = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 0 });
    read.push_lookup("/live/a");
    let outcomes = late.execute(&read).expect("lookup");
    assert!(
        outcomes[0].home().is_some(),
        "the late client must see the first client's (undrained) create"
    );
    let served: u64 = (0..REPLICAS)
        .map(|r| late.stats(r).expect("stats").batches_served)
        .sum();
    assert!(served >= 2, "replicas count served batches (got {served})");
    net.shutdown();
}

/// A batch whose frame would exceed [`MAX_FRAME_LEN`] (5,000 creates of
/// 4 KB paths on a one-replica fleet: ≈ 20.6 MB) is refused by the
/// client with `Oversized` before any byte is sent, instead of a frame
/// the replica's reader refuses while the client blocks writing the
/// rest. The connection stays usable and nothing of the batch applied.
#[test]
fn an_oversized_batch_is_refused_before_it_is_sent() {
    let net =
        LoopbackNet::launch(FleetSpec::new(1, SERVERS, base_config())).expect("fleet launches");
    let client = net.client().expect("client connects");
    let paths: Vec<String> = (0..5_000)
        .map(|i| {
            let stem = format!("/big/{i:05}/");
            stem.clone() + &"x".repeat(4_096 - stem.len())
        })
        .collect();
    let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 0 });
    for path in &paths {
        batch.push_create(path.as_str());
    }
    let (done, result) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut client = client;
        let outcome = client.execute(&batch);
        let _ = done.send((client, outcome));
    });
    let (mut client, outcome) = result
        .recv_timeout(Duration::from_secs(20))
        .expect("the oversized batch returns instead of hanging");
    assert!(
        matches!(
            outcome,
            Err(WireError::Oversized {
                max: MAX_FRAME_LEN,
                ..
            })
        ),
        "{outcome:?}"
    );

    let mut small = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 0 });
    small.push_create("/small/after");
    small.push_lookup("/small/after");
    let outcomes = client.execute(&small).expect("the next batch is served");
    assert!(outcomes[1].home().is_some());
    for chunk in paths.chunks(500) {
        let mut lookups = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 0 });
        for path in chunk {
            lookups.push_lookup(path.as_str());
        }
        let outcomes = client.execute(&lookups).expect("lookups are served");
        assert!(
            outcomes.iter().all(|outcome| outcome.home().is_none()),
            "no path of the refused batch exists"
        );
    }
    net.shutdown();
}

/// A server that refuses a frame answers with a typed `ErrorReply` and
/// then closes the connection: the peer reads end-of-stream right
/// behind the reply, on the replica and on the rendezvous alike.
#[test]
fn a_refused_frame_is_answered_then_closed() {
    let rendezvous = Rendezvous::spawn("127.0.0.1:0").expect("rendezvous binds");
    let replica = ReplicaServer::spawn(
        ReplicaConfig::new(0, 2, base_config()).with_rendezvous(rendezvous.addr().to_string()),
    )
    .expect("replica spawns");
    for addr in [replica.addr(), rendezvous.addr()] {
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        stream
            .write_all(&(MAX_FRAME_LEN + 1).to_le_bytes())
            .expect("length prefix");
        let reply = NetMessage::read_from(&mut stream);
        assert!(
            matches!(reply, Ok(Some(NetMessage::ErrorReply { .. }))),
            "{addr}: {reply:?}"
        );
        let after = NetMessage::read_from(&mut stream);
        assert!(
            matches!(after, Ok(None)),
            "{addr}: end-of-stream, not {after:?}"
        );
    }
    replica.shutdown();
    rendezvous.shutdown();
}
