//! Property-based tests: cluster invariants under arbitrary operation
//! sequences. File paths span 1–64 bytes ([`paths::path_of`]), so both
//! representations of a store key's path are exercised.

mod paths;

use ghba_core::{
    ControllerConfig, EntryPolicy, GhbaCluster, GhbaConfig, GroupController, HbaCluster, MdsId,
    MetadataService, OpBatch, OpOutcome,
};
use paths::path_of;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Create(u16),
    Lookup(u16),
    Remove(u16),
    AddMds,
    RemoveMds(u8),
    PushUpdates,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u16..200).prop_map(Op::Create),
        4 => (0u16..200).prop_map(Op::Lookup),
        1 => (0u16..200).prop_map(Op::Remove),
        1 => Just(Op::AddMds),
        1 => any::<u8>().prop_map(Op::RemoveMds),
        1 => Just(Op::PushUpdates),
    ]
}

/// One step of the epoch-invalidation stream: a mixed op batch
/// (`(kind, file)` pairs plus a policy selector) or a reconfiguration
/// event between batches (reconfiguration cannot interleave with an
/// executing batch, but any number may land between two).
#[derive(Debug, Clone)]
enum StreamOp {
    Batch(Vec<(u8, u16)>, u8),
    AddMds,
    RemoveMds(u8),
    FailMds(u8),
    /// Standalone single-group rebalance: the reconfiguration class the
    /// per-group epochs keep every *other* group warm across.
    Rebalance(u8),
    /// One online-controller tick: close the cluster's load window,
    /// plan on the report, and actuate the actions — controller-driven
    /// churn interleaved with the batch stream.
    AdaptTick,
    Flush,
}

fn arb_stream_op() -> impl Strategy<Value = StreamOp> {
    prop_oneof![
        5 => (proptest::collection::vec((0u8..8, 0u16..150), 1..12), any::<u8>())
            .prop_map(|(ops, pol)| StreamOp::Batch(ops, pol)),
        1 => Just(StreamOp::AddMds),
        1 => any::<u8>().prop_map(StreamOp::RemoveMds),
        1 => any::<u8>().prop_map(StreamOp::FailMds),
        1 => any::<u8>().prop_map(StreamOp::Rebalance),
        1 => Just(StreamOp::AdaptTick),
        1 => Just(StreamOp::Flush),
    ]
}

/// An eager controller for churn streams: no idle gate, no cooldown —
/// every tick that *can* act does, maximizing reconfigurations
/// interleaved with the batches.
fn churn_controller() -> GroupController {
    GroupController::new(
        ControllerConfig::default()
            .with_min_window_lookups(1)
            .with_cooldown(0),
    )
}

/// Drives one `StreamOp` against `cluster`, returning a batch's
/// outcomes.
fn apply_stream_op(
    cluster: &mut GhbaCluster,
    op: &StreamOp,
    next_fresh: &mut u32,
    controller: &mut GroupController,
) -> Option<Vec<OpOutcome>> {
    match op {
        StreamOp::Batch(items, pol) => {
            let ids = cluster.server_ids();
            let policy = match pol % 3 {
                0 => EntryPolicy::Random,
                1 => EntryPolicy::Pinned(ids[*pol as usize % ids.len()]),
                _ => EntryPolicy::RoundRobin {
                    start: *pol as usize,
                },
            };
            let mut batch = OpBatch::new().with_entry(policy);
            for (kind, f) in items {
                let path = path_of("e", u32::from(*f));
                match kind % 4 {
                    0 => batch.push_lookup(path),
                    1 => batch.push_create(path),
                    2 => batch.push_remove(path),
                    _ => {
                        let to = path_of("e/r", *next_fresh);
                        *next_fresh += 1;
                        batch.push_rename(path, to);
                    }
                }
            }
            Some(cluster.execute(&batch))
        }
        StreamOp::AddMds => {
            if cluster.server_count() < 14 {
                cluster.add_mds();
            }
            None
        }
        StreamOp::RemoveMds(pick) => {
            if cluster.server_count() > 2 {
                let ids = cluster.server_ids();
                let victim = ids[*pick as usize % ids.len()];
                cluster.remove_mds(victim).expect("removable");
            }
            None
        }
        StreamOp::FailMds(pick) => {
            if cluster.server_count() > 2 {
                let ids = cluster.server_ids();
                let victim = ids[*pick as usize % ids.len()];
                cluster.fail_mds(victim).expect("failable");
            }
            None
        }
        StreamOp::Rebalance(pick) => {
            let gids: Vec<_> = cluster
                .server_ids()
                .into_iter()
                .filter_map(|id| cluster.group_of(id))
                .collect();
            if !gids.is_empty() {
                let gid = gids[*pick as usize % gids.len()];
                let moved = cluster.reconfig_handle().rebalance_group(gid);
                moved.expect("the group is live");
            }
            None
        }
        StreamOp::AdaptTick => {
            let report = cluster.load_report();
            let handle = cluster.reconfig_handle();
            for action in controller.plan(&report, handle.max_group_size()) {
                action.apply(&handle);
            }
            None
        }
        StreamOp::Flush => {
            cluster.flush_all_updates();
            None
        }
    }
}

/// One step of the live-slab stream: every writer of a live column, the
/// publishers, and membership changes, through both entries.
#[derive(Debug, Clone)]
enum LiveStep {
    /// An owner create (or re-create) of file `f` at the server `pick`
    /// selects.
    Create(u16, u8),
    /// An owner remove of file `f` (an absent remove when it lives
    /// nowhere).
    Remove(u16),
    /// A mixed `(kind, file)` batch through the `&self` entry, left
    /// pending for the next drain (`kind % 3`: lookup, create, remove).
    Concurrent(Vec<(u8, u16)>, u8),
    /// The same through the `&mut` entry.
    Owner(Vec<(u8, u16)>, u8),
    Drain,
    Flush,
    Push(u8),
    Join,
    Leave(u8),
}

fn arb_live_step() -> impl Strategy<Value = LiveStep> {
    let batch = || proptest::collection::vec((0u8..3, 0u16..300), 1..24);
    prop_oneof![
        4 => (0u16..300, any::<u8>()).prop_map(|(f, pick)| LiveStep::Create(f, pick)),
        2 => (0u16..300).prop_map(LiveStep::Remove),
        3 => (batch(), any::<u8>()).prop_map(|(ops, at)| LiveStep::Concurrent(ops, at)),
        2 => (batch(), any::<u8>()).prop_map(|(ops, at)| LiveStep::Owner(ops, at)),
        2 => Just(LiveStep::Drain),
        1 => Just(LiveStep::Flush),
        2 => any::<u8>().prop_map(LiveStep::Push),
        1 => Just(LiveStep::Join),
        1 => any::<u8>().prop_map(LiveStep::Leave),
    ]
}

/// Drives a [`LiveStep`] stream against a cluster of 66 servers — so
/// slots span two slab words — and checks every invariant after every
/// step: both slabs hold every server at one slot, each live column is
/// its counters' projection, a published column differs from its live
/// one only in the server's dirty blocks, a clean server's two columns
/// are one. Pending writes of the `&self` entry stay pending across
/// owner steps that do not drain.
macro_rules! drive_live_stream {
    ($name:ident, $cluster:ty) => {
        fn $name(steps: &[LiveStep], seed: u64) -> Result<(), TestCaseError> {
            let config = GhbaConfig::default()
                .with_max_group_size(8)
                .with_filter_capacity(48)
                .with_update_threshold(24)
                .with_write_shards(4)
                .with_seed(seed);
            let mut cluster = <$cluster>::with_servers(config, 66);
            let path = |f: u16| path_of("live", u32::from(f));
            let batch = |ops: &[(u8, u16)], at: u8, ids: &[MdsId]| {
                let entry = ids[usize::from(at) % ids.len()];
                let mut batch = OpBatch::new().with_entry(EntryPolicy::Pinned(entry));
                for &(kind, f) in ops {
                    match kind % 3 {
                        0 => batch.push_lookup(path(f)),
                        1 => batch.push_create(path(f)),
                        _ => batch.push_remove(path(f)),
                    }
                }
                batch
            };
            for (n, step) in steps.iter().enumerate() {
                let ids = cluster.server_ids();
                let pick = |at: u8| ids[usize::from(at) % ids.len()];
                match step {
                    LiveStep::Create(f, at) => cluster.create_file_at(&path(*f), pick(*at)),
                    LiveStep::Remove(f) => {
                        cluster.drain_concurrent();
                        let truth = cluster.true_home(&path(*f));
                        prop_assert_eq!(cluster.remove(&path(*f)), truth, "step {}", n);
                    }
                    LiveStep::Concurrent(ops, at) => {
                        cluster.execute_concurrent(&batch(ops, *at, &ids));
                    }
                    LiveStep::Owner(ops, at) => {
                        cluster.execute(&batch(ops, *at, &ids));
                    }
                    LiveStep::Drain => {
                        cluster.drain_concurrent();
                    }
                    LiveStep::Flush => {
                        cluster.flush_all_updates();
                        for id in cluster.server_ids() {
                            prop_assert!(cluster.mds(id).expect("live").is_clean(), "step {}", n);
                        }
                    }
                    LiveStep::Push(at) => {
                        cluster.push_update(pick(*at));
                        prop_assert!(cluster.mds(pick(*at)).expect("live").is_clean());
                    }
                    LiveStep::Join => {
                        if cluster.server_count() < 72 {
                            cluster.add_mds();
                        }
                    }
                    LiveStep::Leave(at) => {
                        if cluster.server_count() > 62 {
                            cluster.remove_mds(pick(*at)).expect("removable");
                        }
                    }
                }
                if let Err(violation) = cluster.check_invariants() {
                    return Err(TestCaseError::fail(format!(
                        "step {n} ({step:?}): {violation}"
                    )));
                }
            }
            cluster.drain_concurrent();
            for f in 0..300 {
                let entry = cluster.server_ids()[usize::from(f) % cluster.server_count()];
                let outcome = cluster.lookup_concurrent(entry, &path(f));
                prop_assert_eq!(
                    outcome.home.is_some(),
                    cluster.true_home(&path(f)).is_some()
                );
            }
            Ok(())
        }
    };
}

drive_live_stream!(drive_grouped, GhbaCluster);

drive_live_stream!(drive_mirrored, HbaCluster);

/// One step of the plan-table stream: a lookup batch through either
/// entry, the owner's writes and drains, and every reconfiguration that
/// can move a plan.
#[derive(Debug, Clone)]
enum PlanStep {
    /// Lookups of these files, round robin from the server `at` picks,
    /// through the `&self` entry (`true`) or the `&mut` one.
    Lookups(Vec<u16>, u8, bool),
    /// An owner create (`true`, at the server `at` picks) or remove.
    Write(u16, u8, bool),
    /// `&self` creates of these files from the server `at` picks, then
    /// a drain.
    Drain(Vec<u16>, u8),
    Flush,
    Rebalance(u8),
    Split(u8),
    Merge(u8, u8),
    Join,
    Leave(u8),
    Fail(u8),
}

fn arb_plan_step() -> impl Strategy<Value = PlanStep> {
    let files = || proptest::collection::vec(0u16..240, 1..24);
    prop_oneof![
        6 => (files(), any::<u8>(), any::<bool>())
            .prop_map(|(files, at, concurrent)| PlanStep::Lookups(files, at, concurrent)),
        2 => (0u16..240, any::<u8>(), any::<bool>())
            .prop_map(|(f, at, create)| PlanStep::Write(f, at, create)),
        1 => (files(), any::<u8>()).prop_map(|(files, at)| PlanStep::Drain(files, at)),
        1 => Just(PlanStep::Flush),
        2 => any::<u8>().prop_map(PlanStep::Rebalance),
        1 => any::<u8>().prop_map(PlanStep::Split),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(a, b)| PlanStep::Merge(a, b)),
        1 => Just(PlanStep::Join),
        1 => any::<u8>().prop_map(PlanStep::Leave),
        1 => any::<u8>().prop_map(PlanStep::Fail),
    ]
}

/// Drives a [`PlanStep`] stream against a cluster of 62–70 servers under
/// a memory budget that spills replicas. Before each lookup batch the
/// cluster is cloned — the twin starts with a cold plan table — and both
/// run the batch: outcomes, latencies, level counts and false-hit
/// counters must agree, so no plan the cluster carried across a publish,
/// nor a probe cost it planned, differs from one built afresh. A split,
/// merge or rebalance through the handle touches no store, so across one
/// every spilling server keeps the number of replicas its memory holds.
fn drive_plans(steps: &[PlanStep], seed: u64) -> Result<(), TestCaseError> {
    let config = GhbaConfig::default()
        .with_max_group_size(8)
        .with_filter_capacity(64)
        .with_lru_capacity(16)
        .with_update_threshold(32)
        .with_memory_per_mds(PLAN_BUDGET)
        .with_seed(seed);
    let mut cluster = GhbaCluster::with_servers(config, 62);
    let handle = cluster.reconfig_handle();
    let path = |f: u16| path_of("plan", u32::from(f));
    for f in 0..160 {
        cluster.create(&path(f));
    }
    // A server's held replicas and how many of them are resident.
    let residency = |cluster: &GhbaCluster, id: MdsId| {
        let held = cluster.replicas_held_by(id).len();
        (held, cluster.mds(id).expect("live").resident_replicas(held))
    };
    // Every spilling server and the replicas its memory holds.
    let capacities = |cluster: &GhbaCluster| -> Vec<(MdsId, usize)> {
        let ids = cluster.server_ids().into_iter();
        ids.filter_map(|id| match residency(cluster, id) {
            (held, resident) if resident < held => Some((id, resident)),
            _ => None,
        })
        .collect()
    };
    prop_assert!(
        !capacities(&cluster).is_empty(),
        "the budget spills no replica"
    );
    for (n, step) in steps.iter().enumerate() {
        let before = match step {
            PlanStep::Split(_) | PlanStep::Merge(..) | PlanStep::Rebalance(_) => {
                capacities(&cluster)
            }
            _ => Vec::new(),
        };
        let ids = cluster.server_ids();
        let pick = |at: u8| ids[usize::from(at) % ids.len()];
        let gids = handle.group_ids();
        let group = |at: u8| gids[usize::from(at) % gids.len()];
        match step {
            PlanStep::Lookups(files, at, concurrent) => {
                cluster.drain_concurrent();
                let mut twin = cluster.clone();
                let start = usize::from(*at);
                let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start });
                files.iter().for_each(|&f| batch.push_lookup(path(f)));
                let (got, want) = if *concurrent {
                    let got = cluster.execute_concurrent(&batch);
                    (got, twin.execute_concurrent(&batch))
                } else {
                    (cluster.execute(&batch), twin.execute(&batch))
                };
                prop_assert_eq!(got, want, "step {}", n);
                cluster.drain_concurrent();
                twin.drain_concurrent();
                let (got, want) = (cluster.stats(), twin.stats());
                prop_assert_eq!(&got.levels, &want.levels, "step {}", n);
                prop_assert_eq!(&got.lookup_latency, &want.lookup_latency, "step {}", n);
                prop_assert_eq!(got.counters, want.counters, "step {}", n);
            }
            PlanStep::Write(f, at, true) => cluster.create_file_at(&path(*f), pick(*at)),
            PlanStep::Write(f, _, false) => {
                cluster.remove(&path(*f));
            }
            PlanStep::Drain(files, at) => {
                let entry = EntryPolicy::Pinned(pick(*at));
                let mut batch = OpBatch::new().with_entry(entry);
                files.iter().for_each(|&f| batch.push_create(path(f)));
                cluster.execute_concurrent(&batch);
                cluster.drain_concurrent();
            }
            PlanStep::Flush => {
                cluster.flush_all_updates();
            }
            PlanStep::Rebalance(at) => {
                let _ = handle.rebalance_group(group(*at));
            }
            PlanStep::Split(at) => {
                let _ = handle.split_group(group(*at));
            }
            PlanStep::Merge(a, b) => {
                handle.merge_groups(group(*a), group(*b));
            }
            PlanStep::Join => {
                if cluster.server_count() < 70 {
                    cluster.add_mds();
                }
            }
            PlanStep::Leave(at) => {
                if cluster.server_count() > 62 {
                    cluster.remove_mds(pick(*at)).expect("removable");
                }
            }
            PlanStep::Fail(at) => {
                if cluster.server_count() > 62 {
                    cluster.fail_mds(pick(*at)).expect("failable");
                }
            }
        }
        // A handle step moves replicas, not files: no store changed, so
        // each server's memory holds as many replicas as before it.
        for &(id, capacity) in &before {
            let (held, resident) = residency(&cluster, id);
            prop_assert_eq!(
                resident,
                held.min(capacity),
                "step {} ({:?}): {} holds {}",
                n,
                step,
                id,
                held
            );
        }
        if let Err(violation) = cluster.check_invariants() {
            return Err(TestCaseError::fail(format!(
                "step {n} ({step:?}): {violation}"
            )));
        }
    }
    Ok(())
}

/// A per-server memory budget (bytes) under which [`drive_plans`]'s
/// servers spill some of their replicas to disk.
const PLAN_BUDGET: usize = 4_096;

fn test_config(seed: u64) -> GhbaConfig {
    GhbaConfig::default()
        .with_max_group_size(3)
        .with_filter_capacity(500)
        .with_lru_capacity(64)
        .with_seed(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any sequence of metadata and membership operations preserves every
    /// structural invariant, and lookups always agree with ground truth.
    #[test]
    fn invariants_hold_under_arbitrary_ops(
        ops in proptest::collection::vec(arb_op(), 1..60),
        seed in 0u64..1000,
    ) {
        let mut cluster = GhbaCluster::with_servers(test_config(seed), 7);
        let mut live_paths: std::collections::HashSet<u16> =
            std::collections::HashSet::new();
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Create(f) => {
                    let path = path_of("p", u32::from(f));
                    if !live_paths.contains(&f) {
                        cluster.create(&path);
                        live_paths.insert(f);
                    }
                }
                Op::Lookup(f) => {
                    let path = path_of("p", u32::from(f));
                    let outcome = cluster.lookup(&path);
                    let truth = cluster.true_home(&path);
                    prop_assert_eq!(
                        outcome.home, truth,
                        "step {}: lookup disagrees with ground truth", step
                    );
                    prop_assert_eq!(outcome.found(), live_paths.contains(&f));
                }
                Op::Remove(f) => {
                    let path = path_of("p", u32::from(f));
                    // The remove locates its home through the live
                    // filters; the store sweep is the ground truth.
                    let truth = cluster.true_home(&path);
                    let removed = cluster.remove(&path);
                    prop_assert_eq!(removed, truth, "step {}: filter-guided locate", step);
                    prop_assert_eq!(removed.is_some(), live_paths.remove(&f));
                }
                Op::AddMds => {
                    if cluster.server_count() < 20 {
                        cluster.add_mds();
                    }
                }
                Op::RemoveMds(pick) => {
                    if cluster.server_count() > 2 {
                        let ids = cluster.server_ids();
                        let victim = ids[pick as usize % ids.len()];
                        cluster.remove_mds(victim).expect("removable");
                    }
                }
                Op::PushUpdates => {
                    cluster.flush_all_updates();
                }
            }
            if let Err(violation) = cluster.check_invariants() {
                return Err(TestCaseError::fail(format!("step {step}: {violation}")));
            }
        }
        // Every live file is still findable at the end.
        for f in live_paths {
            let path = path_of("p", u32::from(f));
            prop_assert!(cluster.lookup(&path).found(), "lost {}", path);
        }
    }

    /// The live slab stays exact, and the published slab its lagging
    /// twin, under arbitrary streams of creates, re-creates, removes,
    /// absent removes, drains, flushes, pushes, joins and leaves through
    /// both entries — on G-HBA and on HBA.
    #[test]
    fn live_slab_is_exact_under_arbitrary_streams(
        steps in proptest::collection::vec(arb_live_step(), 1..40),
        seed in 0u64..1000,
    ) {
        drive_grouped(&steps, seed)?;
        drive_mirrored(&steps, seed)?;
    }

    /// A plan carried across publishes is the plan built afresh: lookup
    /// batches through both entries agree with a twin cloned — cold —
    /// before each, under arbitrary handle rebalances, splits and
    /// merges, joins, leaves and fail-stops past 64 servers, and owner
    /// writes and drains under a memory budget.
    #[test]
    fn carried_plans_equal_cold_plans(
        steps in proptest::collection::vec(arb_plan_step(), 1..30),
        seed in 0u64..1000,
    ) {
        drive_plans(&steps, seed)?;
    }

    /// Group sizes never exceed M; group count tracks ceil(N/M) from below.
    #[test]
    fn group_sizes_bounded(n in 1usize..40, m in 1usize..8) {
        let config = GhbaConfig::default()
            .with_max_group_size(m)
            .with_filter_capacity(100)
            .with_seed(1);
        let cluster = GhbaCluster::with_servers(config, n);
        prop_assert!(cluster.group_sizes().iter().all(|&s| s <= m));
        prop_assert_eq!(cluster.group_sizes().iter().sum::<usize>(), n);
        prop_assert!(cluster.group_count() >= n.div_ceil(m));
        cluster.check_invariants().map_err(TestCaseError::fail)?;
    }

    /// Epoch-invalidation acceptance: under **any** interleaving of
    /// reconfiguration events (join, graceful leave, fail-stop,
    /// standalone single-group rebalances, and online-controller ticks
    /// planning real split/merge/rebalance actions from live
    /// telemetry) with mixed op batches, the published snapshot's plan
    /// table — the one every walk reads — never holds a stale plan.
    /// Invariant 8 of `check_invariants` (every filled L2/L3 slot equals
    /// the plan rebuilt from the snapshot) is checked after every step,
    /// and every lookup of every batch names its ground-truth home.
    #[test]
    fn plan_table_never_serves_a_stale_plan(
        ops in proptest::collection::vec(arb_stream_op(), 1..36),
        seed in 0u64..500,
    ) {
        let config = GhbaConfig::default()
            .with_max_group_size(3)
            .with_filter_capacity(400)
            .with_lru_capacity(32)
            .with_update_threshold(128)
            .with_seed(seed);
        let mut cluster = GhbaCluster::with_servers(config, 6);
        let mut next_fresh = 10_000u32;
        let mut controller = churn_controller();
        for (step, op) in ops.into_iter().enumerate() {
            let outcomes = apply_stream_op(&mut cluster, &op, &mut next_fresh, &mut controller);
            if let (StreamOp::Batch(items, _), Some(outcomes)) = (&op, outcomes) {
                // A lookup that is the batch's last word on its path
                // must agree with the post-batch ground truth: found
                // iff stored, at a server that stores it (the stream
                // may create one path at several homes).
                for (i, ((kind, f), outcome)) in items.iter().zip(&outcomes).enumerate() {
                    let last_word = items[i + 1..].iter().all(|(_, later)| later != f);
                    if kind % 4 == 0 && last_word {
                        let path = path_of("e", u32::from(*f));
                        let stored = match outcome.home() {
                            Some(home) => cluster.mds(home).is_some_and(|m| m.stores(&path)),
                            None => cluster.true_home(&path).is_none(),
                        };
                        prop_assert!(
                            stored,
                            "step {}: lookup {} disagrees with ground truth", step, i
                        );
                    }
                }
            }
            if let Err(violation) = cluster.check_invariants() {
                return Err(TestCaseError::fail(format!("step {step}: {violation}")));
            }
        }
    }

    /// The update protocol messages are bounded by candidates across
    /// recipient groups and at least one per group.
    #[test]
    fn update_messages_bounded_by_groups(
        n in 4usize..24,
        files in 1usize..40,
        seed in 0u64..500,
    ) {
        let config = test_config(seed).with_max_group_size(4);
        let mut cluster = GhbaCluster::with_servers(config, n);
        let home = MdsId(0);
        for i in 0..files {
            cluster.create_file_at(&format!("/u/f{i}"), home);
        }
        let recipient_groups = cluster.group_count()
            - usize::from(cluster.group_of(home).is_some());
        let report = cluster.push_update(home);
        if report.refreshed {
            prop_assert!(report.messages >= recipient_groups as u64);
            // Worst case: every member of every group is an IDBFA
            // candidate.
            prop_assert!(report.messages <= n as u64);
        }
    }
}
