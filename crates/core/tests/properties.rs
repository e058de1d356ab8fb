//! Property-based tests: cluster invariants under arbitrary operation
//! sequences.

use ghba_core::{
    ControllerConfig, EntryPolicy, ExecutorConfig, GhbaCluster, GhbaConfig, GroupController, MdsId,
    MetadataService, OpBatch,
};
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
    /// One online-controller tick: close the lead cluster's load
    /// window, plan on the report, and actuate the *identical* action
    /// list on every lock-step cluster — controller-driven churn
    /// interleaved with the batch stream.
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

/// Drives one `StreamOp` against a set of clusters that must stay in
/// lock step (they share seeds, so deterministic policies and RNG draws
/// agree). Returns the executed batches' outcomes, one vector per
/// cluster, for the caller to compare.
fn apply_stream_op(
    clusters: &mut [&mut GhbaCluster],
    op: &StreamOp,
    next_fresh: &mut u32,
    controller: &mut GroupController,
) -> Option<Vec<Vec<ghba_core::OpOutcome>>> {
    match op {
        StreamOp::Batch(items, pol) => {
            let ids = clusters[0].server_ids();
            let policy = match pol % 3 {
                0 => EntryPolicy::Random,
                1 => EntryPolicy::Pinned(ids[*pol as usize % ids.len()]),
                _ => EntryPolicy::RoundRobin {
                    start: *pol as usize,
                },
            };
            let mut batch = OpBatch::new().with_entry(policy);
            for (kind, f) in items {
                let path = format!("/e/f{f}");
                match kind % 4 {
                    0 => batch.push_lookup(path),
                    1 => batch.push_create(path),
                    2 => batch.push_remove(path),
                    _ => {
                        let to = format!("/e/r{next_fresh}");
                        *next_fresh += 1;
                        batch.push_rename(path, to);
                    }
                }
            }
            Some(
                clusters
                    .iter_mut()
                    .map(|cluster| cluster.execute(&batch))
                    .collect(),
            )
        }
        StreamOp::AddMds => {
            if clusters[0].server_count() < 14 {
                for cluster in clusters.iter_mut() {
                    cluster.add_mds();
                }
            }
            None
        }
        StreamOp::RemoveMds(pick) => {
            if clusters[0].server_count() > 2 {
                let ids = clusters[0].server_ids();
                let victim = ids[*pick as usize % ids.len()];
                for cluster in clusters.iter_mut() {
                    cluster.remove_mds(victim).expect("removable");
                }
            }
            None
        }
        StreamOp::FailMds(pick) => {
            if clusters[0].server_count() > 2 {
                let ids = clusters[0].server_ids();
                let victim = ids[*pick as usize % ids.len()];
                for cluster in clusters.iter_mut() {
                    cluster.fail_mds(victim).expect("failable");
                }
            }
            None
        }
        StreamOp::Rebalance(pick) => {
            let gids: Vec<_> = clusters[0]
                .server_ids()
                .into_iter()
                .filter_map(|id| clusters[0].group_of(id))
                .collect();
            if !gids.is_empty() {
                let gid = gids[*pick as usize % gids.len()];
                for cluster in clusters.iter_mut() {
                    cluster.rebalance_group(gid);
                }
            }
            None
        }
        StreamOp::AdaptTick => {
            // Plan once, on the lead cluster's telemetry; handle-driven
            // actions are deterministic, so applying the same list to
            // every cluster preserves lock step exactly like the
            // explicit Rebalance event does.
            let report = clusters[0].load_report();
            let max = clusters[0].reconfig_handle().max_group_size();
            let actions = controller.plan(&report, max);
            for cluster in clusters.iter_mut() {
                let handle = cluster.reconfig_handle();
                for action in &actions {
                    action.apply(&handle);
                }
            }
            None
        }
        StreamOp::Flush => {
            for cluster in clusters.iter_mut() {
                cluster.flush_all_updates();
            }
            None
        }
    }
}

fn test_config(seed: u64) -> GhbaConfig {
    GhbaConfig::default()
        .with_max_group_size(3)
        .with_filter_capacity(500)
        .with_lru_capacity(64)
        .with_seed(seed)
}

/// A path re-created at a second home without a remove is stored twice:
/// the filter-guided locate and the ground-truth sweep both answer the
/// lowest id, then the other.
#[test]
fn remove_of_a_doubly_homed_path_takes_the_lowest_id_first() {
    let mut cluster = GhbaCluster::with_servers(test_config(3), 7);
    let ids = cluster.server_ids();
    cluster.create_file_at("/twice", ids[5]);
    cluster.create_file_at("/twice", ids[2]);
    for expected in [ids[2], ids[5]] {
        assert_eq!(cluster.true_home("/twice"), Some(expected));
        assert_eq!(cluster.remove_file("/twice"), Some(expected));
    }
    assert_eq!(cluster.remove_file("/twice"), None);
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
                    let path = format!("/p/f{f}");
                    if !live_paths.contains(&f) {
                        cluster.create_file(&path);
                        live_paths.insert(f);
                    }
                }
                Op::Lookup(f) => {
                    let path = format!("/p/f{f}");
                    let outcome = cluster.lookup(&path);
                    let truth = cluster.true_home(&path);
                    prop_assert_eq!(
                        outcome.home, truth,
                        "step {}: lookup disagrees with ground truth", step
                    );
                    prop_assert_eq!(outcome.found(), live_paths.contains(&f));
                }
                Op::Remove(f) => {
                    let path = format!("/p/f{f}");
                    // The remove locates its home through the live
                    // filters; the store sweep is the ground truth.
                    let truth = cluster.true_home(&path);
                    let removed = cluster.remove_file(&path);
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
            let path = format!("/p/f{f}");
            prop_assert!(cluster.lookup(&path).found(), "lost {}", path);
        }
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
    /// telemetry) with mixed op batches, the snapshot-resident shared
    /// mask cache — the one every walk consults — never holds a stale
    /// mask. Invariant 8 of `check_invariants` (every cached L2/L3
    /// entry valid under the published snapshot equals the mask and
    /// held counts rebuilt from it) is checked after every step, and
    /// every lookup of every batch names its ground-truth home.
    #[test]
    fn shared_mask_cache_never_serves_a_stale_mask(
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
            let results = {
                let mut clusters = [&mut cluster];
                apply_stream_op(&mut clusters, &op, &mut next_fresh, &mut controller)
            };
            if let (StreamOp::Batch(items, _), Some(results)) = (&op, results) {
                // A lookup that is the batch's last word on its path
                // must agree with the post-batch ground truth: found
                // iff stored, at a server that stores it (the stream
                // may create one path at several homes).
                for (i, ((kind, f), outcome)) in items.iter().zip(&results[0]).enumerate() {
                    let last_word = items[i + 1..].iter().all(|(_, later)| later != f);
                    if kind % 4 == 0 && last_word {
                        let path = format!("/e/f{f}");
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

    /// Parallel-execution acceptance: the data-parallel walk is
    /// bit-identical to the sequential walk at every worker count, for
    /// the same mixed-op stream under arbitrary reconfig interleavings
    /// (`fail_mds` included). The parallel floor is dropped to 2 so even
    /// small generated batches exercise the chunked path.
    #[test]
    fn parallel_execute_matches_sequential_across_worker_counts(
        ops in proptest::collection::vec(arb_stream_op(), 1..24),
        seed in 0u64..300,
        workers in prop_oneof![Just(2usize), Just(4), Just(7)],
    ) {
        let base = GhbaConfig::default()
            .with_max_group_size(3)
            .with_filter_capacity(400)
            .with_lru_capacity(32)
            .with_update_threshold(128)
            .with_seed(seed);
        let mut sequential = GhbaCluster::with_servers(base.clone(), 6);
        let mut parallel = GhbaCluster::with_servers(
            base.with_executor(
                ExecutorConfig::default()
                    .with_workers(workers)
                    .with_min_parallel_batch(2),
            ),
            6,
        );
        let mut next_fresh = 50_000u32;
        let mut controller = churn_controller();
        for (step, op) in ops.into_iter().enumerate() {
            let results = {
                let mut clusters = [&mut sequential, &mut parallel];
                apply_stream_op(&mut clusters, &op, &mut next_fresh, &mut controller)
            };
            if let Some(results) = results {
                prop_assert_eq!(
                    &results[1], &results[0],
                    "step {}: {} workers diverged from sequential", step, workers
                );
            }
        }
        prop_assert_eq!(
            sequential.stats().levels,
            parallel.stats().levels,
            "level statistics must agree after the stream"
        );
        prop_assert_eq!(
            sequential.stats().lookup_latency.count(),
            parallel.stats().lookup_latency.count()
        );
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
