//! Snapshot concurrency: G-HBA lookups served *through*
//! reconfiguration.
//!
//! Three families of guarantees (the HBA/BFA counterparts live in the
//! baselines crate's `concurrency` suite):
//!
//! * **Stress** — reader threads hammer the side-effect-free
//!   `lookup_concurrent` walk while a reconfiguration handle publishes
//!   splits, merges, and rebalances. Every outcome must name the true
//!   home and carry an epoch no older than the pre-churn snapshot.
//! * **Equivalence** — the pin-once `execute_concurrent` entry matches
//!   the `&mut self` `execute` entry batch by batch, at every
//!   write-shard count.
//! * **Write races** — whole mixed batches (creates, lookups,
//!   cross-shard renames) run from `&self` on many threads, racing
//!   each other and reconfiguration churn, and the post-drain state
//!   must be exactly what each batch reported.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};

use ghba_core::{
    ClusterStats, EntryPolicy, ExecutorConfig, GhbaCluster, GhbaConfig, HbaCluster, LoadReport,
    MdsId, MetadataService, OpBatch, OpOutcome, QueryLevel,
};

fn config() -> GhbaConfig {
    GhbaConfig::default()
        .with_filter_capacity(2_000)
        .with_max_group_size(5)
        .with_seed(71)
}

/// Readers resolve concurrently with a handle publishing rebalances,
/// splits, and merges. Those reconfigurations move replica *placement*,
/// never file homes, so every concurrent outcome must still name the
/// ground-truth home — at whatever epoch the reader happened to pin.
#[test]
fn lookups_resolve_through_reconfig_churn() {
    let mut cluster = GhbaCluster::with_servers(config(), 20);
    let paths: Vec<String> = (0..150).map(|i| format!("/churn/f{i}")).collect();
    for path in &paths {
        cluster.create_file(path);
    }
    cluster.flush_all_updates();
    let truths: Vec<MdsId> = paths
        .iter()
        .map(|p| cluster.true_home(p).expect("created"))
        .collect();
    let handle = cluster.reconfig_handle();
    let start_epoch = handle.epoch();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let cluster = &cluster;
        let truths = &truths;
        let paths = &paths;
        let stop = &stop;
        let readers: Vec<_> = (0..2)
            .map(|r| {
                scope.spawn(move || {
                    let mut seen = 0u64;
                    loop {
                        for (i, path) in paths.iter().enumerate() {
                            let entry = MdsId(((i + r * 7) % 20) as u16);
                            let outcome = cluster.lookup_concurrent(entry, path);
                            assert_eq!(
                                outcome.home,
                                Some(truths[i]),
                                "concurrent lookup lost {path} mid-reconfig"
                            );
                            assert!(
                                outcome.epoch >= start_epoch,
                                "pinned an epoch older than the pre-churn snapshot"
                            );
                            seen += 1;
                        }
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    seen
                })
            })
            .collect();

        // Churn: rebalance everything, split the biggest group, merge a
        // mergeable pair — each publishes a successor snapshot while the
        // readers above keep resolving.
        for _ in 0..6 {
            for gid in handle.group_ids() {
                let _ = handle.rebalance_group(gid);
            }
            let biggest = handle
                .group_ids()
                .into_iter()
                .max_by_key(|&gid| handle.group_members(gid).map_or(0, |m| m.len()));
            if let Some(gid) = biggest {
                let _ = handle.split_group(gid);
            }
            let ids = handle.group_ids();
            'merge: for &a in &ids {
                for &b in &ids {
                    if a != b && handle.merge_groups(a, b) {
                        break 'merge;
                    }
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            assert!(reader.join().expect("reader panicked") > 0);
        }
    });

    assert!(
        handle.epoch() > start_epoch,
        "the churn loop should have published at least one reconfiguration"
    );
    // The owner's mutating paths must be coherent with everything the
    // handle published behind its back.
    cluster.check_invariants().expect("post-churn invariants");
    for (i, path) in paths.iter().enumerate() {
        assert_eq!(cluster.lookup_from(MdsId(0), path).home, Some(truths[i]));
    }
}

/// Asserts two outcome vectors match except for the membership epoch:
/// the funnel publishes via `flush_all_updates` while the pin-once
/// pipeline publishes via `drain_concurrent`, so the two clusters bump
/// epochs at different cadences even when every filter bit agrees.
fn assert_outcomes_match(round: usize, funnel: &[OpOutcome], pinned: &[OpOutcome]) {
    assert_eq!(funnel.len(), pinned.len(), "round {round}: outcome counts");
    for (i, (f, p)) in funnel.iter().zip(pinned).enumerate() {
        match (f, p) {
            (OpOutcome::Resolved(a), OpOutcome::Resolved(b)) => {
                assert_eq!(
                    (a.home, a.level, a.latency, a.messages, a.entry),
                    (b.home, b.level, b.latency, b.messages, b.entry),
                    "round {round} op {i}: pinned lookup diverged from the funnel"
                );
            }
            _ => assert_eq!(f, p, "round {round} op {i}: outcomes diverged"),
        }
    }
}

/// Single-threaded replay: the pin-once `execute_concurrent` pipeline
/// produces the same outcomes as the `&mut self` funnel for mixed
/// batches — creates, hits, misses, renames, removes — at every
/// write-shard count, and after `drain_concurrent` + flush both
/// clusters converge to the same homes.
///
/// Set up to meet the three conditions of the
/// [`MetadataService::execute_concurrent`] contract: (a) L1 is disabled,
/// (b) the update threshold is raised so no home's drift crosses it
/// inside a batch (the funnel would publish there, the `&self` entry
/// never publishes), and (c) removes sit at the tail of each batch, so
/// no lookup follows a remove of the same fingerprint.
#[test]
fn concurrent_pipeline_matches_funnel_across_shard_counts() {
    for shards in [1usize, 4, 32] {
        let cfg = config()
            .with_lru_capacity(0)
            .with_update_threshold(1 << 24)
            .with_write_shards(shards);
        let mut funnel = GhbaCluster::with_servers(cfg.clone(), 12);
        let mut pinned = GhbaCluster::with_servers(cfg, 12);

        let mut live: Vec<String> = (0..30).map(|i| format!("/mix/seed{i}")).collect();
        for path in &live {
            funnel.create_file(path);
            pinned.create_file(path);
        }
        funnel.flush_all_updates();
        pinned.flush_all_updates();

        for round in 0..5 {
            let rename_src = live.remove(0);
            let remove_tgt = live.remove(0);
            let moved = format!("/mix/r{round}/moved");
            let created: Vec<String> = (0..6).map(|j| format!("/mix/r{round}/f{j}")).collect();

            let mut batch = OpBatch::new().with_entry(EntryPolicy::Random);
            for path in live.iter().take(6) {
                batch.push_lookup(path);
            }
            for path in &created {
                batch.push_create(path);
            }
            for path in &created {
                batch.push_lookup(path);
            }
            batch.push_lookup(format!("/mix/r{round}/absent"));
            batch.push_rename(&rename_src, &moved);
            batch.push_lookup(&moved);
            batch.push_remove(&remove_tgt);
            batch.push_remove(format!("/mix/r{round}/never-created"));

            let funnel_out = funnel.execute(&batch);
            let pinned_out = pinned.execute_concurrent(&batch);
            assert_outcomes_match(round, &funnel_out, &pinned_out);

            pinned.drain_concurrent();
            funnel.flush_all_updates();
            pinned.flush_all_updates();
            live.push(moved);
            live.extend(created);
        }

        funnel.check_invariants().expect("funnel invariants");
        pinned.check_invariants().expect("pinned invariants");
        for path in &live {
            let truth = funnel.true_home(path).expect("live in funnel");
            assert_eq!(
                pinned.true_home(path),
                Some(truth),
                "clusters disagree on the home of {path} with {shards} shards"
            );
        }
    }
}

/// A `&self` remove names the ground-truth home whichever way it finds
/// it: from this era's overlay for a path with a pending create or
/// remove, through the live filters for every other stored path.
///
/// The second input is the long era: 300 creates pending on one home
/// with no drain — past any publish gate. Nothing publishes from `&self`,
/// so an entry in a foreign group finds each one a level late (L4:
/// overlay + the home's live probe) but at its true home, and at L2/L3
/// once a drain and a flush have shipped the home's drift.
#[test]
fn concurrent_remove_locates_true_home_beside_pending_overlay_entries() {
    for era_creates in [1usize, 300] {
        let mut cluster = GhbaCluster::with_servers(config().with_lru_capacity(0), 12);
        let stored: Vec<String> = (0..40).map(|i| format!("/loc/f{i}")).collect();
        let homes: Vec<MdsId> = stored.iter().map(|p| cluster.create_file(p)).collect();
        let new_home = MdsId(0);
        let foreign = cluster
            .server_ids()
            .into_iter()
            .find(|&id| cluster.group_of(id) != cluster.group_of(new_home))
            .expect("12 servers at M = 5 form several groups");

        let mut pending = OpBatch::new().with_entry(EntryPolicy::Pinned(new_home));
        let mut lookups = OpBatch::new().with_entry(EntryPolicy::Pinned(foreign));
        for i in 0..era_creates {
            pending.push_create(format!("/loc/new{i}"));
            lookups.push_lookup(format!("/loc/new{i}"));
        }
        pending.push_remove(&stored[0]);
        cluster.execute_concurrent(&pending);
        let resolved = |cluster: &GhbaCluster| -> Vec<(Option<MdsId>, QueryLevel)> {
            let outcomes = cluster.execute_concurrent(&lookups);
            let queries = outcomes.iter().map(|o| o.query().expect("lookup outcome"));
            queries.map(|q| (q.home, q.level)).collect()
        };
        assert!(
            resolved(&cluster)
                .iter()
                .all(|&found| found == (Some(new_home), QueryLevel::L4Global)),
            "{era_creates} pending creates, no drain: true home, one level late"
        );

        let mut removes = OpBatch::new();
        removes.push_remove("/loc/new0");
        for path in &stored {
            removes.push_remove(path);
        }
        let mut expected = vec![Some(new_home), None]; // overlay: created, removed
        expected.extend(homes[1..].iter().copied().map(Some)); // live filters
        let got = cluster.execute_concurrent(&removes);
        for (outcome, home) in got.iter().zip(expected) {
            assert_eq!(*outcome, OpOutcome::Removed { home });
        }
        cluster.drain_concurrent();
        assert!(stored.iter().all(|p| cluster.true_home(p).is_none()));
        assert_eq!(cluster.true_home("/loc/new0"), None, "create, then remove");

        cluster.flush_all_updates();
        assert!(
            resolved(&cluster)[1..]
                .iter()
                .all(|&(home, level)| home == Some(new_home)
                    && matches!(level, QueryLevel::L2Segment | QueryLevel::L3Group)),
            "{era_creates} creates drained and flushed: served from the replica"
        );
    }
}

/// The `&self` entry never publishes: with the publish gate at its
/// minimum (threshold 16 ⇒ gate 1), create-heavy `execute_concurrent`
/// batches leave every published filter as it was and `column ==
/// published` (invariant 7) holds with the writes still pending. The
/// drain publishes nothing either: every replica-update message in the
/// statistics is one `push_update` accounted in its `UpdateReport`.
#[test]
fn concurrent_writes_publish_nothing_before_the_owner_flush() {
    let mut cluster = GhbaCluster::with_servers(config().with_update_threshold(16), 12);
    assert_eq!(cluster.config().publish_gate(), 1);
    let published = |cluster: &GhbaCluster| -> Vec<_> {
        let ids = cluster.server_ids().into_iter();
        ids.map(|id| cluster.mds(id).expect("live").published().clone())
            .collect()
    };
    let before = published(&cluster);

    for round in 0..4 {
        let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: round });
        for i in 0..60 {
            batch.push_create(format!("/gate/r{round}/f{i}"));
        }
        batch.push_lookup(format!("/gate/r{round}/f0"));
        cluster.execute_concurrent(&batch);
        cluster
            .check_invariants()
            .expect("column == published with concurrent writes pending");
        assert_eq!(published(&cluster), before, "round {round}");
    }

    cluster.drain_concurrent();
    assert_eq!(cluster.stats().update_messages, 0, "a drain published");

    let flushed = cluster.flush_all_updates();
    assert!(flushed.messages > 0, "20 creates per server drifted");
    assert_eq!(cluster.stats().update_messages, flushed.messages);
    assert_eq!(cluster.stats().update_bytes, flushed.bytes);
    cluster.check_invariants().expect("post-flush invariants");
}

/// Duplicates are traffic: a flash-crowd batch — the same hot paths
/// through every entry, each `(entry, path)` pair repeated within and
/// across chunks — walks each pair once but accounts every occurrence.
/// Through either entry it leaves the statistics, the load report (what
/// the `GroupController` splits on) and the mask-consult counters
/// exactly where the same ops issued as 1-op batches leave them, except
/// that a repeated pair consults its masks once.
#[test]
fn fused_runs_tally_what_one_op_batches_record() {
    const SERVERS: usize = 12;
    let paths = ["/crowd/a", "/crowd/b", "/crowd/c", "/crowd/d", "/absent"];
    // Op `i` enters at server `e = i % 12` (round robin) for path
    // `(e + i / 12 % 2) % 5`: 24 distinct pairs, four occurrences each.
    let path_of = |i: usize| paths[(i % SERVERS + i / SERVERS % 2) % paths.len()];
    for (workers, concurrent) in [(1, true), (4, true), (1, false), (4, false)] {
        let build = || {
            let executor = ExecutorConfig::default()
                .with_workers(workers)
                .with_min_parallel_batch(8);
            let config = config().with_lru_capacity(0).with_executor(executor);
            let mut cluster = GhbaCluster::with_servers(config, SERVERS);
            for path in &paths[..4] {
                cluster.create_file(path);
            }
            cluster.flush_all_updates();
            cluster.reset_stats();
            cluster
        };
        let mut fused = build();
        let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 0 });
        (0..96).for_each(|i| batch.push_lookup(path_of(i)));
        let outcomes = if concurrent {
            fused.execute_concurrent(&batch)
        } else {
            fused.execute(&batch)
        };
        fused.drain_concurrent();
        let mut single = build();
        for (i, outcome) in outcomes.iter().enumerate() {
            let mut one = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: i });
            one.push_lookup(path_of(i));
            assert_eq!(&single.execute_concurrent(&one)[0], outcome, "op {i}");
        }
        single.drain_concurrent();

        let (got, want) = (fused.stats(), single.stats());
        assert_eq!(got.levels.total(), 96);
        assert_eq!(
            got.levels, want.levels,
            "workers={workers} concurrent={concurrent}"
        );
        assert_eq!(
            got.lookup_latency, want.lookup_latency,
            "workers={workers} concurrent={concurrent}"
        );
        let counters = |stats: &ClusterStats| {
            stats
                .counters
                .iter()
                .map(|(l, n)| (l.to_owned(), n))
                .collect::<BTreeMap<_, _>>()
        };
        assert_eq!(counters(got), counters(want), "false-hit counters");
        // Everything in the load report but the mask hit rate (consults
        // are per walk, below) comes from per-occurrence counts.
        let per_occurrence = |mut report: LoadReport| {
            report.groups.iter_mut().for_each(|g| g.mask_hit_rate = 1.0);
            report
        };
        let got = per_occurrence(fused.load_report());
        assert_eq!(got.fresh_lookups, 96);
        assert_eq!(
            got,
            per_occurrence(single.load_report()),
            "workers={workers} concurrent={concurrent}"
        );

        // One consult per slab level reached per distinct walk (L2
        // always — no L1 here — and L3 when the walk went past L2);
        // misses are masks actually built on this cold cluster: one per
        // entry plus one per group whose walks reached L3 (racing chunks
        // may each build a group's before either publishes it).
        let walks: BTreeMap<_, _> = outcomes
            .iter()
            .enumerate()
            .map(|(i, outcome)| outcome.query().map(|q| ((q.entry, path_of(i)), q.level)))
            .collect::<Option<_>>()
            .expect("lookups resolve");
        assert_eq!(walks.len(), 24);
        let past_l2 = walks
            .iter()
            .filter(|&(_, &level)| level != QueryLevel::L2Segment);
        let groups: BTreeSet<_> = past_l2
            .clone()
            .map(|(&(e, _), _)| fused.group_of(e))
            .collect();
        let mask = fused.mask_cache_stats();
        let consults = (walks.len() + past_l2.count()) as u64;
        assert_eq!(
            mask.window_hits + mask.window_misses,
            consults,
            "workers={workers} concurrent={concurrent}"
        );
        let built = (SERVERS + groups.len()) as u64;
        assert_eq!(single.mask_cache_stats().window_misses, built);
        assert!(
            mask.window_misses >= built,
            "every mask is built at least once"
        );
        assert!(workers > 1 || mask.window_misses == built);
    }
}

/// A batch that panics (its pinned entry is unknown) has recorded
/// nothing: statistics, load report and mask counters all stay put.
#[test]
fn panicking_batch_records_nothing() {
    let mut cluster = GhbaCluster::with_servers(config().with_lru_capacity(0), 12);
    cluster.create_file("/poison/f");
    cluster.flush_all_updates();
    cluster.reset_stats();
    let mut batch = OpBatch::new().with_entry(EntryPolicy::Pinned(MdsId(999)));
    (0..16).for_each(|_| batch.push_lookup("/poison/f"));
    let mask_before = cluster.mask_cache_stats();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = cluster.execute_concurrent(&batch);
    }));
    assert!(result.is_err(), "an unknown pinned entry must panic");
    assert_eq!(cluster.load_report().fresh_lookups, 0);
    cluster.drain_concurrent();
    assert_eq!(cluster.stats().levels.total(), 0);
    assert_eq!(cluster.stats().lookup_latency.count(), 0);
    assert_eq!(cluster.mask_cache_stats(), mask_before);
}

/// A seeded mixed batch of 64 ops under `policy`. The head is scripted
/// for a cluster of [`REUSE_SERVERS`] servers (so under round robin op
/// 12 enters where op 0 did) over the paths `/reuse/base{from..}`; the
/// tail is drawn from `seed`. Paths repeat across runs, never within
/// one: a pair repeated inside a run walks — and consults its masks —
/// once (`fused_runs_tally_what_one_op_batches_record`), which is not
/// what is compared here.
fn reuse_batch(policy: EntryPolicy, tag: &str, from: usize, seed: u64) -> OpBatch {
    let base = |i: usize| format!("/reuse/base{}", from + i);
    let mut batch = OpBatch::new().with_entry(policy);
    batch.push_lookup(base(0)); // 0: plans its entry
    batch.push_lookup(base(1));
    batch.push_lookup("/reuse/absent"); // 2: walks to L4, plans its group
    batch.push_create(format!("/reuse/{tag}/new"));
    batch.push_lookup(base(2));
    batch.push_remove(base(3));
    batch.push_lookup(base(3)); // 6: remove, then lookup
    batch.push_lookup(base(0));
    batch.push_rename(base(4), format!("/reuse/{tag}/moved"));
    batch.push_lookup(format!("/reuse/{tag}/moved"));
    batch.push_lookup(base(4)); // 10: the old name
    batch.push_lookup(base(2));
    batch.push_lookup(format!("/reuse/{tag}/new")); // 12: op 0's plan, built before the create
    batch.push_lookup(base(1)); // 13: op 1's pair again, three writes later
    let mut rng = ghba_simnet::DetRng::new(seed);
    let mut fresh = 0;
    let mut run: BTreeSet<String> = batch.ops()[9..].iter().map(|op| op.path().into()).collect();
    while batch.len() < 64 {
        match rng.index(10) {
            0 => {
                batch.push_create(format!("/reuse/{tag}/t{fresh}"));
                fresh += 1;
                run.clear();
            }
            1 => {
                batch.push_remove(base(5 + rng.index(10)));
                run.clear();
            }
            draw => {
                let path = match draw {
                    2 if fresh > 0 => format!("/reuse/{tag}/t{}", rng.index(fresh)),
                    _ => base(rng.index(15)),
                };
                if run.insert(path.clone()) {
                    batch.push_lookup(path);
                }
            }
        }
    }
    batch
}

const REUSE_SERVERS: usize = 12;

/// Plan reuse across writes is invisible: a mixed batch executed once
/// through `execute_concurrent` — every fused run walking through the
/// one arena of the batch's pin, the tally absorbed once — leaves
/// outcomes, statistics, load report and mask-consult counters where the
/// same ops issued as 1-op batches (a fresh arena each) leave them on a
/// twin. `$exact_masks`: the layout caches its masks, so hits and misses
/// agree too, not just their sum (HBA builds its L2 mask per plan: once
/// per entry per batch fused, once per walk alone). A reconfiguration
/// published between two batches (`$reconfigure`) is what the next
/// batch's fresh arena plans against.
macro_rules! plan_reuse_is_invisible {
    ($name:ident, $cluster:ty, $exact_masks:expr, $reconfigure:expr) => {
        #[test]
        fn $name() {
            let build = || {
                let cfg = config().with_lru_capacity(0);
                let mut cluster = <$cluster>::with_servers(cfg, REUSE_SERVERS);
                for i in 0..60 {
                    cluster.create_file(&format!("/reuse/base{i}"));
                }
                cluster.flush_all_updates();
                cluster.reset_stats();
                cluster
            };
            let (mut fused, mut single) = (build(), build());
            let run = |fused: &$cluster, single: &$cluster, batch: &OpBatch| {
                let outcomes = fused.execute_concurrent(batch);
                for (i, (op, outcome)) in batch.ops().iter().zip(&outcomes).enumerate() {
                    let policy = match batch.entry_policy() {
                        EntryPolicy::RoundRobin { start } => {
                            EntryPolicy::RoundRobin { start: start + i }
                        }
                        same => same,
                    };
                    let mut one = OpBatch::new().with_entry(policy);
                    one.push(op.clone());
                    assert_eq!(&single.execute_concurrent(&one)[0], outcome, "op {i}");
                }
                outcomes
            };
            let settled = |fused: &mut $cluster, single: &mut $cluster| {
                fused.drain_concurrent();
                single.drain_concurrent();
                let (got, want) = (fused.stats(), single.stats());
                assert_eq!(got.levels, want.levels);
                assert_eq!(got.lookup_latency, want.lookup_latency);
                let counters = |stats: &ClusterStats| {
                    let counters = stats.counters.iter();
                    counters
                        .map(|(l, n)| (l.to_owned(), n))
                        .collect::<BTreeMap<_, _>>()
                };
                assert_eq!(counters(got), counters(want), "false-hit counters");
                let (got, want) = (fused.mask_cache_stats(), single.mask_cache_stats());
                assert_eq!(
                    got.window_hits + got.window_misses,
                    want.window_hits + want.window_misses,
                    "one consult per slab level a walk reached"
                );
                let comparable = |mut report: LoadReport| {
                    if !$exact_masks {
                        report.groups.iter_mut().for_each(|g| g.mask_hit_rate = 1.0);
                    }
                    report
                };
                if $exact_masks {
                    assert_eq!(got, want);
                }
                assert_eq!(
                    comparable(fused.load_report()),
                    comparable(single.load_report())
                );
            };

            let sprayed = reuse_batch(EntryPolicy::RoundRobin { start: 5 }, "rr", 0, 7);
            let outcomes = run(&fused, &single, &sprayed);
            let OpOutcome::Created { home } = outcomes[3] else {
                panic!("op 3 was a create");
            };
            let resolved = |i: usize| outcomes[i].query().expect("a lookup");
            assert_eq!(resolved(12).entry, resolved(0).entry);
            assert_eq!(resolved(12).home, Some(home), "pending create: overlay");
            assert_eq!(resolved(6).home, None, "pending remove: overlay");
            assert_eq!(resolved(9).home, outcomes[8].home(), "renamed");
            assert_eq!(resolved(10).home, None, "the old name is gone");
            assert_eq!(
                (resolved(13).entry, resolved(13).home),
                (resolved(1).entry, resolved(1).home)
            );
            let sticky = reuse_batch(EntryPolicy::Pinned(MdsId(7)), "pin", 20, 8);
            run(&fused, &single, &sticky);
            settled(&mut fused, &mut single);

            let before = fused.membership_epoch();
            $reconfigure(&fused);
            $reconfigure(&single);
            let epoch = fused.membership_epoch();
            assert!(epoch > before, "a reconfiguration was published");
            let after = reuse_batch(EntryPolicy::RoundRobin { start: 0 }, "again", 40, 9);
            for (i, outcome) in run(&fused, &single, &after).iter().enumerate() {
                if let Some(query) = outcome.query() {
                    assert_eq!(query.epoch, epoch, "op {i} walked a stale pin");
                }
            }
            settled(&mut fused, &mut single);
            fused.check_invariants().expect("no stale mask");
            for i in 0..60 {
                let path = format!("/reuse/base{i}");
                assert_eq!(
                    fused.lookup_concurrent(MdsId(1), &path).home,
                    fused.true_home(&path)
                );
            }
        }
    };
}

plan_reuse_is_invisible!(
    plan_reuse_across_writes_is_invisible_grouped,
    GhbaCluster,
    true,
    |cluster: &GhbaCluster| {
        let handle = cluster.reconfig_handle();
        let biggest = handle
            .group_ids()
            .into_iter()
            .max_by_key(|&gid| handle.group_members(gid).map_or(0, |m| m.len()))
            .expect("groups exist");
        handle.split_group(biggest).expect("a group of 5 splits");
        for gid in handle.group_ids() {
            let _ = handle.rebalance_group(gid);
        }
    }
);

plan_reuse_is_invisible!(
    plan_reuse_across_writes_is_invisible_mirrored,
    HbaCluster,
    false,
    |cluster: &HbaCluster| {
        let handle = cluster.reconfig_handle();
        let filter = handle.retire_mds(MdsId(3)).expect("published");
        assert!(handle.restore_mds(MdsId(3), &filter));
    }
);

/// Whole mixed batches run from `&self` on three threads while a
/// reconfiguration handle publishes rebalances, splits, and merges.
/// Each thread asserts its in-batch view (a created path resolves to
/// the reported home through the write overlay; pre-churn files keep
/// their ground-truth homes), and after one drain the owner sees every
/// reported placement as durable state.
#[test]
fn concurrent_batches_race_reconfig_churn() {
    const THREADS: usize = 3;
    const ROUNDS: usize = 8;
    let mut cluster = GhbaCluster::with_servers(config(), 16);
    for t in 0..THREADS {
        for i in 0..40 {
            cluster.create_file(&format!("/race/t{t}/base{i}"));
        }
    }
    cluster.flush_all_updates();
    let truths: Vec<Vec<MdsId>> = (0..THREADS)
        .map(|t| {
            (0..40)
                .map(|i| {
                    cluster
                        .true_home(&format!("/race/t{t}/base{i}"))
                        .expect("created")
                })
                .collect()
        })
        .collect();
    let handle = cluster.reconfig_handle();
    let stop = AtomicBool::new(false);

    let expected: Vec<(String, MdsId)> = std::thread::scope(|scope| {
        let cluster = &cluster;
        let truths = &truths;
        let stop = &stop;

        let churner = scope.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for gid in handle.group_ids() {
                    let _ = handle.rebalance_group(gid);
                }
                let ids = handle.group_ids();
                if let Some(&gid) = ids.first() {
                    let _ = handle.split_group(gid);
                }
                'merge: for &a in &ids {
                    for &b in &ids {
                        if a != b && handle.merge_groups(a, b) {
                            break 'merge;
                        }
                    }
                }
            }
        });

        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut placements = Vec::new();
                    for round in 0..ROUNDS {
                        let created: Vec<String> = (0..4)
                            .map(|j| format!("/race/t{t}/r{round}/f{j}"))
                            .collect();
                        let rename_src = format!("/race/t{t}/base{}", 39 - round);
                        let moved = format!("/race/t{t}/moved{round}");

                        let mut batch = OpBatch::new().with_entry(EntryPolicy::Random);
                        for path in &created {
                            batch.push_create(path);
                        }
                        batch.push_lookup(&created[0]);
                        batch.push_lookup(format!("/race/t{t}/base{round}"));
                        batch.push_rename(&rename_src, &moved);
                        batch.push_lookup(&moved);

                        let out = cluster.execute_concurrent(&batch);
                        for (i, path) in created.iter().enumerate() {
                            let OpOutcome::Created { home } = out[i] else {
                                panic!("op {i} was a create");
                            };
                            placements.push((path.clone(), home));
                        }
                        let OpOutcome::Created { home: first_home } = out[0] else {
                            unreachable!()
                        };
                        assert_eq!(
                            out[4].home(),
                            Some(first_home),
                            "in-batch lookup missed the overlayed create"
                        );
                        assert_eq!(
                            out[5].home(),
                            Some(truths[t][round]),
                            "pre-churn file lost its home mid-reconfig"
                        );
                        let OpOutcome::Renamed { old_home, new_home } = out[6] else {
                            panic!("op 6 was a rename");
                        };
                        assert_eq!(old_home, Some(truths[t][39 - round]));
                        let new_home = new_home.expect("rename of a live path");
                        assert_eq!(
                            out[7].home(),
                            Some(new_home),
                            "in-batch lookup missed the overlayed rename"
                        );
                        placements.push((moved, new_home));
                    }
                    placements
                })
            })
            .collect();

        let mut expected = Vec::new();
        for worker in workers {
            expected.extend(worker.join().expect("worker panicked"));
        }
        stop.store(true, Ordering::Relaxed);
        churner.join().expect("churner panicked");
        expected
    });

    cluster.drain_concurrent();
    cluster.check_invariants().expect("post-drain invariants");
    for (path, home) in &expected {
        assert_eq!(
            cluster.true_home(path),
            Some(*home),
            "{path} did not land where its batch reported"
        );
        assert_eq!(cluster.lookup_from(MdsId(0), path).home, Some(*home));
    }
    // Bases that no thread renamed keep their pre-churn homes.
    for (t, homes) in truths.iter().enumerate() {
        for (i, &truth) in homes.iter().enumerate().take(40 - ROUNDS).skip(ROUNDS) {
            let path = format!("/race/t{t}/base{i}");
            assert_eq!(cluster.true_home(&path), Some(truth));
        }
    }
}

/// Four threads rename disjoint path sets concurrently; the
/// fingerprint-hashed shard map makes most source/destination pairs
/// land on different shards, so this drives the remove-then-create
/// two-shard ordering. After one drain every destination is homed
/// exactly where its batch reported and every source is gone.
#[test]
fn cross_shard_renames_from_many_threads() {
    const THREADS: usize = 4;
    let mut cluster = GhbaCluster::with_servers(config().with_write_shards(8), 12);
    for t in 0..THREADS {
        for i in 0..25 {
            cluster.create_file(&format!("/xs/t{t}/src{i}"));
        }
    }
    cluster.flush_all_updates();

    let moved: Vec<(String, String, MdsId)> = std::thread::scope(|scope| {
        let cluster = &cluster;
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut placements = Vec::new();
                    for chunk in 0..5 {
                        let mut batch = OpBatch::new().with_entry(EntryPolicy::Random);
                        let pairs: Vec<(String, String)> = (0..5)
                            .map(|j| {
                                let i = chunk * 5 + j;
                                (format!("/xs/t{t}/src{i}"), format!("/xs/t{t}/dst{i}"))
                            })
                            .collect();
                        for (from, to) in &pairs {
                            batch.push_rename(from, to);
                            batch.push_lookup(to);
                        }
                        let out = cluster.execute_concurrent(&batch);
                        for (j, (from, to)) in pairs.into_iter().enumerate() {
                            let OpOutcome::Renamed { old_home, new_home } = out[2 * j] else {
                                panic!("op {} was a rename", 2 * j);
                            };
                            assert!(old_home.is_some(), "{from} existed before the rename");
                            let new_home = new_home.expect("rename of a live path");
                            assert_eq!(
                                out[2 * j + 1].home(),
                                Some(new_home),
                                "in-batch lookup missed the overlayed rename of {to}"
                            );
                            placements.push((from, to, new_home));
                        }
                    }
                    placements
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker panicked"))
            .collect()
    });

    cluster.drain_concurrent();
    cluster.check_invariants().expect("post-drain invariants");
    for (from, to, home) in &moved {
        assert_eq!(cluster.true_home(from), None, "{from} survived its rename");
        assert_eq!(
            cluster.true_home(to),
            Some(*home),
            "{to} did not land where its batch reported"
        );
        assert_eq!(cluster.lookup_from(MdsId(0), to).home, Some(*home));
    }
}
