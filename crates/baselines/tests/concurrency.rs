//! Snapshot concurrency for the mirror-based baselines:
//! HBA/BFA lookups served *through* retire/restore reconfiguration.
//!
//! Counterpart of the G-HBA `concurrency` suite in `ghba-core`:
//!
//! * **Stress** — reader threads hammer the side-effect-free
//!   `lookup_concurrent` walk while an [`HbaReconfigHandle`] oscillates
//!   a victim server's published mirror out of and back into the array.
//!   Lookups must keep resolving the true home (via the array when the
//!   mirror is live, via broadcast while it is retired).
//! * **Degradation** — with a mirror retired and no restore racing, the
//!   walk provably falls back to the broadcast level and still resolves.
//! * **Equivalence** — the pin-once `execute_concurrent` entry matches
//!   the `&mut self` `execute` entry batch by batch, and both account
//!   repeated lookups and broadcast false positives per occurrence.
//! * **Invariants** — every test ends on `check_invariants` (the slab
//!   tracks exactly the live servers and mirrors their published
//!   filters), and a property test holds it — and ground truth — after
//!   every step of arbitrary create/remove/join/leave/concurrent-batch/
//!   retire+restore interleavings on HBA and BFA8.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};

use ghba_baselines::{BfaCluster, HbaCluster};
use ghba_core::{EntryPolicy, GhbaConfig, MdsId, MetadataService, OpBatch, OpOutcome, QueryLevel};
use proptest::prelude::*;

fn config() -> GhbaConfig {
    GhbaConfig::default()
        .with_filter_capacity(2_000)
        .with_seed(37)
}

/// Readers resolve concurrently while the handle oscillates one mirror
/// per round out of and back into the published array. Every outcome
/// must still name the ground-truth home — through the array when the
/// victim's mirror is live, through broadcast while it is retired — at
/// whatever epoch the reader happened to pin.
#[test]
fn hba_lookups_resolve_through_retire_restore_churn() {
    let mut cluster = HbaCluster::with_servers(config(), 8);
    let paths: Vec<String> = (0..120).map(|i| format!("/churn/f{i}")).collect();
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
                            let entry = MdsId(((i + r * 3) % 8) as u16);
                            let outcome = cluster.lookup_concurrent(entry, path);
                            assert_eq!(
                                outcome.home,
                                Some(truths[i]),
                                "concurrent lookup lost {path} mid-retire"
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

        // Churn: pull a different mirror out of the published array each
        // round, then push it straight back — two successor-snapshot
        // publishes per round, racing the readers above.
        for round in 0..10u16 {
            let victim = MdsId(round % 8);
            let filter = handle.retire_mds(victim).expect("victim is published");
            assert!(handle.restore_mds(victim, &filter), "victim restores");
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
    // The owner's mutating paths must be coherent with the final
    // (fully restored) published array.
    for (i, path) in paths.iter().enumerate() {
        assert_eq!(cluster.lookup_from(MdsId(0), path).home, Some(truths[i]));
    }
    cluster.check_invariants().expect("every mirror restored");
}

/// With a mirror retired and nothing racing, lookups homed at the
/// victim provably degrade to the broadcast level yet still resolve;
/// restoring the saved filter brings the array level back. Double
/// retire and double restore are refused.
#[test]
fn hba_retired_mirror_degrades_to_broadcast() {
    let config = config().with_lru_capacity(0); // pin walks past L1
    let mut cluster = HbaCluster::with_servers(config, 6);
    let paths: Vec<String> = (0..80).map(|i| format!("/deg/f{i}")).collect();
    for path in &paths {
        cluster.create_file(path);
    }
    cluster.flush_all_updates();
    let victim = cluster.true_home(&paths[0]).expect("created");
    let entry = MdsId(u16::from(victim.0 == 0));

    let handle = cluster.reconfig_handle();
    let filter = handle.retire_mds(victim).expect("first retire succeeds");
    assert!(
        handle.retire_mds(victim).is_none(),
        "double retire must be refused"
    );

    for path in &paths {
        let truth = cluster.true_home(path).expect("created");
        let outcome = cluster.lookup_concurrent(entry, path);
        assert_eq!(outcome.home, Some(truth), "{path} lost while retired");
        if truth == victim && entry != victim {
            assert_eq!(
                outcome.level,
                QueryLevel::L4Global,
                "{path} homed at the retired mirror must broadcast"
            );
        }
    }

    assert!(handle.restore_mds(victim, &filter), "restore succeeds");
    assert!(
        !handle.restore_mds(victim, &filter),
        "double restore must be refused"
    );
    let outcome = cluster.lookup_concurrent(entry, &paths[0]);
    assert_eq!(outcome.home, Some(victim));
    assert_ne!(
        outcome.level,
        QueryLevel::L4Global,
        "restored mirror serves from the array again"
    );
    cluster.check_invariants().expect("mirror restored intact");
}

/// The pin-once `execute_concurrent` pipeline matches the `&mut self`
/// funnel for mixed HBA batches, and after `drain_concurrent` + flush
/// both clusters converge to the same homes. Epochs are excluded from
/// the comparison (the two pipelines publish mirrors at different
/// cadences). The set-up meets the three conditions of the
/// `MetadataService::execute_concurrent` contract: (a) L1 disabled,
/// (b) the update threshold raised so no home's drift crosses it inside
/// a batch, (c) removes at the tail of each batch, so no lookup follows
/// a remove of the same fingerprint.
#[test]
fn hba_concurrent_pipeline_matches_funnel() {
    let cfg = config()
        .with_lru_capacity(0)
        .with_update_threshold(1 << 24)
        .with_write_shards(4);
    let mut funnel = HbaCluster::with_servers(cfg.clone(), 10);
    let mut pinned = HbaCluster::with_servers(cfg, 10);

    let mut live: Vec<String> = (0..25).map(|i| format!("/hmix/seed{i}")).collect();
    for path in &live {
        funnel.create_file(path);
        pinned.create_file(path);
    }
    funnel.flush_all_updates();
    pinned.flush_all_updates();

    for round in 0..4 {
        let rename_src = live.remove(0);
        let remove_tgt = live.remove(0);
        let moved = format!("/hmix/r{round}/moved");
        let created: Vec<String> = (0..5).map(|j| format!("/hmix/r{round}/f{j}")).collect();

        let mut batch = OpBatch::new().with_entry(EntryPolicy::Random);
        for path in live.iter().take(5) {
            batch.push_lookup(path);
        }
        for path in &created {
            batch.push_create(path);
        }
        for path in &created {
            batch.push_lookup(path);
        }
        batch.push_lookup(format!("/hmix/r{round}/absent"));
        batch.push_rename(&rename_src, &moved);
        batch.push_lookup(&moved);
        batch.push_remove(&remove_tgt);

        let funnel_out = funnel.execute(&batch);
        let pinned_out = pinned.execute_concurrent(&batch);
        assert_eq!(funnel_out.len(), pinned_out.len());
        for (i, (f, p)) in funnel_out.iter().zip(&pinned_out).enumerate() {
            match (f, p) {
                (OpOutcome::Resolved(a), OpOutcome::Resolved(b)) => assert_eq!(
                    (a.home, a.level, a.latency, a.messages, a.entry),
                    (b.home, b.level, b.latency, b.messages, b.entry),
                    "round {round} op {i}: pinned lookup diverged from the funnel"
                ),
                _ => assert_eq!(f, p, "round {round} op {i}: outcomes diverged"),
            }
        }

        pinned.drain_concurrent();
        funnel.flush_all_updates();
        pinned.flush_all_updates();
        live.push(moved);
        live.extend(created);
    }

    for path in &live {
        let truth = funnel.true_home(path).expect("live in funnel");
        assert_eq!(
            pinned.true_home(path),
            Some(truth),
            "clusters disagree on the home of {path}"
        );
    }
    funnel.check_invariants().expect("funnel mirrors in sync");
    pinned.check_invariants().expect("drained mirrors in sync");
}

/// Duplicates are traffic: a flash-crowd batch repeating one `(entry,
/// path)` pair walks the pair once but must account every occurrence —
/// level counters, latency samples and the load report — identically
/// through both entries.
#[test]
fn hba_duplicate_lookups_are_accounted_per_occurrence() {
    let mut batch = OpBatch::new().with_entry(EntryPolicy::Pinned(MdsId(1)));
    for _ in 0..5 {
        batch.push_lookup("/dup/hot");
    }
    batch.push_lookup("/dup/absent");
    for concurrent in [false, true] {
        let mut hba = HbaCluster::with_servers(config().with_lru_capacity(0), 8);
        hba.create_file("/dup/hot");
        hba.flush_all_updates();
        hba.reset_stats();
        if concurrent {
            let _ = hba.execute_concurrent(&batch);
            hba.drain_concurrent();
        } else {
            let _ = hba.execute(&batch);
        }
        let levels = hba.stats().levels;
        assert_eq!(levels.total(), 6, "concurrent={concurrent}: {levels:?}");
        assert_eq!(levels.nonexistent, 1, "concurrent={concurrent}");
        assert_eq!(hba.stats().lookup_latency.count(), 6);
        assert_eq!(
            hba.load_report().fresh_lookups,
            6,
            "concurrent={concurrent}"
        );
        hba.check_invariants()
            .expect("lookups leave the mirror alone");
    }
}

/// The broadcast level pays a disk verification for every server whose
/// live filter answers positive without storing the path — and must
/// count it (`l4_false_positive_disk_checks`), as the G-HBA walk always
/// has. Filters sized for 16 files hold ~70 each, so absent paths light
/// up most servers at the broadcast.
#[test]
fn hba_broadcast_false_positives_are_counted() {
    let cfg = config().with_filter_capacity(16).with_lru_capacity(0);
    let absent: Vec<String> = (0..24).map(|i| format!("/fp/absent{i}")).collect();
    let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 0 });
    for path in &absent {
        batch.push_lookup(path);
    }
    for concurrent in [false, true] {
        let mut hba = HbaCluster::with_servers(cfg.clone(), 6);
        for i in 0..400 {
            hba.create_file(&format!("/fp/f{i}"));
        }
        hba.flush_all_updates();
        hba.reset_stats();
        // An absent path always escalates to the broadcast, where no
        // positive server stores it.
        let expected: u64 = absent
            .iter()
            .map(|path| {
                hba.server_ids()
                    .into_iter()
                    .filter(|&id| hba.mds(id).expect("live").probe_live(path))
                    .count() as u64
            })
            .sum();
        assert!(expected > 0, "filters too roomy for the test to bite");
        if concurrent {
            let _ = hba.execute_concurrent(&batch);
            hba.drain_concurrent();
        } else {
            let _ = hba.execute(&batch);
        }
        assert_eq!(hba.stats().levels.nonexistent, absent.len() as u64);
        assert_eq!(
            hba.stats().counters.get("l4_false_positive_disk_checks"),
            expected,
            "concurrent={concurrent}"
        );
        hba.check_invariants()
            .expect("lookups leave the mirror alone");
    }
}

/// One step of the mirror interleaving stream.
#[derive(Debug, Clone)]
enum Step {
    Create(u16),
    Remove(u16),
    AddMds,
    RemoveMds(u8),
    /// A mixed `(kind, file)` batch through `execute_concurrent`; with
    /// `Some(pick)` a mirror is retired between the batch and the owner
    /// drain, then restored and pushed.
    Batch(Vec<(u8, u16)>, Option<u8>),
    RetireRestore(u8),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (0u16..60).prop_map(Step::Create),
        1 => (0u16..60).prop_map(Step::Remove),
        1 => Just(Step::AddMds),
        1 => any::<u8>().prop_map(Step::RemoveMds),
        3 => (
            proptest::collection::vec((0u8..8, 0u16..60), 1..16),
            any::<bool>(),
            any::<u8>(),
        )
            .prop_map(|(ops, retire, pick)| Step::Batch(ops, retire.then_some(pick))),
        1 => any::<u8>().prop_map(Step::RetireRestore),
    ]
}

/// Drives `steps` against `scheme` (an HBA, or a BFA wrapping one —
/// `hba` reaches the cluster underneath), checking the structural
/// invariants and every live path's ground truth after every step.
fn drive_mirror<S: MetadataService>(
    mut scheme: S,
    hba: fn(&mut S) -> &mut HbaCluster,
    steps: &[Step],
) -> Result<(), TestCaseError> {
    let path_of = |f: u16| format!("/m/f{f}");
    let mut live: BTreeSet<String> = BTreeSet::new();
    let mut fresh = 0u32;
    for (n, step) in steps.iter().enumerate() {
        match step {
            Step::Create(f) => {
                if live.insert(path_of(*f)) {
                    hba(&mut scheme).create_file(&path_of(*f));
                }
            }
            Step::Remove(f) => {
                let removed = hba(&mut scheme).remove_file(&path_of(*f));
                prop_assert_eq!(removed.is_some(), live.remove(&path_of(*f)));
            }
            Step::AddMds => {
                if scheme.server_count() < 10 {
                    hba(&mut scheme).add_mds();
                }
            }
            Step::RemoveMds(pick) => {
                let ids = hba(&mut scheme).server_ids();
                if ids.len() > 3 {
                    let victim = ids[*pick as usize % ids.len()];
                    hba(&mut scheme).remove_mds(victim).expect("removable");
                }
            }
            Step::Batch(items, retire) => {
                let mut batch = OpBatch::new();
                let mut expect_found = Vec::new();
                for (kind, f) in items {
                    let path = path_of(*f);
                    // A path lives at one home: creating a live one again
                    // is a lookup here.
                    match kind % 4 {
                        1 if live.insert(path.clone()) => batch.push_create(path),
                        0 | 1 => {
                            expect_found.push(Some(live.contains(&path)));
                            batch.push_lookup(path);
                            continue;
                        }
                        2 => {
                            live.remove(&path);
                            batch.push_remove(path);
                        }
                        _ => {
                            let to = format!("/m/r{fresh}");
                            fresh += 1;
                            if live.remove(&path) {
                                live.insert(to.clone());
                            }
                            batch.push_rename(path, to);
                        }
                    }
                    expect_found.push(None);
                }
                let outcomes = scheme.execute_concurrent(&batch);
                for (i, (outcome, expected)) in outcomes.iter().zip(&expect_found).enumerate() {
                    if let (OpOutcome::Resolved(query), Some(found)) = (outcome, expected) {
                        prop_assert_eq!(query.found(), *found, "step {} op {}", n, i);
                    }
                }
                let cluster = hba(&mut scheme);
                match retire {
                    Some(pick) => {
                        let ids = cluster.server_ids();
                        let victim = ids[*pick as usize % ids.len()];
                        let handle = cluster.reconfig_handle();
                        let filter = handle.retire_mds(victim).expect("published");
                        cluster.drain_concurrent();
                        prop_assert!(handle.restore_mds(victim, &filter));
                        cluster.push_update(victim);
                    }
                    None => {
                        cluster.drain_concurrent();
                    }
                }
            }
            Step::RetireRestore(pick) => {
                let cluster = hba(&mut scheme);
                let ids = cluster.server_ids();
                let victim = ids[*pick as usize % ids.len()];
                let handle = cluster.reconfig_handle();
                let filter = handle.retire_mds(victim).expect("published");
                for path in &live {
                    let outcome = cluster.lookup_concurrent(ids[0], path);
                    prop_assert_eq!(outcome.home, cluster.true_home(path), "retired: {}", path);
                }
                prop_assert!(handle.restore_mds(victim, &filter));
            }
        }
        let cluster = hba(&mut scheme);
        if let Err(violation) = cluster.check_invariants() {
            return Err(TestCaseError::fail(format!("step {n}: {violation}")));
        }
        prop_assert_eq!(cluster.total_files(), live.len(), "step {}", n);
        let entry = cluster.server_ids()[0];
        for path in &live {
            let truth = cluster.true_home(path);
            prop_assert!(truth.is_some(), "step {}: lost {}", n, path);
            prop_assert_eq!(cluster.lookup_concurrent(entry, path).home, truth);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any interleaving of owner writes, membership changes, concurrent
    /// batches and handle-driven retire+restore leaves the full mirror
    /// structurally sound and every live path at its true home — on HBA
    /// and on BFA8 alike.
    #[test]
    fn mirror_invariants_hold_under_arbitrary_interleavings(
        steps in proptest::collection::vec(arb_step(), 1..40),
        seed in 0u64..1000,
    ) {
        let cfg = GhbaConfig::default()
            .with_filter_capacity(500)
            // Gate 1: every owner-side write publishes, so the mirror's
            // columns move between the concurrent batches (which never
            // publish) and around the retire-before-drain interleaving.
            .with_update_threshold(16)
            .with_write_shards(4)
            .with_seed(seed);
        drive_mirror(HbaCluster::with_servers(cfg.clone(), 6), |hba| hba, &steps)?;
        drive_mirror(BfaCluster::with_servers(cfg, 6, 8.0), BfaCluster::inner_mut, &steps)?;
    }
}
