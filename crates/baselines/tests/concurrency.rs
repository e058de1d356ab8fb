//! Lock-free snapshot concurrency for the mirror-based baselines:
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
//!   repeated lookups per occurrence.

use std::sync::atomic::{AtomicBool, Ordering};

use ghba_baselines::HbaCluster;
use ghba_core::{GhbaConfig, MdsId, QueryLevel};

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
}

/// The pin-once `execute_concurrent` pipeline matches the `&mut self`
/// funnel for mixed HBA batches, and after `drain_concurrent` + flush
/// both clusters converge to the same homes. Epochs are excluded from
/// the comparison (the two pipelines publish mirrors at different
/// cadences); L1 is disabled because the pinned walk never fills the
/// LRU, and removes sit at the tail of each batch so no in-batch
/// lookup races a pending remove of the same fingerprint.
#[test]
fn hba_concurrent_pipeline_matches_funnel() {
    use ghba_core::{EntryPolicy, MetadataService, OpBatch, OpOutcome};

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
}

/// Duplicates are traffic: a flash-crowd batch repeating one `(entry,
/// path)` pair walks the pair once but must account every occurrence —
/// level counters, latency samples and the load report — identically
/// through both entries.
#[test]
fn hba_duplicate_lookups_are_accounted_per_occurrence() {
    use ghba_core::{EntryPolicy, MetadataService, OpBatch};

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
    }
}
