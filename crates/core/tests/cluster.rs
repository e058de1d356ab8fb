//! Behavioural tests for the cluster engine: query hierarchy, elastic
//! membership, the update protocol, and structural invariants — on
//! G-HBA's groups, and where a test says so on HBA's full mirror too.

#[macro_use]
mod layouts;

use ghba_core::{
    EntryPolicy, GhbaCluster, GhbaConfig, HbaCluster, Mds, MdsId, MetadataService, OpBatch,
    QueryLevel, ReconfigError,
};

fn small_config() -> GhbaConfig {
    GhbaConfig::default()
        .with_max_group_size(4)
        .with_filter_capacity(2_000)
        .with_bits_per_file(16.0)
        .with_seed(11)
}

/// A `$cluster` of `$servers` under [`small_config`] holding `$files`
/// paths at random homes, published, its statistics reset.
macro_rules! populated {
    ($cluster:ty, $servers:expr, $files:expr) => {{
        let mut cluster = <$cluster>::with_servers(small_config(), $servers);
        for i in 0..$files {
            cluster.create(&format!("/data/d{}/f{i}", i % 37));
        }
        cluster.flush_all_updates();
        cluster.reset_stats();
        cluster
    }};
}

#[test]
fn grouping_respects_max_size() {
    for n in [1usize, 3, 4, 5, 8, 13, 30] {
        let cluster = GhbaCluster::with_servers(small_config(), n);
        assert_eq!(cluster.server_count(), n);
        assert!(cluster.group_sizes().iter().all(|&s| s <= 4), "n={n}");
        assert_eq!(cluster.group_sizes().iter().sum::<usize>(), n);
        cluster
            .check_invariants()
            .unwrap_or_else(|e| panic!("n={n}: {e}"));
    }
}

/// Every created file resolves to its home on either layout; a freshly
/// published full mirror needs one verify round trip at most, never a
/// group multicast.
#[test]
fn every_created_file_is_findable() {
    on_each_layout!({
        let mut cluster = populated!(Cluster, 12, 300);
        for i in 0..300 {
            let path = format!("/data/d{}/f{i}", i % 37);
            let expected = cluster.true_home(&path).expect("file exists");
            let outcome = cluster.lookup(&path);
            assert_eq!(outcome.home, Some(expected), "path {path}");
            assert!(outcome.found());
            assert!(outcome.latency > core::time::Duration::ZERO);
            if MIRRORED {
                assert!(outcome.messages <= 2, "{path}: {outcome:?}");
            }
        }
    });
}

#[test]
fn nonexistent_files_resolve_to_miss_via_l4() {
    on_each_layout!({
        let mut cluster = populated!(Cluster, 12, 100);
        let outcome = cluster.lookup("/definitely/not/created");
        assert!(!outcome.found());
        assert_eq!(outcome.level, QueryLevel::Nonexistent);
        // A miss must have swept the whole system.
        assert!(outcome.messages >= 2 * (12 - 1));
    });
}

/// The entry server caches (path → home) in its LRU, so the same lookup
/// from the same entry resolves at L1 — on either layout, and never
/// without an LRU level (a BFA8: 8 bits per file, `lru_capacity(0)`).
#[test]
fn repeated_lookups_hit_l1() {
    on_each_layout!({
        let mut cluster = populated!(Cluster, 12, 200);
        let path = "/data/d1/f1";
        let first = cluster.lookup_from(MdsId(0), path);
        assert!(first.found());
        let second = cluster.lookup_from(MdsId(0), path);
        assert_eq!(second.level, QueryLevel::L1Lru);
        assert!(second.latency < first.latency || first.level == QueryLevel::L1Lru);

        let bfa8 = small_config().with_bits_per_file(8.0).with_lru_capacity(0);
        let mut cluster = Cluster::with_servers(bfa8, 6);
        cluster.create("/x");
        cluster.flush_all_updates();
        for _ in 0..10 {
            let outcome = cluster.lookup_from(MdsId(0), "/x");
            assert!(outcome.found());
            assert_ne!(outcome.level, QueryLevel::L1Lru);
        }
    });
}

#[test]
fn stale_replicas_push_queries_to_l4_until_update() {
    // With a huge update threshold, a freshly created file is invisible in
    // the published replicas, so remote entry servers need L4.
    let config = small_config().with_update_threshold(1_000_000);
    let mut cluster = GhbaCluster::with_servers(config, 8);
    let home = cluster.create("/fresh/file");
    let entry = cluster
        .server_ids()
        .into_iter()
        .find(|&id| id != home && cluster.group_of(id) != cluster.group_of(home))
        .expect("another group exists");
    let outcome = cluster.lookup_from(entry, "/fresh/file");
    assert_eq!(outcome.home, Some(home));
    assert_eq!(outcome.level, QueryLevel::L4Global);

    // After an explicit update push, the same query resolves lower.
    cluster.push_update(home);
    let entry2 = cluster
        .server_ids()
        .into_iter()
        .filter(|&id| id != home && cluster.group_of(id) != cluster.group_of(home))
        .nth(1)
        .expect("yet another server");
    let outcome2 = cluster.lookup_from(entry2, "/fresh/file");
    assert_eq!(outcome2.home, Some(home));
    assert!(
        outcome2.level == QueryLevel::L2Segment || outcome2.level == QueryLevel::L3Group,
        "resolved at {:?}",
        outcome2.level
    );
}

#[test]
fn same_group_lookup_resolves_by_l3_even_when_stale() {
    let config = small_config().with_update_threshold(1_000_000);
    let mut cluster = GhbaCluster::with_servers(config, 8);
    let home = cluster.create("/group/local");
    let gid = cluster.group_of(home).unwrap();
    let peer = cluster
        .server_ids()
        .into_iter()
        .find(|&id| id != home && cluster.group_of(id) == Some(gid));
    if let Some(peer) = peer {
        let outcome = cluster.lookup_from(peer, "/group/local");
        assert_eq!(outcome.home, Some(home));
        // The home's live filter is visible within its group at L3 (or L2
        // is impossible: peers hold only the stale published replica).
        assert!(
            outcome.level == QueryLevel::L3Group,
            "resolved at {:?}",
            outcome.level
        );
    }
}

/// A join keeps every invariant. Under G-HBA it migrates little: without
/// a split far below HBA's N, with one (the rebuild of two groups'
/// coverage) still below ~2N. Under HBA the newcomer pulls all N
/// replicas and installs its own filter on all N servers.
#[test]
fn join_preserves_invariants_and_prices_migrations() {
    on_each_layout!({
        let mut cluster = populated!(Cluster, 12, 100);
        let n_before = cluster.server_count() as u64;
        let (id, report) = cluster.add_mds();
        assert_eq!(cluster.server_count(), 13);
        assert!(cluster.mds(id).is_some());
        cluster.check_invariants().expect("invariants after join");
        if MIRRORED {
            assert_eq!(report.migrated_replicas, n_before);
            assert_eq!(report.messages, 2 * n_before);
        } else {
            let bound = if report.split { 2 * n_before } else { n_before };
            assert!(
                report.migrated_replicas < bound,
                "migrated {} ≥ bound {}",
                report.migrated_replicas,
                bound
            );
        }
    });
}

#[test]
fn join_without_split_matches_papers_bound() {
    // Grow until a join lands in a non-full group, then check the paper's
    // light-weight migration bound: the newcomer receives (N − M′)/M′_new
    // replicas (±1 from integer balancing).
    let mut cluster = GhbaCluster::with_servers(small_config(), 13);
    cluster.reset_stats();
    let (id, report) = loop {
        let (id, report) = cluster.add_mds();
        if !report.split {
            break (id, report);
        }
    };
    let n = cluster.server_count() as u64;
    let group = cluster.group(cluster.group_of(id).unwrap()).unwrap();
    let m_new = group.len() as u64;
    let share = (n - m_new) / m_new;
    assert!(
        report.migrated_replicas >= share.saturating_sub(1)
            && report.migrated_replicas <= share + 1,
        "migrated {} vs expected share {share} (N={n}, M'={m_new})",
        report.migrated_replicas
    );
    cluster.check_invariants().expect("invariants");
}

#[test]
fn join_into_full_groups_splits() {
    // 8 servers, M=4 → groups 4+4, all full: the 9th join must split.
    let mut cluster = GhbaCluster::with_servers(small_config(), 8);
    cluster.reset_stats();
    let (_, report) = cluster.add_mds();
    assert!(report.split);
    assert_eq!(cluster.stats().splits, 1);
    assert!(cluster.group_sizes().iter().all(|&s| s <= 4));
    assert_eq!(cluster.group_count(), 3);
    cluster.check_invariants().expect("invariants after split");
}

#[test]
fn leave_preserves_files_and_invariants() {
    on_each_layout!({
        let mut cluster = populated!(Cluster, 12, 200);
        let total_before = cluster.total_files();
        let victim = MdsId(3);
        cluster.remove_mds(victim).expect("removable");
        assert_eq!(cluster.server_count(), 11);
        assert!(cluster.mds(victim).is_none());
        assert_eq!(cluster.total_files(), total_before, "files lost");
        cluster.check_invariants().expect("invariants after leave");
        // Files that lived on the victim are still findable.
        for i in 0..200 {
            let path = format!("/data/d{}/f{i}", i % 37);
            assert!(cluster.lookup(&path).found(), "lost {path}");
        }
    });
}

/// Servers are indexed by id, and server ids are never reused: a graceful
/// leave and a fail-stop in the middle of the id range leave two holes
/// that every by-id path must step over — the roster still ascends,
/// every stored file resolves to its true home, and a newcomer takes a
/// fresh id past the holes.
#[test]
fn holes_in_the_id_space_keep_order_and_homes() {
    let mut cluster = populated!(GhbaCluster, 12, 240);
    cluster.remove_mds(MdsId(5)).expect("removable");
    cluster.fail_mds(MdsId(8)).expect("failable");
    let (joined, _) = cluster.add_mds();
    assert_eq!(joined, MdsId(12));
    for i in 240..300 {
        cluster.create(&format!("/data/d{}/f{i}", i % 37));
    }
    let ids = cluster.server_ids();
    assert_eq!(ids.len(), 11);
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
    assert!(!ids.contains(&MdsId(5)) && !ids.contains(&MdsId(8)));
    cluster
        .check_invariants()
        .expect("invariants with holes in the id space");
    let mut stored = 0;
    for i in 0..300 {
        let path = format!("/data/d{}/f{i}", i % 37);
        let home = cluster.true_home(&path);
        stored += usize::from(home.is_some());
        assert_eq!(cluster.lookup(&path).home, home, "{path}");
    }
    assert_eq!(stored, cluster.total_files());
    assert!(stored > 240, "only the failed server's files are lost");
}

#[test]
fn departures_trigger_merges() {
    // 5 servers, M=4 → groups of 4 and 1. Removing one from the big group
    // leaves 3+1 ≤ 4 → merge into one group.
    let mut cluster = GhbaCluster::with_servers(small_config(), 5);
    let victim = cluster.group(ghba_core::GroupId(0)).unwrap().members()[0];
    let report = cluster.remove_mds(victim).expect("removable");
    assert!(report.merged);
    assert_eq!(cluster.group_count(), 1);
    assert_eq!(cluster.stats().merges, 1);
    cluster.check_invariants().expect("invariants after merge");
}

#[test]
fn cannot_remove_last_server() {
    on_each_layout!({
        let mut cluster = Cluster::with_servers(small_config(), 1);
        let id = cluster.server_ids()[0];
        assert_eq!(cluster.remove_mds(id), Err(ReconfigError::LastServer));
        assert_eq!(
            cluster.remove_mds(MdsId(999)),
            Err(ReconfigError::UnknownMds(MdsId(999)))
        );
    });
}

#[test]
fn churn_storm_preserves_invariants() {
    let mut cluster = populated!(GhbaCluster, 10, 150);
    for round in 0..12 {
        if round % 3 == 0 {
            let victim = cluster.server_ids()[round % cluster.server_count()];
            let _ = cluster.remove_mds(victim);
        } else {
            cluster.add_mds();
        }
        cluster
            .check_invariants()
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        // All files still reachable after every step.
        let path = "/data/d1/f1";
        assert!(cluster.lookup(path).found(), "round {round} lost {path}");
    }
}

/// A push reaches one server per other group under G-HBA — 12 servers
/// at M = 4 are 3 groups, so 2 recipient groups; IDBFA multi-hits may add
/// the occasional extra message, never fewer — and every other server
/// under HBA.
#[test]
fn update_fanout_follows_the_layout() {
    on_each_layout!({
        let mut cluster = Cluster::with_servers(small_config(), 12);
        let home = cluster.create("/update/test");
        for i in 0..50 {
            cluster.create_file_at(&format!("/update/more{i}"), home);
        }
        let report = cluster.push_update(home);
        assert!(report.refreshed);
        if MIRRORED {
            assert_eq!(report.messages, 11);
        } else {
            assert!(report.messages >= 2, "messages {}", report.messages);
            assert!(report.messages <= 6, "messages {}", report.messages);
        }
        assert!(report.bytes > 0);
        assert!(report.latency > core::time::Duration::ZERO);
    });
}

#[test]
fn automatic_updates_fire_on_threshold() {
    let config = small_config().with_update_threshold(64);
    let mut cluster = GhbaCluster::with_servers(config, 8);
    let home = cluster.server_ids()[0];
    for i in 0..2_000 {
        cluster.create_file_at(&format!("/auto/f{i}"), home);
    }
    assert!(
        cluster.stats().update_messages > 0,
        "threshold updates never fired"
    );
}

#[test]
fn removing_files_updates_membership() {
    let mut cluster = populated!(GhbaCluster, 8, 50);
    let path = "/data/d1/f1";
    assert!(cluster.lookup(path).found());
    let home = cluster.remove(path).expect("file existed");
    assert!(cluster.true_home(path).is_none());
    cluster.flush_all_updates();
    let outcome = cluster.lookup(path);
    assert!(!outcome.found(), "removed file still found at {home}");
}

/// Invariant 9 (a clean server's live filter is its published one)
/// through every writer that moves a server's cleanliness: drained
/// writes and the flush after them, a re-create of a stored path (dirty,
/// no bit moved) and a fail-stop departure. Every lookup checks, in
/// debug builds, that each slab-answered probe equals the live one.
#[test]
fn clean_servers_publish_their_live_filters() {
    let mut cluster = GhbaCluster::with_servers(small_config(), 9);
    let clean = |cluster: &GhbaCluster| -> Vec<MdsId> {
        let ids = cluster.server_ids().into_iter();
        ids.filter(|&id| cluster.mds(id).is_some_and(Mds::is_clean))
            .collect()
    };
    let held = |cluster: &GhbaCluster, step: &str| {
        cluster
            .check_invariants()
            .unwrap_or_else(|e| panic!("{step}: {e}"));
        for i in 0..36 {
            let path = format!("/clean/f{i}");
            assert_eq!(
                cluster.lookup_concurrent(MdsId(4), &path).home,
                cluster.true_home(&path)
            );
        }
    };
    assert_eq!(clean(&cluster).len(), 9, "a new server is clean");

    let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 0 });
    (0..36).for_each(|i| batch.push_create(format!("/clean/f{i}")));
    cluster.execute_concurrent(&batch);
    cluster.drain_concurrent();
    assert_eq!(clean(&cluster), [], "a drained write dirties its home");
    held(&cluster, "drained");
    cluster.flush_all_updates();
    assert_eq!(clean(&cluster).len(), 9, "the flush published every home");
    held(&cluster, "flushed");

    let home = cluster.true_home("/clean/f0").expect("stored");
    cluster.create_file_at("/clean/f0", home);
    let mds = cluster.mds(home).expect("live");
    assert!(
        !mds.is_clean() && cluster.drift_bits(home) == Some(0),
        "dirty, no bit moved"
    );
    held(&cluster, "re-created");

    // The departure frees a slot and moves no survivor's filter.
    let victim = MdsId(7);
    let mut survivors = clean(&cluster);
    survivors.retain(|&id| id != victim);
    cluster.fail_mds(victim).expect("failable");
    assert_eq!(clean(&cluster), survivors);
    held(&cluster, "failed");
}

#[test]
fn level_counters_track_outcomes() {
    let mut cluster = populated!(GhbaCluster, 12, 300);
    for i in 0..300 {
        let path = format!("/data/d{}/f{i}", i % 37);
        cluster.lookup(&path);
    }
    let levels = cluster.stats().levels;
    assert_eq!(levels.total(), 300);
    let [c1, c2, c3, c4] = levels.cumulative_percentages();
    assert!(c1 <= c2 && c2 <= c3 && c3 <= c4);
    assert!((c4 - 100.0).abs() < 1e-9);
}

#[test]
fn metadata_service_trait_is_usable() {
    fn exercise<S: MetadataService>(service: &mut S) {
        let home = service.create("/trait/file");
        let outcome = service.lookup("/trait/file");
        assert_eq!(outcome.home, Some(home));
        assert_eq!(service.remove("/trait/file"), Some(home));
        assert!(service.filter_memory_per_mds() > 0);
        assert_eq!(service.scheme_name(), "G-HBA");
    }
    let mut cluster = GhbaCluster::with_servers(small_config(), 6);
    exercise(&mut cluster);
}

/// A full mirror holds every other server's filter: its filter memory
/// per server grows with N, and with the bits per file — a BFA16 (16
/// bits per file, no LRU level) holds twice a BFA8's.
#[test]
fn mirror_memory_scales_with_servers_and_bits_per_file() {
    let memory = |config: GhbaConfig, servers: usize| {
        HbaCluster::with_servers(config, servers).filter_memory_per_mds()
    };
    assert!(memory(small_config(), 20) > memory(small_config(), 5) * 3);
    let bfa = |bits: f64| small_config().with_bits_per_file(bits).with_lru_capacity(0);
    let ratio = memory(bfa(16.0), 10) as f64 / memory(bfa(8.0), 10) as f64;
    assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
}

#[test]
fn deterministic_given_seed() {
    let run = || {
        let mut cluster = GhbaCluster::with_servers(small_config(), 10);
        for i in 0..100 {
            cluster.create(&format!("/det/f{i}"));
        }
        let mut fingerprint = Vec::new();
        for i in 0..100 {
            let o = cluster.lookup(&format!("/det/f{i}"));
            fingerprint.push((o.home, o.level, o.latency, o.messages));
        }
        fingerprint
    };
    assert_eq!(run(), run());
}

#[test]
fn memory_pressure_increases_latency() {
    let roomy = small_config().with_seed(3);
    // The live counting filter alone is ~32 KB; 38 KB leaves almost
    // nothing for replicas or the metadata cache, forcing disk accesses.
    let tight = small_config().with_seed(3).with_memory_per_mds(38 * 1024);

    let measure = |config: GhbaConfig| {
        let mut cluster = GhbaCluster::with_servers(config, 12);
        for i in 0..400 {
            cluster.create(&format!("/mem/f{i}"));
        }
        cluster.flush_all_updates();
        cluster.reset_stats();
        let mut total = core::time::Duration::ZERO;
        for i in 0..400 {
            total += cluster.lookup(&format!("/mem/f{i}")).latency;
        }
        total
    };

    let fast = measure(roomy);
    let slow = measure(tight);
    assert!(
        slow > fast,
        "tight memory ({slow:?}) not slower than roomy ({fast:?})"
    );
}

/// A split through the reconfiguration handle moves replicas without
/// touching a store, so a server's memory holds exactly as many
/// replicas after it as before: `mds0` goes from 2 held replicas to 11,
/// and still only 1 of them is resident.
#[test]
fn a_handle_split_prices_spill_from_the_new_placement() {
    let config = GhbaConfig::default()
        .with_filter_capacity(2_000)
        .with_max_group_size(4)
        .with_lru_capacity(0)
        .with_seed(7)
        .with_memory_per_mds(56 * 1024);
    let mut cluster = GhbaCluster::with_servers(config, 12);
    for i in 0..240 {
        cluster.create(&format!("/s/f{i}"));
    }
    cluster.drain_concurrent();
    let mds0 = MdsId(0);
    let resident = |cluster: &GhbaCluster| {
        let held = cluster.replicas_held_by(mds0).len();
        let mds = cluster.mds(mds0).expect("live");
        (held, mds.resident_replicas(held))
    };
    assert_eq!(resident(&cluster), (2, 1));
    let gid = cluster.group_of(mds0).expect("grouped");
    cluster
        .reconfig_handle()
        .split_group(gid)
        .expect("a full group splits");
    assert_eq!(resident(&cluster), (11, 1));
}

/// Lookups grow a server's LRU array without touching its store, and
/// the array is charged before any replica: once it outgrows the whole
/// budget, no replica stays resident.
#[test]
fn lookups_grow_the_lru_charge_that_spills_replicas() {
    let config = GhbaConfig::default()
        .with_filter_capacity(2_000)
        .with_max_group_size(4)
        .with_seed(7)
        .with_memory_per_mds(400 * 1024);
    let mut cluster = GhbaCluster::with_servers(config, 12);
    for i in 0..240 {
        cluster.create(&format!("/s/f{i}"));
    }
    cluster.flush_all_updates();
    let mds0 = MdsId(0);
    let lru_bytes = |cluster: &GhbaCluster| {
        let mds = cluster.mds(mds0).expect("live");
        mds.lru().map_or(0, |lru| lru.memory_bytes())
    };
    let resident = |cluster: &GhbaCluster| cluster.mds(mds0).expect("live").resident_replicas(2);
    assert_eq!(lru_bytes(&cluster), 0);
    assert_eq!(resident(&cluster), 2);
    for i in 0..240 {
        cluster.lookup_from(mds0, &format!("/s/f{i}"));
    }
    assert!(
        lru_bytes(&cluster) > 400 * 1024,
        "{} LRU bytes",
        lru_bytes(&cluster)
    );
    assert_eq!(resident(&cluster), 0);
}
