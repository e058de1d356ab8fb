//! Failure-injection tests: the §4.5 fail-over path (crash semantics, as
//! opposed to graceful departure).

use ghba_core::{GhbaCluster, GhbaConfig, MdsId, MetadataService, ReconfigError};

fn config() -> GhbaConfig {
    GhbaConfig::default()
        .with_max_group_size(4)
        .with_filter_capacity(1_000)
        .with_seed(47)
}

#[test]
fn crash_loses_only_the_victims_files() {
    let mut cluster = GhbaCluster::with_servers(config(), 10);
    let mut homes = Vec::new();
    for i in 0..200 {
        homes.push((i, cluster.create(&format!("/f/{i}"))));
    }
    cluster.flush_all_updates();
    let victim = MdsId(3);
    let victim_files: Vec<usize> = homes
        .iter()
        .filter(|&&(_, h)| h == victim)
        .map(|&(i, _)| i)
        .collect();
    assert!(!victim_files.is_empty(), "victim should hold some files");

    cluster.fail_mds(victim).expect("crashable");
    cluster
        .check_invariants()
        .expect("mirror restored after crash");

    for (i, home) in homes {
        let outcome = cluster.lookup(&format!("/f/{i}"));
        if home == victim {
            assert!(!outcome.found(), "file {i} should be lost with the crash");
        } else {
            assert_eq!(outcome.home, Some(home), "file {i} must survive");
        }
    }
}

#[test]
fn crashed_server_filters_are_purged_everywhere() {
    let mut cluster = GhbaCluster::with_servers(config(), 8);
    for i in 0..100 {
        cluster.create(&format!("/p/{i}"));
    }
    cluster.flush_all_updates();
    // Warm LRUs so stale entries naming the victim would exist.
    for i in 0..100 {
        cluster.lookup(&format!("/p/{i}"));
    }
    let victim = MdsId(1);
    cluster.fail_mds(victim).expect("crashable");
    // No group may still hold (or locate) the dead server's replica.
    for gid_size in cluster.group_sizes() {
        assert!(gid_size <= 4);
    }
    for id in cluster.server_ids() {
        assert!(!cluster.replicas_held_by(id).contains(&victim));
    }
    // Lookups never return the dead server.
    for i in 0..100 {
        let outcome = cluster.lookup(&format!("/p/{i}"));
        assert_ne!(outcome.home, Some(victim));
    }
}

#[test]
fn service_survives_cascading_failures() {
    let mut cluster = GhbaCluster::with_servers(config(), 12);
    for i in 0..150 {
        cluster.create(&format!("/c/{i}"));
    }
    cluster.flush_all_updates();
    for round in 0..6 {
        let victim = cluster.server_ids()[0];
        cluster.fail_mds(victim).expect("crashable");
        cluster
            .check_invariants()
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        // The cluster still answers queries (found or clean miss).
        for i in (0..150).step_by(17) {
            let _ = cluster.lookup(&format!("/c/{i}"));
        }
    }
    assert_eq!(cluster.server_count(), 6);
}

#[test]
fn crash_errors_mirror_removal_errors() {
    let mut cluster = GhbaCluster::with_servers(config(), 1);
    let only = cluster.server_ids()[0];
    assert_eq!(cluster.fail_mds(only), Err(ReconfigError::LastServer));
    assert_eq!(
        cluster.fail_mds(MdsId(404)),
        Err(ReconfigError::UnknownMds(MdsId(404)))
    );
}

#[test]
fn crash_and_rejoin_restores_capacity() {
    let mut cluster = GhbaCluster::with_servers(config(), 9);
    let victim = MdsId(4);
    cluster.fail_mds(victim).expect("crashable");
    assert_eq!(cluster.server_count(), 8);
    let (replacement, _) = cluster.add_mds();
    assert_eq!(cluster.server_count(), 9);
    assert_ne!(replacement, victim, "ids are never reused");
    cluster.check_invariants().expect("healthy after rejoin");
    let home = cluster.create("/after/rejoin");
    assert_eq!(cluster.lookup("/after/rejoin").home, Some(home));
}
