//! Cross-crate integration tests: workload → replay → cluster, scheme
//! comparisons, and determinism guarantees.

use ghba::core::{GhbaCluster, GhbaConfig, HbaCluster, MetadataService};
use ghba::replay::{populate, replay};
use ghba::trace::{intensify, WorkloadGenerator, WorkloadProfile};

fn config() -> GhbaConfig {
    GhbaConfig::default()
        .with_max_group_size(5)
        .with_filter_capacity(1_000)
        .with_bits_per_file(12.0)
        .with_update_threshold(64)
        .with_seed(99)
}

#[test]
fn replay_resolves_populated_files() {
    let mut cluster = GhbaCluster::with_servers(config(), 15);
    let generator = WorkloadGenerator::new(WorkloadProfile::res(), 4);
    populate(&mut cluster, (0..2_000).map(|i| generator.path_of(i)));
    cluster.flush_all_updates();
    let report = replay(&mut cluster, generator.take(5_000));
    assert_eq!(report.operations, 5_000);
    // Reads of the hot (low-index) Zipf head dominate; nearly all of them
    // must resolve. Creates/renames account for the rest.
    let lookups = report.found + report.missing;
    assert!(
        report.found as f64 / lookups as f64 > 0.5,
        "found {} of {lookups}",
        report.found
    );
    assert!(report.mean_latency() > core::time::Duration::ZERO);
    assert_eq!(report.levels.total(), lookups);
}

#[test]
fn replay_is_deterministic() {
    let run = || {
        let mut cluster = GhbaCluster::with_servers(config(), 10);
        let generator = WorkloadGenerator::new(WorkloadProfile::ins(), 5);
        populate(&mut cluster, (0..500).map(|i| generator.path_of(i)));
        cluster.flush_all_updates();
        let report = replay(&mut cluster, generator.take(2_000));
        (
            report.found,
            report.missing,
            report.messages,
            report.latency.mean(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn all_schemes_agree_on_ground_truth() {
    let mut grouped = GhbaCluster::with_servers(config(), 12);
    let mut mirror = HbaCluster::with_servers(config(), 12);
    // BFA8: the full mirror at 8 bits per file with no LRU level.
    let mut bfa =
        HbaCluster::with_servers(config().with_bits_per_file(8.0).with_lru_capacity(0), 12);
    let services: [&mut dyn MetadataService; 3] = [&mut grouped, &mut mirror, &mut bfa];
    for service in services {
        for i in 0..100 {
            service.create(&format!("/agree/f{i}"));
        }
        for i in 0..100 {
            let outcome = service.lookup(&format!("/agree/f{i}"));
            assert!(outcome.found(), "{}: lost f{i}", service.scheme_name());
        }
        assert!(!service.lookup("/agree/absent").found());
    }
}

#[test]
fn ghba_uses_less_filter_memory_than_hba() {
    let grouped = GhbaCluster::with_servers(config(), 20);
    let mirror = HbaCluster::with_servers(config(), 20);
    let g = grouped.filter_memory_per_mds();
    let h = mirror.filter_memory_per_mds();
    assert!(
        g * 2 < h,
        "G-HBA {g} bytes should be well under half of HBA {h}"
    );
}

#[test]
fn intensified_replay_spans_subtraces() {
    let profile = WorkloadProfile::hp();
    let mut cluster = GhbaCluster::with_servers(config(), 10);
    let stream = intensify(&profile, 5, 6);
    let paths: Vec<String> = stream.hot_paths(200).collect();
    assert_eq!(paths.len(), 1_000);
    populate(&mut cluster, paths.iter().cloned());
    cluster.flush_all_updates();
    let report = replay(&mut cluster, stream.take(3_000));
    assert_eq!(report.operations, 3_000);
    // All five subtraces contribute lookups.
    assert!(report.found > 0);
}

#[test]
fn update_traffic_scales_with_groups_not_servers() {
    // The Figure 12/15 property as an invariant: G-HBA's per-update
    // message count tracks the group count, HBA's tracks N. A huge
    // threshold suppresses auto-publish during population, so the explicit
    // push below always has pending changes regardless of hash family.
    let quiet = config().with_update_threshold(usize::MAX);
    let mut grouped = GhbaCluster::with_servers(quiet.clone(), 25); // 5 groups
    let mut mirror = HbaCluster::with_servers(quiet, 25);
    let home_g = grouped.server_ids()[0];
    let home_h = mirror.server_ids()[0];
    for i in 0..50 {
        grouped.create_file_at(&format!("/u/f{i}"), home_g);
        mirror.create_file_at(&format!("/u/f{i}"), home_h);
    }
    let g = grouped.push_update(home_g);
    let h = mirror.push_update(home_h);
    assert!(g.refreshed && h.refreshed);
    assert!(
        g.messages <= 8,
        "G-HBA update messages {} should track ~4 groups",
        g.messages
    );
    assert_eq!(h.messages, 24, "HBA updates broadcast to N−1");
}

#[test]
fn join_traffic_is_2n_for_hba_and_a_fraction_of_it_for_ghba() {
    // Figure 15 as an invariant, at the prototype's operating point.
    let config = config().with_max_group_size(7);
    let mut grouped = GhbaCluster::with_servers(config.clone(), 60);
    let mut mirror = HbaCluster::with_servers(config, 60);
    // HBA: the newcomer fetches every existing replica and every
    // existing server installs the newcomer's — two messages each.
    assert_eq!(mirror.add_mds().1.messages, 2 * 60);
    assert_eq!(mirror.add_mds().1.messages, 2 * 61);
    // G-HBA: one replica install per group plus light migration.
    let report = grouped.add_mds().1;
    assert!(!report.split, "⌈60 / 7⌉ groups leave room for one more");
    assert!(
        report.messages * 3 < 2 * 60,
        "G-HBA join cost {} should be under a third of HBA's 120",
        report.messages
    );
}

#[test]
fn memory_pressure_hurts_hba_more() {
    // The Figures 8–10 crossover as an invariant.
    let tight = config().with_memory_per_mds(64 * 1024);
    let measure = |is_hba: bool| {
        let generator = WorkloadGenerator::new(WorkloadProfile::hp(), 8);
        let paths: Vec<String> = (0..1_500).map(|i| generator.path_of(i)).collect();
        let mut total = core::time::Duration::ZERO;
        if is_hba {
            let mut cluster = HbaCluster::with_servers(tight.clone(), 20);
            populate(&mut cluster, paths.iter().cloned());
            cluster.flush_all_updates();
            let report = replay(&mut cluster, generator.take(2_000));
            total += report.mean_latency();
        } else {
            let mut cluster = GhbaCluster::with_servers(tight.clone(), 20);
            populate(&mut cluster, paths.iter().cloned());
            cluster.flush_all_updates();
            let report = replay(&mut cluster, generator.take(2_000));
            total += report.mean_latency();
        }
        total
    };
    let hba_latency = measure(true);
    let ghba_latency = measure(false);
    assert!(
        hba_latency > ghba_latency,
        "under tight memory HBA ({hba_latency:?}) must be slower than G-HBA ({ghba_latency:?})"
    );
}
