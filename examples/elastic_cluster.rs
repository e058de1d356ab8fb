//! Elastic membership: grow and shrink a G-HBA cluster under load, watch
//! groups split and merge, and count the light-weight replica migrations
//! (the Figure 11 property).
//!
//! Run with: `cargo run --example elastic_cluster`

use ghba::core::{GhbaCluster, GhbaConfig, MetadataService};

fn main() {
    let config = GhbaConfig::default()
        .with_max_group_size(4)
        .with_filter_capacity(5_000)
        .with_seed(11);
    let mut cluster = GhbaCluster::with_servers(config, 8);

    for i in 0..300 {
        cluster.create(&format!("/workload/dir{}/file{i}", i % 17));
    }
    cluster.flush_all_updates();
    println!(
        "start: {} servers, groups {:?}, {} files\n",
        cluster.server_count(),
        cluster.group_sizes(),
        cluster.total_files()
    );

    // Grow by five servers: joins use light-weight migration; a join into
    // a full group triggers a split.
    for _ in 0..5 {
        let (id, report) = cluster.add_mds();
        println!(
            "join  {id}: migrated {:>3} replicas, {:>3} messages{}{} → groups {:?}",
            report.migrated_replicas,
            report.messages,
            if report.split { ", SPLIT" } else { "" },
            if report.merged { ", MERGE" } else { "" },
            cluster.group_sizes(),
        );
        cluster.check_invariants().expect("invariants after join");
    }

    // Shrink by four: files re-home, groups merge when two fit in one.
    for _ in 0..4 {
        let victim = cluster.server_ids()[1];
        let report = cluster.remove_mds(victim).expect("removable");
        println!(
            "leave {victim}: migrated {:>3} replicas, re-homed {:>3} files, {:>3} messages{} → groups {:?}",
            report.migrated_replicas,
            report.rehomed_files,
            report.messages,
            if report.merged { ", MERGE" } else { "" },
            cluster.group_sizes(),
        );
        cluster.check_invariants().expect("invariants after leave");
    }

    // No file was lost through all of that.
    let mut found = 0;
    for i in 0..300 {
        if cluster
            .lookup(&format!("/workload/dir{}/file{i}", i % 17))
            .found()
        {
            found += 1;
        }
    }
    println!(
        "\nend: {} servers, groups {:?}, {}/300 files still found",
        cluster.server_count(),
        cluster.group_sizes(),
        found
    );
    println!(
        "lifetime: {} replicas migrated, {} reconfig messages, {} splits, {} merges",
        cluster.stats().migrated_replicas,
        cluster.stats().reconfig_messages,
        cluster.stats().splits,
        cluster.stats().merges
    );
}
