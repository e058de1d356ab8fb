//! Quickstart: build a G-HBA metadata cluster, create files, and watch the
//! four-level query hierarchy resolve lookups.
//!
//! Run with: `cargo run --example quickstart`

use ghba::core::{GhbaCluster, GhbaConfig, MdsId, MetadataService};

fn main() {
    // A 12-server cluster with groups of at most 4 (so three groups, each
    // collectively mirroring the whole system).
    let config = GhbaConfig::default()
        .with_max_group_size(4)
        .with_filter_capacity(10_000)
        .with_bits_per_file(16.0)
        .with_seed(42);
    let mut cluster = GhbaCluster::with_servers(config, 12);
    println!(
        "cluster: {} servers in {} groups {:?}",
        cluster.server_count(),
        cluster.group_count(),
        cluster.group_sizes()
    );

    // Create some metadata; homes are assigned randomly, as in the paper.
    let paths = [
        "/home/alice/thesis/chapter1.tex",
        "/home/alice/thesis/chapter2.tex",
        "/var/log/mds/trace-2008-01-01.log",
        "/data/physics/run-0042/events.dat",
    ];
    for path in paths {
        let home = cluster.create(path);
        println!("created {path} at {home}");
    }

    // Propagate filter updates so other groups' replicas are fresh.
    cluster.flush_all_updates();

    // Look the files up from a random entry server each time.
    for path in paths {
        let outcome = cluster.lookup(path);
        println!(
            "lookup {path}: home={} level={} latency={:?} messages={}",
            outcome.home.expect("file exists"),
            outcome.level,
            outcome.latency,
            outcome.messages,
        );
    }

    // Repeat one lookup from a fixed entry: the second trip hits the
    // entry's LRU Bloom filter array (L1).
    let entry = MdsId(0);
    let first = cluster.lookup_from(entry, paths[0]);
    let second = cluster.lookup_from(entry, paths[0]);
    println!(
        "repeat from {entry}: first at {}, second at {} ({:?} → {:?})",
        first.level, second.level, first.latency, second.latency
    );

    // A miss is established only after an authoritative L4 sweep.
    let miss = cluster.lookup("/no/such/file");
    println!(
        "miss: level={} messages={} (authoritative system sweep)",
        miss.level, miss.messages
    );

    // Per-level statistics (the Figure 13 quantities).
    let stats = cluster.stats();
    let [l1, l2, l3, l4] = stats.levels.cumulative_percentages();
    println!("served: ≤L1 {l1:.0}%, ≤L2 {l2:.0}%, ≤L3 {l3:.0}%, ≤L4 {l4:.0}%");
    println!("invariants: {:?}", cluster.check_invariants());
}
