//! Replay an intensified HP-like workload against G-HBA and HBA side by
//! side — a miniature of the paper's Figure 8 experiment.
//!
//! Run with: `cargo run --release --example trace_replay`

use ghba::core::{GhbaCluster, GhbaConfig, HbaCluster, MetadataService};
use ghba::replay::{populate, replay};
use ghba::trace::{intensify, WorkloadProfile};

fn main() {
    let profile = WorkloadProfile::hp();
    let tif = 10;
    let population = 5_000usize;
    let operations = 20_000usize;

    // Memory pressure: room for local structures plus a handful of
    // replicas — HBA's 29 replicas will spill, G-HBA's ~4 will not.
    let config = GhbaConfig::default()
        .with_max_group_size(6)
        .with_filter_capacity(1_000)
        .with_bits_per_file(12.0)
        .with_update_threshold(64)
        .with_memory_per_mds(220 * 1024)
        .with_seed(7);

    println!(
        "replaying {} ops of {} (TIF={tif}) over 30 servers…\n",
        operations, profile.name
    );

    let mut grouped = GhbaCluster::with_servers(config.clone(), 30);
    let mut mirror = HbaCluster::with_servers(config, 30);

    for (name, service) in [
        ("G-HBA", &mut grouped as &mut dyn MetadataService),
        ("HBA", &mut mirror as &mut dyn MetadataService),
    ] {
        let stream = intensify(&profile, tif, 7);
        // Populate the hot head of every subtrace's namespace.
        let paths: Vec<String> = stream
            .hot_paths(population as u64 / u64::from(tif))
            .collect();
        populate(service, paths.iter().cloned());
        let report = replay(service, stream.take(operations));
        let [l1, l2, l3, _] = report.levels.cumulative_percentages();
        println!("{name:6}: mean latency {:>9.3?}", report.mean_latency());
        println!(
            "        levels ≤L1 {l1:.1}% ≤L2 {l2:.1}% ≤L3 {l3:.1}%  \
             found {} / missing {}  messages {}",
            report.found, report.missing, report.messages
        );
        println!(
            "        per-MDS filter memory: {} KiB\n",
            service.filter_memory_per_mds() / 1024
        );
    }
    println!("Under memory pressure the full-mirror HBA pays disk accesses for");
    println!("spilled replicas, while G-HBA's grouped replicas stay resident.");
}
