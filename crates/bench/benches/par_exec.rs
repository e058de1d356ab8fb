//! The PR-5 headline benchmark: the data-parallel batch execution
//! engine's worker sweep.
//!
//! The same Zipf-head mixed `OpBatch` (a
//! flash-crowd lookup burst with creates sprinkled through, so fused
//! runs split and writes stay in stream order between the parallel read
//! phases) executes against identically populated G-HBA clusters whose
//! only difference is `ExecutorConfig::workers` ∈ {1, 2, 4, 8}. Equal
//! work per iteration, so `execute_workers_1 / execute_workers_4` *is*
//! the per-lookup parallel speedup — the ISSUE-5 acceptance bar is
//! ≥ 2.5× at 4 workers **on a ≥ 4-core host**. The engine splits a
//! fused run into per-worker chunks only at
//! `min_parallel_batch`-or-larger runs; parallel outcomes are
//! bit-identical to sequential (asserted before timing). The host's
//! scheduler-visible core count is printed with the results: on a
//! 1-core container the sweep degenerates to measuring dispatch
//! overhead, not speedup — rerun on a multicore host before quoting.
//!
//! The per-group-vs-global epoch churn comparison that used to ride
//! along here is settled (verdict recorded in `BENCH_HISTORY.md`, PR 5);
//! per-group epochs are the only behaviour left.
//!
//! `GHBA_PAR_FILES` / `GHBA_PAR_OPS` shrink the namespace and the batch
//! for CI smoke runs (numbers from shrunken runs are noise).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ghba::core::{ExecutorConfig, GhbaCluster, GhbaConfig, MetadataService, OpBatch};
use ghba::replay::populate;
use ghba::simnet::DetRng;
use std::hint::black_box;

/// Files pre-populated across the cluster (override: `GHBA_PAR_FILES`).
const DEFAULT_FILES: u64 = 16_000;
/// Ops per batch iteration (override: `GHBA_PAR_OPS`).
const DEFAULT_OPS: u64 = 1_024;
/// Servers in the simulated cluster (16 groups of 8; slab stride 2).
const SERVERS: usize = 128;
/// The flash-crowd hot set: most lookups land on these few paths.
const HOT_SET: u64 = 8;
/// Share of lookups drawn from the hot set.
const HOT_SHARE: f64 = 0.80;
/// Share of batch ops that are creates (fresh paths): enough to make
/// the batch genuinely mixed (runs split, writes apply in stream
/// order), few enough that fused runs stay beyond the parallel floor.
const CREATE_SHARE: f64 = 0.01;

fn env_size(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

fn path_of(i: u64) -> String {
    format!("/bench/d{}/f{i}", i % 127)
}

fn base_config() -> GhbaConfig {
    // Slab-heavy geometry: no L1 level, wide filters, 128 servers —
    // every lookup exercises the bit-sliced batched probe paths the
    // parallel engine chunks across workers.
    GhbaConfig::default()
        .with_filter_capacity(20_000)
        .with_bits_per_file(16.0)
        .with_lru_capacity(0)
        .with_max_group_size(8)
        .with_update_threshold(4_096)
        .with_seed(0x0b)
}

fn build_cluster(files: u64, config: GhbaConfig) -> GhbaCluster {
    let mut cluster = GhbaCluster::with_servers(config, SERVERS);
    populate(&mut cluster, (0..files).map(path_of));
    cluster.flush_all_updates();
    cluster.reset_stats();
    cluster
}

/// The Zipf-head mixed batch: a flash-crowd lookup burst with fresh-path
/// creates sprinkled through (`first_new` starts the fresh namespace so
/// repeated builds do not collide).
fn build_batch(files: u64, ops: u64, first_new: u64) -> OpBatch {
    let mut rng = DetRng::new(0x9A5);
    let mut next_new = first_new;
    let mut batch = OpBatch::new();
    for _ in 0..ops {
        if rng.next_f64() < CREATE_SHARE {
            batch.push_create(path_of(next_new));
            next_new += 1;
        } else {
            let file = if rng.next_f64() < HOT_SHARE {
                rng.below(HOT_SET)
            } else {
                rng.below(files)
            };
            batch.push_lookup(path_of(file));
        }
    }
    batch
}

/// Per-lookup wall time of the same mixed batch at each worker
/// count.
fn bench_worker_sweep(c: &mut Criterion, files: u64, ops: u64) {
    let batch = build_batch(files, ops, files);
    let reference = {
        let mut cluster = build_cluster(files, base_config());
        cluster.execute(&batch)
    };
    let mut group = c.benchmark_group("par_exec");
    for workers in [1usize, 2, 4, 8] {
        let config = base_config().with_executor(
            ExecutorConfig::default()
                .with_workers(workers)
                .with_min_parallel_batch(64),
        );
        let cluster = build_cluster(files, config);
        // Bit-identical before timed: the acceptance property, asserted
        // on the bench workload itself.
        {
            let mut probe = cluster.clone();
            assert_eq!(
                probe.execute(&batch),
                reference,
                "{workers} workers diverged from sequential"
            );
        }
        group.bench_function(&format!("execute_workers_{workers}"), |b| {
            b.iter_batched(
                || cluster.clone(),
                |mut cluster| black_box(cluster.execute(&batch).len()),
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    eprintln!(
        "par_exec: host exposes {cores} core(s) — speedups above 1 require \
         at least as many cores as workers"
    );
}

fn bench_par_exec(c: &mut Criterion) {
    let files = env_size("GHBA_PAR_FILES", DEFAULT_FILES);
    let ops = env_size("GHBA_PAR_OPS", DEFAULT_OPS);
    bench_worker_sweep(c, files, ops);
}

criterion_group!(benches, bench_par_exec);
criterion_main!(benches);
