//! The PR-3 headline benchmark: mixed-op vectored replay vs the legacy
//! flush-on-write replay, at Zipf-head (flash-crowd) geometry.
//!
//! Both sides drive the same pre-populated G-HBA cluster with the same
//! synthetic trace — lookups heavily skewed onto a small hot set, with
//! creates interleaved throughout (plus unlinks and renames):
//!
//! * **`mixed_batch`** — the vectored API path: `replay()` admits up to
//!   128 mixed records into one typed [`OpBatch`] and drains it through
//!   `MetadataService::execute`, which fuses read runs into batched slab
//!   passes (duplicate fingerprints deduped in-pass) and applies writes
//!   in stream order without ever flushing the window.
//! * **`flush_on_write`** — the pre-vectored replay loop, reconstructed
//!   verbatim: reads queue into a 16-lookup batch that is flushed before
//!   every write *and* before any repeated path, so Zipf-head repeats
//!   collapse the effective batch to a couple of lookups.
//!
//! Equal work per iteration (the whole trace), so
//! `flush_on_write / mixed_batch` *is* the replay throughput ratio — the
//! ISSUE-3 acceptance bar is ≥ 1.5×. Run with
//! `CRITERION_JSON=<path> cargo bench --bench op_batch` to dump
//! machine-readable means (see the PR 3 row of `BENCH_HISTORY.md` at the
//! repo root for the recorded run and `EXPERIMENTS.md` for how to read
//! it).
//!
//! `GHBA_OP_FILES` / `GHBA_OP_OPS` shrink the populated namespace and
//! the trace for CI smoke runs (numbers from shrunken runs are noise).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ghba::core::{GhbaCluster, GhbaConfig, MetadataService, QueryLevel};
use ghba::replay::{populate, replay};
use ghba::simnet::{DetRng, SimTime};
use ghba::trace::{MetaOp, TraceRecord};
use std::hint::black_box;

/// Files pre-populated across the cluster (override: `GHBA_OP_FILES`).
const DEFAULT_FILES: u64 = 16_000;
/// Trace records replayed per iteration (override: `GHBA_OP_OPS`).
const DEFAULT_OPS: u64 = 4_096;
/// Servers in the simulated cluster (slab stride 2).
const SERVERS: usize = 128;
/// The flash-crowd hot set: most lookups land on these few paths.
const HOT_SET: u64 = 8;
/// Share of lookups drawn from the hot set.
const HOT_SHARE: f64 = 0.80;
/// Share of records that are creates (fresh paths) — the INS/RES/HP
/// profiles put creates at 1–4 % of metadata ops.
const CREATE_SHARE: f64 = 0.03;
/// Share of records that are unlinks / renames (each).
const UNLINK_SHARE: f64 = 0.005;

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

/// The Zipf-head mixed trace: reads dominated by a tiny hot set, writes
/// sprinkled throughout (the interleaving that forced the legacy replay
/// to flush constantly).
fn build_trace(files: u64, ops: u64) -> Vec<TraceRecord> {
    let mut rng = DetRng::new(0xB3);
    let mut next_new = files;
    let mut records = Vec::with_capacity(ops as usize);
    for _ in 0..ops {
        let roll = rng.next_f64();
        let (op, path, rename_to) = if roll < CREATE_SHARE {
            let path = path_of(next_new);
            next_new += 1;
            (MetaOp::Create, path, None)
        } else if roll < CREATE_SHARE + UNLINK_SHARE {
            (MetaOp::Unlink, path_of(rng.below(files)), None)
        } else if roll < CREATE_SHARE + 2.0 * UNLINK_SHARE {
            let target = path_of(next_new);
            next_new += 1;
            (MetaOp::Rename, path_of(rng.below(files)), Some(target))
        } else {
            let file = if rng.next_f64() < HOT_SHARE {
                rng.below(HOT_SET)
            } else {
                rng.below(files)
            };
            (MetaOp::Stat, path_of(file), None)
        };
        records.push(TraceRecord {
            timestamp: SimTime::ZERO,
            op,
            path,
            rename_to,
            user: 0,
            host: 0,
            subtrace: 0,
        });
    }
    records
}

fn build_cluster(files: u64) -> GhbaCluster {
    // Slab-heavy geometry: no L1 level, wide filters, 128 servers — every
    // lookup exercises the bit-sliced batched probe paths, the regime the
    // vectored API is built for.
    let config = GhbaConfig::default()
        .with_filter_capacity(20_000)
        .with_bits_per_file(16.0)
        .with_lru_capacity(0)
        .with_max_group_size(8)
        .with_update_threshold(4_096)
        .with_seed(0x0b);
    let mut cluster = GhbaCluster::with_servers(config, SERVERS);
    populate(&mut cluster, (0..files).map(path_of));
    cluster.flush_all_updates();
    cluster.reset_stats();
    cluster
}

/// The pre-vectored replay loop, verbatim: read runs of up to 16 are
/// resolved through `lookup_batch`, flushed before every mutating record
/// **and** before any repeated path.
fn flush_on_write_replay<S: MetadataService + ?Sized>(
    service: &mut S,
    records: &[TraceRecord],
) -> u64 {
    const LOOKUP_BATCH: usize = 16;
    let mut found = 0u64;
    fn flush<S: MetadataService + ?Sized>(
        service: &mut S,
        pending: &mut Vec<String>,
        found: &mut u64,
    ) {
        if pending.is_empty() {
            return;
        }
        let paths: Vec<&str> = pending.iter().map(String::as_str).collect();
        for outcome in service.lookup_batch(&paths) {
            *found += u64::from(outcome.found());
        }
        pending.clear();
    }
    let mut pending: Vec<String> = Vec::with_capacity(LOOKUP_BATCH);
    for record in records {
        match record.op {
            MetaOp::Open | MetaOp::Close | MetaOp::Stat | MetaOp::Readdir => {
                if pending.contains(&record.path) {
                    flush(service, &mut pending, &mut found);
                }
                pending.push(record.path.clone());
                if pending.len() == LOOKUP_BATCH {
                    flush(service, &mut pending, &mut found);
                }
            }
            MetaOp::Create => {
                flush(service, &mut pending, &mut found);
                service.create(&record.path);
            }
            MetaOp::Unlink => {
                flush(service, &mut pending, &mut found);
                let outcome = service.lookup(&record.path);
                if outcome.level != QueryLevel::Nonexistent {
                    found += 1;
                    service.remove(&record.path);
                }
            }
            MetaOp::Rename => {
                flush(service, &mut pending, &mut found);
                if service.remove(&record.path).is_some() {
                    let target = record
                        .rename_to
                        .clone()
                        .unwrap_or_else(|| format!("{}~renamed", record.path));
                    service.create(&target);
                }
            }
        }
    }
    flush(service, &mut pending, &mut found);
    found
}

fn bench_op_batch(c: &mut Criterion) {
    let files = env_size("GHBA_OP_FILES", DEFAULT_FILES);
    let ops = env_size("GHBA_OP_OPS", DEFAULT_OPS);
    let cluster = build_cluster(files);
    let records = build_trace(files, ops);

    // Sanity: both paths resolve the same trace against the same state.
    {
        let mut a = cluster.clone();
        let mut b = cluster.clone();
        let report = replay(&mut a, records.iter().cloned());
        let legacy_found = flush_on_write_replay(&mut b, &records);
        assert!(report.found > 0 && legacy_found > 0, "trace resolves");
    }

    let mut group = c.benchmark_group("op_batch");
    group.bench_function("replay_mixed_batch", |b| {
        b.iter_batched(
            || cluster.clone(),
            |mut cluster| {
                let report = replay(&mut cluster, records.iter().cloned());
                black_box(report.found)
            },
            BatchSize::LargeInput,
        );
    });
    group.bench_function("replay_flush_on_write", |b| {
        b.iter_batched(
            || cluster.clone(),
            |mut cluster| black_box(flush_on_write_replay(&mut cluster, &records)),
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_op_batch);
criterion_main!(benches);
