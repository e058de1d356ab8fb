//! The per-layer metrics of a traced round.
//!
//! Three sources, all outside the program. *Spans* the round recorded
//! around each public call give busy time, self time and percentiles per
//! layer. *Counts* taken over the first segment give the exact metrics.
//! *Stand-alone timings* replay the workload's own inputs through one
//! public function at a time (`Fingerprint::of`, `query_batch`,
//! `NetMessage::encode`, `lookup_concurrent`, `ping_all`) or through a
//! variant deployment (no WAL, fsync WAL, in-process fleet) and subtract.

use std::hint::black_box;
use std::time::Instant;

use ghba_bloom::{Fingerprint, ProbeBatch, SharedShapeArray};
use ghba_core::{published_shape, GhbaCluster, PathKey, QueryLevel, QueryOutcome};
use ghba_net::{replica_of, NetMessage};

use crate::gen::OpKind;
use crate::json::Json;
use crate::metrics::{Values, Workload};
use crate::recorder::{median, Samples};
use crate::round::{run_segments, ClusterCounters, RoundOpts, Timed};
use crate::spans::Spans;
use crate::target::{
    base_config, Admission, Bench, Deployment, Restart, Variant, CLUSTER_SERVERS, DRAIN_EVERY,
    FLEET_REPLICAS,
};

/// Fingerprints per `ProbeBatch` in the slab timings (the walk's own
/// batch width on the read workloads).
const PROBE_BATCH: usize = 128;
/// Items inserted per slab column before probing.
const ITEMS_PER_COLUMN: u32 = 4_096;
/// The large slab has this many times the rows of the cluster's: ~32 MB
/// against ~1 MB, past this host's 2 MB L2 instead of inside it.
const LARGE_SLAB_FACTOR: usize = 32;
/// Paths looked up one at a time for the per-level timings.
const LEVEL_SAMPLE: usize = 20_000;
/// Timings kept per level.
const LEVEL_KEEP: usize = 2_000;
/// Round trips timed for `serve.rtt_us_p50`.
const PINGS: u64 = 500;
/// Segments the in-process fleet replays for the wire tax.
const FED_SEGMENTS: usize = 3;

/// Actions the reconfiguration schedule has performed so far.
#[must_use]
pub fn reconfig_actions(bench: &Bench) -> u64 {
    match &bench.deployment {
        Deployment::Cluster(target) => target.reconfig_actions(),
        _ => 0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn timed_ns<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_nanos() as u64)
}

/// `Fingerprint::of` and `SharedShapeArray::query_batch` on the
/// workload's own lookup paths.
fn bloom_layer(paths: &[&str], metrics: &mut Values) {
    let mut fps = Vec::with_capacity(paths.len());
    let mut per_path = Vec::new();
    for chunk in paths.chunks(PROBE_BATCH) {
        let ((), ns) = timed_ns(|| {
            for path in chunk {
                fps.push(Fingerprint::of(black_box(*path)));
            }
        });
        per_path.push(ns as f64 / chunk.len() as f64);
    }
    metrics.insert("bloom.fingerprint_ns", median(&per_path));

    let shape = published_shape(&base_config());
    for (name, factor) in [
        ("bloom.probe_small_ns_per_fp", 1),
        ("bloom.probe_large_ns_per_fp", LARGE_SLAB_FACTOR),
    ] {
        let mut shape = shape;
        shape.bits *= factor;
        let columns = CLUSTER_SERVERS as u16;
        let mut slab: SharedShapeArray<u16> =
            SharedShapeArray::with_capacity(shape, usize::from(columns));
        for column in 0..columns {
            slab.push(column).expect("distinct column ids");
            for item in 0..ITEMS_PER_COLUMN {
                slab.insert_fp(column, &Fingerprint::of(&(column, item)))
                    .expect("column just pushed");
            }
        }
        // The probed paths each live in exactly one column, like a file
        // at its home.
        for (i, fp) in fps.iter().enumerate() {
            slab.insert_fp((i % usize::from(columns)) as u16, fp)
                .expect("column exists");
        }
        if factor == 1 {
            metrics.insert("bloom.slab_bytes", slab.memory_bytes() as f64);
        }
        let mut batch = ProbeBatch::with_capacity(PROBE_BATCH);
        let mut per_fp = Vec::new();
        for chunk in fps.chunks(PROBE_BATCH) {
            batch.clear();
            for fp in chunk {
                batch.push(*fp);
            }
            let (hits, ns) = timed_ns(|| slab.query_batch(black_box(&mut batch)));
            black_box(hits);
            per_fp.push(ns as f64 / chunk.len() as f64);
        }
        metrics.insert(name, median(&per_fp));
    }
}

/// `lookup_concurrent`, one path at a time, bucketed by the level that
/// resolved it.
fn level_timings(
    paths: &[&str],
    mut lookup: impl FnMut(usize, &str) -> QueryOutcome,
    metrics: &mut Values,
) {
    let mut by_level = [
        (
            "cluster.lookup_l2_ns",
            QueryLevel::L2Segment,
            Samples::new(),
        ),
        ("cluster.lookup_l3_ns", QueryLevel::L3Group, Samples::new()),
        ("cluster.lookup_l4_ns", QueryLevel::L4Global, Samples::new()),
        (
            "cluster.lookup_miss_ns",
            QueryLevel::Nonexistent,
            Samples::new(),
        ),
    ];
    for (i, path) in paths.iter().take(LEVEL_SAMPLE).enumerate() {
        let (outcome, ns) = timed_ns(|| lookup(i, path));
        if let Some((_, _, samples)) = by_level
            .iter_mut()
            .find(|(_, level, samples)| *level == outcome.level && samples.len() < LEVEL_KEEP)
        {
            samples.push_ns(ns);
        }
    }
    for (name, _, samples) in by_level {
        metrics.insert(name, samples.median_ns() as f64);
    }
}

fn cluster_lookup(cluster: &GhbaCluster) -> impl FnMut(usize, &str) -> QueryOutcome + '_ {
    let ids = cluster.server_ids();
    move |i, path| cluster.lookup_concurrent(ids[i % ids.len()], path)
}

/// `NetMessage::encode` / `decode` replayed on the first segment's own
/// batches and outcomes.
fn proto_layer(timed: &Timed, metrics: &mut Values) -> Result<(), String> {
    let first = &timed.first;
    let mut admission = Admission::default();
    let (mut enc_req, mut dec_req, mut enc_rep, mut dec_rep) = (0u64, 0u64, 0u64, 0u64);
    let (mut req_bytes, mut rep_bytes, mut ops) = (0u64, 0u64, 0u64);
    for (seq, (specs, outcomes)) in first.segment.batches().zip(&first.outcomes).enumerate() {
        let request = NetMessage::ExecuteBatch {
            seq: seq as u64,
            batch: admission.admit(&first.segment, specs),
        };
        let reply = NetMessage::BatchReply {
            seq: seq as u64,
            outcomes: outcomes.clone(),
        };
        for (msg, enc, dec, bytes) in [
            (&request, &mut enc_req, &mut dec_req, &mut req_bytes),
            (&reply, &mut enc_rep, &mut dec_rep, &mut rep_bytes),
        ] {
            let (payload, ns) = timed_ns(|| black_box(msg).encode());
            *enc += ns;
            *bytes += payload.len() as u64;
            let (decoded, ns) = timed_ns(|| NetMessage::decode(black_box(&payload)));
            *dec += ns;
            if decoded.as_ref().ok() != Some(msg) {
                return Err(format!(
                    "wire codec does not round-trip batch {seq}: {:?}",
                    decoded.err()
                ));
            }
        }
        ops += specs.len() as u64;
    }
    let per_op = |total: u64| ratio(total as f64, ops as f64);
    metrics.insert("proto.encode_request_ns_per_op", per_op(enc_req));
    metrics.insert("proto.decode_request_ns_per_op", per_op(dec_req));
    metrics.insert("proto.encode_reply_ns_per_op", per_op(enc_rep));
    metrics.insert("proto.decode_reply_ns_per_op", per_op(dec_rep));
    metrics.insert("proto.request_bytes_per_op", per_op(req_bytes));
    metrics.insert("proto.reply_bytes_per_op", per_op(rep_bytes));
    Ok(())
}

/// Sets up `variant` of the round's workload and runs `segments`
/// segments of the same stream through it.
fn replay(
    opts: &RoundOpts,
    variant: Variant,
    segments: usize,
    spans: &mut Spans,
) -> Result<(Bench, Timed), String> {
    let mut bench = Bench::setup(opts.workload, opts.seed, opts.scale, variant, &opts.out_dir)?;
    let timed = run_segments(&mut bench, spans, segments)?;
    if bench.oracle.failed > 0 {
        return Err(format!(
            "{variant:?} replay answered wrongly: {}",
            bench.oracle.first_failure().unwrap_or("?")
        ));
    }
    Ok((bench, timed))
}

/// Nanoseconds per reconciled record of every traced in-loop drain.
fn drain_ns_per_record(bench: &Bench, spans: &Spans) -> Vec<f64> {
    let Deployment::Cluster(target) = &bench.deployment else {
        return Vec::new();
    };
    spans
        .durations("cluster.drain")
        .as_slice()
        .iter()
        .zip(&target.drain_records)
        .filter(|(_, &records)| records > 0)
        .map(|(&ns, &records)| ns as f64 / records as f64)
        .collect()
}

/// The WAL's share of a drain: the same stream without a WAL, and with
/// an fsync per drain.
fn wal_layer(
    opts: &RoundOpts,
    bench: &Bench,
    spans: &Spans,
    metrics: &mut Values,
) -> Result<(), String> {
    let with_wal = median(&drain_ns_per_record(bench, spans));

    let mut plain_spans = Spans::recording();
    let (plain, _) = replay(opts, Variant::NoWal, 1, &mut plain_spans)?;
    let without = median(&drain_ns_per_record(&plain, &plain_spans));
    let plain_drain_us = plain_spans.durations("cluster.drain").median_ns() as f64 / 1e3;
    drop(plain);
    metrics.insert("wal.tax_ns_per_record", with_wal - without);

    let log_len = |bench: &Bench| {
        let Deployment::Cluster(target) = &bench.deployment else {
            return 0;
        };
        target
            .cluster
            .wal()
            .and_then(|wal| std::fs::metadata(wal.dir().join("wal.log")).ok())
            .map_or(0, |meta| meta.len())
    };
    // Set up by hand: the log's length is read between set-up and replay.
    let mut synced = Bench::setup(
        opts.workload,
        opts.seed,
        opts.scale,
        Variant::FsyncWal,
        &opts.out_dir,
    )?;
    let before = log_len(&synced);
    let mut synced_spans = Spans::recording();
    let timed = run_segments(&mut synced, &mut synced_spans, 1)?;
    let synced_drain_us = synced_spans.durations("cluster.drain").median_ns() as f64 / 1e3;
    metrics.insert(
        "wal.fsync_tax_us_per_drain",
        synced_drain_us - plain_drain_us,
    );
    metrics.insert(
        "wal.bytes_per_write_op",
        ratio(
            (log_len(&synced) - before) as f64,
            timed.first.writes as f64,
        ),
    );
    Ok(())
}

/// The wire's layers: the codec on the first segment's own frames, the
/// planner's split renames, and the price of the wire itself — the same
/// stream through the in-process fleet, whose clusters also stand in for
/// the replicas' wherever a timing needs a `&GhbaCluster`.
fn fleet_layer(
    opts: &RoundOpts,
    timed: &Timed,
    lookup_paths: &[&str],
    metrics: &mut Values,
) -> Result<(), String> {
    let first = &timed.first;
    proto_layer(timed, metrics)?;
    let split = first
        .segment
        .ops()
        .iter()
        .filter(|op| op.kind == OpKind::Rename)
        .filter(|op| {
            let from = PathKey::new(first.segment.path(op));
            let to = PathKey::new(first.segment.to_path(op));
            replica_of(&from, FLEET_REPLICAS) != replica_of(&to, FLEET_REPLICAS)
        })
        .count();
    metrics.insert(
        "route.split_renames_per_kop",
        ratio(split as f64 * 1e3, first.segment.op_count() as f64),
    );

    let (mut fed, fed_timed) = replay(
        opts,
        Variant::InProcessFleet,
        FED_SEGMENTS,
        &mut Spans::disabled(),
    )?;
    metrics.insert(
        "serve.wire_tax_ns_per_op",
        median(&timed.untraced_ns_per_op) - median(&fed_timed.untraced_ns_per_op),
    );
    fed.deployment.target().settle()?;
    let Deployment::Fed(target) = &fed.deployment else {
        return Ok(());
    };
    let clusters: Vec<&GhbaCluster> = (0..FLEET_REPLICAS)
        .map(|r| target.federation().cluster(r))
        .collect();
    let mut lookups: Vec<_> = clusters.iter().map(|c| cluster_lookup(c)).collect();
    level_timings(
        lookup_paths,
        |i, path| lookups[replica_of(&PathKey::new(path), FLEET_REPLICAS)](i, path),
        metrics,
    );
    let counters: Vec<ClusterCounters> = clusters.iter().map(|c| ClusterCounters::of(c)).collect();
    let sum = |field: fn(&ClusterCounters) -> u64| counters.iter().map(field).sum::<u64>() as f64;
    let (hits, misses) = (sum(|c| c.mask_hits), sum(|c| c.mask_misses));
    metrics.insert("cluster.mask_hit_rate", ratio(hits, hits + misses));
    metrics.insert(
        "cluster.filter_bytes_per_file",
        ratio(sum(|c| c.filter_bytes), sum(|c| c.files)),
    );
    Ok(())
}

/// Everything measured while the round's deployment is still up.
///
/// # Errors
///
/// A variant deployment that cannot be built or answers wrongly, or a
/// wire codec that does not round-trip.
pub fn measure(
    opts: &RoundOpts,
    bench: &mut Bench,
    timed: &Timed,
    spans: &Spans,
    actions_before: u64,
    metrics: &mut Values,
) -> Result<(), String> {
    let first = &timed.first;
    let lookup_paths: Vec<&str> = first
        .segment
        .ops()
        .iter()
        .filter(|op| matches!(op.kind, OpKind::LookupLive | OpKind::LookupMissing))
        .map(|op| first.segment.path(op))
        .collect();

    bloom_layer(&lookup_paths, metrics);

    // The walk: level shares and the paper's cost model over the first
    // segment.
    let levels = &first.levels;
    let lookups = levels.lookups as f64;
    metrics.insert("cluster.level_l2_share", ratio(levels.l2 as f64, lookups));
    metrics.insert("cluster.level_l3_share", ratio(levels.l3 as f64, lookups));
    metrics.insert("cluster.level_l4_share", ratio(levels.l4 as f64, lookups));
    metrics.insert(
        "cluster.level_miss_share",
        ratio(levels.miss as f64, lookups),
    );
    metrics.insert(
        "sim.msgs_per_lookup",
        ratio(levels.messages as f64, lookups),
    );
    metrics.insert(
        "sim.lookup_latency_us",
        ratio(levels.sim_latency_ns as f64 / 1e3, lookups),
    );
    if let (Some(before), Some(after)) = (first.before, first.after) {
        let writes = first.writes as f64;
        metrics.insert(
            "sim.update_msgs_per_write",
            ratio(
                (after.update_messages - before.update_messages) as f64,
                writes,
            ),
        );
        metrics.insert(
            "sim.update_bytes_per_write",
            ratio((after.update_bytes - before.update_bytes) as f64, writes),
        );
        metrics.insert(
            "cluster.filter_bytes_per_file",
            ratio(after.filter_bytes as f64, after.files as f64),
        );
    }

    match &mut bench.deployment {
        Deployment::Cluster(target) => {
            let mask = target.cluster.mask_cache_stats();
            if let Some(before) = first.before {
                let hits = (mask.lifetime_hits - before.mask_hits) as f64;
                let misses = (mask.lifetime_misses - before.mask_misses) as f64;
                metrics.insert("cluster.mask_hit_rate", ratio(hits, hits + misses));
            }
            level_timings(&lookup_paths, cluster_lookup(&target.cluster), metrics);
            metrics.insert(
                "reconfig.actions",
                (target.reconfig_actions() - actions_before) as f64,
            );
            if bench.workload == Workload::WriteChurn {
                // The first segment's drains: one per DRAIN_EVERY batches
                // and the closing one.
                let in_first = first.segment.batch_count() / DRAIN_EVERY as usize + 1;
                let counted = &target.drain_records[..in_first.min(target.drain_records.len())];
                metrics.insert(
                    "concurrent.records_per_drain",
                    ratio(counted.iter().sum::<u64>() as f64, counted.len() as f64),
                );
                metrics.insert(
                    "cluster.drain_ns_per_record",
                    ratio(
                        spans.durations("cluster.drain").total_ns() as f64,
                        target.drain_records.iter().sum::<u64>() as f64,
                    ),
                );
            }
        }
        Deployment::Net(target) => {
            let mut rtt = Samples::new();
            for nonce in 0..PINGS {
                let (result, ns) = timed_ns(|| target.client.ping_all(nonce));
                result.map_err(|err| format!("ping failed: {err}"))?;
                rtt.push_ns(ns / FLEET_REPLICAS as u64);
            }
            metrics.insert("serve.rtt_us_p50", rtt.median_ns() as f64 / 1e3);
            let (mut pending, mut served) = (0u64, 0u64);
            for replica in 0..FLEET_REPLICAS {
                let stats = target
                    .client
                    .stats(replica)
                    .map_err(|err| format!("stats failed: {err}"))?;
                pending += stats.pending;
                served += stats.batches_served;
            }
            metrics.insert("replica.pending_at_end", pending as f64);
            metrics.insert("replica.batches_served", served as f64);
        }
        Deployment::Fed(_) => {}
    }

    match bench.workload {
        Workload::WriteChurn => wal_layer(opts, bench, spans, metrics)?,
        Workload::NetMixed => fleet_layer(opts, timed, &lookup_paths, metrics)?,
        Workload::ReadHot | Workload::ReconfigReads => {}
    }
    Ok(())
}

/// Restart costs: what the round's recoveries replayed, and a checkpoint
/// of each recovered cluster (they come back with their WAL attached).
pub fn measure_recovery(
    restart: &Restart,
    mut recovered: Vec<GhbaCluster>,
    spans: &mut Spans,
    metrics: &mut Values,
) {
    let records = restart.tail_records();
    metrics.insert("wal.recover_records", records as f64);
    metrics.insert(
        "wal.recover_ns_per_record",
        ratio(
            spans.durations("cluster.recover").median_ns() as f64,
            records as f64,
        ),
    );
    for cluster in &mut recovered {
        // A failed install leaves `wal.checkpoint_bytes` at the old
        // file's size; the round's own checks do not depend on it.
        let _installed = spans.scope("cluster.checkpoint", |_| cluster.checkpoint_now());
    }
    metrics.insert("wal.checkpoint_bytes", restart.checkpoint_bytes() as f64);
}

/// The span-derived metrics, and the trace file.
///
/// # Errors
///
/// The trace file cannot be written.
pub fn finish_trace(
    opts: &RoundOpts,
    timed: &Timed,
    spans: &Spans,
    metrics: &mut Values,
) -> Result<(), String> {
    let totals = spans.totals();
    let traced_ops = timed.traced_ops as f64;
    let batch_ns = timed.batch_samples();
    let traced_wall_ns = timed.traced_wall.as_nanos() as f64;
    let total_of = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    let self_of = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64);
    let p50_us = |name: &str| spans.durations(name).median_ns() as f64 / 1e3;

    metrics.insert("op.admit_ns_per_op", ratio(self_of("op.admit"), traced_ops));
    metrics.insert(
        "cluster.execute_ns_per_op",
        ratio(total_of("cluster.execute"), traced_ops),
    );
    metrics.insert("cluster.drain_us_p50", p50_us("cluster.drain"));
    metrics.insert(
        "cluster.drain_share",
        ratio(total_of("cluster.drain"), traced_wall_ns),
    );
    metrics.insert("cluster.flush_updates_us", p50_us("cluster.flush_updates"));
    metrics.insert("wal.checkpoint_ms", p50_us("cluster.checkpoint") / 1e3);
    metrics.insert("reconfig.rebalance_us", p50_us("reconfig.rebalance"));
    metrics.insert("reconfig.split_us", p50_us("reconfig.split"));
    metrics.insert("reconfig.merge_us", p50_us("reconfig.merge"));
    metrics.insert("load.report_us", p50_us("load.report"));
    metrics.insert(
        "reconfig.cold_batch_penalty",
        ratio(
            timed.cold_batch_ns.median_ns() as f64,
            batch_ns.median_ns() as f64,
        ),
    );
    metrics.insert(
        "route.plan_ns_per_op",
        ratio(self_of("route.plan"), traced_ops),
    );
    metrics.insert("client.request_us_p50", p50_us("client.request"));

    // Exact over the first segment: its spans carry its batch indices.
    let first = &timed.first;
    let in_first = |batch: u64| {
        batch >= first.first_index && batch < first.first_index + first.segment.batch_count() as u64
    };
    let requests = spans
        .spans()
        .iter()
        .filter(|s| s.name == "client.request" && in_first(s.batch))
        .count();
    metrics.insert(
        "route.subbatches_per_batch",
        ratio(requests as f64, first.segment.batch_count() as f64),
    );

    let tail = batch_ns.tail(99.0);
    metrics.insert("harness.batch_p99_us", tail.ns as f64 / 1e3);
    metrics.insert("harness.batch_tail_pct", tail.percentile);
    metrics.insert("harness.batch_samples", tail.n as f64);
    let rates = &timed.segment_ops_per_s;
    let (lo, hi) = rates
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &r| (lo.min(r), hi.max(r)));
    metrics.insert("harness.round_spread", ratio(hi - lo, median(rates)));
    // Even segments ran with spans on, odd ones with spans off.
    let ns_per_op = |parity: usize| -> Vec<f64> {
        rates
            .iter()
            .skip(parity)
            .step_by(2)
            .map(|rate| 1e9 / rate)
            .collect()
    };
    let (on, off) = (ns_per_op(0), ns_per_op(1));
    if !off.is_empty() {
        metrics.insert(
            "harness.trace_overhead_share",
            median(&on) / median(&off) - 1.0,
        );
    }
    // Self times of all spans add up to what the root spans cover; the
    // rest of the traced wall time is the harness's own loop.
    let covered: u64 = totals
        .iter()
        .filter(|(name, _)| !matches!(**name, "cluster.checkpoint" | "cluster.recover"))
        .map(|(_, t)| t.self_ns)
        .sum();
    metrics.insert(
        "harness.span_coverage",
        ratio(covered as f64, traced_wall_ns),
    );

    let path = opts
        .out_dir
        .join(format!("trace-{}.json", opts.workload.name()));
    let detail_until = first.first_index + first.segment.batch_count().min(256) as u64;
    let mut doc = spans.to_json(
        opts.workload.name(),
        timed.traced_wall.as_nanos() as u64,
        detail_until,
    );
    if let Json::Obj(pairs) = &mut doc {
        pairs.push(("seed".to_string(), opts.seed.into()));
    }
    std::fs::write(&path, doc.pretty())
        .map_err(|err| format!("cannot write {}: {err}", path.display()))
}
