//! One round of one workload: pin, set up, run the timed segments, check
//! every outcome, audit, restart — and, when traced, time the layers.
//!
//! A round is a fixed number of *segments*, each a fixed number of
//! batches generated just before they run. `--seconds` sets how many
//! (see [`crate::gen::Shape::segments_for`]), so the op stream — and with
//! it every count — is the same on a fast host and a slow one.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ghba_core::{GhbaCluster, OpOutcome};

use crate::gen::Segment;
use crate::host::{self, Host};
use crate::layers;
use crate::metrics::{Values, Workload};
use crate::oracle::LevelTally;
use crate::quiet::{self, Window, WINDOW};
use crate::recorder::Samples;
use crate::spans::Spans;
use crate::target::{run_unscheduled, scheduled_action, Bench, Deployment, Variant};

/// Times the deployment is set up in an untraced round; `setup_s` takes
/// each step of the set-up at its fastest over them.
const SETUP_REPEATS: usize = 5;
/// Restarts timed before each set-up but the first; `recovery_ms` is the
/// fastest of them all (interference only adds time, and a restart is
/// shorter than a phase of the host).
const RESTARTS_PER_SETUP: usize = 2;
/// Lookups per batch of the closing audit.
const AUDIT_BATCH: usize = 512;

/// What to run.
#[derive(Debug, Clone)]
pub struct RoundOpts {
    /// The workload.
    pub workload: Workload,
    /// Seed of the input stream.
    pub seed: u64,
    /// Nominal measured seconds: sets the number of segments.
    pub seconds: f64,
    /// Size multiplier (1.0 = the benchmark's own sizes).
    pub scale: f64,
    /// Record spans and time the layers, instead of measuring end to end.
    pub trace: bool,
    /// Where scratch directories and the trace file go.
    pub out_dir: PathBuf,
}

/// What one round measured.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// The workload.
    pub workload: Workload,
    /// The seed.
    pub seed: u64,
    /// The host, and whether pinning worked.
    pub host: Host,
    /// Ops executed and checked (timed segments and audit).
    pub attempted: u64,
    /// Ops answered with an error or against the shadow namespace.
    pub failed: u64,
    /// The first failure, or a failed state check.
    pub failure: Option<String>,
    /// Ops per second of each timed segment as measured, in order.
    pub segment_ops_per_s: Vec<f64>,
    /// Ops ÷ wall time of the whole timed loop as measured.
    pub raw_ops_per_s: f64,
    /// Measured wall time of the loop ÷ its wall time at the quiet phase.
    pub host_slowdown: f64,
    /// Milliseconds of each restart after the round, in order.
    pub recovery_samples_ms: Vec<f64>,
    /// The metrics: end-to-end ones for an untraced round, per-layer ones
    /// for a traced round.
    pub metrics: Values,
}

impl RoundReport {
    /// `true` when every outcome and every state check was right.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failure.is_none()
    }
}

/// Counters read off a cluster at a segment boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterCounters {
    /// `ClusterStats::update_messages`.
    pub update_messages: u64,
    /// `ClusterStats::update_bytes`.
    pub update_bytes: u64,
    /// Lifetime mask-cache hits.
    pub mask_hits: u64,
    /// Lifetime mask-cache misses.
    pub mask_misses: u64,
    /// Sum of `filter_memory_bytes` over all servers.
    pub filter_bytes: u64,
    /// `total_files`.
    pub files: u64,
}

impl ClusterCounters {
    fn read(deployment: &Deployment) -> Option<ClusterCounters> {
        match deployment {
            Deployment::Cluster(target) => Some(ClusterCounters::of(&target.cluster)),
            _ => None,
        }
    }

    /// Reads the counters off `cluster` (drained: `stats()` and
    /// `total_files()` do not see pending shard writes).
    #[must_use]
    pub fn of(cluster: &GhbaCluster) -> ClusterCounters {
        let stats = cluster.stats();
        let mask = cluster.mask_cache_stats();
        ClusterCounters {
            update_messages: stats.update_messages,
            update_bytes: stats.update_bytes,
            mask_hits: mask.lifetime_hits,
            mask_misses: mask.lifetime_misses,
            filter_bytes: cluster
                .server_ids()
                .into_iter()
                .map(|id| cluster.filter_memory_bytes(id) as u64)
                .sum(),
            files: cluster.total_files() as u64,
        }
    }
}

/// Everything counted over the first timed segment.
#[derive(Debug, Clone, Default)]
pub struct FirstSegment {
    /// The segment's ops and paths.
    pub segment: Segment,
    /// Its outcomes, batch by batch (kept by traced rounds only).
    pub outcomes: Vec<Vec<OpOutcome>>,
    /// Stream index of its first batch.
    pub first_index: u64,
    /// Lookup levels and modelled costs over the segment.
    pub levels: LevelTally,
    /// Mutating ops in the segment.
    pub writes: u64,
    /// Cluster counters before the segment (cluster deployments).
    pub before: Option<ClusterCounters>,
    /// Cluster counters after it.
    pub after: Option<ClusterCounters>,
}

/// What the timed segments of a round measured.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Ops per second of each segment.
    pub segment_ops_per_s: Vec<f64>,
    /// Nanoseconds per op of the segments run with spans off.
    pub untraced_ns_per_op: Vec<f64>,
    /// Time of every batch, segment by segment: admission, execution and
    /// whatever the workload schedules after it, up to the start of the
    /// next batch.
    pub segment_times: Vec<Vec<u64>>,
    /// Process CPU time of every [`WINDOW`] batches, segment by segment
    /// (a segment's closing flush belongs to its last window).
    pub segment_cpu_ns: Vec<Vec<u64>>,
    /// Latency of the first batch after each reconfiguration action.
    pub cold_batch_ns: Samples,
    /// Wall time of all segments.
    pub wall: Duration,
    /// Wall time of the segments run with spans on.
    pub traced_wall: Duration,
    /// Ops executed.
    pub ops: u64,
    /// Ops executed by the segments run with spans on.
    pub traced_ops: u64,
    /// The first segment's exact counts.
    pub first: FirstSegment,
}

impl Timed {
    /// The time of every batch of the round.
    #[must_use]
    pub fn batch_samples(&self) -> Samples {
        let mut samples = Samples::new();
        for &ns in self.segment_times.iter().flatten() {
            samples.push_ns(ns);
        }
        samples
    }

    /// Every segment cut into windows of [`WINDOW`] batches.
    #[must_use]
    pub fn windows(&self) -> Vec<Vec<Window<'_>>> {
        self.segment_times
            .iter()
            .zip(&self.segment_cpu_ns)
            .map(|(times, cpu)| {
                times
                    .chunks(WINDOW)
                    .zip(cpu)
                    .map(|(batch_ns, &cpu_ns)| Window { batch_ns, cpu_ns })
                    .collect()
            })
            .collect()
    }
}

fn tally_delta(after: &LevelTally, before: &LevelTally) -> LevelTally {
    LevelTally {
        lookups: after.lookups - before.lookups,
        l1: after.l1 - before.l1,
        l2: after.l2 - before.l2,
        l3: after.l3 - before.l3,
        l4: after.l4 - before.l4,
        miss: after.miss - before.miss,
        messages: after.messages - before.messages,
        sim_latency_ns: after.sim_latency_ns - before.sim_latency_ns,
    }
}

/// Runs `segments` timed segments on `bench`. With `spans` recording,
/// every other segment runs with spans off, so the round prices its own
/// tracing.
///
/// # Errors
///
/// Only what ends the round outright (a failed drain); wrong or failed
/// batches are counted by the oracle and the round goes on.
pub fn run_segments(
    bench: &mut Bench,
    spans: &mut Spans,
    segments: usize,
) -> Result<Timed, String> {
    let tracing = spans.enabled();
    let mut timed = Timed::default();
    for done in 0..segments {
        let started = Instant::now();
        let segment = bench.gen.next_segment();
        bench.generator_s += started.elapsed().as_secs_f64();

        let first = done == 0;
        let traced = tracing && done.is_multiple_of(2);
        spans.set_enabled(traced);
        let levels_before = bench.oracle.levels;
        let writes_before = bench.oracle.writes;
        if first {
            timed.first.first_index = bench.next_index;
            timed.first.before = ClusterCounters::read(&bench.deployment);
        }

        let mut results: Vec<Result<Vec<OpOutcome>, String>> =
            Vec::with_capacity(segment.batch_count());
        // A batch's time runs from its start to the start of the next
        // one (the segment's end for the last), so the times of a segment
        // add up to its wall time, in-loop drains and closing flush
        // included.
        let mut times: Vec<u64> = Vec::with_capacity(segment.batch_count());
        let mut window_cpu: Vec<u64> = Vec::with_capacity(segment.batch_count() / WINDOW + 1);
        let segment_first = bench.next_index;
        let mut window_started = host::process_cpu_time();
        let wall_before = Instant::now();
        let mut batch_started = wall_before;
        for ops in segment.batches() {
            // A full window lies behind and more batches follow: cut.
            if times.len() == (window_cpu.len() + 1) * WINDOW {
                let now = host::process_cpu_time();
                window_cpu.push(now.saturating_sub(window_started).as_nanos() as u64);
                window_started = now;
            }
            let index = bench.next_index;
            spans.set_batch(index);
            let admission = &mut bench.admission;
            let batch = spans.scope("op.admit", |_| admission.admit(&segment, ops));
            results.push(bench.deployment.target().step(index, &batch, spans));
            bench.next_index += 1;
            let now = Instant::now();
            times.push((now - batch_started).as_nanos() as u64);
            batch_started = now;
        }
        bench.deployment.target().close_segment(spans)?;
        let ended = Instant::now();
        if let Some(last) = times.last_mut() {
            *last += (ended - batch_started).as_nanos() as u64;
        }
        let wall = ended - wall_before;
        let cpu_ended = host::process_cpu_time();
        window_cpu.push(cpu_ended.saturating_sub(window_started).as_nanos() as u64);
        timed.segment_cpu_ns.push(window_cpu);
        if bench.workload == Workload::ReconfigReads {
            for (index, &ns) in (segment_first..).zip(&times) {
                if scheduled_action(bench.seed, index).is_some() {
                    timed.cold_batch_ns.push_ns(ns);
                }
            }
        }
        timed.segment_times.push(times);

        let ops = segment.op_count() as u64;
        timed.wall += wall;
        timed.ops += ops;
        timed
            .segment_ops_per_s
            .push(ops as f64 / wall.as_secs_f64().max(1e-9));
        if traced {
            timed.traced_wall += wall;
            timed.traced_ops += ops;
        } else {
            timed
                .untraced_ns_per_op
                .push(wall.as_nanos() as f64 / ops.max(1) as f64);
        }

        let mut kept = Vec::new();
        for (ops, result) in segment.batches().zip(results) {
            match result {
                Ok(outcomes) => {
                    bench.oracle.check_batch(&segment, ops, &outcomes);
                    if first && tracing {
                        kept.push(outcomes);
                    }
                }
                Err(why) => bench.oracle.fail_batch(ops.len(), &why),
            }
        }
        if first {
            timed.first.levels = tally_delta(&bench.oracle.levels, &levels_before);
            timed.first.writes = bench.oracle.writes - writes_before;
            timed.first.after = ClusterCounters::read(&bench.deployment);
            timed.first.outcomes = kept;
            timed.first.segment = segment;
        }
    }
    spans.set_enabled(tracing);
    Ok(timed)
}

/// Settles the deployment, checks its invariants, and looks every live
/// file up once more. Failures land in the oracle's counts or in the
/// returned message.
fn audit(bench: &mut Bench) -> Option<String> {
    let result = (|| {
        bench.deployment.target().settle()?;
        if let Deployment::Cluster(target) = &bench.deployment {
            target.cluster.check_invariants()?;
            let (stored, live) = (target.cluster.total_files(), bench.gen.live_ids().len());
            if stored != live {
                return Err(format!("cluster stores {stored} files, the shadow {live}"));
            }
        }
        let lookups = bench.gen.audit(AUDIT_BATCH);
        run_unscheduled(
            bench.deployment.target(),
            &mut bench.admission,
            &mut bench.oracle,
            &lookups,
            0,
            || {},
        )
    })();
    result.err()
}

/// The set-up's time with each of its steps at its fastest over the
/// repeats. The repeats are the same steps on the same inputs, so what
/// differs between them is the host (and, in the fleet, which steps the
/// reconcilers' ticks landed on); interference only adds time.
fn fastest_steps_s(repeats: &[Vec<u64>]) -> f64 {
    let steps = repeats.iter().map(Vec::len).min().unwrap_or(0);
    (0..steps)
        .map(|step| repeats.iter().map(|r| r[step]).min().unwrap_or(0))
        .sum::<u64>() as f64
        / 1e9
}

/// Runs one round.
///
/// # Errors
///
/// Only failures that leave nothing to report: the deployment could not
/// be built, or the scratch directory could not be created. Incorrect
/// outcomes are reported in the [`RoundReport`].
pub fn run_round(opts: &RoundOpts) -> Result<RoundReport, String> {
    let host = Host::describe_and_pin();
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|err| format!("cannot create {}: {err}", opts.out_dir.display()))?;

    let set_up = || {
        Bench::setup(
            opts.workload,
            opts.seed,
            opts.scale,
            Variant::Primary,
            &opts.out_dir,
        )
    };
    let mut bench = set_up()?;
    let mut setup_steps = vec![std::mem::take(&mut bench.setup_steps_ns)];

    let mut spans = if opts.trace {
        Spans::recording()
    } else {
        Spans::disabled()
    };
    let actions_before = layers::reconfig_actions(&bench);
    let segments = bench.gen.shape().segments_for(opts.seconds);
    let timed = run_segments(&mut bench, &mut spans, segments)?;
    let mut failure = audit(&mut bench);
    // Read before any restart builds a second cluster beside the first.
    let peak_rss_mb = host::peak_rss_mb();

    let mut metrics = Values::new();
    if opts.trace {
        layers::measure(
            opts,
            &mut bench,
            &timed,
            &spans,
            actions_before,
            &mut metrics,
        )?;
    }

    let generator_s = bench.generator_s;
    let (oracle, _scratch, restart) = bench.finish()?;
    // The remaining set-ups run between the restarts, one deployment at
    // a time: they space the restarts over some seconds of the host
    // instead of one moment of it.
    let mut recovery_samples_ms = Vec::new();
    let setups = if opts.trace { 1 } else { SETUP_REPEATS };
    let restarted = restart.prepare().and_then(|()| {
        for done in 1..=setups {
            for nth in 1..=RESTARTS_PER_SETUP {
                let (elapsed, recovered) = restart.recover(&mut spans)?;
                recovery_samples_ms.push(elapsed.as_secs_f64() * 1e3);
                if opts.trace && nth == RESTARTS_PER_SETUP {
                    layers::measure_recovery(&restart, recovered, &mut spans, &mut metrics);
                }
            }
            if done < setups {
                setup_steps.push(set_up()?.setup_steps_ns);
            }
        }
        Ok(())
    });
    failure = failure.or(restarted.err());
    // A failed state check (invariants, audit, recovery) has no op to be
    // counted against; it still fails the round.
    let failed = oracle.failed + u64::from(failure.is_some());
    let attempted = oracle.attempted.max(1);
    let failure = oracle.first_failure().map(str::to_string).or(failure);

    let quiet = quiet::estimate(&timed.windows());
    if opts.trace {
        metrics.insert("harness.generator_s", generator_s);
        metrics.insert("harness.host_slowdown", quiet.host_slowdown());
        layers::finish_trace(opts, &timed, &spans, &mut metrics)?;
    } else {
        // The loop's three metrics are read at the host's quiet phase
        // (see `quiet`), each on its own clock. Segments are equal shares
        // of the round's ops.
        let segment_ops = timed.ops.max(1) as f64 / timed.segment_times.len().max(1) as f64;
        metrics.insert("ops_per_s", segment_ops * 1e9 / quiet.segment_wall_ns);
        metrics.insert("batch_p50_us", quiet.p50_ns / 1e3);
        metrics.insert("cpu_us_per_op", quiet.segment_cpu_ns / 1e3 / segment_ops);
        metrics.insert("setup_s", fastest_steps_s(&setup_steps));
        metrics.insert("peak_rss_mb", peak_rss_mb);
        metrics.insert(
            "recovery_ms",
            recovery_samples_ms
                .iter()
                .copied()
                .reduce(f64::min)
                .unwrap_or(0.0),
        );
    }

    Ok(RoundReport {
        workload: opts.workload,
        seed: opts.seed,
        host,
        attempted,
        failed,
        failure,
        raw_ops_per_s: timed.ops as f64 / timed.wall.as_secs_f64().max(1e-9),
        host_slowdown: quiet.host_slowdown(),
        segment_ops_per_s: timed.segment_ops_per_s,
        recovery_samples_ms,
        metrics,
    })
}
