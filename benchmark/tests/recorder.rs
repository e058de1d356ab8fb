//! The exact-sample recorder and its percentile rule.

use std::time::Duration;

use ghba_benchmark::recorder::{median, Samples, MIN_BEYOND};
use ghba_simnet::LatencyStats;

fn ramp(n: u64) -> Samples {
    let mut samples = Samples::new();
    // Recorded out of order: percentiles must not depend on arrival order.
    for i in (0..n).rev() {
        samples.push_ns((i + 1) * 1_000);
    }
    samples
}

#[test]
fn median_is_the_nearest_rank_sample() {
    assert_eq!(ramp(101).median_ns(), 51_000);
    assert_eq!(ramp(100).median_ns(), 50_000);
    assert_eq!(ramp(1).median_ns(), 1_000);
    assert_eq!(Samples::new().median_ns(), 0);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    // 1000 samples: p99 leaves exactly 10 beyond it, p99.9 leaves 1.
    let tail = ramp(1_000).tail(99.99);
    assert_eq!(tail.percentile, 99.0);
    assert_eq!(tail.ns, 990_000);
    assert_eq!(tail.n, 1_000);
    // 100 samples support p90, 10_000 support p99.9, 100_000 p99.99.
    assert_eq!(ramp(100).tail(99.99).percentile, 90.0);
    assert_eq!(ramp(10_000).tail(99.99).percentile, 99.9);
    assert_eq!(ramp(100_000).tail(99.99).percentile, 99.99);
    // One sample short of the rule falls back a rung.
    assert_eq!(ramp(999).tail(99.99).percentile, 90.0);
}

#[test]
fn tail_respects_its_cap_and_small_sets_report_the_median() {
    assert_eq!(ramp(100_000).tail(99.0).percentile, 99.0);
    let small = ramp(2 * MIN_BEYOND as u64 - 1).tail(99.0);
    assert_eq!(small.percentile, 50.0);
    assert_eq!(small.ns, 10_000);
    assert_eq!(ramp(2 * MIN_BEYOND as u64).tail(99.0).percentile, 50.0);
}

#[test]
fn totals_and_order_are_kept() {
    let mut samples = Samples::new();
    samples.push(Duration::from_micros(3));
    samples.push(Duration::from_micros(1));
    assert_eq!(samples.as_slice(), &[3_000, 1_000]);
    assert_eq!(samples.total_ns(), 4_000);
    assert_eq!(samples.len(), 2);
}

#[test]
fn median_of_values_averages_the_middle_pair() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

/// Why the harness does not use `LatencyStats`: for batch latencies
/// between 300 µs and 400 µs — where every workload's median lies — its
/// p50 is the edge of the 262–524 µs bucket (clamped to the largest
/// sample), never the median.
#[test]
fn latency_stats_reports_a_bucket_edge_for_the_same_samples() {
    let mut exact = Samples::new();
    let mut bucketed = LatencyStats::new();
    for us in 300..=400u64 {
        exact.push(Duration::from_micros(us));
        bucketed.record(Duration::from_micros(us));
    }
    assert_eq!(exact.median_ns(), 350_000);
    let edge = bucketed.percentile(50.0).as_nanos() as u64;
    let bucket_upper = (1u64 << 19) - 1;
    assert_eq!(edge, bucket_upper.min(400_000));
    assert!(edge as f64 > exact.median_ns() as f64 * 1.14);
    // Every percentile inside the bucket reads the same.
    assert_eq!(bucketed.percentile(10.0), bucketed.percentile(90.0));
}
