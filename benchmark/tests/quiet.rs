//! The quiet-phase reading: a slow phase of the host cancels, the
//! program's own long batches stay.

use ghba_benchmark::quiet::{estimate, Window, WINDOW};

/// `WINDOW` batches of `plain` ns, every fourth one `long` ns (a drain).
fn window(plain: u64, long: u64) -> Vec<u64> {
    (0..WINDOW)
        .map(|i| if i % 4 == 3 { long } else { plain })
        .collect()
}

/// Reads a loop of two-window segments.
fn read(windows: &[Vec<u64>]) -> ghba_benchmark::quiet::Quiet {
    let cut: Vec<Window<'_>> = windows
        .iter()
        .map(|batch_ns| Window {
            batch_ns,
            cpu_ns: batch_ns.iter().sum(),
        })
        .collect();
    let segments: Vec<Vec<Window<'_>>> = cut.chunks(2).map(<[_]>::to_vec).collect();
    estimate(&segments)
}

#[test]
fn a_steady_loop_reads_as_measured() {
    let quiet = read(&vec![window(200_000, 900_000); 10]);
    assert_eq!(quiet.wall_ns, quiet.raw_wall_ns);
    assert_eq!(quiet.segment_wall_ns, quiet.raw_wall_ns / 5.0);
    assert_eq!(quiet.segment_cpu_ns, quiet.segment_wall_ns);
    assert_eq!(quiet.host_slowdown(), 1.0);
    assert_eq!(quiet.p50_ns, 200_000.0);
}

#[test]
fn a_slow_phase_of_the_host_cancels() {
    // Half the windows run 1.5x slower, plain batches and drains alike.
    let mut windows = vec![window(200_000, 900_000); 4];
    windows.extend(vec![window(300_000, 1_350_000); 6]);
    let steady = read(&vec![window(200_000, 900_000); 10]);
    let quiet = read(&windows);
    assert!((quiet.wall_ns - steady.wall_ns).abs() < 1.0);
    assert!((quiet.segment_wall_ns - steady.segment_wall_ns).abs() < 1.0);
    assert!((quiet.segment_cpu_ns - steady.segment_cpu_ns).abs() < 1.0);
    assert!((quiet.p50_ns - 200_000.0).abs() < 1e-3);
    assert!((quiet.host_slowdown() - 1.3).abs() < 1e-9);
}

#[test]
fn the_programs_own_long_batches_stay() {
    // Dearer drains in every window: no pace moves, all of it shows.
    let cheap = read(&vec![window(200_000, 900_000); 10]);
    let dear = read(&vec![window(200_000, 1_800_000); 10]);
    assert_eq!(dear.host_slowdown(), 1.0);
    assert!(dear.wall_ns > cheap.wall_ns * 1.5);
    // One stall in one window (a checkpoint) stays in the loop's time;
    // the lower-quartile segment is one without it.
    let mut windows = vec![window(200_000, 900_000); 10];
    windows[3][7] += 5_000_000;
    let stalled = read(&windows);
    assert_eq!(stalled.wall_ns, cheap.wall_ns + 5_000_000.0);
    assert_eq!(stalled.segment_wall_ns, cheap.segment_wall_ns);
    // Slower plain batches everywhere move the anchor with them.
    let slower = read(&vec![window(260_000, 900_000); 10]);
    assert_eq!(slower.host_slowdown(), 1.0);
    assert_eq!(slower.p50_ns, 260_000.0);
}

#[test]
fn an_empty_loop_reads_zero() {
    let quiet = read(&[]);
    assert_eq!(
        (quiet.wall_ns, quiet.segment_wall_ns, quiet.p50_ns),
        (0.0, 0.0, 0.0)
    );
    assert_eq!(quiet.host_slowdown(), 1.0);
}
