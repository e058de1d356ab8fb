//! What the harness asks of the operating system: one CPU to run on, the
//! process's CPU time and peak memory, and a description of the host for
//! the results file. Linux only (`/proc`, `sched_setaffinity`); every call
//! degrades to "unknown" instead of failing the run.

use std::time::Duration;

/// The host as recorded in every results file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// `available_parallelism` before pinning (after it, the answer is 1).
    pub cores: usize,
    /// The CPU the process was pinned to, or `None` when pinning failed or
    /// was not asked for; the run then continues un-pinned.
    pub pinned_cpu: Option<usize>,
    /// SIMD features the slab kernels dispatch on.
    pub cpu_features: Vec<&'static str>,
}

impl Host {
    /// Describes the host without changing the process's affinity.
    #[must_use]
    pub fn describe() -> Host {
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pinned_cpu: None,
            cpu_features: cpu_features(),
        }
    }

    /// Describes the host, then pins the calling thread (and every thread
    /// it spawns afterwards) to the highest-numbered CPU it may run on.
    ///
    /// An un-pinned loopback fleet is bimodal on a small VM: a round trip
    /// costs ~19 µs when client and replica threads share a core and
    /// 200–300 µs when the hypervisor has to wake another one. One CPU
    /// takes that wake-up path out of the measurement.
    #[must_use]
    pub fn describe_and_pin() -> Host {
        let mut host = Host::describe();
        host.pinned_cpu = pin_to_last_allowed_cpu();
        host
    }
}

fn cpu_features() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut features = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! detect {
            ($($name:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($name) {
                    features.push($name);
                }
            )*};
        }
        detect!(
            "sse2",
            "popcnt",
            "avx2",
            "bmi2",
            "avx512f",
            "avx512vpopcntdq"
        );
    }
    features
}

/// Bits in the affinity mask handed to the kernel (the kernel accepts any
/// size that covers its own CPU count; 1024 is glibc's `cpu_set_t`).
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
fn pin_to_last_allowed_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; MASK_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes and
    // pid 0 names the calling thread; the kernel writes at most `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)?;
    let mut only = [0u64; MASK_WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of exactly `size` bytes that the
    // kernel only reads.
    (unsafe { sched_setaffinity(0, size, only.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_last_allowed_cpu() -> Option<usize> {
    None
}

/// CPU time the whole process has used so far (every thread, so for the
/// loopback fleet: client plus both replicas):
/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`, the nanosecond-resolution
/// form of `/proc/self/stat`'s `utime + stime`. Zero when the call fails.
#[must_use]
pub fn process_cpu_time() -> Duration {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut now = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `now` is a live, writable `struct timespec` (two 64-bit
        // fields on 64-bit Linux), which is all the call writes.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) } == 0 {
            return Duration::new(
                now.tv_sec.max(0) as u64,
                now.tv_nsec.clamp(0, 999_999_999) as u32,
            );
        }
    }
    Duration::ZERO
}

/// Peak resident set size (`VmHWM`) in MB, or 0 when `/proc` is missing.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `git rev-parse HEAD` of the directory the benchmark runs in, or
/// `"unknown"` outside a git checkout.
#[must_use]
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |rev| rev.trim().to_string())
}
