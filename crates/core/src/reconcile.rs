//! The background reconciler: a cadence thread for `&self`-only servers.
//!
//! The pin-once pipeline defers all authoritative mutation to the next
//! `&mut` entry point ([`GhbaCluster::drain_concurrent`]): perfect for
//! batch drivers that alternate executing and inspecting, but a
//! long-running server that only ever touches its cluster through
//! `&self` ([`execute_concurrent`]) would accumulate namespace shard
//! logs without bound. [`Reconciler`] owns that drain on a dedicated
//! thread: it wakes at a fixed cadence (the publish cadence, typically),
//! runs the caller's reconciliation closure, and goes back to sleep.
//!
//! The closure is the whole contract — the reconciler knows nothing of
//! clusters. The network replica (the first consumer) passes a closure
//! that write-locks its shared cluster and, under that lock, runs the two
//! halves of a tick: the drain
//! ([`drain_concurrent`](GhbaCluster::drain_concurrent): fold stats, take
//! the shard logs, WAL append, replay — it publishes nothing) and the
//! flush (`flush_all_updates`: its WAL flush record when it will change
//! anything — else only a due group-commit sync — then every drifted
//! filter's delta through the one column publisher, as one successor
//! snapshot). Batches wait that long: on the benchmark's `net_mixed`
//! fleet (24 servers per replica, 25 ms cadence, one shared CPU) the lock
//! is held ≈ 1.3 ms per tick — ≈ 0.65 ms draining ≈ 550 records and
//! ≈ 0.6 ms flushing: 0.25 ms collecting the 24 servers' deltas
//! (`Mds::publish`, ≈ 10 µs each), 0.25 ms in the one commit (every
//! delta applied to the spare slab and, after the swap, to the displaced
//! one) and 0.03 ms of fan-out accounting. It was ≈ 1.9 ms (0.6 ms +
//! 1.3 ms) while the flush was 24 `push_update`s — 24 writer locks,
//! working copies and swaps, each parking a freshly zeroed 1 MB
//! placeholder in the spare — and 9.9 ms when it still re-projected
//! every live filter and rewrote whole slab words.
//!
//! The thread sleeps `cadence` *after* each tick, so the real period is
//! cadence + tick time (+ scheduling).
//!
//! Shutdown is prompt and joining: [`Reconciler::shutdown`] (or drop)
//! signals a condvar, so the thread exits within one lock handoff even
//! mid-sleep — never a full cadence later. One final tick runs before
//! the thread exits so no pending state is stranded by teardown.
//!
//! [`GhbaCluster::drain_concurrent`]: crate::GhbaCluster::drain_concurrent
//! [`execute_concurrent`]: crate::MetadataService::execute_concurrent

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

#[derive(Default)]
struct Signal {
    state: Mutex<State>,
    wake: Condvar,
}

#[derive(Default)]
struct State {
    stop: bool,
    /// Crash semantics: skip the final shutdown tick too (see
    /// [`Reconciler::abort`]).
    abandon: bool,
}

/// A dedicated thread running a reconciliation closure at a fixed
/// cadence (see the module docs).
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let drains = Arc::new(AtomicU64::new(0));
/// let counter = Arc::clone(&drains);
/// let reconciler = ghba_core::Reconciler::spawn(Duration::from_millis(1), move || {
///     counter.fetch_add(1, Ordering::Relaxed);
/// });
/// reconciler.shutdown(); // joins; a final tick has run
/// assert!(drains.load(Ordering::Relaxed) >= 1);
/// ```
#[derive(Debug)]
pub struct Reconciler {
    signal: Arc<Signal>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Signal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Signal").finish_non_exhaustive()
    }
}

impl Reconciler {
    /// Spawns the cadence thread: `tick` runs once every `cadence`, plus
    /// one final time during shutdown.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn a thread.
    #[must_use]
    pub fn spawn(cadence: Duration, mut tick: impl FnMut() + Send + 'static) -> Self {
        let signal = Arc::new(Signal::default());
        let thread_signal = Arc::clone(&signal);
        let handle = std::thread::Builder::new()
            .name("ghba-reconciler".into())
            .spawn(move || {
                let mut state = thread_signal.state.lock().expect("reconciler signal");
                loop {
                    if state.stop {
                        break;
                    }
                    let (next, timeout) = thread_signal
                        .wake
                        .wait_timeout(state, cadence)
                        .expect("reconciler signal");
                    state = next;
                    if state.stop {
                        break;
                    }
                    if !timeout.timed_out() {
                        // Spurious wakeup: the cadence has not elapsed —
                        // sleep again.
                        continue;
                    }
                    drop(state);
                    tick();
                    state = thread_signal.state.lock().expect("reconciler signal");
                }
                let abandon = state.abandon;
                drop(state);
                if abandon {
                    return;
                }
                // The shutdown tick: drain whatever accumulated since
                // the last cadence so teardown strands nothing.
                tick();
            })
            .expect("spawn reconciler thread");
        Reconciler {
            signal,
            handle: Some(handle),
        }
    }

    /// Stops the cadence thread and joins it. The thread runs one final
    /// tick on its way out; when `shutdown` returns, no further tick
    /// will ever run. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if the reconciliation closure panicked on the thread.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    /// Stops the cadence thread **without** the final tick — fault
    /// injection's kill switch. State the closure would have reconciled
    /// stays stranded, exactly as a crash would strand it; pair with a
    /// WAL-backed cluster to exercise recovery. Joins before returning.
    ///
    /// # Panics
    ///
    /// Panics if the reconciliation closure panicked on the thread.
    pub fn abort(mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        {
            let mut state = self.signal.state.lock().expect("reconciler signal");
            state.stop = true;
            state.abandon = true;
        }
        self.signal.wake.notify_one();
        handle.join().expect("reconciler thread panicked");
    }

    fn shutdown_in_place(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        {
            let mut state = self.signal.state.lock().expect("reconciler signal");
            state.stop = true;
        }
        self.signal.wake.notify_one();
        handle.join().expect("reconciler thread panicked");
    }
}

impl Drop for Reconciler {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    #[test]
    fn shutdown_joins_promptly_mid_sleep() {
        // A cadence far longer than the test: shutdown must interrupt
        // the sleep, not wait it out.
        let reconciler = Reconciler::spawn(Duration::from_secs(300), || {});
        let start = Instant::now();
        reconciler.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "shutdown waited on the cadence instead of the condvar"
        );
    }

    #[test]
    fn cadence_drives_ticks() {
        let count = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&count);
        let reconciler = Reconciler::spawn(Duration::from_millis(2), move || {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        while count.load(Ordering::Relaxed) < 3 {
            assert!(Instant::now() < deadline, "cadence never fired");
            std::thread::sleep(Duration::from_millis(2));
        }
        reconciler.shutdown();
    }

    #[test]
    fn shutdown_runs_a_final_tick_and_drop_is_idempotent() {
        let count = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&count);
        let reconciler = Reconciler::spawn(Duration::from_secs(300), move || {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        reconciler.shutdown();
        // No cadence fired; exactly the shutdown tick ran.
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn abort_skips_the_final_tick() {
        let count = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&count);
        let reconciler = Reconciler::spawn(Duration::from_secs(300), move || {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        reconciler.abort();
        // Crash semantics: nothing ran — not even the teardown drain.
        assert_eq!(count.load(Ordering::Relaxed), 0);
    }
}
