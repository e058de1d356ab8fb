//! The data-parallel batch execution engine: a persistent, process-wide
//! `std::thread` worker pool that fans independent jobs out and joins
//! them before returning.
//!
//! # Why a pool, and why here
//!
//! Every hot path of the lookup pipeline is batched and SIMD-dispatched,
//! but a batch still drains on one core. The published slab is
//! read-shared and the per-query verdicts of a fused lookup run are
//! independent, so the walk is embarrassingly parallel across
//! fingerprints — the schemes split a large run into per-worker chunks,
//! each walked against `&self` with its own arena, and hand the chunk
//! closures to [`run_jobs`]. The pool is **zero-dependency**
//! (std threads, a mutex-guarded injector queue, a condvar — no rayon)
//! and **persistent**: worker threads are spawned on first use, parked
//! between calls, and reused by every cluster and bench in the
//! process, so a steady stream of batches never pays thread spawns.
//!
//! # Execution contract
//!
//! [`run_jobs`] takes a `Vec` of `FnOnce` jobs borrowing arbitrarily
//! short-lived data and returns only when **every** job has finished:
//!
//! * job 0 always runs inline on the calling thread (so `workers = 1`
//!   degenerates to a plain call with no pool involvement at all);
//! * jobs 1..N are pushed to the shared injector queue and executed by
//!   parked pool workers;
//! * after finishing its inline job the caller *steals* still-queued
//!   jobs and runs them itself — the pool therefore guarantees progress
//!   even with zero worker threads (spawn failure, exhausted pool), and
//!   a caller never idles while its own work is queued;
//! * a panicking job does not tear anything down: the panic payload is
//!   carried back and **re-raised on the calling thread** after all
//!   sibling jobs completed (the lowest job index wins when several
//!   panic, so propagation is deterministic). Pool workers survive
//!   panics and return to the queue.
//!
//! The wait-for-all rule is what makes the internal lifetime erasure
//! sound — no borrow handed to a job can outlive the `run_jobs` call,
//! panics included — and what makes the callers' *stream-order splice*
//! simple: by the time `run_jobs` returns, every chunk's verdicts are
//! fully written and can be stitched back together in batch order.
//!
//! # Use from `&self`
//!
//! Nothing in the engine requires `&mut` anything: the schemes' one
//! pinned walk dispatches from a shared reference through
//! `run_deduped`. The inline chunk works in the caller's memo (for the
//! walk, the plan its pin keeps across runs); pool chunks get results +
//! memo local to the call; the closures capture only `&self` and the
//! pinned snapshot, both `Sync`. The allocation is a few `Vec`s per
//! run, a fraction of the walk cost, and in exchange any number of
//! threads can drive runs through one scheme concurrently.
//!
//! # Non-goals
//!
//! Jobs must not call [`run_jobs`] recursively from inside a pool
//! worker (a worker waiting on sub-jobs would occupy a slot the
//! sub-jobs may need; the caller-steals rule keeps it live-locked-free
//! but slow). The lookup pipeline never nests: schemes dispatch chunks,
//! chunks never dispatch.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Condvar, Mutex, OnceLock};

use ghba_bloom::BuildLaneHasher;

/// A caught panic payload, en route back to the dispatching thread.
type Panic = Box<dyn std::any::Any + Send + 'static>;

/// A job as it travels through the injector queue: the closure (its
/// borrow lifetime erased — see the safety argument in [`run_jobs`]),
/// its index within the dispatching call, and the completion channel.
struct Task {
    job: Box<dyn FnOnce() + Send + 'static>,
    index: usize,
    done: Sender<(usize, Option<Panic>)>,
}

/// Hard ceiling on pool threads, process-wide. Worker counts above the
/// machine's core count only add scheduling noise, and the caller-steals
/// rule keeps any request fully serviceable regardless of this cap.
const MAX_POOL_THREADS: usize = 32;

struct PoolState {
    queue: VecDeque<Task>,
    /// Worker threads ever spawned (they never exit).
    spawned: usize,
    /// Workers currently parked on the condvar.
    idle: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    available: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            queue: VecDeque::new(),
            spawned: 0,
            idle: 0,
        }),
        available: Condvar::new(),
    })
}

/// Runs one task to completion, always reporting back — a panicking job
/// sends its payload instead of unwinding the worker.
fn run_task(task: Task) {
    let Task { job, index, done } = task;
    let result = catch_unwind(AssertUnwindSafe(job));
    // A closed channel means the dispatcher is gone mid-wait, which the
    // wait-for-all discipline rules out; ignore rather than unwind.
    let _ = done.send((index, result.err()));
}

/// The persistent worker body: pop a task or park.
fn worker_loop() {
    let pool = pool();
    loop {
        let task = {
            let mut state = pool.state.lock().expect("pool lock");
            loop {
                if let Some(task) = state.queue.pop_front() {
                    break task;
                }
                state.idle += 1;
                state = pool.available.wait(state).expect("pool lock");
                state.idle -= 1;
            }
        };
        run_task(task);
    }
}

/// Executes every job to completion, fanning jobs 1..N out to the
/// persistent pool while job 0 runs on the calling thread; returns (or
/// resumes the lowest-index panic) only after **all** jobs finished.
///
/// See the module docs for the full contract. The jobs may borrow data
/// of any lifetime — the call's wait-for-all discipline bounds every
/// borrow.
pub fn run_jobs(jobs: Vec<Box<dyn FnOnce() + Send + '_>>) {
    let total = jobs.len();
    let mut jobs = jobs;
    if total == 0 {
        return;
    }
    if total == 1 {
        // The sequential degenerate case: no queue, no channel, no pool.
        (jobs.pop().expect("one job"))();
        return;
    }
    let pool = pool();
    let (done_tx, done_rx) = channel();
    let mut iter = jobs.into_iter();
    let inline = iter.next().expect("total >= 2");
    {
        let mut state = pool.state.lock().expect("pool lock");
        for (offset, job) in iter.enumerate() {
            // SAFETY: the erased borrows inside `job` stay valid for the
            // whole `run_jobs` call, and this function does not return —
            // normally or by unwinding — until it has received one
            // completion per dispatched task (each sent only *after* its
            // job ran or panicked). No dispatched closure can therefore
            // be executed, or even dropped, after the borrowed data goes
            // out of scope.
            #[allow(unsafe_code)]
            let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
            state.queue.push_back(Task {
                job,
                index: offset + 1,
                done: done_tx.clone(),
            });
        }
        // Top the pool up so every queued task *can* run concurrently;
        // failures and the cap are harmless thanks to caller stealing.
        // The slots are reserved under the lock but the spawn syscalls
        // run outside it, so concurrent dispatchers and popping workers
        // never serialize behind thread creation.
        let deficit = (total - 1)
            .saturating_sub(state.idle)
            .min(MAX_POOL_THREADS.saturating_sub(state.spawned));
        state.spawned += deficit;
        drop(state);
        pool.available.notify_all();
        let mut failed = 0usize;
        for _ in 0..deficit {
            if std::thread::Builder::new()
                .name("ghba-exec".into())
                .spawn(worker_loop)
                .is_err()
            {
                failed += 1;
            }
        }
        if failed > 0 {
            pool.state.lock().expect("pool lock").spawned -= failed;
        }
    }

    // Deterministic propagation: the lowest-index panic wins.
    let mut first_panic: Option<(usize, Panic)> = None;
    let note_panic = |index: usize, payload: Panic, slot: &mut Option<(usize, Panic)>| {
        if slot.as_ref().is_none_or(|(at, _)| index < *at) {
            *slot = Some((index, payload));
        }
    };
    if let Err(payload) = catch_unwind(AssertUnwindSafe(inline)) {
        note_panic(0, payload, &mut first_panic);
    }
    // Steal still-queued tasks (ours or a concurrent caller's): progress
    // never depends on pool threads existing, and the caller contributes
    // instead of idling.
    loop {
        let stolen = pool.state.lock().expect("pool lock").queue.pop_front();
        match stolen {
            Some(task) => run_task(task),
            None => break,
        }
    }
    for _ in 0..total - 1 {
        let (index, panicked) = done_rx
            .recv()
            .expect("every dispatched task reports completion");
        if let Some(payload) = panicked {
            note_panic(index, payload, &mut first_panic);
        }
    }
    if let Some((_, payload)) = first_panic {
        resume_unwind(payload);
    }
}

/// Splits `total` items into `workers` contiguous chunks of near-equal
/// size, returning the chunk length (the last chunk may be shorter).
/// Used by the parallel walk so the partitioning — and with it the
/// chunk-local plan boundaries — is uniform.
#[must_use]
pub fn chunk_len(total: usize, workers: usize) -> usize {
    total.div_ceil(workers.max(1)).max(1)
}

/// Cross-chunk deduplication for batched walks whose read phase is a
/// pure function of a per-item key: returns `(uniques, assign)` where
/// `uniques` lists the index of the **first occurrence** of each
/// distinct key in item order, and `assign[i]` is the position within
/// `uniques` owning item `i`'s key. Callers walk only
/// `uniques`-selected items and fan each result back out through
/// `assign` — duplicates landing in *different* workers' chunks (which
/// chunk-local plans cannot see) are resolved exactly once.
///
/// With no duplicate keys, `uniques` is `0..items.len()` and `assign`
/// is the identity, so the fast path costs one hash-map pass — under
/// [`BuildLaneHasher`]: the walk's key hashes its admission fingerprint
/// (`WalkKey`), not its path bytes.
pub fn resolve_unique<T, K, F>(items: &[T], key: F) -> (Vec<u32>, Vec<u32>)
where
    K: std::hash::Hash + Eq,
    F: Fn(&T) -> K,
{
    let mut slots =
        std::collections::HashMap::with_capacity_and_hasher(items.len(), BuildLaneHasher);
    let mut uniques = Vec::with_capacity(items.len());
    let mut assign = Vec::with_capacity(items.len());
    for (index, item) in items.iter().enumerate() {
        let next = uniques.len() as u32;
        let slot = *slots.entry(key(item)).or_insert_with(|| {
            uniques.push(index as u32);
            next
        });
        assign.push(slot);
    }
    (uniques, assign)
}

/// Walks a run of `items` once per distinct `key`, chunked across the
/// pool — the one chunk-dispatch shape of the read phase.
/// [`resolve_unique`] dedup; then, gated on `executor` (`workers = 1` or
/// a sub-`min_parallel_batch` run is a single inline chunk with no pool
/// involvement), contiguous per-worker chunks run as
/// `walk(chunk, memo, out)` — appending one result per chunk item —
/// through [`run_jobs`] (chunk 0 inline, the rest on the pool;
/// wait-for-all; deterministic panic propagation). `memo` is whatever
/// `walk` wants to reuse between items: chunk 0 — the whole run unless
/// it fans out — gets the **caller's**, so a caller that keeps it across
/// runs amortises it over all of them; pool chunks get a chunk-local
/// default each.
///
/// Returns `(resolved, assign)` — `resolved` holds one result per
/// distinct key in first-occurrence order and `assign[i]` indexes the
/// result answering `items[i]`, so the caller splices per occurrence in
/// stream order. A single item walks inline with no dedup or dispatch
/// plumbing.
pub(crate) fn run_deduped<T, K, M, R, F>(
    items: &[T],
    executor: crate::config::ExecutorConfig,
    key: impl Fn(&T) -> K,
    memo: &mut M,
    walk: F,
) -> (Vec<R>, Vec<u32>)
where
    T: Copy + Sync,
    K: std::hash::Hash + Eq,
    M: Send + Default,
    R: Send,
    F: Fn(&[T], &mut M, &mut Vec<R>) + Sync,
{
    let mut resolved = Vec::new();
    if items.len() == 1 {
        walk(items, memo, &mut resolved);
        return (resolved, vec![0]);
    }
    let (uniques, assign) = resolve_unique(items, key);
    let deduped: Vec<T> = uniques.iter().map(|&first| items[first as usize]).collect();
    let total = deduped.len();
    let workers = executor.workers.min(total);
    if workers <= 1 || total < executor.min_parallel_batch {
        walk(&deduped, memo, &mut resolved);
        return (resolved, assign);
    }
    let mut chunks = deduped.chunks(chunk_len(total, workers));
    let head = chunks.next().expect("a parallel run has items");
    let mut tails: Vec<(Vec<R>, M)> = Vec::new();
    tails.resize_with(chunks.len(), Default::default);
    let walk = &walk;
    let inline: Box<dyn FnOnce() + Send + '_> = Box::new(|| walk(head, memo, &mut resolved));
    let pooled = chunks.zip(&mut tails).map(|(chunk, (out, memo))| {
        Box::new(move || walk(chunk, memo, out)) as Box<dyn FnOnce() + Send + '_>
    });
    run_jobs(std::iter::once(inline).chain(pooled).collect());
    resolved.extend(tails.into_iter().flat_map(|(out, _)| out));
    debug_assert_eq!(resolved.len(), total);
    (resolved, assign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn resolve_unique_identity_without_duplicates() {
        let items = ["a", "b", "c"];
        let (uniques, assign) = resolve_unique(&items, |s| *s);
        assert_eq!(uniques, vec![0, 1, 2]);
        assert_eq!(assign, vec![0, 1, 2]);
    }

    #[test]
    fn resolve_unique_maps_duplicates_to_first_occurrence() {
        let items = ["x", "y", "x", "z", "y", "x"];
        let (uniques, assign) = resolve_unique(&items, |s| *s);
        assert_eq!(uniques, vec![0, 1, 3]);
        assert_eq!(assign, vec![0, 1, 0, 2, 1, 0]);
        for (i, &slot) in assign.iter().enumerate() {
            assert_eq!(items[uniques[slot as usize] as usize], items[i]);
        }
    }

    /// The walk's key: equal `(entry, lane)` with different paths (a
    /// forged lane collision) stay two walks; true repeats still merge,
    /// and a repeat at another entry does not.
    #[test]
    fn resolve_unique_compares_paths_on_equal_lanes() {
        use crate::ids::MdsId;
        use crate::op::{WalkItem, WalkKey};
        use ghba_bloom::Fingerprint;
        let fp = Fingerprint::from_lanes(42, 0);
        let items: [WalkItem<'_>; 4] = [
            (MdsId(1), "/a", fp),
            (MdsId(1), "/b", fp),
            (MdsId(1), "/a", fp),
            (MdsId(2), "/a", fp),
        ];
        let (uniques, assign) = resolve_unique(&items, WalkKey::of);
        assert_eq!(uniques, vec![0, 1, 3]);
        assert_eq!(assign, vec![0, 1, 0, 2]);
    }

    #[test]
    fn resolve_unique_empty() {
        let (uniques, assign) = resolve_unique::<u32, u32, _>(&[], |&v| v);
        assert!(uniques.is_empty());
        assert!(assign.is_empty());
    }

    #[test]
    fn empty_and_single_job_run_inline() {
        run_jobs(Vec::new());
        let mut hit = false;
        run_jobs(vec![Box::new(|| hit = true)]);
        assert!(hit);
    }

    #[test]
    fn all_jobs_run_and_borrow_locals() {
        let mut outs = vec![0u64; 9];
        let counter = AtomicUsize::new(0);
        {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = outs
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    let counter = &counter;
                    Box::new(move || {
                        *slot = (i as u64 + 1) * 10;
                        counter.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            run_jobs(jobs);
        }
        assert_eq!(counter.load(Ordering::SeqCst), 9);
        assert_eq!(outs, vec![10, 20, 30, 40, 50, 60, 70, 80, 90]);
    }

    #[test]
    fn pool_is_reusable_across_calls() {
        for round in 0..20 {
            let mut outs = [0usize; 5];
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = outs
                .iter_mut()
                .map(|slot| Box::new(move || *slot = round + 1) as Box<dyn FnOnce() + Send + '_>)
                .collect();
            run_jobs(jobs);
            assert!(outs.iter().all(|&v| v == round + 1));
        }
    }

    #[test]
    fn panic_in_pool_job_propagates_after_siblings_finish() {
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..6)
                .map(|i| {
                    let finished = &finished;
                    Box::new(move || {
                        if i == 3 {
                            panic!("poisoned worker {i}");
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            run_jobs(jobs);
        }));
        let payload = result.expect_err("the poisoned job must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("poisoned worker 3"), "got: {message}");
        // Every sibling ran to completion before the unwind reached us.
        assert_eq!(finished.load(Ordering::SeqCst), 5);
        // The pool survives a poisoned batch.
        let mut ok = [false; 4];
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = ok
            .iter_mut()
            .map(|slot| Box::new(move || *slot = true) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        run_jobs(jobs);
        assert!(ok.iter().all(|&v| v));
    }

    #[test]
    fn inline_job_panic_still_waits_for_pool_jobs() {
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                .map(|i| {
                    let finished = &finished;
                    Box::new(move || {
                        if i == 0 {
                            panic!("inline poison");
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            run_jobs(jobs);
        }));
        assert!(result.is_err());
        assert_eq!(finished.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn lowest_index_panic_wins() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..5)
                .map(|i| {
                    Box::new(move || {
                        if i >= 2 {
                            panic!("job {i} failed");
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            run_jobs(jobs);
        }));
        let payload = result.expect_err("panics expected");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(message, "job 2 failed");
    }

    #[test]
    fn chunking_covers_every_item() {
        assert_eq!(chunk_len(128, 4), 32);
        assert_eq!(chunk_len(130, 4), 33);
        assert_eq!(chunk_len(3, 8), 1);
        assert_eq!(chunk_len(5, 0), 5);
        assert_eq!(chunk_len(0, 4), 1);
    }
}
