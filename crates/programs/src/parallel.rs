//! The suite compilation driver and the generic work-stealing scheduler:
//! `std::thread::scope` compilation of suite entries on any number of
//! workers (serial is one), with deterministic result ordering.
//!
//! Workers share the hint databases by reference (`HintDbs` is `Sync`:
//! lemmas and solvers are stateless `Send + Sync` trait objects) but each
//! owns its private `Compiler` state — including the side-condition memo
//! cache — so runs are isolated exactly as on one worker. Results are keyed
//! by job index regardless of OS scheduling, so the output order is input
//! order and a harness comparing one-worker vs many-worker output can
//! `assert_eq!` the two vectors directly.
//!
//! [`run_work_stealing`] is the scheduling primitive everything here (and
//! the service layer's concurrent multi-tenant server) is built on: a
//! hermetic `std::thread::scope` pool where each worker owns a deque of
//! job indices and, when its own deque drains, *steals* from the back of
//! a victim's. Stealing makes mixed workloads (a few long compilations
//! among many cheap cache hits) load-balance without any up-front cost
//! model, while the index-keyed result collection keeps the output
//! deterministic: which worker runs a job is scheduling-dependent, what
//! the job computes and where its result lands is not.

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

use rupicola_core::{compile_with_limits, CompileError, CompiledFunction, EngineLimits, HintDbs};

/// Worker stack size: 16 MiB, comfortably above the deepest suite
/// derivation (`chacha20_block` recurses one frame per statement over a
/// ~670-let spine; the platform default for spawned threads is 2 MiB).
const WORKER_STACK_BYTES: usize = 16 * 1024 * 1024;

/// Runs `f` on a fresh thread with the scheduler's deep stack
/// ([`run_work_stealing`]'s workers get the same) and returns its result.
///
/// The single-threaded escape hatch for the perf suite's deep programs:
/// compiling, evaluating, or re-checking `chacha20_block` recurses one
/// frame per statement, which overflows default-sized stacks (2 MiB
/// spawned, 8 MiB test threads under debug-build frame sizes). Panics in
/// `f` propagate.
pub fn on_deep_stack<T, F>(f: F) -> T
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(WORKER_STACK_BYTES)
            .spawn_scoped(scope, f)
            .expect("failed to spawn deep-stack thread")
            .join()
            .expect("deep-stack closure panicked")
    })
}

/// The process-wide default worker count: `available_parallelism`,
/// probed once (it inspects cgroup quota files on Linux, which costs tens
/// of microseconds per call — comparable to a whole program compile).
pub fn default_workers() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

/// Runs `njobs` jobs (identified by index) on `workers` scoped threads
/// with work stealing, returning the results in job-index order.
///
/// Scheduling: job indices are dealt round-robin into per-worker deques;
/// each worker pops from the *front* of its own deque and, when empty,
/// steals from the *back* of the first non-empty victim. Long jobs
/// therefore migrate work away from their worker automatically — the
/// scheduler needs no estimate of per-job cost. A worker exits when every
/// deque is empty; jobs are never re-queued, so each index runs exactly
/// once.
///
/// Determinism: `run` is called exactly once per index, results are
/// collected per-worker and merged by index, so the returned vector is a
/// pure function of `run` — independent of worker count, steal order, and
/// OS scheduling. `workers <= 1` (or a single job) runs inline without
/// spawning at all.
///
/// # Panics
///
/// Propagates a panicking `run` (after the scope joins the other
/// workers); the debug assertion that every index ran exactly once is a
/// scheduler-bug backstop, not a reachable state.
pub fn run_work_stealing<T, F>(njobs: usize, workers: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if njobs == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, njobs);
    if workers == 1 {
        return (0..njobs).map(run).collect();
    }
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..njobs).step_by(workers).collect()))
        .collect();
    let queues = &queues;
    let run = &run;
    let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                // Explicit 16 MiB stacks: scoped-spawn's platform default
                // (2 MiB) is too small for the perf suite's deepest
                // derivation (`chacha20_block`, a ~670-frame statement
                // judgment), and work stealing means any worker may land
                // on any job.
                let worker = move || {
                    let mut done: Vec<(usize, T)> = Vec::new();
                    loop {
                        // The own-deque pop is its own statement so its
                        // guard drops before any victim is locked: a worker
                        // holding its own lock while stealing deadlocks
                        // against a victim draining at the same moment.
                        let own =
                            queues[w].lock().unwrap_or_else(PoisonError::into_inner).pop_front();
                        let job = own.or_else(|| {
                            (1..workers).find_map(|off| {
                                queues[(w + off) % workers]
                                    .lock()
                                    .unwrap_or_else(PoisonError::into_inner)
                                    .pop_back()
                            })
                        });
                        match job {
                            Some(i) => done.push((i, run(i))),
                            None => return done,
                        }
                    }
                };
                std::thread::Builder::new()
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn_scoped(scope, worker)
                    .expect("failed to spawn work-stealing worker")
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("work-stealing worker panicked"))
            .collect()
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    debug_assert!(
        tagged.iter().enumerate().all(|(at, &(i, _))| at == i),
        "scheduler lost or duplicated a job"
    );
    tagged.into_iter().map(|(_, t)| t).collect()
}

/// The outcome of compiling one suite program.
#[derive(Debug)]
pub struct SuiteResult {
    /// Program name (`ProgramInfo::name`).
    pub name: &'static str,
    /// The compilation outcome.
    pub result: Result<CompiledFunction, CompileError>,
}

/// Compiles `entries` against `dbs` on `workers` work-stealing threads
/// ([`run_work_stealing`]), applying each entry's per-program limits
/// adjustment to `limits`. Results come back in slice order.
///
/// The one suite driver: serial is `workers = 1`, which compiles inline
/// on the calling thread without spawning. Compilation is a pure function
/// of `(model, spec, dbs, limits)` and the scheduler keys results by job
/// index, so the returned vector is the same for every worker count.
/// Each job builds its own `Compiler` (and so its own deadline clock): a
/// deadline bounds each *program's* derivation, not the batch.
pub fn compile_entries(
    entries: &[crate::SuiteEntry],
    dbs: &HintDbs,
    limits: &EngineLimits,
    workers: usize,
) -> Vec<SuiteResult> {
    run_work_stealing(entries.len(), workers, |i| {
        let entry = &entries[i];
        SuiteResult {
            name: entry.info.name,
            result: compile_with_limits(
                &(entry.model)(),
                &(entry.spec)(),
                dbs,
                (entry.limits)(*limits),
            ),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;
    use rupicola_ext::standard_dbs;

    #[test]
    fn work_stealing_runs_every_job_exactly_once_in_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for workers in [1, 2, 3, 7, 16] {
            let calls = AtomicUsize::new(0);
            let out = run_work_stealing(23, workers, |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                // Uneven job costs so stealing actually happens: every
                // eighth job is ~100x the others.
                if i % 8 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(500));
                }
                i * i
            });
            assert_eq!(calls.load(Ordering::Relaxed), 23, "workers={workers}");
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>(), "workers={workers}");
        }
        assert_eq!(run_work_stealing(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn parallel_matches_serial() {
        let dbs = standard_dbs();
        let limits = EngineLimits::default();
        let serial = compile_entries(&suite(), &dbs, &limits, 1);
        let parallel = compile_entries(&suite(), &dbs, &limits, 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(parallel.iter()) {
            assert_eq!(s.name, p.name);
            let (s, p) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
            assert_eq!(s.function, p.function);
            assert_eq!(s.derivation, p.derivation);
        }
    }

    /// Two workers whose deques drain at the same instant must not wait on
    /// each other. Each batch's two jobs spin until both have started, so
    /// both workers look for more work together; the batches run on a
    /// watchdog thread so a deadlock fails the test instead of hanging it.
    #[test]
    fn draining_workers_never_deadlock() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::mpsc::{self, RecvTimeoutError};
        let (tx, rx) = mpsc::channel();
        let batches = std::thread::spawn(move || {
            for _ in 0..10_000 {
                let arrived = AtomicUsize::new(0);
                let out = run_work_stealing(2, 2, |i| {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    while arrived.load(Ordering::SeqCst) < 2 {
                        std::hint::spin_loop();
                    }
                    i
                });
                assert_eq!(out, vec![0, 1]);
            }
            let _ = tx.send(());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(()) | Err(RecvTimeoutError::Disconnected) => {
                batches.join().expect("a stress batch panicked");
            }
            // The hung batch thread is left behind: it can never be joined.
            Err(RecvTimeoutError::Timeout) => {
                panic!("two workers draining at once deadlocked the scheduler")
            }
        }
    }
}
