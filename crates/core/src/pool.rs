//! The workspace-wide bounded worker pool, served by a **persistent
//! executor**.
//!
//! Every parallel grid in the experiment runners — and the sharded batch
//! path of [`crate::engine::InferenceEngine`] — draws its concurrency from
//! one shared budget, the *jobs* knob, instead of each call site spawning
//! an unbounded `std::thread::scope` of its own. This is what keeps a
//! `paper_tables`-style run (six runners, each fanning out per
//! model/variant) from oversubscribing the machine.
//!
//! The knob resolves in priority order:
//!
//! 1. [`set_jobs`] — an explicit programmatic override (e.g. a `--jobs`
//!    CLI flag, as in the `paper_tables` example);
//! 2. the `OPLIX_JOBS` environment variable;
//! 3. [`std::thread::available_parallelism`].
//!
//! # The persistent executor
//!
//! Earlier revisions spawned a fresh `std::thread::scope` of workers per
//! [`run_scoped`] call. That is fine for coarse experiment grids (a few
//! launches per run) but dominates fine-grained kernel-level task lists,
//! where a batch of sub-millisecond tasks pays tens of microseconds of
//! thread launch each call. The pool now keeps a set of **lazily spawned,
//! persistent worker threads** that park on a global injector queue:
//!
//! * a [`run_scoped`] call that is granted `g > 1` workers publishes
//!   `g − 1` *job handles* to the injector and then works through its own
//!   task queue on the calling thread;
//! * idle workers pop job handles and *steal* tasks from that call's
//!   shared task queue until it is empty;
//! * before blocking, the caller cancels any of its job handles that no
//!   worker has picked up yet (they would find an empty queue anyway), so
//!   a call never waits on a busy executor — which also makes nested
//!   calls deadlock-free by construction;
//! * results land in per-task slots, so they come back **in task order**
//!   regardless of completion order, and task panics are re-raised on the
//!   caller (lowest task index wins).
//!
//! The budget contract is unchanged: at most [`jobs`] tasks run
//! concurrently process-wide (workers beyond the budget stay parked), a
//! call that finds the budget exhausted runs inline on the caller's
//! thread, and a `--jobs 1` run is exactly the sequential program.
//!
//! ```
//! use oplixnet::pool;
//!
//! let squares = pool::parallel_map(vec![1u64, 2, 3, 4], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// The programmatic override; 0 means "unset, fall back to the
/// environment / hardware".
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Worker budget currently reserved across every [`run_scoped`] call in
/// the process. Nested calls (an engine sharding inside a grid arm)
/// reserve from the same budget, so concurrent workers stay ≈ [`jobs`]
/// instead of multiplying per nesting level.
static ACTIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Persistent executor threads ever spawned (they never exit).
static WORKERS_ALIVE: AtomicUsize = AtomicUsize::new(0);

/// Hard ceiling on persistent executor threads, a safety net well above
/// any sane `--jobs` value.
const MAX_EXECUTOR_WORKERS: usize = 256;

/// A granted share of the global worker budget; returns it on drop (also
/// on unwind, so a panicking task cannot leak budget).
struct Reservation(usize);

impl Drop for Reservation {
    fn drop(&mut self) {
        if self.0 > 0 {
            ACTIVE_WORKERS.fetch_sub(self.0, Ordering::SeqCst);
        }
    }
}

/// Reserves up to `wanted` workers from whatever the budget has left.
fn reserve_workers(wanted: usize) -> Reservation {
    let budget = jobs();
    let mut granted = 0;
    let _ = ACTIVE_WORKERS.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |active| {
        granted = budget.saturating_sub(active).min(wanted);
        Some(active + granted)
    });
    Reservation(granted)
}

/// Overrides the worker budget for the whole process (clamped to ≥ 1).
/// Call this from a `--jobs` CLI flag before running experiment grids.
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::SeqCst);
}

/// The current worker budget: [`set_jobs`] if called, else the
/// `OPLIX_JOBS` environment variable, else the machine's available
/// parallelism (and 1 if even that is unknown).
pub fn jobs() -> usize {
    let j = JOBS.load(Ordering::SeqCst);
    if j > 0 {
        return j;
    }
    if let Some(n) = std::env::var("OPLIX_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return n;
    }
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// A long-lived, best-effort claim of one slot of the shared worker
/// budget, held by resident service threads — e.g. the batcher thread of
/// a [`crate::serve::Server`] — for as long as they live. While the slot
/// is held, [`run_scoped`] grants callers one worker fewer, so a serving
/// front end running next to experiment grids keeps total concurrency at
/// ≈ [`jobs`] instead of oversubscribing by one thread per server.
///
/// The claim is best-effort: if the budget is already exhausted the slot
/// holds nothing (see [`ServiceSlot::granted`]) and the service thread
/// simply rides on the OS scheduler. The slot returns its share on drop.
pub struct ServiceSlot(Reservation);

impl ServiceSlot {
    /// Whether the slot actually obtained a budget share.
    pub fn granted(&self) -> bool {
        self.0 .0 > 0
    }
}

/// Claims one slot of the shared worker budget for a resident service
/// thread (best-effort; see [`ServiceSlot`]).
pub fn reserve_service_slot() -> ServiceSlot {
    ServiceSlot(reserve_workers(1))
}

/// How many persistent executor threads are currently alive. Workers are
/// spawned lazily by the first [`run_scoped`] call granted more than one
/// budget slot and then persist for the process lifetime, parked on the
/// injector when idle — this is what amortises thread launches across
/// fine-grained task lists.
pub fn workers_alive() -> usize {
    WORKERS_ALIVE.load(Ordering::SeqCst)
}

// ---------------------------------------------------------------------------
// Executor internals
// ---------------------------------------------------------------------------

/// A batch's shared task queue, type-erased so persistent workers can
/// drain it. Tasks are unit closures that write their result (or stash
/// their panic) into caller-owned slots; they are constructed to never
/// unwind.
struct SharedBatch {
    queue: Mutex<Vec<Box<dyn FnOnce() + Send>>>,
}

impl SharedBatch {
    /// Runs tasks until the queue is empty. Called concurrently by the
    /// owning caller and by any worker that picked up one of the batch's
    /// job handles — this is the "stealing": whichever thread gets the
    /// lock next takes the next task.
    fn drain(&self) {
        loop {
            let task = self.queue.lock().expect("pool batch queue").pop();
            match task {
                Some(task) => task(),
                None => break,
            }
        }
    }
}

/// Completion latch for one batch's published job handles.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut r = self.remaining.lock().expect("pool latch");
        *r -= 1;
        if *r == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut r = self.remaining.lock().expect("pool latch");
        while *r > 0 {
            r = self.done.wait(r).expect("pool latch");
        }
    }
}

/// A handle published to the injector: "come steal tasks from this
/// batch". The raw pointer is kept alive by the publishing `run_scoped`
/// call, which does not return until `latch` confirms every published
/// handle was either executed or cancelled.
struct JobRef {
    batch: *const SharedBatch,
    latch: Arc<Latch>,
}

// SAFETY: the pointee is a `Sync` structure (a mutex-guarded queue of
// `Send` closures) owned by the publishing call's stack frame, which
// outlives every access — see the latch protocol in `run_scoped`.
unsafe impl Send for JobRef {}

/// The global injector persistent workers park on.
struct Injector {
    queue: Mutex<VecDeque<JobRef>>,
    available: Condvar,
}

fn injector() -> &'static Injector {
    static INJECTOR: OnceLock<Injector> = OnceLock::new();
    INJECTOR.get_or_init(|| Injector {
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
    })
}

/// The persistent worker body: pop a job handle, steal tasks from its
/// batch until the batch queue is dry, report completion, park again.
fn worker_loop() {
    let inj = injector();
    loop {
        let job = {
            let mut q = inj.queue.lock().expect("pool injector");
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                q = inj.available.wait(q).expect("pool injector");
            }
        };
        // SAFETY: the publishing `run_scoped` call blocks until this
        // handle's latch is counted down, so `job.batch` is alive (and its
        // borrows valid) for the whole `drain`.
        unsafe { (*job.batch).drain() };
        job.latch.count_down();
    }
}

/// Lazily grows the persistent worker set towards `wanted` threads;
/// returns how many are alive afterwards.
fn ensure_workers(wanted: usize) -> usize {
    static SPAWN: Mutex<()> = Mutex::new(());
    let _guard = SPAWN.lock().expect("pool spawn lock");
    let target = wanted.min(MAX_EXECUTOR_WORKERS);
    while WORKERS_ALIVE.load(Ordering::SeqCst) < target {
        match thread::Builder::new()
            .name("oplix-pool".into())
            .spawn(worker_loop)
        {
            Ok(_) => {
                WORKERS_ALIVE.fetch_add(1, Ordering::SeqCst);
            }
            Err(_) => break, // OS refused a thread: degrade gracefully.
        }
    }
    WORKERS_ALIVE.load(Ordering::SeqCst)
}

/// Runs a list of tasks with at most [`jobs`] concurrent workers *process
/// wide*, returning their results in task order.
///
/// Tasks may borrow from the caller's stack. With a single-slot grant —
/// or a single task — everything runs inline on the caller's thread, so a
/// `--jobs 1` run is exactly the sequential program. Otherwise the
/// persistent executor's workers steal tasks from this call's queue while
/// the caller works through it too; see the module docs for the
/// publish/steal/cancel protocol.
///
/// # Panics
///
/// Propagates the panic of any task (the remaining tasks still run to
/// completion first; the panic of the lowest-indexed failing task wins).
pub fn run_scoped<'env, T: Send + 'env>(
    tasks: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
) -> Vec<T> {
    let n = tasks.len();
    if n == 0 {
        return Vec::new();
    }
    let reservation = reserve_workers(jobs().min(n));
    let granted = reservation.0;
    if granted <= 1 {
        // Inline on the caller's thread: hand any granted budget straight
        // back, no executor involvement.
        drop(reservation);
        return tasks.into_iter().map(|t| t()).collect();
    }

    // Per-task result slots (task order) and the first-panic store.
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    type PanicPayload = Box<dyn Any + Send + 'static>;
    let panic_store: Mutex<Option<(usize, PanicPayload)>> = Mutex::new(None);

    // Wrap every task into a unit closure that records its outcome and
    // never unwinds (workers must never die to a user panic).
    let unit_tasks: Vec<Box<dyn FnOnce() + Send + '_>> = tasks
        .into_iter()
        .enumerate()
        .map(|(i, task)| {
            let results = &results;
            let panic_store = &panic_store;
            Box::new(move || match catch_unwind(AssertUnwindSafe(task)) {
                Ok(v) => *results[i].lock().expect("pool result slot") = Some(v),
                Err(payload) => {
                    let mut slot = panic_store.lock().expect("pool panic slot");
                    let replace = match slot.as_ref() {
                        Some((j, _)) => i < *j,
                        None => true,
                    };
                    if replace {
                        *slot = Some((i, payload));
                    }
                }
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();

    // SAFETY (lifetime erasure): the closures borrow `results`,
    // `panic_store` and the caller's `'env` state. Persistent workers only
    // reach them through `JobRef`s published below, and this function does
    // not return before `latch.wait()` confirms every published handle was
    // executed or cancelled — after which no worker holds a reference. The
    // transmute only widens the trait-object lifetime bound; the layout is
    // identical.
    let static_tasks: Vec<Box<dyn FnOnce() + Send + 'static>> = unsafe {
        std::mem::transmute::<Vec<Box<dyn FnOnce() + Send + '_>>, Vec<Box<dyn FnOnce() + Send>>>(
            unit_tasks,
        )
    };
    let shared = SharedBatch {
        queue: Mutex::new(static_tasks),
    };

    // Publish one job handle per granted helper (the caller is the
    // remaining worker). If the executor cannot field a single thread,
    // skip publishing; the caller drains everything inline.
    let helpers = if ensure_workers(granted - 1) == 0 {
        0
    } else {
        granted - 1
    };
    let latch = Arc::new(Latch::new(helpers));
    if helpers > 0 {
        let inj = injector();
        let mut q = inj.queue.lock().expect("pool injector");
        for _ in 0..helpers {
            q.push_back(JobRef {
                batch: &shared as *const SharedBatch,
                latch: Arc::clone(&latch),
            });
        }
        drop(q);
        inj.available.notify_all();
    }

    // The caller is a worker too: steal tasks until the queue is dry.
    shared.drain();

    // Cancel job handles no worker picked up (the queue is empty, so they
    // would be no-ops) instead of waiting for busy workers to get to them
    // — this is what makes nested calls deadlock-free.
    if helpers > 0 {
        let mut q = injector().queue.lock().expect("pool injector");
        q.retain(|job| {
            if std::ptr::eq(job.batch, &shared) {
                job.latch.count_down();
                false
            } else {
                true
            }
        });
        drop(q);
        // Wait for the handles that *were* picked up: their workers are
        // draining a now-empty queue and finish promptly.
        latch.wait();
    }

    if let Some((_, payload)) = panic_store.into_inner().expect("pool panic slot") {
        resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("pool result slot")
                .expect("every task ran")
        })
        .collect()
}

/// Applies `f` to every item with at most [`jobs`] concurrent workers,
/// returning results in item order.
///
/// ```
/// use oplixnet::pool;
///
/// let lens = pool::parallel_map(vec!["a", "bb", "ccc"], |s| s.len());
/// assert_eq!(lens, vec![1, 2, 3]);
/// ```
pub fn parallel_map<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let f = &f;
    run_scoped(
        items
            .into_iter()
            .map(|item| Box::new(move || f(item)) as Box<dyn FnOnce() -> T + Send + '_>)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Most tests force a multi-slot budget so the executor path (not the
    /// inline fallback) is exercised even on a single-core machine. The
    /// budget is process-global, which is safe: every caller must be
    /// correct at any budget (results are slot-ordered and bitwise
    /// independent of worker count).
    fn force_parallel_budget() {
        set_jobs(4);
    }

    #[test]
    fn results_come_back_in_task_order() {
        force_parallel_budget();
        // Tasks finish out of order (larger inputs sleep longer backwards),
        // results must not.
        let out = parallel_map((0..32u64).collect(), |i| {
            std::thread::sleep(std::time::Duration::from_micros((32 - i) * 50));
            i * 10
        });
        assert_eq!(out, (0..32u64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn tasks_can_borrow_caller_state() {
        force_parallel_budget();
        let counter = AtomicU64::new(0);
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = (0..8)
            .map(|_| {
                Box::new(|| counter.fetch_add(1, Ordering::SeqCst))
                    as Box<dyn FnOnce() -> u64 + Send + '_>
            })
            .collect();
        let mut got = run_scoped(tasks);
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn empty_task_list_is_fine() {
        let out: Vec<u8> = run_scoped(Vec::new());
        assert!(out.is_empty());
    }

    #[test]
    fn jobs_is_at_least_one() {
        assert!(jobs() >= 1);
    }

    #[test]
    fn workers_persist_across_calls() {
        force_parallel_budget();
        let _ = parallel_map((0..16u32).collect(), |x| x + 1);
        let after_first = workers_alive();
        assert!(
            after_first >= 1,
            "a multi-slot grant must have spawned persistent workers"
        );
        for _ in 0..10 {
            let _ = parallel_map((0..16u32).collect(), |x| x + 1);
        }
        assert_eq!(
            workers_alive(),
            after_first,
            "repeat calls must reuse the persistent worker set, not spawn more"
        );
    }

    #[test]
    fn task_panic_propagates_after_batch_completes() {
        force_parallel_budget();
        let completed = AtomicU64::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = (0..12u64)
                .map(|i| {
                    let completed = &completed;
                    Box::new(move || {
                        if i == 5 {
                            panic!("task {i} failed");
                        }
                        completed.fetch_add(1, Ordering::SeqCst)
                    }) as Box<dyn FnOnce() -> u64 + Send + '_>
                })
                .collect();
            run_scoped(tasks)
        }));
        assert!(result.is_err(), "the task panic must propagate");
        assert_eq!(
            completed.load(Ordering::SeqCst),
            11,
            "non-panicking tasks still run to completion"
        );
    }

    #[test]
    fn nested_calls_complete_without_deadlock() {
        force_parallel_budget();
        // Outer fan-out whose tasks fan out again: inner calls either find
        // leftover budget or run inline; either way every level finishes.
        let out = parallel_map((0..6u64).collect(), |i| {
            parallel_map((0..5u64).collect(), move |j| i * 10 + j)
                .into_iter()
                .sum::<u64>()
        });
        let want: Vec<u64> = (0..6u64)
            .map(|i| (0..5u64).map(|j| i * 10 + j).sum())
            .collect();
        assert_eq!(out, want);
    }
}
