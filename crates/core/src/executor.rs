//! Persistent worker-pool executor for the server's scan engine.
//!
//! PR 1 parallelized a single query across shards with
//! `std::thread::scope`, which re-spawns (and re-joins) OS threads for
//! every query — fine for one big scan, wasteful for a `QueryBatch`
//! where K queries each pay the spawn cost and still run one after
//! another. This module replaces that with a fixed set of long-lived
//! workers fed by a work queue: a batch of K queries over S shards
//! becomes K×S independent tasks drained concurrently by however many
//! cores the machine has. Shards hold a fixed number of documents
//! ([`crate::storage::SHARD_DOCS`]), so a large table is many small
//! tasks, and the pool size alone sets how many cores a scan uses.
//!
//! Two properties matter for the rest of the system:
//!
//! * **Submission-order results.** [`Executor::scatter`] returns its
//!   results in the order the jobs were submitted, no matter in which
//!   order workers finish them. The batch scan relies on this to keep
//!   wire responses in query order (and the tests complete tasks out
//!   of order on purpose to prove it).
//! * **Panic transparency.** A panicking job does not kill a worker or
//!   wedge the pool: the payload is carried back to the `scatter`
//!   caller and resumed there, matching what `std::thread::scope`'s
//!   join did in PR 1.
//! * **Callers work their own batch.** A `scatter` caller does not
//!   sleep while its jobs sit in the queue: it takes them back and
//!   runs them itself, and blocks only for the ones a worker already
//!   holds. It never runs another batch's job, so a short batch never
//!   waits behind a long foreign one, and a job may itself call
//!   `scatter` on the pool it runs on (its caller can always run every
//!   sub-job alone).
//!
//! Scheduling is server-internal and leakage-free by the same argument
//! as sharding: Eve already holds every ciphertext and trapdoor, so
//! how she orders her own work reveals nothing new. The transcript
//! obligations live in `server.rs` (events recorded strictly in batch
//! order, after the join) and are enforced by `tests/sharding.rs`.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use crate::telemetry::{Counter, Gauge, Histogram};

/// A queued unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A job tagged with the `scatter` call that queued it, so that call
/// can take back its own jobs and only those.
struct Queued {
    batch: u64,
    job: Job,
}

/// Always-on pool statistics (the precedent is the durable log's sync
/// counter): relaxed atomics the server folds into its stats snapshot.
/// Task timing pays one `Instant` pair per task — noise against a
/// trapdoor scan over a shard, and identical in the inline and queued
/// paths so a 1-worker pool reports comparable numbers.
#[derive(Debug, Default)]
pub struct ExecutorStats {
    /// Tasks executed (inline, by a waiting caller, or on a worker).
    pub tasks: Counter,
    /// Tasks the `scatter` caller ran on its own thread: the inline
    /// path's, and the queued jobs it took back while waiting.
    /// `tasks - caller_tasks` is what the workers ran.
    pub caller_tasks: Counter,
    /// Per-task wall time in nanoseconds.
    pub task_nanos: Histogram,
    /// Total nanoseconds spent running tasks, on workers and callers
    /// alike. Because callers run tasks too, `busy_nanos / (wall *
    /// workers)` can exceed what the workers alone could reach.
    pub busy_nanos: Counter,
    /// Jobs currently queued (sampled at push/pop).
    pub queue_depth: Gauge,
    /// Deepest the queue has ever been.
    pub queue_high_water: Gauge,
}

impl ExecutorStats {
    /// Times one job, recording count, latency, and busy time.
    fn run_timed<R>(&self, job: impl FnOnce() -> R) -> R {
        let t0 = std::time::Instant::now();
        let result = job();
        let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.tasks.inc();
        self.task_nanos.record(nanos);
        self.busy_nanos.add(nanos);
        result
    }
}

/// Queue state shared between the pool handle and its workers.
struct Inner {
    queue: Mutex<VecDeque<Queued>>,
    /// Signaled when a job is queued or shutdown begins.
    available: Condvar,
    /// Set once by `Drop`; workers drain the queue, then exit.
    shutdown: AtomicBool,
    /// Source of `scatter` batch tags.
    next_batch: AtomicU64,
    /// Pool metrics, shared with [`Executor::stats`].
    stats: ExecutorStats,
}

/// A fixed-size pool of long-lived worker threads.
///
/// Construct one with [`Executor::new`] (tests use explicit sizes to
/// pin scheduling behavior) or share the process-wide pool sized to
/// `available_parallelism` via [`Executor::global`]. Dropping a pool
/// lets queued work finish, then joins every worker; the global pool
/// is never dropped.
pub struct Executor {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Executor {
    /// Spawns a pool of `workers` threads (clamped to at least 1).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_batch: AtomicU64::new(0),
            stats: ExecutorStats::default(),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("dbph-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawning pool worker")
            })
            .collect();
        Executor {
            inner,
            workers: handles,
        }
    }

    /// The process-wide pool, created on first use with one worker per
    /// available core. This is what [`crate::server::Server`] and
    /// [`crate::storage::TableStore`] use unless handed a dedicated
    /// pool.
    #[must_use]
    pub fn global() -> Arc<Executor> {
        static GLOBAL: OnceLock<Arc<Executor>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
            Arc::new(Executor::new(cores))
        }))
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The pool's always-on metrics (queue depth, task count and
    /// latency, busy time). The server samples them into its stats
    /// snapshot.
    #[must_use]
    pub fn stats(&self) -> &ExecutorStats {
        &self.inner.stats
    }

    /// Runs every job and returns their results **in submission
    /// order**, regardless of completion order.
    ///
    /// With a single worker (or a single job) the jobs run inline on
    /// the caller's thread in submission order — same results, zero
    /// queue/channel overhead — so a 1-worker pool is exactly the
    /// sequential engine, which the invariance tests use as the
    /// reference.
    ///
    /// Otherwise the jobs are queued, at most `min(n - 1, workers)`
    /// workers are woken, and the caller runs jobs of this batch until
    /// none are left in the queue; only then does it block, for the
    /// results of jobs a worker took. It never runs another batch's
    /// job. Jobs may call `scatter` on the pool that runs them.
    ///
    /// # Panics
    /// If a job panics, the first observed payload is resumed on the
    /// caller's thread after all jobs of the batch have finished
    /// (mirroring a scoped-thread join).
    pub fn scatter<R, F>(&self, jobs: Vec<F>) -> Vec<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let stats = &self.inner.stats;
        if self.workers() <= 1 || jobs.len() <= 1 {
            return jobs
                .into_iter()
                .map(|job| {
                    stats.caller_tasks.inc();
                    stats.run_timed(job)
                })
                .collect();
        }
        let n = jobs.len();
        let batch = self.inner.next_batch.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        {
            let mut queue = self.inner.queue.lock();
            for (index, job) in jobs.into_iter().enumerate() {
                let tx = tx.clone();
                let inner = Arc::clone(&self.inner);
                let job: Job = Box::new(move || {
                    // Timed before the send, so the counters are final
                    // by the time `scatter` returns.
                    let result = inner
                        .stats
                        .run_timed(|| catch_unwind(AssertUnwindSafe(job)));
                    // The receiver only disappears if the caller
                    // panicked out of the collection loop; dropping
                    // the result is then the right thing.
                    let _ = tx.send((index, result));
                });
                queue.push_back(Queued { batch, job });
            }
            let depth = queue.len() as u64;
            stats.queue_depth.set(depth);
            stats.queue_high_water.set_max(depth);
        }
        drop(tx);
        // The caller takes one job itself, so `n - 1` are left over.
        for _ in 0..(n - 1).min(self.workers()) {
            self.inner.available.notify_one();
        }
        // Queued jobs catch their own panics, so running them here
        // cannot unwind past the collection below.
        while let Some(job) = self.inner.pop_batch(batch) {
            stats.caller_tasks.inc();
            job();
        }

        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut panic = None;
        for _ in 0..n {
            let (index, result) = rx.recv().expect("pool dropped a result channel");
            match result {
                Ok(value) => slots[index] = Some(value),
                // Keep the first payload when several jobs panic.
                Err(payload) => {
                    if panic.is_none() {
                        panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every task reported exactly once"))
            .collect()
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // The flag must flip while holding the queue mutex: a worker
        // that has just seen `shutdown == false` still holds the lock
        // until its `wait` releases it, so storing under the lock (and
        // notifying before releasing) cannot slip into that window —
        // the classic lost-wakeup that would leave `join` hanging.
        {
            let _queue = self.inner.queue.lock();
            self.inner.shutdown.store(true, Ordering::SeqCst);
            self.inner.available.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Inner {
    /// Removes the oldest queued job of `batch`, if any is left.
    fn pop_batch(&self, batch: u64) -> Option<Job> {
        let mut queue = self.queue.lock();
        let position = queue.iter().position(|queued| queued.batch == batch)?;
        let queued = queue.remove(position)?;
        self.stats.queue_depth.set(queue.len() as u64);
        Some(queued.job)
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut queue = inner.queue.lock();
            loop {
                if let Some(Queued { job, .. }) = queue.pop_front() {
                    inner.stats.queue_depth.set(queue.len() as u64);
                    break Some(job);
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                inner.available.wait(&mut queue);
            }
        };
        match job {
            // Queued jobs catch their own panics (the payload goes to
            // the `scatter` caller), so the worker survives them.
            Some(job) => job(),
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn scatter_returns_results_in_submission_order() {
        let pool = Executor::new(4);
        // Later tasks finish first: earlier tasks sleep longer.
        let results = pool.scatter(
            (0..8u64)
                .map(|i| {
                    move || {
                        std::thread::sleep(Duration::from_millis((8 - i) * 3));
                        i * 10
                    }
                })
                .collect(),
        );
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn single_worker_pool_runs_inline_and_in_order() {
        let pool = Executor::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let results = pool.scatter(
            (0..5usize)
                .map(|i| {
                    let order = Arc::clone(&order);
                    move || {
                        order.lock().push(i);
                        i
                    }
                })
                .collect(),
        );
        assert_eq!(results, vec![0, 1, 2, 3, 4]);
        assert_eq!(*order.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pool_survives_many_batches() {
        let pool = Executor::new(3);
        for round in 0..50usize {
            let results = pool.scatter((0..6usize).map(|i| move || round + i).collect());
            assert_eq!(results, (round..round + 6).collect::<Vec<_>>());
        }
        assert_eq!(pool.workers(), 3);
    }

    #[test]
    fn panicking_job_propagates_and_pool_stays_usable() {
        let pool = Executor::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scatter(
                (0..4usize)
                    .map(|i| move || assert!(i != 2, "job 2 exploded"))
                    .collect(),
            )
        }));
        assert!(caught.is_err(), "panic must reach the scatter caller");
        // The pool is still fully operational afterwards.
        let results = pool.scatter((0..4usize).map(|i| move || i + 1).collect());
        assert_eq!(results, vec![1, 2, 3, 4]);
    }

    #[test]
    fn zero_requested_workers_clamps_to_one() {
        let pool = Executor::new(0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.scatter(vec![|| 7]), vec![7]);
    }

    #[test]
    fn drop_joins_all_workers_after_queued_work() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = Executor::new(2);
            let results = pool.scatter(
                (0..10usize)
                    .map(|_| {
                        let counter = Arc::clone(&counter);
                        move || counter.fetch_add(1, Ordering::SeqCst)
                    })
                    .collect(),
            );
            assert_eq!(results.len(), 10);
        } // Drop here: workers must exit cleanly.
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn stats_count_tasks_in_both_paths() {
        // Queued path: a 4-worker pool with a multi-job batch.
        let pool = Executor::new(4);
        let _ = pool.scatter((0..8usize).map(|i| move || i).collect());
        assert_eq!(pool.stats().tasks.get(), 8);
        assert_eq!(pool.stats().task_nanos.count(), 8);
        assert!(pool.stats().queue_high_water.get() >= 1);
        // Inline path: a 1-worker pool times tasks identically.
        let serial = Executor::new(1);
        let _ = serial.scatter((0..3usize).map(|i| move || i).collect());
        assert_eq!(serial.stats().tasks.get(), 3);
        assert_eq!(serial.stats().task_nanos.count(), 3);
        assert_eq!(serial.stats().caller_tasks.get(), 3);
    }

    /// A gate jobs block on until the test opens it.
    #[derive(Default)]
    struct Gate {
        open: Mutex<bool>,
        opened: Condvar,
    }

    impl Gate {
        fn wait(&self) {
            let mut open = self.open.lock();
            while !*open {
                self.opened.wait(&mut open);
            }
        }

        fn open(&self) {
            *self.open.lock() = true;
            self.opened.notify_all();
        }
    }

    /// Runs `f` on its own thread and fails the test if it has not
    /// returned within `limit` — a deadlock becomes a failure, not a
    /// hung suite.
    fn within<R: Send + 'static>(limit: Duration, f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        let result = rx
            .recv_timeout(limit)
            .expect("scatter did not finish in time (deadlock?)");
        handle
            .join()
            .expect("the timed thread already sent its result");
        result
    }

    #[test]
    fn nested_scatter_on_the_same_pool_finishes_in_order() {
        let results = within(Duration::from_secs(20), || {
            let pool = Arc::new(Executor::new(2));
            let outer: Vec<_> = (0..4usize)
                .map(|i| {
                    let pool = Arc::clone(&pool);
                    move || {
                        pool.scatter(
                            (0..4usize)
                                .map(|j| {
                                    move || {
                                        std::thread::sleep(Duration::from_millis(
                                            ((i + j) % 3) as u64,
                                        ));
                                        i * 10 + j
                                    }
                                })
                                .collect(),
                        )
                    }
                })
                .collect();
            let results = pool.scatter(outer);
            assert_eq!(pool.stats().tasks.get(), 4 + 4 * 4);
            results
        });
        let expected: Vec<Vec<usize>> = (0..4)
            .map(|i| (0..4).map(|j| i * 10 + j).collect())
            .collect();
        assert_eq!(results, expected);
    }

    #[test]
    fn caller_runs_only_its_own_batch() {
        let pool = Arc::new(Executor::new(2));
        let gate = Arc::new(Gate::default());
        let started = Arc::new(AtomicUsize::new(0));
        // Batch A: six gated jobs. Its caller and both workers each
        // block in one, so three stay queued while batch B runs.
        let foreign = {
            let (pool, gate, started) =
                (Arc::clone(&pool), Arc::clone(&gate), Arc::clone(&started));
            std::thread::spawn(move || {
                pool.scatter(
                    (0..6)
                        .map(|_| {
                            let (gate, started) = (Arc::clone(&gate), Arc::clone(&started));
                            move || {
                                started.fetch_add(1, Ordering::SeqCst);
                                gate.wait();
                                std::thread::current().id()
                            }
                        })
                        .collect(),
                )
            })
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while started.load(Ordering::SeqCst) < 3 {
            assert!(
                std::time::Instant::now() < deadline,
                "A's caller and both workers should each hold a job of A"
            );
            std::thread::yield_now();
        }
        // The gate opens once batch B is done, or after a timeout if
        // B's caller waits instead of working: a failure, not a hang.
        let (b_done, b_finished) = mpsc::channel::<()>();
        let opener = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let _ = b_finished.recv_timeout(Duration::from_secs(5));
                gate.open();
            })
        };

        let me = std::thread::current().id();
        let own = pool.scatter((0..3).map(|_| || std::thread::current().id()).collect());
        assert_eq!(
            own,
            vec![me; 3],
            "every free thread is blocked, so the caller ran B"
        );
        assert_eq!(
            started.load(Ordering::SeqCst),
            3,
            "the caller ran no job of A"
        );
        assert_eq!(
            pool.stats().queue_depth.get(),
            3,
            "A's jobs are still queued"
        );

        drop(b_done);
        opener.join().unwrap();
        let ran_a = foreign.join().unwrap();
        assert!(!ran_a.contains(&me), "a job of A ran on B's caller");
        assert_eq!(pool.stats().tasks.get(), 9);
        // B's three, plus at least the one A job A's caller blocked in.
        assert!(pool.stats().caller_tasks.get() >= 4);
    }

    #[test]
    fn global_pool_is_shared_and_sized_to_the_machine() {
        let a = Executor::global();
        let b = Executor::global();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.workers() >= 1);
        assert_eq!(
            a.scatter((0..3usize).map(|i| move || i * i).collect()),
            vec![0, 1, 4]
        );
    }
}
