//! A two-class work scheduler for fanning independent simulations out
//! across CPU cores.
//!
//! [`crate::Session`] owns one of these. Work arrives in two classes:
//!
//! * the **lane class** ([`ThreadPool::execute_lane`]) carries per-device
//!   FIFO lane tasks — short, latency-sensitive walks of one warm device's
//!   request stream;
//! * the **bulk class** ([`ThreadPool::execute`]) carries everything
//!   throughput-bound: fresh-request fan-out, figure sweeps, repeats.
//!
//! A fixed number of worker slots is **reserved for the lane class**
//! ([`ThreadPool::lane_slots`]): a reserved worker always dequeues lane
//! work first, so a ready lane task never waits behind the queued bulk
//! backlog (the "fresh cursor" of a big batch). The remaining workers
//! prefer bulk work, so a burst of lane tasks can never starve the bulk
//! class out of its slots. Stealing across classes is allowed in both
//! directions *when a worker's own class is idle*: a reserved worker with
//! no lane work picks up bulk jobs (bulk→lane-idle), and a bulk worker
//! with an empty bulk queue helps drain lanes — each class only donates
//! its workers' idle time, never its reserved capacity.
//!
//! The pool executes boxed `FnOnce` jobs; a panicking job is contained (the
//! worker thread survives and keeps serving later jobs). Dropping the pool
//! drains both queues before joining the workers.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The scheduling class of a submitted job: the workers reserved for lane
/// jobs ([`ThreadPool::lane_slots`]) serve them first, the other workers
/// serve bulk jobs first, and a worker whose own class is idle takes work
/// from the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobClass {
    /// Latency-sensitive per-device lane tasks; served first by the
    /// reserved lane slots.
    Lane,
    /// Throughput-bound work (fresh fan-out, sweeps); served first by the
    /// unreserved workers.
    Bulk,
}

/// The two class queues plus the shutdown flag, guarded by one mutex.
struct Queues {
    lane: VecDeque<Job>,
    bulk: VecDeque<Job>,
    shutdown: bool,
}

impl Queues {
    /// Dequeues the next job for a worker of the given preference:
    /// own-class first, then a steal from the other class.
    fn pop_for(&mut self, prefers: JobClass) -> Option<Job> {
        match prefers {
            JobClass::Lane => self.lane.pop_front().or_else(|| self.bulk.pop_front()),
            JobClass::Bulk => self.bulk.pop_front().or_else(|| self.lane.pop_front()),
        }
    }
}

struct Shared {
    queues: Mutex<Queues>,
    available: Condvar,
}

/// A fixed-size pool of worker threads executing boxed jobs in two
/// scheduling classes (see [`JobClass`]).
///
/// # Examples
///
/// ```
/// use conduit::ThreadPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
/// use std::sync::mpsc::channel;
///
/// let pool = ThreadPool::new(2);
/// let hits = Arc::new(AtomicUsize::new(0));
/// let (tx, rx) = channel();
/// for _ in 0..8 {
///     let hits = hits.clone();
///     let tx = tx.clone();
///     pool.execute(move || {
///         hits.fetch_add(1, Ordering::Relaxed);
///         tx.send(()).unwrap();
///     });
/// }
/// for _ in 0..8 {
///     rx.recv().unwrap();
/// }
/// assert_eq!(hits.load(Ordering::Relaxed), 8);
/// ```
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    lane_slots: usize,
}

impl ThreadPool {
    /// Spawns a pool with `size` worker threads (clamped to at least one)
    /// and the default lane reservation: one slot in four, at least one.
    /// A single-worker pool serves both classes lane-first.
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        ThreadPool::with_lane_slots(size, Self::default_lane_slots(size))
    }

    /// The default number of reserved lane slots for a pool of `size`
    /// workers: a quarter of the pool, at least one.
    pub fn default_lane_slots(size: usize) -> usize {
        (size.max(1) / 4).max(1)
    }

    /// Spawns a pool with `size` workers of which `lane_slots` (clamped to
    /// `1..=size`) prefer the lane class; the rest prefer bulk.
    pub fn with_lane_slots(size: usize, lane_slots: usize) -> Self {
        let size = size.max(1);
        let lane_slots = lane_slots.clamp(1, size);
        let shared = Arc::new(Shared {
            queues: Mutex::new(Queues {
                lane: VecDeque::new(),
                bulk: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let workers = (0..size)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                let prefers = if slot < lane_slots {
                    JobClass::Lane
                } else {
                    JobClass::Bulk
                };
                std::thread::spawn(move || worker_loop(&shared, prefers))
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            lane_slots,
        }
    }

    /// A pool with one worker per available CPU core.
    pub fn per_core() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ThreadPool::new(cores)
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Number of worker slots reserved for the lane class.
    pub fn lane_slots(&self) -> usize {
        self.lane_slots
    }

    /// Enqueues a **bulk-class** job; some worker thread will execute it.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.execute_class(JobClass::Bulk, job);
    }

    /// Enqueues a **lane-class** job: it is dequeued ahead of any queued
    /// bulk work by the reserved lane slots (and by bulk workers whose own
    /// queue is empty).
    pub fn execute_lane(&self, job: impl FnOnce() + Send + 'static) {
        self.execute_class(JobClass::Lane, job);
    }

    /// Enqueues a job in an explicit class.
    pub fn execute_class(&self, class: JobClass, job: impl FnOnce() + Send + 'static) {
        let mut queues = self.shared.queues.lock().expect("pool queue lock");
        debug_assert!(!queues.shutdown, "execute after ThreadPool drop began");
        match class {
            JobClass::Lane => queues.lane.push_back(Box::new(job)),
            JobClass::Bulk => queues.bulk.push_back(Box::new(job)),
        }
        drop(queues);
        self.shared.available.notify_one();
    }
}

/// One worker: dequeue by class preference, contain panics, exit once
/// shutdown is flagged *and* both queues are drained.
fn worker_loop(shared: &Shared, prefers: JobClass) {
    loop {
        let job = {
            let mut queues = shared.queues.lock().expect("pool queue lock");
            loop {
                if let Some(job) = queues.pop_for(prefers) {
                    break Some(job);
                }
                if queues.shutdown {
                    break None;
                }
                queues = shared
                    .available
                    .wait(queues)
                    .expect("pool queue lock poisoned");
            }
        };
        match job {
            // A panicking job must not kill the worker: contain it and
            // keep serving later batches.
            Some(job) => drop(catch_unwind(AssertUnwindSafe(job))),
            None => break,
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Flag shutdown; workers drain both queues before exiting.
        self.shared.queues.lock().expect("pool queue lock").shutdown = true;
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("size", &self.workers.len())
            .field("lane_slots", &self.lane_slots)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::channel;

    #[test]
    fn executes_all_jobs_across_workers() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.size(), 4);
        assert_eq!(pool.lane_slots(), 1);
        let done = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = channel();
        for i in 0..32usize {
            let done = done.clone();
            let tx = tx.clone();
            let class = if i % 3 == 0 {
                JobClass::Lane
            } else {
                JobClass::Bulk
            };
            pool.execute_class(class, move || {
                done.fetch_add(i, Ordering::Relaxed);
                tx.send(()).unwrap();
            });
        }
        for _ in 0..32 {
            rx.recv().unwrap();
        }
        assert_eq!(done.load(Ordering::Relaxed), (0..32).sum::<usize>());
    }

    #[test]
    fn zero_size_is_clamped_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.size(), 1);
        assert_eq!(pool.lane_slots(), 1);
    }

    #[test]
    fn lane_slots_are_clamped_to_pool_size() {
        let pool = ThreadPool::with_lane_slots(2, 9);
        assert_eq!(pool.lane_slots(), 2);
        let pool = ThreadPool::with_lane_slots(3, 0);
        assert_eq!(pool.lane_slots(), 1);
        assert_eq!(ThreadPool::default_lane_slots(8), 2);
        assert_eq!(ThreadPool::default_lane_slots(1), 1);
    }

    #[test]
    fn panicking_job_does_not_kill_the_pool() {
        let pool = ThreadPool::new(1);
        pool.execute(|| panic!("contained"));
        pool.execute_lane(|| panic!("also contained"));
        let (tx, rx) = channel();
        pool.execute(move || tx.send(42).unwrap());
        assert_eq!(rx.recv().unwrap(), 42);
    }

    #[test]
    fn drop_joins_workers_after_draining_both_classes() {
        let done = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(2);
            for i in 0..8 {
                let done = done.clone();
                let run = move || {
                    done.fetch_add(1, Ordering::Relaxed);
                };
                if i % 2 == 0 {
                    pool.execute(run);
                } else {
                    pool.execute_lane(run);
                }
            }
        }
        // Drop joined the workers, so every queued job ran.
        assert_eq!(done.load(Ordering::Relaxed), 8);
    }

    /// The scheduling guarantee the session relies on: with the single
    /// worker busy, queued lane jobs are dequeued ahead of bulk jobs that
    /// were enqueued *earlier* — a ready lane task never waits behind the
    /// bulk backlog. (The old single-queue pool ran these FIFO: all bulk
    /// first.)
    #[test]
    fn lane_jobs_overtake_the_queued_bulk_backlog() {
        let pool = ThreadPool::with_lane_slots(1, 1);
        let order = Arc::new(Mutex::new(Vec::new()));
        // Occupy the only worker so subsequent jobs queue up.
        let (gate_tx, gate_rx) = channel::<()>();
        pool.execute(move || {
            gate_rx.recv().unwrap();
        });
        let (done_tx, done_rx) = channel();
        for i in 0..4 {
            let order = order.clone();
            let done = done_tx.clone();
            pool.execute(move || {
                order.lock().unwrap().push(format!("bulk-{i}"));
                done.send(()).unwrap();
            });
        }
        for i in 0..2 {
            let order = order.clone();
            let done = done_tx.clone();
            pool.execute_lane(move || {
                order.lock().unwrap().push(format!("lane-{i}"));
                done.send(()).unwrap();
            });
        }
        gate_tx.send(()).unwrap();
        for _ in 0..6 {
            done_rx.recv().unwrap();
        }
        let order = order.lock().unwrap();
        assert_eq!(
            *order,
            vec!["lane-0", "lane-1", "bulk-0", "bulk-1", "bulk-2", "bulk-3"],
            "lane jobs must be dequeued ahead of the earlier-queued bulk backlog"
        );
    }

    /// The reserved slot works both ways: when both queues hold work, a
    /// lane-preferring worker picks lane work and a bulk-preferring worker
    /// picks bulk work, so neither class starves the other out of its
    /// reservation. Asserted on the dequeue policy itself — the only part
    /// of the schedule that is deterministic under OS thread scheduling.
    #[test]
    fn dequeue_prefers_own_class_and_steals_when_idle() {
        let order: Arc<Mutex<Vec<(JobClass, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let job = |class: JobClass, i: usize| -> Job {
            let order = Arc::clone(&order);
            Box::new(move || order.lock().unwrap().push((class, i)))
        };
        let mut queues = Queues {
            lane: VecDeque::new(),
            bulk: VecDeque::new(),
            shutdown: false,
        };
        for i in 0..2 {
            queues.lane.push_back(job(JobClass::Lane, i));
            queues.bulk.push_back(job(JobClass::Bulk, i));
        }
        // Both queues populated: each preference serves its own class, in
        // FIFO order within the class.
        queues.pop_for(JobClass::Lane).unwrap()();
        queues.pop_for(JobClass::Bulk).unwrap()();
        queues.pop_for(JobClass::Bulk).unwrap()();
        // Bulk queue now empty: a bulk worker steals the remaining lane job
        // (lane→bulk-idle help) rather than idling.
        queues.pop_for(JobClass::Bulk).unwrap()();
        assert!(queues.pop_for(JobClass::Lane).is_none());
        assert_eq!(
            *order.lock().unwrap(),
            vec![
                (JobClass::Lane, 0),
                (JobClass::Bulk, 0),
                (JobClass::Bulk, 1),
                (JobClass::Lane, 1),
            ]
        );
    }

    /// Bulk→lane-idle stealing: a reserved lane worker with no lane work
    /// picks up bulk jobs instead of idling.
    #[test]
    fn idle_lane_slots_steal_bulk_work() {
        let pool = ThreadPool::with_lane_slots(1, 1);
        let (tx, rx) = channel();
        for i in 0..4 {
            let tx = tx.clone();
            pool.execute(move || tx.send(i).unwrap());
        }
        let mut got: Vec<i32> = (0..4).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }
}
