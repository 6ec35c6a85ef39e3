//! A cache of reusable threads for message handlers that may block.
//!
//! A handler that can wait — a two-phase-commit datagram forcing the log,
//! a Communication Manager relay running a local server's operation —
//! must not run on the loop that received the message, and a fresh thread
//! per message costs tens of microseconds; [`WorkerPool`] keeps finished
//! threads parked for reuse. (Data servers need no pool: their request
//! port is served on the caller's thread, see [`crate::port`].)
//!
//! The pool never queues a job behind a busy worker: a dispatch first
//! claims an *idle token* (a count of workers that have finished their
//! previous job and are committed to receiving the next one) and only
//! then enqueues; without a token it spawns a fresh thread. A worker that
//! is blocked inside a lock wait therefore can never delay the very
//! message whose handling would release that lock — the liveness property
//! a thread per message provides, at a fraction of the cost once the pool
//! is warm.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// How long a parked worker waits for its next job before retiring.
const IDLE_TTL: Duration = Duration::from_secs(5);

/// A grow-on-demand pool of reusable worker threads.
///
/// Jobs run on a parked worker when one is available and on a brand-new
/// detached thread otherwise; workers retire after sitting idle for the
/// TTL, so a quiescent pool shrinks back to nothing.
pub struct WorkerPool {
    name: String,
    tx: Sender<Job>,
    rx: Receiver<Job>,
    /// Tokens for workers that have finished a job and are committed to
    /// receiving the next one. Claimed by [`WorkerPool::execute`] before
    /// enqueueing and by a worker before retiring, so every queued job has
    /// a parked (never lock-blocked) worker guaranteed to pick it up.
    idle: AtomicUsize,
    /// Total threads ever created (introspection for tests and tools).
    spawned: AtomicUsize,
    ttl: Duration,
}

impl WorkerPool {
    /// Creates an empty pool; `name` prefixes worker thread names.
    pub fn new(name: &str) -> Arc<Self> {
        Self::with_ttl(name, IDLE_TTL)
    }

    /// Creates a pool whose idle workers retire after `ttl` (tests).
    pub fn with_ttl(name: &str, ttl: Duration) -> Arc<Self> {
        let (tx, rx) = unbounded();
        Arc::new(Self {
            name: name.to_string(),
            tx,
            rx,
            idle: AtomicUsize::new(0),
            spawned: AtomicUsize::new(0),
            ttl,
        })
    }

    /// Runs `job` on a parked worker, or on a freshly spawned thread when
    /// none is parked. Never blocks and never queues behind a busy worker.
    pub fn execute(self: &Arc<Self>, job: impl FnOnce() + Send + 'static) {
        let job: Job = Box::new(job);
        let claimed = self
            .idle
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .is_ok();
        if claimed {
            // The pool owns the receiver, so the channel cannot be
            // disconnected while `self` is alive.
            self.tx.send(job).expect("worker pool channel lives as long as the pool");
            return;
        }
        let pool = Arc::clone(self);
        self.spawned.fetch_add(1, Ordering::Relaxed);
        let name = format!("{}-worker", self.name);
        std::thread::Builder::new()
            .name(name)
            .spawn(move || pool.worker(job))
            .expect("spawn pool worker");
    }

    /// Total worker threads created so far (not the current size).
    pub fn spawned_total(&self) -> usize {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Workers currently parked and ready for a job.
    pub fn idle_now(&self) -> usize {
        self.idle.load(Ordering::Acquire)
    }

    fn worker(self: Arc<Self>, first: Job) {
        let mut job = first;
        loop {
            job();
            self.idle.fetch_add(1, Ordering::Release);
            job = loop {
                match self.rx.recv_timeout(self.ttl) {
                    Ok(j) => break j,
                    Err(RecvTimeoutError::Timeout) => {
                        // Retire only if our idle token is still
                        // unclaimed; a failed claim means a job has been
                        // (or is about to be) enqueued against it, so keep
                        // receiving — otherwise that job could be orphaned.
                        let retired = self
                            .idle
                            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                            .is_ok();
                        if retired {
                            return;
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Barrier;
    use std::time::Instant;

    fn wait_for(pool: &WorkerPool, parked: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.idle_now() < parked {
            assert!(Instant::now() < deadline, "no worker parked in time");
            std::thread::yield_now();
        }
    }

    #[test]
    fn sequential_jobs_reuse_one_thread() {
        let pool = WorkerPool::new("t");
        for i in 0..20 {
            if i > 0 {
                wait_for(&pool, 1);
            }
            let (tx, rx) = mpsc::channel();
            pool.execute(move || tx.send(()).unwrap());
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(pool.spawned_total(), 1);
    }

    #[test]
    fn concurrent_jobs_never_queue_behind_a_busy_worker() {
        // All four jobs rendezvous on one barrier: if any job had been
        // queued behind a running worker the barrier could never open.
        let pool = WorkerPool::new("t");
        let barrier = Arc::new(Barrier::new(4));
        let (tx, rx) = mpsc::channel();
        for _ in 0..4 {
            let barrier = Arc::clone(&barrier);
            let tx = tx.clone();
            pool.execute(move || {
                barrier.wait();
                tx.send(()).unwrap();
            });
        }
        for _ in 0..4 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(pool.spawned_total(), 4);
    }

    #[test]
    fn idle_workers_retire_after_the_ttl() {
        let pool = WorkerPool::with_ttl("t", Duration::from_millis(50));
        let (tx, rx) = mpsc::channel();
        pool.execute(move || tx.send(()).unwrap());
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        wait_for(&pool, 1);
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.idle_now() != 0 {
            assert!(Instant::now() < deadline, "worker did not retire");
            std::thread::sleep(Duration::from_millis(10));
        }
        // The pool still works after shrinking to nothing.
        let (tx, rx) = mpsc::channel();
        pool.execute(move || tx.send(()).unwrap());
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(pool.spawned_total(), 2);
    }
}
