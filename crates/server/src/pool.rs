//! The worker pool: a FIFO of boxed jobs under one mutex, a condvar, and a
//! fixed set of threads.
//!
//! What the serving front runs on the pool is a flush of the async entries,
//! or of a sync entry with other clients about (a lone client's sync
//! request flushes on its own thread instead).  A flush is a blocking
//! function — take a batch, execute it, fulfil its waiters — so there is
//! nothing to poll and nothing to wake: a job is a `FnOnce`, run once to
//! completion.
//! Panics are contained per job (the worker keeps serving), and
//! [`Pool::close`] drops whatever is still queued without running it, so
//! anything a dropped job owned — a [`Promise`](crate::slot::Promise), say —
//! is released and its waiter sees a typed error rather than a hang.

use crate::lock;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct RunQueue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    queue: Mutex<RunQueue>,
    available: Condvar,
}

pub(crate) struct Pool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Pool {
    pub(crate) fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared::default());
        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bqr-server-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a serving worker thread")
            })
            .collect();
        Pool {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// Enqueue `job` at the tail of the run queue.  On a closed pool the job
    /// is dropped unrun.
    pub(crate) fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        let mut queue = lock(&self.shared.queue);
        if !queue.shutdown {
            queue.jobs.push_back(Box::new(job));
            drop(queue);
            self.shared.available.notify_one();
        }
    }

    /// Stop accepting work and drop every queued job unrun.  Jobs that are
    /// already running finish; [`Pool::join`] waits for them.
    pub(crate) fn close(&self) {
        let queued = {
            let mut queue = lock(&self.shared.queue);
            queue.shutdown = true;
            std::mem::take(&mut queue.jobs)
        };
        // Outside the lock: dropping a job may run arbitrary destructors.
        drop(queued);
        self.shared.available.notify_all();
    }

    /// Wait for the workers of a closed pool to finish their running jobs
    /// and exit.
    pub(crate) fn join(&self) {
        let handles = std::mem::take(&mut *lock(&self.workers));
        for handle in handles {
            // Job panics are contained, so a worker only ever exits cleanly.
            let _ = handle.join();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.close();
        self.join();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if queue.shutdown {
                    return;
                }
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // A panicking job unwinds to here; whatever it owned is dropped on
        // the way and the worker takes the next job.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ServerError;
    use crate::slot::slot;
    use std::sync::mpsc;

    #[test]
    fn jobs_run_in_fifo_order_on_one_worker() {
        let pool = Pool::new(1);
        let (tx, rx) = mpsc::channel();
        for i in 0..16 {
            let tx = tx.clone();
            pool.spawn(move || tx.send(i).unwrap());
        }
        assert_eq!(
            rx.iter().take(16).collect::<Vec<_>>(),
            (0..16).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_panicking_job_does_not_kill_its_worker() {
        let pool = Pool::new(1);
        let (tx, rx) = mpsc::channel();
        pool.spawn(|| panic!("job panic (expected by this test)"));
        pool.spawn(move || tx.send("still serving").unwrap());
        assert_eq!(rx.recv().unwrap(), "still serving");
    }

    #[test]
    fn jobs_queued_at_close_are_dropped_and_their_promises_abandon_typed() {
        let pool = Pool::new(1);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        pool.spawn(move || {
            started_tx.send(()).unwrap();
            let _ = release_rx.recv();
        });
        started_rx.recv().unwrap();
        // The only worker is held inside the first job: this one stays queued.
        let (promise, pending) = slot::<u32>();
        let (ran_tx, ran_rx) = mpsc::channel();
        pool.spawn(move || {
            ran_tx.send(()).unwrap();
            promise.fulfil(Ok(7));
        });
        pool.close();
        assert!(matches!(pending.wait(), Err(ServerError::Internal(_))));
        // A closed pool drops new jobs on the floor too.
        let (promise, pending) = slot::<u32>();
        pool.spawn(move || promise.fulfil(Ok(8)));
        assert!(matches!(pending.wait(), Err(ServerError::Internal(_))));
        // The running job is not interrupted: `join` waits for it.
        release_tx.send(()).unwrap();
        pool.join();
        assert!(ran_rx.try_recv().is_err(), "the queued job never ran");
    }
}
