//! A bounded MPMC job queue with explicit backpressure and drain-aware
//! shutdown, on `Mutex` + `Condvar` (std-only, no external channels).
//!
//! Admission never blocks: [`try_push`](JobQueue::try_push) either
//! admits the job or returns it with [`PushError::Full`] so the caller
//! can answer *reject-with-retry-after* instead of queueing unboundedly —
//! under overload the queue sheds load at the door rather than growing
//! latency without limit. Workers block in [`pop`](JobQueue::pop) until
//! a job or shutdown arrives. [`close`](JobQueue::close) starts a
//! graceful drain: no further admissions, but queued jobs are still
//! handed out until the queue empties, after which every `pop` returns
//! `None` and workers exit.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the job is handed back for a
    /// backpressure reply.
    Full(T),
    /// The queue is draining for shutdown.
    Closed(T),
}

struct State<T> {
    jobs: VecDeque<T>,
    closed: bool,
}

/// The bounded queue. `T` is the job payload.
pub struct JobQueue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    available: Condvar,
    space: Condvar,
}

impl<T> JobQueue<T> {
    /// A queue admitting at most `capacity` pending jobs (min 1).
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new(State { jobs: VecDeque::new(), closed: false }),
            capacity: capacity.max(1),
            available: Condvar::new(),
            space: Condvar::new(),
        }
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently pending (racy snapshot, for stats).
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue poisoned").jobs.len()
    }

    /// Admits `job` or returns it immediately — never blocks.
    pub fn try_push(&self, job: T) -> Result<(), PushError<T>> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return Err(PushError::Closed(job));
        }
        if state.jobs.len() >= self.capacity {
            return Err(PushError::Full(job));
        }
        state.jobs.push_back(job);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until the queue has room, then admits `job`. Returns the
    /// job with [`PushError::Closed`] if the queue is (or becomes)
    /// closed while waiting. The hand-off path between internal lanes
    /// (allocation workers feeding the verifier pool) uses this: unlike
    /// client admissions, internal producers prefer brief backpressure
    /// over dropping certified work.
    pub fn push_wait(&self, job: T) -> Result<(), PushError<T>> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if state.closed {
                return Err(PushError::Closed(job));
            }
            if state.jobs.len() < self.capacity {
                state.jobs.push_back(job);
                drop(state);
                self.available.notify_one();
                return Ok(());
            }
            state = self.space.wait(state).expect("queue poisoned");
        }
    }

    /// Blocks until a job is available (returning it) or the queue is
    /// closed *and* drained (returning `None` — the worker's signal to
    /// exit).
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                drop(state);
                self.space.notify_one();
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).expect("queue poisoned");
        }
    }

    /// Starts the drain: refuses new admissions, lets workers consume
    /// what is queued, then releases them.
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.available.notify_all();
        self.space.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn backpressure_at_capacity() {
        let q = JobQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
    }

    #[test]
    fn close_drains_then_releases() {
        let q = Arc::new(JobQueue::new(8));
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err(PushError::Closed(3)));
        // Queued jobs still come out, then None.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_wait_blocks_until_space_or_close() {
        let q = Arc::new(JobQueue::new(1));
        q.try_push(1).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_wait(2))
        };
        // The producer is blocked on a full queue; popping frees a slot.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop(), Some(1));
        assert!(producer.join().unwrap().is_ok());
        assert_eq!(q.pop(), Some(2));

        // A blocked push_wait is released by close, returning the job.
        q.try_push(7).unwrap();
        let blocked = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_wait(8))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(blocked.join().unwrap(), Err(PushError::Closed(8)));
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let q = Arc::new(JobQueue::<u32>::new(1));
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        // Give the worker a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(worker.join().unwrap(), None);
    }

    #[test]
    fn concurrent_producers_and_consumers_conserve_jobs() {
        let q = Arc::new(JobQueue::new(4));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(j) = q.pop() {
                        got.push(j);
                    }
                    got
                })
            })
            .collect();
        let mut accepted = 0usize;
        let mut rejected = 0usize;
        for i in 0..200 {
            loop {
                match q.try_push(i) {
                    Ok(()) => {
                        accepted += 1;
                        break;
                    }
                    Err(PushError::Full(_)) => {
                        rejected += 1;
                        std::thread::yield_now();
                    }
                    Err(PushError::Closed(_)) => unreachable!(),
                }
            }
        }
        q.close();
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap().len()).sum();
        assert_eq!(total, accepted);
        assert_eq!(accepted, 200);
        let _ = rejected; // under load some pushes see Full; all retry through
    }
}
