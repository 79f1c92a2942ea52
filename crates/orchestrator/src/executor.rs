//! The work-stealing executor.
//!
//! Jobs are distributed round-robin across per-worker deques; idle
//! workers first drain their own deque, then steal half a peer's
//! backlog, so stragglers — one router with a pathological route map —
//! no longer serialize the tail of a run the way the previous
//! all-threads-at-once scheme did. Each result is handed to the calling
//! thread with its submission index the moment its job completes, while
//! the workers keep running, so the caller can fold results as they
//! arrive instead of waiting for the whole batch.

use crate::deque::Worker;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

/// A work-stealing job executor.
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// An executor with an explicit thread count (`--jobs`); `None`
    /// uses the machine's available parallelism.
    pub fn with_threads(jobs: Option<usize>) -> Self {
        let threads = jobs.filter(|&j| j > 0).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        });
        Executor { threads }
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f` over every item and hand each `(submission index,
    /// result)` to `deliver` on the calling thread as soon as the job
    /// completes — in completion order, while the remaining jobs are
    /// still running. Each worker takes its own share in ascending
    /// submission order, so completion order tracks submission order up
    /// to the skew between workers. Returns the number of successful
    /// steals observed.
    pub fn run<T, R, F, D>(&self, items: &[T], f: F, mut deliver: D) -> u64
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
        D: FnMut(usize, R),
    {
        let n = items.len();
        if n == 0 {
            return 0;
        }
        let threads = self.threads.min(n);
        // Live queue depth: pending jobs, decremented as each
        // completes, so a mid-batch `/metrics` scrape shows progress.
        obs::gauge_set("orchestrator.queue_depth", n as u64);
        if threads <= 1 {
            let _span = obs::span!("worker", wid = 0, jobs = n);
            for (i, item) in items.iter().enumerate() {
                let r = f(item);
                obs::gauge_set("orchestrator.queue_depth", (n - i - 1) as u64);
                deliver(i, r);
            }
            return 0;
        }

        // Round-robin seeding: index i goes to worker i % threads.
        // Pushed in descending order because owners pop from the back:
        // every worker then walks its share in ascending order, and
        // thieves take from the far (highest-index) end.
        let workers: Vec<Worker<usize>> = (0..threads).map(|_| Worker::new()).collect();
        let stealers: Vec<_> = workers.iter().map(Worker::stealer).collect();
        for i in (0..n).rev() {
            workers[i % threads].push(i);
        }

        let steals = AtomicU64::new(0);
        let done = AtomicU64::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        std::thread::scope(|scope| {
            for (wid, my) in workers.into_iter().enumerate() {
                let tx = tx.clone();
                let stealers = &stealers;
                let steals = &steals;
                let done = &done;
                let f = &f;
                scope.spawn(move || {
                    // One span per worker thread: the work-stealing
                    // schedule becomes visible in the exported trace.
                    let _span = obs::span!("worker", wid = wid);
                    loop {
                        let job = my.pop().or_else(|| {
                            // Scan peers starting past self so thieves
                            // fan out instead of mobbing worker 0.
                            for k in 1..stealers.len() {
                                let victim = &stealers[(wid + k) % stealers.len()];
                                if let Some(j) = victim.steal_batch_and_pop(&my) {
                                    steals.fetch_add(1, Ordering::Relaxed);
                                    return Some(j);
                                }
                            }
                            None
                        });
                        match job {
                            Some(i) => {
                                let r = f(&items[i]);
                                if obs::enabled() {
                                    let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                                    obs::gauge_set(
                                        "orchestrator.queue_depth",
                                        (n as u64).saturating_sub(d),
                                    );
                                }
                                if tx.send((i, r)).is_err() {
                                    return;
                                }
                            }
                            None => return,
                        }
                    }
                });
            }
            drop(tx);
            // Drain on the calling thread while the workers run; the
            // loop ends when the last worker drops its sender. A
            // panicking worker re-raises when the scope joins it.
            for (i, r) in rx {
                deliver(i, r);
            }
        });
        steals.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Collect deliveries into submission order.
    fn collect<T: Sync, R: Send + Clone>(
        ex: &Executor,
        items: &[T],
        f: impl Fn(&T) -> R + Sync,
    ) -> Vec<R> {
        let mut slots: Vec<Option<R>> = vec![None; items.len()];
        ex.run(items, f, |i, r| {
            assert!(slots[i].replace(r).is_none(), "job {i} delivered twice");
        });
        slots.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn every_index_is_delivered_with_its_own_result() {
        let items: Vec<usize> = (0..200).collect();
        let ex = Executor::with_threads(Some(8));
        let out = collect(&ex, &items, |&i| {
            // Uneven work so completion order scrambles.
            if i % 17 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            i * 3
        });
        assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<u32> = (0..500).collect();
        let ex = Executor::with_threads(Some(4));
        let out = collect(&ex, &items, |&x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 500);
        assert_eq!(counter.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn single_thread_delivers_in_order_and_empty_inputs_deliver_nothing() {
        let ex = Executor::with_threads(Some(1));
        let mut seen = Vec::new();
        let steals = ex.run(&[1, 2, 3], |&x| x + 1, |i, r| seen.push((i, r)));
        assert_eq!(seen, vec![(0, 2), (1, 3), (2, 4)]);
        assert_eq!(steals, 0);
        ex.run(&[] as &[i32], |&x| x, |_, _| panic!("nothing to deliver"));
    }

    #[test]
    fn results_reach_the_caller_while_workers_still_run() {
        // Job 1 cannot finish until the caller has been handed job 0's
        // result: a batch-then-return executor would deadlock here.
        let (tx, rx) = mpsc::channel::<()>();
        let rx = std::sync::Mutex::new(rx);
        let ex = Executor::with_threads(Some(2));
        let mut order = Vec::new();
        ex.run(
            &[0usize, 1],
            |&i| {
                if i == 1 {
                    rx.lock().unwrap().recv().unwrap();
                }
                i
            },
            |i, _| {
                order.push(i);
                if i == 0 {
                    tx.send(()).unwrap();
                }
            },
        );
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn stealing_balances_a_skewed_seed() {
        // The slow jobs are seeded unevenly; stealing must still finish
        // the whole batch (smoke: completion under gross imbalance).
        let items: Vec<usize> = (0..64).collect();
        let ex = Executor::with_threads(Some(4));
        let out = collect(&ex, &items, |&i| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out.len(), 64);
    }
}
