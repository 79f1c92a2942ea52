//! The executor: a scoped pool over one shared cursor.
//!
//! Lightyear's checks are independent (design decision D3), so a worker
//! only needs the next job: every worker claims indices from one shared
//! atomic cursor, in strictly ascending order, until the batch is
//! exhausted. A straggler (one router with a pathological route map)
//! holds back only its own worker; the others keep claiming. The
//! calling thread is one of the workers, and every result is handed to
//! it with its submission index: its own as each job completes, the
//! helpers' between its own jobs, so the caller folds results as they
//! arrive instead of waiting for the whole batch.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// A scoped job executor over a shared cursor.
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
    /// result)` to `deliver` on the calling thread, in completion order,
    /// while the remaining jobs are still running. With `threads > 1`
    /// the caller is one of the workers: it spawns `threads - 1` helpers,
    /// claims jobs from the same cursor as they do (the first one before
    /// any helper starts), and delivers the helpers' finished results
    /// between its own jobs, then whatever is left once the cursor is
    /// exhausted. Workers claim jobs in ascending submission order, so
    /// completion order tracks submission order up to the length of the
    /// jobs in flight.
    pub fn run<T, R, F, D>(&self, items: &[T], f: F, mut deliver: D)
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
        D: FnMut(usize, R),
    {
        let n = items.len();
        if n == 0 {
            return;
        }
        let threads = self.threads.min(n);
        // Live queue depth: jobs not yet delivered, so a mid-batch
        // `/metrics` scrape shows progress.
        obs::gauge_set("orchestrator.queue_depth", n as u64);
        let mut delivered = 0;
        let mut hand = |i: usize, r: R| {
            delivered += 1;
            obs::gauge_set("orchestrator.queue_depth", (n - delivered) as u64);
            deliver(i, r);
        };
        if threads <= 1 {
            let _span = obs::span!("worker", wid = 0, jobs = n);
            for (i, item) in items.iter().enumerate() {
                hand(i, f(item));
            }
            return;
        }

        let next = AtomicUsize::new(0);
        let mut mine = next.fetch_add(1, Ordering::Relaxed);
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<(usize, R)>();
            for wid in 1..threads {
                let tx = tx.clone();
                let (next, f) = (&next, &f);
                scope.spawn(move || {
                    // One span per worker thread: the schedule becomes
                    // visible in the exported trace.
                    let _span = obs::span!("worker", wid = wid);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n || tx.send((i, f(&items[i]))).is_err() {
                            return;
                        }
                    }
                });
            }
            drop(tx);
            {
                let _span = obs::span!("worker", wid = 0);
                while mine < n {
                    hand(mine, f(&items[mine]));
                    while let Ok((i, r)) = rx.try_recv() {
                        hand(i, r);
                    }
                    mine = next.fetch_add(1, Ordering::Relaxed);
                }
            }
            // The cursor is exhausted: deliver the helpers' last results.
            // The loop ends when the last helper drops its sender; a
            // panicking helper re-raises when the scope joins it.
            for (i, r) in rx {
                hand(i, r);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

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
        ex.run(&[1, 2, 3], |&x| x + 1, |i, r| seen.push((i, r)));
        assert_eq!(seen, vec![(0, 2), (1, 3), (2, 4)]);
        ex.run(&[] as &[i32], |&x| x, |_, _| panic!("nothing to deliver"));
    }

    #[test]
    fn the_caller_works_and_alone_delivers() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..64).collect();
        for jobs in [1, 2, 4] {
            let ran = std::sync::Mutex::new(std::collections::HashSet::new());
            let mut seen = vec![0u32; items.len()];
            Executor::with_threads(Some(jobs)).run(
                &items,
                |&i| {
                    ran.lock().unwrap().insert(std::thread::current().id());
                    // Long enough that a helper's results arrive while
                    // the caller still has jobs of its own.
                    std::thread::sleep(Duration::from_micros(100));
                    i
                },
                |i, r| {
                    assert_eq!(std::thread::current().id(), caller, "jobs {jobs}");
                    assert_eq!(i, r);
                    seen[i] += 1;
                },
            );
            assert!(seen.iter().all(|&k| k == 1), "jobs {jobs}: {seen:?}");
            let ran = ran.into_inner().unwrap();
            assert!(ran.contains(&caller), "jobs {jobs}: the caller ran no job");
            assert!(
                ran.len() <= jobs,
                "jobs {jobs}: {} threads ran jobs",
                ran.len()
            );
        }
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
    fn an_idle_worker_is_never_held_behind_a_busy_one() {
        // Job 0 cannot finish until every other job has run: the second
        // worker must claim all of them while the first is busy, or the
        // run never completes.
        let n = 64;
        let others_done = AtomicUsize::new(0);
        let items: Vec<usize> = (0..n).collect();
        let ex = Executor::with_threads(Some(2));
        let out = collect(&ex, &items, |&i| {
            if i == 0 {
                let deadline = Instant::now() + Duration::from_secs(30);
                while others_done.load(Ordering::SeqCst) < n - 1 {
                    assert!(
                        Instant::now() < deadline,
                        "job 0 held the other jobs behind it"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
            } else {
                others_done.fetch_add(1, Ordering::SeqCst);
            }
            i
        });
        assert_eq!(out, items);
    }
}
