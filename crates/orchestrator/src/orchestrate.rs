//! The orchestration pipeline: take the caller's partition into
//! structures, consult the cache, execute one representative per
//! structure, replicate.
//!
//! Deduplication is sound because fingerprints cover everything the
//! solver sees (see the crate-level canonicalization rules): two checks
//! with equal fingerprints produce bit-identical SMT queries, so one
//! verdict — pass, or fail with a concrete counterexample over the
//! shared attribute universe — is the verdict of all of them. The caller
//! partitions its jobs (it knows their parts, so it can do so on small
//! integers instead of re-hashing a fingerprint per job) and hands over
//! one [`Structure`] per class.
//!
//! [`run_grouped`] adds a second axis: fingerprint-*distinct* jobs that
//! share an **encoding base** (same router/edge transfer function, same
//! universe — only the assumed/ensured predicates differ) carry an
//! encoding-base key, and the executor hands whole base-groups to
//! workers so the caller can solve each group on one persistent,
//! assumption-based SMT session. The cache still operates per structure:
//! every structure gets its own fingerprint-keyed entry, and cached
//! answers are re-validated by the caller-supplied `validate` hook
//! before being trusted (stale failures are re-solved, not replayed).

use crate::cache::ResultCache;
use crate::executor::Executor;
use crate::fingerprint::Fingerprint;
use std::collections::HashMap;

/// What a batch run did, for dedup-stats reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Jobs submitted (checks generated).
    pub generated: usize,
    /// Distinct structures among them.
    pub unique: usize,
    /// Jobs answered by another job in the same batch.
    pub dedup_hits: usize,
    /// Jobs answered by the cross-run cache.
    pub cache_hits: usize,
    /// Jobs actually executed (solver invocations).
    pub executed: usize,
    /// Cached answers rejected by re-validation (then re-executed).
    pub invalidated: usize,
    /// Encoding-base groups the executed jobs were batched into.
    pub groups: usize,
    /// Executed jobs answered on an already-warm session (assumption
    /// solves after a group's first); `executed - groups` by
    /// construction.
    pub assumption_solves: usize,
    /// Successful steals inside the executor.
    pub steals: u64,
    /// Worker threads used.
    pub threads: usize,
}

impl RunStats {
    /// Executed jobs per generated job; 1.0 means no savings.
    pub fn dedup_ratio(&self) -> f64 {
        if self.generated == 0 {
            1.0
        } else {
            self.executed as f64 / self.generated as f64
        }
    }

    /// The canonical one-line human rendering of a batch (shared by the
    /// CLI and report summaries so the format cannot drift).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "orchestrator: {} checks -> {} solver calls ({} deduped, {} cached, ratio {:.2}, {} threads)",
            self.generated,
            self.executed,
            self.dedup_hits,
            self.cache_hits,
            self.dedup_ratio(),
            self.threads,
        );
        if self.groups > 0 {
            s.push_str(&format!(
                "; incremental: {} groups, {} warm assumption solves",
                self.groups, self.assumption_solves,
            ));
        }
        if self.invalidated > 0 {
            s.push_str(&format!(
                ", {} stale cache entries re-proved",
                self.invalidated
            ));
        }
        s
    }

    /// Fold another batch into this one (thread counts take the max).
    pub fn merge(&mut self, other: &RunStats) {
        self.generated += other.generated;
        self.unique += other.unique;
        self.dedup_hits += other.dedup_hits;
        self.cache_hits += other.cache_hits;
        self.executed += other.executed;
        self.invalidated += other.invalidated;
        self.groups += other.groups;
        self.assumption_solves += other.assumption_solves;
        self.steals += other.steals;
        self.threads = self.threads.max(other.threads);
    }
}

/// One class of a batch's partition: jobs with equal fingerprints, of
/// which only the representative runs.
#[derive(Clone, Debug)]
pub struct Structure<T> {
    /// The shared fingerprint: the cache key.
    pub fp: Fingerprint,
    /// The representative's encoding-base key.
    pub key: u64,
    /// The representative's job.
    pub job: T,
    /// Item indices the structure answers, ascending; the first is the
    /// representative.
    pub members: Vec<usize>,
}

/// The grouped pipeline: cache consult (with re-validation), then
/// execute the remaining representatives in encoding-base groups on the
/// work-stealing pool, handing every item's result to the caller as soon
/// as it is known.
///
/// * `structures` — the batch's partition, one [`Structure`] per class,
///   ordered by representative. Members of one structure are
///   structurally identical (one is solved, the verdict replicated);
///   structures with equal base keys share enough encoding that the
///   caller wants them solved together on one persistent session.
/// * `validate` — called on every cache hit with the representative's
///   job and the cached value; returning `false` rejects the entry (it
///   is removed and the job re-executed). Lets callers spill failure
///   results whose counterexamples must be re-checked against live
///   configurations. Hits are validated concurrently on the same
///   work-stealing pool that executes jobs, so expensive re-validation
///   (a pinned solve per spilled failure) does not serialize the
///   dispatch path.
/// * `solve_group` — receives the group's jobs in structure order and
///   must return one result per job, in order.
/// * `deliver` — called on the calling thread, exactly once per
///   structure, with `(members, result, executed)`: cache answers as
///   their validation finishes, executed structures as their group
///   completes (while other groups are still running). `executed` is
///   false for cache answers, and even when true only the
///   representative's job actually ran — the other members are dedup
///   replicas — so callers can attribute real work (e.g. solver time)
///   exactly once. Delivery order is completion order; callers that
///   need submission order re-sequence.
pub fn run_grouped<T, V, F, P, D>(
    executor: &Executor,
    cache: Option<&ResultCache<V>>,
    mut structures: Vec<Structure<T>>,
    validate: P,
    solve_group: F,
    mut deliver: D,
) -> RunStats
where
    T: Sync,
    V: Clone + Send + Sync,
    P: Fn(&T, &V) -> bool + Sync,
    F: Fn(&[&T]) -> Vec<V> + Sync,
    D: FnMut(Vec<usize>, V, bool),
{
    // Members leave as they are delivered, while workers read the jobs.
    let mut members: Vec<Vec<usize>> = (structures.iter_mut())
        .map(|s| std::mem::take(&mut s.members))
        .collect();
    let reps = &structures;
    let generated: usize = members.iter().map(Vec::len).sum();
    let mut stats = RunStats {
        generated,
        unique: reps.len(),
        dedup_hits: generated - reps.len(),
        threads: executor.threads(),
        ..RunStats::default()
    };

    // Answer structures from the cache where possible. Hits are
    // validated on the work-stealing pool — re-validating a spilled
    // failure costs a pinned encode+solve, so a warm run over a
    // heavily-broken network would otherwise serialize those solves on
    // the dispatching thread. Validation failures drop the entry and
    // fall through to execution.
    let hits: Vec<(usize, V)> = reps
        .iter()
        .enumerate()
        .filter_map(|(si, rep)| cache.and_then(|c| c.get(rep.fp)).map(|v| (si, v)))
        .collect();
    let mut verdicts = vec![false; hits.len()];
    executor.run(
        &hits,
        |(si, v)| validate(&reps[*si].job, v),
        |hi, ok| verdicts[hi] = ok,
    );
    for ((si, v), ok) in hits.into_iter().zip(verdicts) {
        if ok {
            stats.cache_hits += members[si].len();
            deliver(std::mem::take(&mut members[si]), v, false);
        } else {
            stats.invalidated += members[si].len();
            if let Some(c) = cache {
                c.remove(reps[si].fp);
            }
        }
    }
    let to_run: Vec<usize> = (0..reps.len())
        .filter(|&si| !members[si].is_empty())
        .collect();
    stats.executed = to_run.len();

    // Batch the representatives into encoding-base groups, preserving
    // submission order within each group.
    let mut exec_of: HashMap<u64, usize> = HashMap::new();
    let mut exec_groups: Vec<Vec<usize>> = Vec::new(); // structure indices
    for si in to_run {
        match exec_of.entry(reps[si].key) {
            std::collections::hash_map::Entry::Occupied(e) => exec_groups[*e.get()].push(si),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(exec_groups.len());
                exec_groups.push(vec![si]);
            }
        }
    }
    stats.groups = exec_groups.len();
    stats.assumption_solves = stats.executed.saturating_sub(stats.groups);

    // Execute whole groups on the pool, stealing as needed; each
    // group's verdicts reach the caller the moment the group completes.
    stats.steals = executor.run(
        &exec_groups,
        |group: &Vec<usize>| {
            let payloads: Vec<&T> = group.iter().map(|&si| &reps[si].job).collect();
            let out = solve_group(&payloads);
            assert_eq!(
                out.len(),
                payloads.len(),
                "solve_group must return one result per payload"
            );
            out
        },
        |gi, values| {
            for (&si, v) in exec_groups[gi].iter().zip(values) {
                if let Some(c) = cache {
                    c.insert(reps[si].fp, v.clone());
                }
                deliver(std::mem::take(&mut members[si]), v, true);
            }
        },
    );

    if obs::enabled() {
        obs::add("orchestrator.generated", stats.generated as u64);
        obs::add("orchestrator.dedup_hits", stats.dedup_hits as u64);
        obs::add("orchestrator.cache_hits", stats.cache_hits as u64);
        obs::add("orchestrator.invalidated", stats.invalidated as u64);
        obs::add("orchestrator.executed", stats.executed as u64);
        obs::add("orchestrator.groups", stats.groups as u64);
        obs::add("orchestrator.steals", stats.steals);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::FpHasher;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn fp(n: u32) -> Fingerprint {
        let mut h = FpHasher::new();
        h.write_u32(n);
        h.finish()
    }

    /// The partition a caller hands over: items grouped by fingerprint,
    /// first occurrence first, each structure keyed and run as its
    /// representative.
    fn partition(items: &[(Fingerprint, u64, u32)]) -> Vec<Structure<u32>> {
        let mut out: Vec<Structure<u32>> = Vec::new();
        for (i, &(fp, key, job)) in items.iter().enumerate() {
            match out.iter_mut().find(|s| s.fp == fp) {
                Some(s) => s.members.push(i),
                None => out.push(Structure {
                    fp,
                    key,
                    job,
                    members: vec![i],
                }),
            }
        }
        out
    }

    /// A collecting sink over [`run_grouped`]: per-item results and
    /// fresh flags (true where the item's own job ran) in submission
    /// order, asserting exactly-once delivery.
    fn collect<V: Clone + Send + Sync>(
        jobs: Option<usize>,
        cache: Option<&ResultCache<V>>,
        items: &[(Fingerprint, u64, u32)],
        validate: impl Fn(&u32, &V) -> bool + Sync,
        solve_group: impl Fn(&[&u32]) -> Vec<V> + Sync,
    ) -> (Vec<V>, Vec<bool>, RunStats) {
        let mut slots: Vec<Option<(V, bool)>> = vec![None; items.len()];
        let stats = run_grouped(
            &Executor::with_threads(jobs),
            cache,
            partition(items),
            validate,
            solve_group,
            |members, v, executed| {
                assert!(members.windows(2).all(|w| w[0] < w[1]), "{members:?}");
                for (k, &i) in members.iter().enumerate() {
                    assert!(
                        slots[i].replace((v.clone(), executed && k == 0)).is_none(),
                        "item {i} delivered twice"
                    );
                }
            },
        );
        let (results, fresh) = slots
            .into_iter()
            .map(|s| s.expect("every item delivered"))
            .unzip();
        (results, fresh, stats)
    }

    /// Every item its own encoding-base group.
    fn singletons(fps: impl Iterator<Item = (Fingerprint, u32)>) -> Vec<(Fingerprint, u64, u32)> {
        fps.enumerate()
            .map(|(i, (fp, x))| (fp, i as u64, x))
            .collect()
    }

    #[test]
    fn dedup_executes_one_per_structure() {
        let calls = AtomicUsize::new(0);
        // 9 items over 3 structures.
        let items = singletons((0..9).map(|i| (fp(i % 3), i % 3)));
        let (out, fresh, stats) = collect(
            None,
            None,
            &items,
            |_, _| true,
            |group| {
                calls.fetch_add(group.len(), Ordering::Relaxed);
                group.iter().map(|&&x| x * 10).collect()
            },
        );
        // Exactly one member per structure is fresh: the representative.
        assert_eq!(
            fresh,
            [true, true, true, false, false, false, false, false, false]
        );
        assert_eq!(out, vec![0, 10, 20, 0, 10, 20, 0, 10, 20]);
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(stats.generated, 9);
        assert_eq!(stats.unique, 3);
        assert_eq!(stats.dedup_hits, 6);
        assert_eq!(stats.executed, 3);
        assert!(stats.dedup_ratio() < 1.0);
    }

    #[test]
    fn grouped_execution_batches_by_base_key() {
        // 6 distinct structures over 2 base keys: each key's group is
        // solved by one call receiving all its members.
        let group_calls = AtomicUsize::new(0);
        let items: Vec<(Fingerprint, u64, u32)> =
            (0..6).map(|i| (fp(i), (i % 2) as u64, i)).collect();
        let (out, fresh, stats) = collect(
            None,
            None,
            &items,
            |_, _| true,
            |group| {
                group_calls.fetch_add(1, Ordering::Relaxed);
                group.iter().map(|&&x| x * 10).collect()
            },
        );
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
        assert_eq!(group_calls.load(Ordering::Relaxed), 2);
        assert_eq!(stats.groups, 2);
        assert_eq!(stats.executed, 6);
        assert_eq!(stats.assumption_solves, 4);
        assert!(fresh.iter().all(|&f| f));
    }

    #[test]
    fn grouped_dedup_and_cache_cooperate() {
        let cache: ResultCache<u32> = ResultCache::new();
        cache.insert(fp(0), 100);
        // Items: fp0 twice (cached), fp1 twice (dedup), fp2 once; all in
        // one base group.
        let items: Vec<(Fingerprint, u64, u32)> = vec![
            (fp(0), 7, 0),
            (fp(1), 7, 1),
            (fp(0), 7, 0),
            (fp(1), 7, 1),
            (fp(2), 7, 2),
        ];
        let (out, fresh, stats) = collect(
            None,
            Some(&cache),
            &items,
            |_, _| true,
            |group| group.iter().map(|&&x| x + 10).collect(),
        );
        assert_eq!(out, vec![100, 11, 100, 11, 12]);
        assert_eq!(fresh, [false, true, false, false, true]);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.dedup_hits, 2);
        assert_eq!(stats.executed, 2);
        assert_eq!(stats.groups, 1);
    }

    #[test]
    fn stale_cache_entries_are_revalidated_and_reexecuted() {
        let cache: ResultCache<u32> = ResultCache::new();
        cache.insert(fp(1), 999); // stale: validator rejects odd payloads' 999
        let items: Vec<(Fingerprint, u64, u32)> = vec![(fp(1), 0, 1), (fp(2), 0, 2)];
        let (out, _, stats) = collect(
            None,
            Some(&cache),
            &items,
            |_, v| *v != 999,
            |group| group.iter().map(|&&x| x + 10).collect(),
        );
        assert_eq!(out, vec![11, 12]);
        assert_eq!(stats.invalidated, 1);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.executed, 2);
        // The stale entry was replaced by the fresh verdict.
        assert_eq!(cache.peek(fp(1)), Some(11));
    }

    #[test]
    fn revalidation_runs_concurrently_on_the_pool() {
        // Many cached entries with a validator that records its calling
        // threads: with several workers, validation must not all happen
        // on the dispatching thread.
        use std::sync::Mutex;
        let cache: ResultCache<u32> = ResultCache::new();
        let n = 64u32;
        for i in 0..n {
            cache.insert(fp(i), i);
        }
        let threads: Mutex<std::collections::HashSet<std::thread::ThreadId>> =
            Mutex::new(std::collections::HashSet::new());
        let items = singletons((0..n).map(|i| (fp(i), i)));
        let (_, _, stats) = collect(
            Some(4),
            Some(&cache),
            &items,
            |_, _| {
                threads.lock().unwrap().insert(std::thread::current().id());
                // Simulate pinned-solve cost so workers overlap.
                std::thread::sleep(std::time::Duration::from_micros(300));
                true
            },
            |group| group.iter().map(|&&x| x).collect(),
        );
        assert_eq!(stats.cache_hits as u32, n);
        assert_eq!(stats.executed, 0);
        assert!(
            threads.lock().unwrap().len() > 1,
            "validation must fan out over the pool"
        );
    }

    #[test]
    fn warm_cache_answers_without_executing() {
        let cache: ResultCache<u32> = ResultCache::new();
        let items = singletons([(fp(1), 1), (fp(2), 2), (fp(1), 1)].into_iter());
        let (out1, _, s1) = collect(
            None,
            Some(&cache),
            &items,
            |_, _| true,
            |group| group.iter().map(|&&x| x + 100).collect(),
        );
        assert_eq!(out1, vec![101, 102, 101]);
        assert_eq!(s1.executed, 2);
        assert_eq!(s1.cache_hits, 0);

        let (out2, fresh2, s2) = collect(
            None,
            Some(&cache),
            &items,
            |_, _| true,
            |_| -> Vec<u32> { panic!("warm run must not execute") },
        );
        assert!(fresh2.iter().all(|&f| !f), "warm run: nothing fresh");
        assert_eq!(out2, out1);
        assert_eq!(s2.cache_hits, 3);
        assert_eq!(s2.executed, 0);
    }

    #[test]
    fn a_group_is_delivered_before_later_groups_finish() {
        // Group 1 cannot finish until the caller has received group 0's
        // members (the representative and its dedup replica): a pipeline
        // that assembled the whole batch before returning would deadlock.
        use std::sync::{mpsc, Mutex};
        let (tx, rx) = mpsc::channel::<()>();
        let rx = Mutex::new(rx);
        let items: Vec<(Fingerprint, u64, u32)> = vec![(fp(0), 0, 0), (fp(1), 1, 1), (fp(0), 0, 0)];
        let mut order = Vec::new();
        run_grouped(
            &Executor::with_threads(Some(2)),
            None::<&ResultCache<u32>>,
            partition(&items),
            |_, _| true,
            |group| {
                if *group[0] == 1 {
                    rx.lock().unwrap().recv().unwrap();
                }
                group.iter().map(|&&x| x).collect()
            },
            |members, _, _| {
                if members == [0, 2] {
                    tx.send(()).unwrap();
                }
                order.push(members);
            },
        );
        assert_eq!(order, vec![vec![0, 2], vec![1]]);
    }
}
