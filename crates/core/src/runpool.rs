//! Deterministic parallel fan-out for independent experiment runs.
//!
//! Parameter sweeps, repeated runs, and trainer candidate evaluations all
//! share one shape: `N` completely independent simulations whose results
//! are combined afterwards. [`RunPool`] fans such jobs across
//! `std::thread::scope` workers while keeping the results **bit-identical
//! to a serial execution**, because
//!
//! 1. every job is a pure function of its index (workers share nothing),
//! 2. each run's RNG seed is derived only from `(base_seed, run_index)`
//!    via [`derive_seed`] — never from which worker picked the job up or
//!    when it finished, and
//! 3. results are written into an index-addressed slot table, so the
//!    returned `Vec` is in job order no matter the completion order.
//!
//! The worker count comes from the `PHI_JOBS` environment variable
//! (`PHI_JOBS=1` forces serial execution; unset or `0` uses the machine's
//! available parallelism).

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The SplitMix64 output mix (Steele et al., the same finalizer the
/// simulator uses for per-packet jitter).
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the seed for run `run_index` of an experiment rooted at
/// `base_seed`.
///
/// This is the `run_index`-th output of a SplitMix64 generator seeded with
/// `base_seed`: the generator's state after `n` draws is
/// `base + n·GOLDEN`, so jumping straight to any run is O(1). Because the
/// value depends only on `(base_seed, run_index)`, a run's RNG stream is
/// identical whether it executes serially, on 4 workers, or on 40.
pub fn derive_seed(base_seed: u64, run_index: u64) -> u64 {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    mix64(base_seed.wrapping_add(run_index.wrapping_add(1).wrapping_mul(GOLDEN)))
}

/// A scoped worker pool for independent, deterministic jobs.
#[derive(Debug, Clone)]
pub struct RunPool {
    workers: usize,
}

impl RunPool {
    /// A pool with exactly `workers` threads (floored at 1).
    pub fn new(workers: usize) -> Self {
        RunPool {
            workers: workers.max(1),
        }
    }

    /// A single-threaded pool: `run` degenerates to a plain serial map.
    pub fn serial() -> Self {
        RunPool::new(1)
    }

    /// The pool selected by the `PHI_JOBS` environment variable: a
    /// positive value fixes the worker count; unset, `0`, or unparsable
    /// falls back to the machine's available parallelism.
    pub fn from_env() -> Self {
        match std::env::var("PHI_JOBS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(n) if n >= 1 => RunPool::new(n),
            _ => RunPool::new(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            ),
        }
    }

    /// Worker threads this pool will spawn.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Evaluate `job(0..jobs)` and return the results in index order.
    ///
    /// `job` must be a pure function of its index for the determinism
    /// guarantee to hold (all the harness jobs are: they build a fresh
    /// simulator from a derived seed). Worker threads pull the next
    /// unclaimed index from a shared counter, so scheduling adapts to
    /// uneven job costs; a panicking job propagates the panic to the
    /// caller once the scope joins.
    pub fn run<T, F>(&self, jobs: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.workers == 1 || jobs <= 1 {
            return (0..jobs).map(job).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..self.workers.min(jobs) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    let out = job(i);
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("every claimed index stores exactly one result")
            })
            .collect()
    }
}

impl Default for RunPool {
    fn default() -> Self {
        RunPool::from_env()
    }
}

/// Render a panic payload as a message. Covers the two payload types
/// `panic!` actually produces (`&str` and `String`); anything else — a
/// custom `panic_any` value — degrades to a placeholder rather than
/// losing the failure.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Post-mortem of one failed (or initially-failed) supervised job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunFailure {
    /// The job's index — enough to re-derive its seed and spec.
    pub index: usize,
    /// Attempts executed, including the retries.
    pub attempts: u32,
    /// Panic message of every failed attempt, in attempt order.
    pub panics: Vec<String>,
    /// Whether the attempts disagreed: a retry succeeded after a panic,
    /// or two retries panicked with different messages. A deterministic
    /// simulation must fail identically every time, so divergence is
    /// itself a bug worth flagging (a data race, wall-clock dependence,
    /// or unseeded randomness), distinct from the failure it masks.
    pub diverged: bool,
}

impl RunFailure {
    /// The last panic message (the one the quarantine verdict rests on).
    pub fn last_panic(&self) -> &str {
        self.panics.last().map_or("", |s| s.as_str())
    }
}

/// Outcome of one supervised job (see [`RunPool::run_supervised`]).
#[derive(Debug)]
pub enum RunOutcome<T> {
    /// The job completed on the first attempt.
    Done(T),
    /// The job completed only after retrying — by the determinism
    /// contract this should be impossible, so the value is usable but
    /// the run is flagged (`failure.diverged` is always true here).
    Flaky {
        /// The value produced by the successful retry.
        value: T,
        /// The failed attempts that preceded it.
        failure: RunFailure,
    },
    /// Every attempt panicked; the job is quarantined and the sweep
    /// continues without it.
    Quarantined(RunFailure),
}

impl<T> RunOutcome<T> {
    /// The produced value, if any attempt completed.
    pub fn value(&self) -> Option<&T> {
        match self {
            RunOutcome::Done(v) | RunOutcome::Flaky { value: v, .. } => Some(v),
            RunOutcome::Quarantined(_) => None,
        }
    }

    /// The failure record, if any attempt panicked.
    pub fn failure(&self) -> Option<&RunFailure> {
        match self {
            RunOutcome::Done(_) => None,
            RunOutcome::Flaky { failure, .. } => Some(failure),
            RunOutcome::Quarantined(f) => Some(f),
        }
    }
}

/// One supervised job: up to `1 + retries` attempts under `catch_unwind`.
fn supervise_one<T, F>(index: usize, retries: u32, job: &F) -> RunOutcome<T>
where
    F: Fn(usize) -> T + Sync,
{
    let mut panics: Vec<String> = Vec::new();
    for _attempt in 0..=retries {
        // `AssertUnwindSafe` is sound here: `job` is a pure function of
        // its index (the pool's determinism contract), so a panicked
        // attempt leaves nothing behind that a retry could observe.
        match catch_unwind(AssertUnwindSafe(|| job(index))) {
            Ok(value) => {
                if panics.is_empty() {
                    return RunOutcome::Done(value);
                }
                let attempts = panics.len() as u32 + 1;
                return RunOutcome::Flaky {
                    value,
                    failure: RunFailure {
                        index,
                        attempts,
                        panics,
                        diverged: true,
                    },
                };
            }
            Err(payload) => panics.push(panic_message(payload.as_ref())),
        }
    }
    let diverged = panics.windows(2).any(|w| w[0] != w[1]);
    RunOutcome::Quarantined(RunFailure {
        index,
        attempts: panics.len() as u32,
        panics,
        diverged,
    })
}

impl RunPool {
    /// [`RunPool::run`] with panic isolation: each job executes under
    /// `catch_unwind`, a panicking job is retried up to `retries` times
    /// with the *same* index (hence the same derived seed — a
    /// deterministic sim must fail identically, so a diverging retry is
    /// flagged), and a job whose every attempt panics is quarantined
    /// into a [`RunOutcome::Quarantined`] slot instead of sinking the
    /// pool: sibling jobs, and the worker threads themselves, always
    /// run to completion.
    ///
    /// Results keep the pool's bit-identical-for-any-worker-count
    /// guarantee: outcomes are index-addressed and each attempt sequence
    /// depends only on the job index.
    pub fn run_supervised<T, F>(&self, jobs: usize, retries: u32, job: F) -> Vec<RunOutcome<T>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run(jobs, |i| supervise_one(i, retries, &job))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_for_any_worker_count() {
        let expected: Vec<u64> = (0..97).map(|i| derive_seed(42, i)).collect();
        for workers in [1, 2, 3, 8, 64] {
            let pool = RunPool::new(workers);
            let got = pool.run(97, |i| derive_seed(42, i as u64));
            assert_eq!(got, expected, "worker count {workers} changed results");
        }
    }

    #[test]
    fn empty_and_single_job_edge_cases() {
        let pool = RunPool::new(4);
        assert!(pool.run(0, |i| i).is_empty());
        assert_eq!(pool.run(1, |i| i * 10), vec![0]);
    }

    #[test]
    fn workers_floor_at_one() {
        assert_eq!(RunPool::new(0).workers(), 1);
        assert_eq!(RunPool::serial().workers(), 1);
    }

    #[test]
    fn derive_seed_is_injective_enough_and_stable() {
        // Stable across releases: tests and recorded results depend on it.
        assert_eq!(derive_seed(0, 0), mix64(0x9E37_79B9_7F4A_7C15));
        // Distinct runs get distinct seeds; distinct bases decorrelate.
        let mut seen = std::collections::HashSet::new();
        for base in [0u64, 1, 42, u64::MAX] {
            for i in 0..1000 {
                assert!(seen.insert(derive_seed(base, i)), "collision at {base}/{i}");
            }
        }
    }

    #[test]
    fn uneven_job_costs_still_merge_in_order() {
        let pool = RunPool::new(4);
        let got = pool.run(32, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * i
        });
        assert_eq!(got, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn job_panics_propagate() {
        RunPool::new(3).run(20, |i| {
            if i == 13 {
                panic!("job 13 failed");
            }
            i
        });
    }

    #[test]
    fn supervised_quarantines_the_panicking_job_only() {
        for workers in [1, 4] {
            let pool = RunPool::new(workers);
            let outcomes = pool.run_supervised(20, 1, |i| {
                assert!(i != 13, "job 13 failed");
                i * 2
            });
            assert_eq!(outcomes.len(), 20);
            for (i, o) in outcomes.iter().enumerate() {
                if i == 13 {
                    let f = o.failure().expect("job 13 must carry a failure");
                    assert!(matches!(o, RunOutcome::Quarantined(_)));
                    assert_eq!(f.index, 13);
                    assert_eq!(f.attempts, 2, "one retry with the same seed");
                    assert!(f.last_panic().contains("job 13 failed"));
                    assert!(!f.diverged, "identical panics are not divergence");
                } else {
                    assert_eq!(o.value(), Some(&(i * 2)), "sibling job {i} was sunk");
                }
            }
        }
    }

    #[test]
    fn supervised_flags_diverging_retries_as_flaky() {
        use std::sync::atomic::{AtomicU32, Ordering};
        // A job that fails once then succeeds — exactly the behaviour the
        // determinism contract forbids, so it must surface as Flaky.
        let calls = AtomicU32::new(0);
        let outcomes = RunPool::serial().run_supervised(1, 2, |_| {
            assert!(
                calls.fetch_add(1, Ordering::Relaxed) > 0,
                "first attempt fails"
            );
            7u32
        });
        match &outcomes[0] {
            RunOutcome::Flaky { value, failure } => {
                assert_eq!(*value, 7);
                assert!(failure.diverged);
                assert_eq!(failure.attempts, 2);
            }
            other => panic!("expected Flaky, got {other:?}"),
        }
    }

    #[test]
    fn supervised_matches_plain_run_when_nothing_panics() {
        let plain = RunPool::new(3).run(16, |i| derive_seed(9, i as u64));
        let supervised: Vec<u64> = RunPool::new(3)
            .run_supervised(16, 1, |i| derive_seed(9, i as u64))
            .into_iter()
            .map(|o| *o.value().expect("no panics injected"))
            .collect();
        assert_eq!(plain, supervised);
    }

    #[test]
    fn panic_message_renders_str_and_string_payloads() {
        let p = std::panic::catch_unwind(|| panic!("plain literal")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "plain literal");
        let p = std::panic::catch_unwind(|| panic!("formatted {}", 42)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "formatted 42");
    }
}
