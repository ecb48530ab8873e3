//! Parallel execution of many independent simulation scenarios.
//!
//! Cycle-time sweeps, seed studies and design-space exploration all have
//! the same shape: N completely independent simulations, each a pure
//! function of its scenario description. [`BatchRunner`] runs them
//! across OS threads with [`std::thread::scope`] — no runtime
//! dependency, no work queue to configure — and returns results in input
//! order, so a batch is observably identical to a sequential loop, just
//! faster.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Runs independent scenarios across a fixed pool of scoped threads.
///
/// # Examples
///
/// ```
/// use tsg_sim::BatchRunner;
///
/// let scenarios: Vec<u64> = (0..32).collect();
/// let squares = BatchRunner::with_threads(4).run(&scenarios, |&s| s * s);
/// assert_eq!(squares[7], 49);
/// assert_eq!(squares.len(), 32);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BatchRunner {
    threads: usize,
}

impl Default for BatchRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchRunner {
    /// The largest `--threads N` [`parse_threads`](Self::parse_threads)
    /// accepts. Pools spawn every worker up front, so an unbounded
    /// count would ask the OS for that many threads at once.
    pub const MAX_THREADS: usize = 1024;

    /// A runner sized to the machine's available parallelism.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        BatchRunner { threads }
    }

    /// A runner with exactly `threads` workers (`threads >= 1`).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads >= 1, "BatchRunner needs at least one thread");
        BatchRunner { threads }
    }

    /// The one pool-sizing rule of the workspace: an explicit request
    /// (a `--threads N` flag) wins, otherwise the machine's available
    /// parallelism. Every CLI and batch API resolves its thread count
    /// here instead of rolling its own.
    ///
    /// # Panics
    ///
    /// Panics if `Some(0)` is requested.
    pub fn sized(threads: Option<usize>) -> Self {
        match threads {
            Some(n) => Self::with_threads(n),
            None => Self::new(),
        }
    }

    /// Parses the value of a `--threads N` flag — the other half of the
    /// pool-sizing rule, shared by every binary so they all accept and
    /// reject the same inputs.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message when the value is missing, not an
    /// integer, zero, or above [`MAX_THREADS`](Self::MAX_THREADS).
    pub fn parse_threads(value: Option<&str>) -> Result<usize, String> {
        let threads = value
            .and_then(|v| v.parse().ok())
            .filter(|&n: &usize| n >= 1)
            .ok_or_else(|| "--threads needs a positive integer".to_owned())?;
        if threads > Self::MAX_THREADS {
            return Err(format!(
                "--threads takes at most {} worker threads",
                Self::MAX_THREADS
            ));
        }
        Ok(threads)
    }

    /// The number of worker threads this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every scenario, in parallel, preserving input
    /// order in the returned vector.
    ///
    /// Workers claim scenarios through an atomic cursor, so imbalanced
    /// workloads still saturate all threads. A panic inside `f`
    /// propagates out of `run` once the scope joins.
    pub fn run<T, R, F>(&self, scenarios: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.run_with_state(scenarios, || (), |(), s| f(s))
    }

    /// Like [`BatchRunner::run`], with a per-worker scratch state.
    ///
    /// `init` runs once on each worker thread; the resulting state is
    /// handed mutably to every scenario that worker claims. This is how
    /// allocation-reusing sweeps work: the state is an arena (e.g.
    /// `tsg-core`'s `SimArena`), warmed by the first scenario and reused
    /// by every later one, so a thousand-scenario sweep performs a
    /// thread-count's worth of allocations instead of a thousand.
    ///
    /// The state must not influence results (it is scratch space):
    /// scenarios are claimed dynamically, so which worker — and hence
    /// which state instance — processes a scenario is scheduling-
    /// dependent.
    pub fn run_with_state<S, T, R, I, F>(&self, scenarios: &[T], init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &T) -> R + Sync,
    {
        if scenarios.is_empty() {
            return Vec::new();
        }
        let workers = self.threads.min(scenarios.len());
        if workers == 1 {
            let mut state = init();
            return scenarios.iter().map(|s| f(&mut state, s)).collect();
        }

        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        // Results are assembled inside the scope but unwrapped only after
        // it joins, so a worker panic surfaces as itself rather than as a
        // missing-result error.
        let results: Vec<Option<R>> = std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let cursor = &cursor;
                let init = &init;
                let f = &f;
                scope.spawn(move || {
                    let mut state = init();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(scenario) = scenarios.get(i) else {
                            break;
                        };
                        if tx.send((i, f(&mut state, scenario))).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);

            let mut results: Vec<Option<R>> = Vec::with_capacity(scenarios.len());
            results.resize_with(scenarios.len(), || None);
            for (i, r) in rx {
                results[i] = Some(r);
            }
            results
        });
        results
            .into_iter()
            .map(|r| r.expect("every scenario index is claimed exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 8] {
            let out = BatchRunner::with_threads(threads).run(&items, |&x| x * 3);
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn actually_uses_multiple_threads() {
        let ids = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..64).collect();
        BatchRunner::with_threads(4).run(&items, |_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            ids.lock().unwrap().insert(std::thread::current().id());
        });
        assert!(ids.lock().unwrap().len() > 1);
    }

    #[test]
    fn empty_batch() {
        let out: Vec<u32> = BatchRunner::new().run(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = BatchRunner::with_threads(16).run(&[1, 2, 3], |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = BatchRunner::with_threads(0);
    }

    #[test]
    fn sized_resolves_explicit_and_default() {
        assert_eq!(BatchRunner::sized(Some(3)).threads(), 3);
        assert_eq!(
            BatchRunner::sized(None).threads(),
            BatchRunner::new().threads()
        );
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(BatchRunner::parse_threads(Some("4")), Ok(4));
        assert!(BatchRunner::parse_threads(Some("0")).is_err());
        assert!(BatchRunner::parse_threads(Some("four")).is_err());
        assert!(BatchRunner::parse_threads(Some("-2")).is_err());
        assert!(BatchRunner::parse_threads(None).is_err());
        // Pools spawn every worker up front: the count is capped.
        let max = BatchRunner::MAX_THREADS;
        assert_eq!(BatchRunner::parse_threads(Some(&max.to_string())), Ok(max));
        for too_many in [max + 1, 1_000_000, usize::MAX] {
            let err = BatchRunner::parse_threads(Some(&too_many.to_string())).unwrap_err();
            assert_eq!(err, format!("--threads takes at most {max} worker threads"));
        }
    }

    #[test]
    fn per_worker_state_is_reused_not_shared() {
        // Each worker counts the scenarios it processed in its own state;
        // states never mix, and together they cover the batch exactly.
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 4] {
            let out = BatchRunner::with_threads(threads).run_with_state(
                &items,
                || 0usize,
                |seen, &x| {
                    *seen += 1;
                    (x, *seen)
                },
            );
            assert_eq!(out.len(), 64);
            // Results stay in input order regardless of which state
            // processed them.
            assert!(out.iter().enumerate().all(|(i, &(x, _))| x == i));
            // Every worker's per-state counter covered the whole batch.
            let total_seen = out.iter().map(|&(_, seen)| seen).max().unwrap();
            assert!(total_seen >= 64 / threads.max(1));
        }
    }

    #[test]
    fn state_init_runs_per_worker() {
        use std::sync::atomic::AtomicUsize;
        let inits = AtomicUsize::new(0);
        let items: Vec<u32> = (0..16).collect();
        BatchRunner::with_threads(4).run_with_state(
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |(), &x| x,
        );
        let n = inits.load(Ordering::Relaxed);
        assert!((1..=4).contains(&n), "init ran {n} times");
    }

    #[test]
    fn worker_panic_propagates() {
        let outcome = std::panic::catch_unwind(|| {
            BatchRunner::with_threads(2).run(&[1u32, 2, 3, 4], |&x| {
                if x == 3 {
                    panic!("scenario failure");
                }
                x
            });
        });
        assert!(outcome.is_err());
    }
}
