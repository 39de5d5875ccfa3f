//! Intra-replica compute pool: one FIFO queue of *pure* task payloads
//! and the threads that drain it.
//!
//! The discrete-event engine ([`crate::engine`]) keeps sole authority
//! over scheduling decisions, fault draws and virtual clocks; what it
//! hands this pool is only the data-plane work of a task — the map or
//! reduce UDF over its `Arc`-shared input slice plus the digest hashing
//! — every bit of which is a pure function of `(spec, input, fate)`.
//! A payload is a leaf: it neither observes the pool nor dispatches to
//! it, so the results joined back into the simulation are bit-identical
//! for every pool size, including the inline pool of one; only host
//! wall-clock changes.
//!
//! The pool is deliberately shared across all replica threads of the
//! parallel executor: a straggling replica's tail tasks soak up the
//! cores freed by finished siblings instead of idling them.
//!
//! Structure: one `Mutex`-guarded queue and one `Condvar`. Workers pop
//! from its front; [`ComputePool::dispatch`] pushes to its back. Joining
//! threads *help*: while a [`Ticket`] is unresolved they run payloads
//! from the same queue instead of blocking, so a payload that does
//! dispatch to its pool and join can never deadlock it.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::data_plane::{self, Counter};
use cbft_metrics::{names as metric_names, Domain, Metrics};

/// A queued payload: type-erased, returns through its ticket.
type Job = Box<dyn FnOnce() + Send>;

/// The result slot a payload resolves into. A payload that panicked is
/// re-raised on the joining thread rather than wedging it.
type Outcome<T> = Result<T, Box<dyn std::any::Any + Send>>;

struct TicketState<T> {
    slot: Mutex<Option<Outcome<T>>>,
    ready: Condvar,
}

/// Handle to one dispatched payload; [`Ticket::join`] blocks (helping
/// the pool while it waits) until the result is available.
pub struct Ticket<T> {
    inner: TicketInner<T>,
}

enum TicketInner<T> {
    /// Inline pools resolve at dispatch time.
    Ready(Box<T>),
    Pending {
        state: Arc<TicketState<T>>,
        shared: Arc<Shared>,
    },
}

impl<T> std::fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            TicketInner::Ready(_) => f.write_str("Ticket::Ready"),
            TicketInner::Pending { .. } => f.write_str("Ticket::Pending"),
        }
    }
}

impl<T> Ticket<T> {
    /// Waits for the payload result, executing other queued payloads
    /// while waiting. Re-raises the payload's panic, if it had one.
    pub fn join(self) -> T {
        let (state, shared) = match self.inner {
            TicketInner::Ready(v) => return *v,
            TicketInner::Pending { state, shared } => (state, shared),
        };
        loop {
            if let Some(out) = state.slot.lock().unwrap().take() {
                return unwrap_outcome(out);
            }
            // Help-first: run a queued payload instead of sleeping — our
            // own dependency may be in the queue.
            let Some(job) = shared.queue.lock().unwrap().jobs.pop_front() else {
                break;
            };
            job();
        }
        // Nothing queued: the payload is running on (or finished by)
        // another thread. Block until its completion signal.
        let mut slot = state.slot.lock().unwrap();
        while slot.is_none() {
            slot = state.ready.wait(slot).unwrap();
        }
        unwrap_outcome(slot.take().expect("checked above"))
    }
}

fn unwrap_outcome<T>(out: Outcome<T>) -> T {
    match out {
        Ok(v) => v,
        Err(panic) => std::panic::resume_unwind(panic),
    }
}

/// What the workers share: the queue and its signal. Workers hold only
/// this, never the join handles (see [`PoolCore`]).
struct Shared {
    queue: Mutex<Queue>,
    /// Signalled once per push, and to every worker at shutdown.
    pushed: Condvar,
}

struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

fn worker_loop(shared: Arc<Shared>) {
    let mut queue = shared.queue.lock().unwrap();
    loop {
        if let Some(job) = queue.jobs.pop_front() {
            drop(queue);
            job();
            queue = shared.queue.lock().unwrap();
        } else if queue.shutdown {
            return;
        } else {
            queue = shared.pushed.wait(queue).unwrap();
        }
    }
}

/// Shuts the workers down and joins them when the last pool handle
/// drops.
struct PoolCore {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Drop for PoolCore {
    fn drop(&mut self) {
        self.shared.queue.lock().unwrap().shutdown = true;
        self.shared.pushed.notify_all();
        let here = std::thread::current().id();
        for h in self.handles.drain(..) {
            // A payload may hold the last handle: its worker cannot join
            // itself, and leaves the loop once the payload returns.
            if h.thread().id() != here {
                let _ = h.join();
            }
        }
    }
}

/// A FIFO pool for pure task payloads. Cloning is cheap and shares the
/// same workers; `ComputePool::new(1)` (and below) is the *inline* pool,
/// which executes every payload at dispatch on the caller's thread — the
/// deterministic baseline every other size must match bit-for-bit.
#[derive(Clone)]
pub struct ComputePool {
    core: Option<Arc<PoolCore>>,
    threads: usize,
    /// Per-pool labeled metrics; disabled by default.
    metrics: Metrics,
}

impl std::fmt::Debug for ComputePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComputePool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl Default for ComputePool {
    fn default() -> Self {
        ComputePool::new(1)
    }
}

impl ComputePool {
    /// Creates a pool of `threads` workers. `0` means one worker per
    /// host core; `1` (the default everywhere) means inline execution
    /// with no threads at all.
    pub fn new(threads: usize) -> Self {
        Self::with_metrics(threads, Metrics::disabled())
    }

    /// Like [`ComputePool::new`], but records dispatches and the queue
    /// peak into `metrics`, labeled by pool size (wall-domain).
    pub fn with_metrics(threads: usize, metrics: Metrics) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            threads
        };
        if threads <= 1 {
            return ComputePool {
                core: None,
                threads: 1,
                metrics,
            };
        }
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            pushed: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("cbft-compute".to_owned())
                    .spawn(move || worker_loop(shared))
                    .expect("spawn compute worker")
            })
            .collect();
        ComputePool {
            core: Some(Arc::new(PoolCore { shared, handles })),
            threads,
            metrics,
        }
    }

    /// Number of workers (1 for the inline pool).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Queues `f` for execution and returns its ticket. On the inline
    /// pool `f` runs right here, on the caller.
    pub fn dispatch<T, F>(&self, f: F) -> Ticket<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        data_plane::count(Counter::TasksDispatched, 1);
        let threads = [("threads", (self.threads as u64).into())];
        self.metrics
            .add(Domain::Wall, metric_names::POOL_DISPATCHED, &threads, 1);
        let Some(core) = &self.core else {
            return Ticket {
                inner: TicketInner::Ready(Box::new(f())),
            };
        };
        let state = Arc::new(TicketState {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        });
        let job_state = Arc::clone(&state);
        let job: Job = Box::new(move || {
            let out = catch_unwind(AssertUnwindSafe(f));
            *job_state.slot.lock().unwrap() = Some(out);
            job_state.ready.notify_all();
        });
        let shared = &core.shared;
        let depth = {
            let mut queue = shared.queue.lock().unwrap();
            queue.jobs.push_back(job);
            queue.jobs.len() as u64
        };
        shared.pushed.notify_one();
        data_plane::record_pool_queue_depth(depth);
        self.metrics
            .gauge_max(Domain::Wall, metric_names::POOL_QUEUE_PEAK, &threads, depth);
        Ticket {
            inner: TicketInner::Pending {
                state,
                shared: Arc::clone(shared),
            },
        }
    }

    /// Maps `f` over `0..n` on the pool, returning results in index
    /// order. The join order — and therefore any order-sensitive fold
    /// over the results — is a function of `n` only, never of the pool
    /// size: dispatch at any thread count yields the same `Vec`. This is
    /// the fan-out primitive of the campaign runner, which executes
    /// thousands of independent seeded scenarios and needs the aggregate
    /// report to be byte-identical at every `--threads` setting.
    ///
    /// On the inline pool each payload runs at dispatch, so the whole
    /// map degenerates to a sequential loop — the deterministic baseline
    /// every other size must match.
    pub fn par_map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let tickets: Vec<Ticket<T>> = (0..n)
            .map(|i| {
                let f = Arc::clone(&f);
                self.dispatch(move || f(i))
            })
            .collect();
        tickets.into_iter().map(Ticket::join).collect()
    }
}

/// Default pool size: the `CBFT_COMPUTE_THREADS` environment variable
/// when set (the CI matrix hook), otherwise 1 (inline). `0` resolves to
/// the host core count, as in [`ComputePool::new`].
pub fn default_compute_threads() -> usize {
    std::env::var("CBFT_COMPUTE_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .map_or(1, |n| if n == 0 { 0 } else { n })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_pool_resolves_at_dispatch() {
        let pool = ComputePool::new(1);
        assert_eq!(pool.threads(), 1);
        let t = pool.dispatch(|| 41 + 1);
        assert_eq!(t.join(), 42);
    }

    #[test]
    fn pooled_dispatch_joins_results_in_order() {
        let pool = ComputePool::new(4);
        assert_eq!(pool.threads(), 4);
        let tickets: Vec<Ticket<usize>> = (0..64).map(|i| pool.dispatch(move || i * i)).collect();
        let got: Vec<usize> = tickets.into_iter().map(Ticket::join).collect();
        let want: Vec<usize> = (0..64).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn nested_dispatch_from_worker_does_not_deadlock() {
        let pool = ComputePool::new(2);
        let inner = pool.clone();
        let t = pool.dispatch(move || {
            let subs: Vec<Ticket<u64>> = (0..8u64).map(|i| inner.dispatch(move || i + 1)).collect();
            subs.into_iter().map(Ticket::join).sum::<u64>()
        });
        assert_eq!(t.join(), 8 + 28);
    }

    #[test]
    fn the_last_handle_may_drop_on_a_worker() {
        let pool = ComputePool::new(2);
        let held = pool.clone();
        let t = pool.dispatch(move || drop(held));
        drop(pool);
        t.join();
    }

    #[test]
    fn payload_panic_surfaces_at_join() {
        let pool = ComputePool::new(2);
        let t: Ticket<()> = pool.dispatch(|| panic!("payload bug"));
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| t.join()));
        assert!(err.is_err());
    }

    #[test]
    fn par_map_is_ordered_and_pool_size_independent() {
        let baseline: Vec<u64> = ComputePool::new(1).par_map(100, |i| (i as u64) * 31 % 97);
        assert_eq!(baseline.len(), 100);
        assert_eq!(baseline[3], 93);
        for threads in [2, 8] {
            let pool = ComputePool::new(threads);
            assert_eq!(
                baseline,
                pool.par_map(100, |i| (i as u64) * 31 % 97),
                "pool of {threads}"
            );
        }
    }

    #[test]
    fn default_compute_threads_parses_env() {
        // Not set in the test environment unless the CI matrix exports
        // it; both cases are valid — just ensure it never returns junk.
        let n = default_compute_threads();
        assert!(n == 0 || n >= 1);
    }
}
