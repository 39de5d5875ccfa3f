//! Intra-replica compute pool: a shared work-stealing thread pool for
//! *pure* task payloads.
//!
//! The discrete-event engine ([`crate::engine`]) keeps sole authority
//! over scheduling decisions, fault draws and virtual clocks; what it
//! hands this pool is only the data-plane work of a task — the map or
//! reduce UDF over its `Arc`-shared input slice plus the digest hashing
//! — every bit of which is a pure function of `(spec, input, fate)`.
//! Because payloads neither observe the pool nor each other, the results
//! joined back into the simulation are bit-identical for every pool
//! size, including the inline pool of one; only host wall-clock changes.
//!
//! The pool is deliberately shared across all replica threads of the
//! parallel executor: a straggling replica's tail tasks soak up the
//! cores freed by finished siblings instead of idling them.
//!
//! Structure: one global [`crossbeam::deque::Injector`] receives
//! payloads dispatched from engine threads; each worker owns a local
//! FIFO deque (fed by payloads dispatched *from* that worker, e.g. the
//! chunk sorts of [`ComputePool::par_sort_unstable`]) and steals from
//! the injector and from siblings when its own queue runs dry. Joining
//! threads *help*: while a [`Ticket`] is unresolved they execute queued
//! payloads instead of blocking, so a worker that joins sub-tasks of its
//! own payload can never deadlock the pool.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crossbeam::deque::{Injector, Steal, Stealer, Worker};

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
        pool: ComputePool,
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
        match self.inner {
            TicketInner::Ready(v) => *v,
            TicketInner::Pending { state, pool } => {
                loop {
                    if let Some(out) = state.slot.lock().unwrap().take() {
                        return unwrap_outcome(out);
                    }
                    // Help-first: drain a queued payload instead of
                    // sleeping — our own dependency may be in the queue.
                    if pool.help_one() {
                        continue;
                    }
                    // Nothing queued anywhere: the payload is running on
                    // (or finished by) another thread. Block until its
                    // completion signal.
                    let mut slot = state.slot.lock().unwrap();
                    while slot.is_none() {
                        slot = state.ready.wait(slot).unwrap();
                    }
                    return unwrap_outcome(slot.take().expect("checked above"));
                }
            }
        }
    }
}

fn unwrap_outcome<T>(out: Outcome<T>) -> T {
    match out {
        Ok(v) => v,
        Err(panic) => std::panic::resume_unwind(panic),
    }
}

/// Pool-wide shared state; worker threads hold only this (never the
/// join handles), so the final handle-owning drop always happens on an
/// engine/executor thread.
struct Shared {
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    sleep: Mutex<SleepState>,
    wake: Condvar,
    /// Per-pool labeled metrics (disabled unless the pool was built
    /// with [`ComputePool::with_metrics`]); steal counts are
    /// wall-domain — which worker steals what is host scheduling.
    metrics: Metrics,
    threads: u64,
}

struct SleepState {
    /// Bumped on every push; a worker that saw no work re-checks this
    /// before sleeping so a concurrent push can never be missed.
    generation: u64,
    shutdown: bool,
}

impl Shared {
    fn notify_push(&self) {
        let mut s = self.sleep.lock().unwrap();
        s.generation = s.generation.wrapping_add(1);
        drop(s);
        self.wake.notify_all();
    }

    /// Takes one queued job: local queue first (on worker threads), then
    /// the injector, then siblings. Sibling steals are counted.
    fn find_job(&self) -> Option<Job> {
        if let Some(job) = LOCAL.with(|l| l.borrow().as_ref().and_then(|w| w.pop())) {
            return Some(job);
        }
        if let Steal::Success(job) = self.injector.steal() {
            return Some(job);
        }
        for s in &self.stealers {
            if let Steal::Success(job) = s.steal() {
                data_plane::count(Counter::TasksStolen, 1);
                self.metrics.add(
                    Domain::Wall,
                    metric_names::POOL_STOLEN,
                    &[("threads", self.threads.into())],
                    1,
                );
                return Some(job);
            }
        }
        None
    }
}

thread_local! {
    /// The local deque of the pool worker running on this thread, if any;
    /// payloads dispatched from a worker land here instead of on the
    /// injector, giving sub-tasks (chunk sorts) locality.
    static LOCAL: RefCell<Option<Worker<Job>>> = const { RefCell::new(None) };
}

fn worker_loop(shared: Arc<Shared>, local: Worker<Job>) {
    LOCAL.with(|l| *l.borrow_mut() = Some(local));
    loop {
        let observed = shared.sleep.lock().unwrap().generation;
        if let Some(job) = shared.find_job() {
            job();
            continue;
        }
        let s = shared.sleep.lock().unwrap();
        if s.shutdown {
            break;
        }
        if s.generation == observed {
            let _unused = shared.wake.wait(s).unwrap();
        }
    }
    LOCAL.with(|l| *l.borrow_mut() = None);
}

/// Joins the worker threads when the last *owning* pool handle drops.
/// Kept out of [`Shared`] so no worker (or payload closure holding a
/// [`ComputePool::worker_handle`]) can ever be the thread that joins.
struct PoolCore {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for PoolCore {
    fn drop(&mut self) {
        self.shared.sleep.lock().unwrap().shutdown = true;
        self.shared.wake.notify_all();
        for h in self.handles.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

/// A work-stealing pool for pure task payloads. Cloning is cheap and
/// shares the same workers; `ComputePool::new(1)` (and below) is the
/// *inline* pool, which executes every payload at dispatch on the
/// caller's thread — the deterministic baseline every other size must
/// match bit-for-bit.
#[derive(Clone)]
pub struct ComputePool {
    shared: Option<Arc<Shared>>,
    /// `None` on worker handles; see [`PoolCore`].
    _core: Option<Arc<PoolCore>>,
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

    /// Like [`ComputePool::new`], but records dispatch/steal/queue-depth
    /// into `metrics`, labeled by pool size. Dispatch counts are
    /// sim-deterministic; steals and queue depth are wall-domain.
    pub fn with_metrics(threads: usize, metrics: Metrics) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            threads
        };
        if threads <= 1 {
            return ComputePool {
                shared: None,
                _core: None,
                threads: 1,
                metrics,
            };
        }
        let locals: Vec<Worker<Job>> = (0..threads).map(|_| Worker::new_fifo()).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers: locals.iter().map(Worker::stealer).collect(),
            sleep: Mutex::new(SleepState {
                generation: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            metrics: metrics.clone(),
            threads: threads as u64,
        });
        let handles = locals
            .into_iter()
            .map(|local| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("cbft-compute".to_owned())
                    .spawn(move || worker_loop(shared, local))
                    .expect("spawn compute worker")
            })
            .collect();
        ComputePool {
            _core: Some(Arc::new(PoolCore {
                shared: Arc::clone(&shared),
                handles: Mutex::new(handles),
            })),
            shared: Some(shared),
            threads,
            metrics,
        }
    }

    /// Number of workers (1 for the inline pool).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True for the inline pool: payloads run at dispatch time.
    pub fn is_inline(&self) -> bool {
        self.shared.is_none()
    }

    /// A clone safe to move into payload closures: it shares the
    /// workers but not their join handles, so the joining drop can
    /// never happen on a worker thread.
    pub fn worker_handle(&self) -> ComputePool {
        ComputePool {
            shared: self.shared.clone(),
            _core: None,
            threads: self.threads,
            metrics: self.metrics.clone(),
        }
    }

    /// Queues `f` for execution and returns its ticket. On the inline
    /// pool `f` runs right here, on the caller.
    pub fn dispatch<T, F>(&self, f: F) -> Ticket<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        data_plane::count(Counter::TasksDispatched, 1);
        if self.metrics.enabled() {
            // Wall-domain: the inline pool runs (and never dispatches)
            // chunk sorts that a threaded pool queues, so dispatch
            // counts are a function of pool size.
            self.metrics.add(
                Domain::Wall,
                metric_names::POOL_DISPATCHED,
                &[("threads", (self.threads as u64).into())],
                1,
            );
        }
        let Some(shared) = &self.shared else {
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
            let mut slot = job_state.slot.lock().unwrap();
            *slot = Some(out);
            drop(slot);
            job_state.ready.notify_all();
        });
        let mut job = Some(job);
        let queued_locally = LOCAL.with(|l| {
            match l.borrow().as_ref() {
                // Dispatch from a pool worker: keep the sub-task local.
                Some(w) => {
                    w.push(job.take().expect("job not yet queued"));
                    true
                }
                None => false,
            }
        });
        if let Some(job) = job.take() {
            shared.injector.push(job);
        }
        let depth = shared.injector.len() as u64 + u64::from(queued_locally);
        data_plane::record_pool_queue_depth(depth);
        if self.metrics.enabled() {
            self.metrics.gauge_max(
                Domain::Wall,
                metric_names::POOL_QUEUE_PEAK,
                &[("threads", (self.threads as u64).into())],
                depth,
            );
        }
        shared.notify_push();
        Ticket {
            inner: TicketInner::Pending {
                state,
                pool: self.worker_handle(),
            },
        }
    }

    /// Executes one queued payload on the calling thread, if any is
    /// queued. Used by joining threads to help instead of blocking.
    fn help_one(&self) -> bool {
        let Some(shared) = &self.shared else {
            return false;
        };
        match shared.find_job() {
            Some(job) => {
                job();
                true
            }
            None => false,
        }
    }

    /// Sorts `items` with `sort_unstable` semantics, splitting large
    /// inputs into chunks sorted concurrently on the pool and merged
    /// pairwise. The chunk count is a function of the input *length
    /// only* — never of the pool size — so the merge tree, and with it
    /// the output, is identical for every pool (unstable ties are
    /// harmless at the call sites: their comparators only report equal
    /// for byte-identical records).
    pub fn par_sort_unstable<T: Ord + Send + 'static>(&self, items: &mut Vec<T>) {
        const PAR_SORT_MIN: usize = 16 * 1024;
        const PAR_SORT_CHUNK: usize = 8 * 1024;
        if self.is_inline() || items.len() < PAR_SORT_MIN {
            items.sort_unstable();
            return;
        }
        let mut rest = std::mem::take(items);
        let mut chunks: Vec<Vec<T>> = Vec::with_capacity(rest.len() / PAR_SORT_CHUNK + 1);
        while rest.len() > PAR_SORT_CHUNK {
            let tail = rest.split_off(PAR_SORT_CHUNK);
            chunks.push(rest);
            rest = tail;
        }
        chunks.push(rest);
        let mut sorted: VecDeque<Vec<T>> = chunks
            .into_iter()
            .map(|mut c| {
                self.dispatch(move || {
                    c.sort_unstable();
                    c
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(Ticket::join)
            .collect();
        // Pairwise merge rounds in fixed adjacent order; an odd tail
        // run passes through to the next round unmerged.
        while sorted.len() > 1 {
            let mut tickets = Vec::with_capacity(sorted.len() / 2 + 1);
            while let Some(a) = sorted.pop_front() {
                match sorted.pop_front() {
                    Some(b) => tickets.push(self.dispatch(move || merge_sorted(a, b))),
                    None => tickets.push(Ticket {
                        inner: TicketInner::Ready(Box::new(a)),
                    }),
                }
            }
            sorted = tickets.into_iter().map(Ticket::join).collect();
        }
        *items = sorted.pop_front().unwrap_or_default();
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

/// Merges two sorted runs, preferring the left run on ties.
fn merge_sorted<T: Ord>(a: Vec<T>, b: Vec<T>) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut ai = a.into_iter().peekable();
    let mut bi = b.into_iter().peekable();
    loop {
        match (ai.peek(), bi.peek()) {
            (Some(x), Some(y)) => {
                if x <= y {
                    out.push(ai.next().expect("peeked"));
                } else {
                    out.push(bi.next().expect("peeked"));
                }
            }
            (Some(_), None) => out.push(ai.next().expect("peeked")),
            (None, Some(_)) => out.push(bi.next().expect("peeked")),
            (None, None) => return out,
        }
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
        assert!(pool.is_inline());
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
        let inner = pool.worker_handle();
        let t = pool.dispatch(move || {
            let subs: Vec<Ticket<u64>> = (0..8u64).map(|i| inner.dispatch(move || i + 1)).collect();
            subs.into_iter().map(Ticket::join).sum::<u64>()
        });
        assert_eq!(t.join(), 8 + 28);
    }

    #[test]
    fn par_sort_matches_sequential_sort_for_every_pool_size() {
        // Pseudo-random but fixed input, long enough to trigger chunking.
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        let input: Vec<u64> = (0..40_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 1000 // plenty of duplicates
            })
            .collect();
        let mut want = input.clone();
        want.sort_unstable();
        for threads in [1, 2, 8] {
            let pool = ComputePool::new(threads);
            let mut got = input.clone();
            pool.par_sort_unstable(&mut got);
            assert_eq!(got, want, "pool of {threads}");
        }
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
