//! The worker registry: long-lived named worker threads, one
//! work-stealing deque each, a FIFO injector for jobs arriving from
//! outside the pool, and a wakeup protocol for idle workers.
//!
//! Registries are cached per thread count for the lifetime of the
//! process: building a `ThreadPool` with a size that was used before is a
//! hash-map lookup, not a thread spawn. This is the core of the
//! "persistent pool" design — per-operation spawn cost is paid exactly
//! once per distinct pool size. The flip side (documented divergence from
//! upstream rayon): two pools of equal size share one worker set, and
//! dropping a `ThreadPool` does not stop its threads.

use crate::deque::{Deque, Steal};
use crate::job::{JobRef, LockLatch, SpinLatch, StackJob};
use crate::model::yield_point;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::ptr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Thread count used when none is configured: `RAYON_NUM_THREADS` if set
/// to a positive integer, else the machine's available parallelism.
pub(crate) fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        match std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
        {
            Some(n) if n > 0 => n,
            // 0 or unset/unparsable: fall back to the hardware default,
            // matching upstream rayon's env-var semantics.
            _ => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    })
}

/// The sleep/wake protocol between work publishers and idle workers,
/// extracted so the model checker can drive the real code.
///
/// The protocol is Dekker-style: `epoch` is bumped on every publication
/// of work; a would-be sleeper registers in `sleepers`, takes an epoch
/// ticket, rescans for work, and only sleeps if the ticket is still
/// current under the condvar mutex. Either the publisher's fence + load
/// observes the registration (it bumps the epoch and notifies), or the
/// sleeper's post-registration rescan observes the push — a publication
/// is never lost in both directions. That claim is exactly what the
/// `stkde-analyze` sleep-gate scenarios exhaustively check through the
/// yield points below.
pub(crate) struct SleepGate {
    /// Bumped on every publication of work.
    epoch: AtomicUsize,
    /// Workers registered as going-to-sleep.
    sleepers: AtomicUsize,
    mutex: Mutex<()>,
    cv: Condvar,
}

impl SleepGate {
    pub(crate) fn new() -> Self {
        SleepGate {
            epoch: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            mutex: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Publish "there is new work" to sleeping workers.
    ///
    /// The fast path (everyone awake) is a fence plus one relaxed load,
    /// so the per-`join` push does not serialize busy workers on a
    /// shared cache line.
    pub(crate) fn notify(&self) {
        yield_point("gate::notify:fence");
        std::sync::atomic::fence(Ordering::SeqCst);
        yield_point("gate::notify:read_sleepers");
        // Relaxed is sound here because the SeqCst fence above orders
        // this load after the caller's work publication: see the
        // pairing argument on `prepare_park`.
        if self.sleepers.load(Ordering::Relaxed) == 0 {
            return;
        }
        obs::wake();
        yield_point("gate::notify:bump_epoch");
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let _guard = self.mutex.lock().unwrap();
        self.cv.notify_all();
    }

    /// Sleeper side, step 1: register as a sleeper and take the epoch
    /// ticket. The caller must rescan for work *after* this returns;
    /// the registration/rescan order pairs with `notify`'s fence/load —
    /// a push concurrent with going idle is either found by the rescan
    /// or wakes the sleeper.
    pub(crate) fn prepare_park(&self) -> usize {
        yield_point("gate::prepare:register");
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        // SC fence pairing with the one in `notify`: whichever fence is
        // ordered first, either the publisher's sleepers-load sees our
        // registration or our rescan sees its push.
        std::sync::atomic::fence(Ordering::SeqCst);
        yield_point("gate::prepare:read_epoch");
        self.epoch.load(Ordering::SeqCst)
    }

    /// Sleeper side, rescan found work: deregister without sleeping.
    pub(crate) fn cancel_park(&self) {
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Sleeper side, step 2: sleep unless the epoch moved past `ticket`.
    ///
    /// The wait is long, not infinite: idle churn is negligible at 2
    /// wakeups/s per worker, and the timeout heals any scheduling bug
    /// this shim might still hide instead of hanging the process.
    /// Deregisters the sleeper before returning.
    pub(crate) fn park(&self, ticket: usize, timeout: Duration) {
        {
            let guard = self.mutex.lock().unwrap();
            // Re-check under the lock: a publisher that bumped the epoch
            // after our rescan holds (or will take) this mutex to notify,
            // so it cannot slip between this check and the wait.
            if self.epoch.load(Ordering::SeqCst) == ticket {
                let _ = self.cv.wait_timeout(guard, timeout).unwrap();
            }
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// `park`'s go/no-go decision without the wait: the under-lock epoch
    /// recheck, reporting whether this sleeper *would* block. Only the
    /// model checker calls this (through `rayon::model::TestSleepGate`),
    /// so a modeled sleeper can be asserted against without blocking the
    /// deterministic scheduler. Deregisters the sleeper, like `park`.
    #[cfg(feature = "model")]
    pub(crate) fn sleep_decision(&self, ticket: usize) -> bool {
        yield_point("gate::park:lock_recheck");
        let decision = {
            let _guard = self.mutex.lock().unwrap();
            self.epoch.load(Ordering::SeqCst) == ticket
        };
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        decision
    }
}

/// A persistent set of worker threads plus the shared scheduling state.
pub(crate) struct Registry {
    size: usize,
    deques: Box<[Deque]>,
    /// FIFO queue for jobs injected by non-pool threads (`install`,
    /// top-level parallel operations, cross-pool calls).
    injector: Mutex<VecDeque<JobRef>>,
    /// Wakeup protocol for idle workers; see [`SleepGate`].
    gate: SleepGate,
}

/// Process-wide registry cache, keyed by worker count.
fn registry_cache() -> &'static Mutex<HashMap<usize, Arc<Registry>>> {
    static CACHE: OnceLock<Mutex<HashMap<usize, Arc<Registry>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The (lazily created) registry with `size` workers.
pub(crate) fn registry_with_threads(size: usize) -> Arc<Registry> {
    assert!(size > 0, "a registry needs at least one worker");
    let mut cache = registry_cache().lock().unwrap();
    cache
        .entry(size)
        .or_insert_with(|| Registry::spawn(size))
        .clone()
}

/// The registry parallel operations use when the calling thread is not a
/// pool worker.
pub(crate) fn global_registry() -> Arc<Registry> {
    registry_with_threads(default_threads())
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("size", &self.size)
            .finish_non_exhaustive()
    }
}

impl Registry {
    pub(crate) fn size(&self) -> usize {
        self.size
    }

    fn spawn(size: usize) -> Arc<Registry> {
        let registry = Arc::new(Registry {
            size,
            deques: (0..size).map(|_| Deque::new()).collect(),
            injector: Mutex::new(VecDeque::new()),
            gate: SleepGate::new(),
        });
        for index in 0..size {
            let registry = Arc::clone(&registry);
            std::thread::Builder::new()
                // Named so panics and profiler samples are attributable.
                .name(format!("stkde-worker-{index}"))
                .spawn(move || worker_main(registry, index))
                .expect("failed to spawn stkde worker thread");
        }
        registry
    }

    /// Publish "there is new work" to sleeping workers.
    pub(crate) fn notify_work(&self) {
        if self.size == 1 && in_registry(self) {
            // The only worker is the current thread; nobody to wake.
            return;
        }
        self.gate.notify();
    }

    /// Queue a job from outside the pool.
    pub(crate) fn inject(&self, job: JobRef) {
        self.injector.lock().unwrap().push_back(job);
        self.notify_work();
    }

    fn pop_injected(&self) -> Option<JobRef> {
        self.injector.lock().unwrap().pop_front()
    }

    /// Run `op` on a pool worker and block until it finishes, re-raising
    /// its panic on this thread. Must not be called from a worker of this
    /// same registry (that case runs inline in `ThreadPool::install`).
    pub(crate) fn run_blocking<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        let job = StackJob::new(LockLatch::default(), op);
        // SAFETY: the job lives on this stack and we block on its latch
        // below, so the ref cannot outlive it.
        let job_ref = unsafe { job.as_job_ref() };
        self.inject(job_ref);
        job.latch.wait();
        // SAFETY: latch set — the worker is done with the job.
        unsafe { job.take_result() }.into_return_value()
    }

    /// Park an idle worker: register as a sleeper, rescan once, then
    /// sleep through the [`SleepGate`]. Returns work if the rescan found
    /// some.
    fn idle_park(&self, worker: &WorkerThread) -> Option<JobRef> {
        let ticket = self.gate.prepare_park();
        if let Some(job) = worker.find_work(true) {
            self.gate.cancel_park();
            return Some(job);
        }
        obs::park();
        self.gate.park(ticket, Duration::from_millis(500));
        None
    }
}

/// Per-worker state, living on the worker thread's stack for its whole
/// life; the thread-local below points at it.
pub(crate) struct WorkerThread {
    registry: Arc<Registry>,
    index: usize,
    /// xorshift state for randomized steal order.
    rng: Cell<u64>,
    /// Cached per-worker metric handles (`worker="<index>"` labels).
    obs: obs::WorkerObs,
}

thread_local! {
    static WORKER: Cell<*const WorkerThread> = const { Cell::new(ptr::null()) };
}

/// Run `f` with the current thread's worker state, if it is a pool worker.
pub(crate) fn with_worker<T>(f: impl FnOnce(Option<&WorkerThread>) -> T) -> T {
    WORKER.with(|cell| {
        let ptr = cell.get();
        if ptr.is_null() {
            f(None)
        } else {
            // SAFETY: the pointee lives on this thread's own stack for the
            // thread's entire lifetime (set once in `worker_main`).
            f(Some(unsafe { &*ptr }))
        }
    })
}

/// Is the current thread a worker of `registry`?
pub(crate) fn in_registry(registry: &Registry) -> bool {
    with_worker(|w| w.is_some_and(|w| ptr::eq(Arc::as_ptr(&w.registry), registry)))
}

impl WorkerThread {
    pub(crate) fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Push onto this worker's own deque and wake a thief.
    pub(crate) fn push(&self, job: JobRef) {
        // SAFETY: we are the owning worker of deque `index`.
        unsafe { self.registry.deques[self.index].push(job) };
        self.registry.notify_work();
    }

    /// Pop from this worker's own deque.
    pub(crate) fn pop(&self) -> Option<JobRef> {
        // SAFETY: we are the owning worker of deque `index`.
        unsafe { self.registry.deques[self.index].pop() }
    }

    fn next_rand(&self) -> u64 {
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        x
    }

    /// Steal one job from some other worker; optionally also drain the
    /// injector. Waiters must pass `take_injected = false`: injected jobs
    /// are fresh top-level operations, and starting one while blocked on a
    /// latch would stack unrelated work (and its latencies) on this frame.
    fn find_work(&self, take_injected: bool) -> Option<JobRef> {
        if take_injected {
            if let Some(job) = self.registry.pop_injected() {
                return Some(job);
            }
        }
        let n = self.registry.size;
        loop {
            let mut contended = false;
            let start = (self.next_rand() % n.max(1) as u64) as usize;
            for k in 0..n {
                let victim = (start + k) % n;
                if victim == self.index {
                    continue;
                }
                match self.registry.deques[victim].steal() {
                    Steal::Success(job) => {
                        self.obs.steals.inc();
                        return Some(job);
                    }
                    Steal::Retry => contended = true,
                    Steal::Empty => {}
                }
            }
            if take_injected {
                if let Some(job) = self.registry.pop_injected() {
                    return Some(job);
                }
            }
            if !contended {
                self.obs.steal_failures.inc();
                return None;
            }
            std::hint::spin_loop();
        }
    }

    /// Work-stealing wait: execute useful work until `latch` is set.
    ///
    /// Helping is restricted to deque work (ours or stolen) — never the
    /// injector — so waiting can only run jobs that belong to in-flight
    /// parallel operations, which are guaranteed to complete.
    pub(crate) fn wait_until(&self, latch: &SpinLatch) {
        self.wait_while(|| !latch.probe());
    }

    /// Execute deque work until `cond` turns false, with escalating
    /// backoff while idle (spin → yield → micro-sleep) so a waiter on an
    /// oversubscribed host cedes the CPU to the thread it waits on.
    pub(crate) fn wait_while(&self, cond: impl Fn() -> bool) {
        let mut idle_rounds = 0u32;
        while cond() {
            if let Some(job) = self.pop().or_else(|| self.find_work(false)) {
                self.obs.tasks.inc();
                // SAFETY: a ref obtained from a deque is pending and alive.
                unsafe { job.execute() };
                idle_rounds = 0;
            } else {
                idle_rounds += 1;
                if idle_rounds < 32 {
                    std::hint::spin_loop();
                } else if idle_rounds < 128 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
    }
}

/// Main loop of a pool worker: drain own deque (LIFO), then steal or take
/// injected work, else sleep until new work is published.
fn worker_main(registry: Arc<Registry>, index: usize) {
    let worker = WorkerThread {
        registry,
        index,
        rng: Cell::new(0x9E37_79B9_7F4A_7C15 ^ (index as u64 + 1)),
        obs: obs::WorkerObs::new(index),
    };
    WORKER.with(|cell| cell.set(&worker));
    loop {
        if let Some(job) = worker.pop() {
            worker.obs.tasks.inc();
            // SAFETY: a ref obtained from a deque is pending and alive.
            unsafe { job.execute() };
            continue;
        }
        if let Some(job) = worker.find_work(true) {
            worker.obs.tasks.inc();
            // SAFETY: as above.
            unsafe { job.execute() };
            continue;
        }
        if let Some(job) = worker.registry.idle_park(&worker) {
            worker.obs.tasks.inc();
            // SAFETY: as above.
            unsafe { job.execute() };
        }
    }
    // Unreachable: registries live for the whole process (see module docs),
    // so workers never shut down; the OS reclaims them at exit.
}

/// Steal-pool observability: per-worker tallies of steals / failed
/// sweeps / executed jobs, plus global park and wake counters. Each
/// worker caches its own handles at spawn, so the hot paths pay one
/// `Relaxed` `fetch_add` on a worker-private cell — nothing here touches
/// the scheduling protocol.
mod obs {
    use stkde_obs::names;

    /// Per-worker metric handles, labeled `worker="<index>"`.
    pub(super) struct WorkerObs {
        pub(super) steals: stkde_obs::Counter,
        pub(super) steal_failures: stkde_obs::Counter,
        pub(super) tasks: stkde_obs::Counter,
    }

    impl WorkerObs {
        pub(super) fn new(index: usize) -> Self {
            let idx = index.to_string();
            let labels: &[(&str, &str)] = &[("worker", idx.as_str())];
            let reg = stkde_obs::global();
            WorkerObs {
                steals: reg.counter(names::POOL_STEALS, labels),
                steal_failures: reg.counter(names::POOL_STEAL_FAILURES, labels),
                tasks: reg.counter(names::POOL_TASKS, labels),
            }
        }
    }

    /// A worker parked on the sleep gate.
    pub(super) fn park() {
        stkde_obs::counter!(names::POOL_PARKS).inc();
    }

    /// A publisher woke at least one sleeper.
    pub(super) fn wake() {
        stkde_obs::counter!(names::POOL_WAKES).inc();
    }
}
