//! Instrumentation seam for the `stkde-analyze` concurrency model
//! checker.
//!
//! The scheduler internals (`deque.rs`, the registry's `SleepGate`)
//! call `yield_point` immediately before every shared-memory access
//! that participates in a cross-thread race. Without the `model`
//! feature the call compiles to nothing. With it, the call consults a
//! *thread-local* hook: threads spawned by the model checker install a
//! hook that parks the thread until the checker's deterministic
//! scheduler grants the next step, which is what turns "which thread
//! wins this CAS" into an enumerable choice. Threads without a hook
//! (the real worker pool, even in instrumented builds) pay one
//! thread-local read per yield point and continue immediately.
//!
//! The `model` module also re-exports thin facades over the otherwise
//! crate-private internals so the checker can drive the *real*
//! implementations rather than a port: `TestDeque` over the Chase–Lev
//! deque and `TestSleepGate` over the registry's sleep/wake protocol
//! (with the blocking condvar wait split off, so a modeled sleeper can
//! ask "would I sleep now?" without actually blocking).

#[cfg(not(feature = "model"))]
#[inline(always)]
pub(crate) fn yield_point(_label: &'static str) {}

#[cfg(feature = "model")]
pub(crate) fn yield_point(label: &'static str) {
    imp::yield_point(label)
}

#[cfg(feature = "model")]
mod imp {
    use std::cell::RefCell;

    type Hook = Box<dyn Fn(&'static str)>;

    thread_local! {
        static HOOK: RefCell<Option<Hook>> = const { RefCell::new(None) };
    }

    pub(super) fn yield_point(label: &'static str) {
        HOOK.with(|h| {
            // `try_borrow`: a hook that itself trips a yield point (e.g.
            // by touching an instrumented structure) must not re-enter.
            if let Ok(guard) = h.try_borrow() {
                if let Some(hook) = guard.as_ref() {
                    hook(label);
                }
            }
        });
    }

    /// Install this thread's scheduler hook; model-checker threads call
    /// this first thing.
    pub fn set_yield_hook(hook: Hook) {
        HOOK.with(|h| *h.borrow_mut() = Some(hook));
    }

    /// Remove this thread's hook (end of a model run).
    pub fn clear_yield_hook() {
        HOOK.with(|h| *h.borrow_mut() = None);
    }
}

#[cfg(feature = "model")]
pub use facade::*;

#[cfg(feature = "model")]
mod facade {
    use crate::deque::{Deque, Steal};
    use crate::job::{JobHeader, JobRef};
    use crate::registry::SleepGate;

    pub use super::imp::{clear_yield_hook, set_yield_hook};

    /// Outcome of a [`TestDeque::steal`], with the job pointer decoded
    /// back to the caller's token.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TestSteal {
        Success(usize),
        Empty,
        Retry,
    }

    /// The real Chase–Lev deque, trafficking in opaque nonzero `usize`
    /// tokens instead of live jobs. Tokens are cast to job pointers and
    /// back without ever being dereferenced, so a token of `0` coming
    /// *out* of the deque would expose a lost-initialization bug (a
    /// thief reading a cell the owner never published).
    pub struct TestDeque {
        inner: Deque,
    }

    impl Default for TestDeque {
        fn default() -> Self {
            Self::new()
        }
    }

    impl TestDeque {
        pub fn new() -> Self {
            TestDeque {
                inner: Deque::new(),
            }
        }

        /// A deque whose initial ring holds only `cap` slots, so growth
        /// scenarios need `cap + 1` pushes instead of 65.
        pub fn with_capacity(cap: usize) -> Self {
            TestDeque {
                inner: Deque::with_capacity(cap),
            }
        }

        /// Push `token` at the owner end.
        ///
        /// # Safety
        /// Owner-only, like [`Deque::push`]: the scenario must route all
        /// push/pop calls through a single model thread. `token` must be
        /// nonzero (zero is reserved to surface uninitialized cells).
        pub unsafe fn push(&self, token: usize) {
            assert_ne!(token, 0, "token 0 is reserved for lost-init detection");
            // SAFETY: caller upholds the owner-only contract; the token
            // is never dereferenced as a pointer by the deque.
            unsafe { self.inner.push(JobRef(token as *const JobHeader)) };
        }

        /// Pop from the owner end.
        ///
        /// # Safety
        /// Owner-only, like [`Deque::pop`].
        pub unsafe fn pop(&self) -> Option<usize> {
            // SAFETY: caller upholds the owner-only contract.
            unsafe { self.inner.pop() }.map(|j| j.0 as usize)
        }

        /// Steal from the top; callable from any model thread.
        pub fn steal(&self) -> TestSteal {
            match self.inner.steal() {
                Steal::Success(j) => TestSteal::Success(j.0 as usize),
                Steal::Empty => TestSteal::Empty,
                Steal::Retry => TestSteal::Retry,
            }
        }

        /// Drain every remaining token. Takes `&mut self`: exclusive
        /// access is the owner contract, checked by the compiler — used
        /// by scenario post-checks for conservation accounting.
        pub fn drain(&mut self) -> Vec<usize> {
            let mut out = Vec::new();
            // SAFETY: `&mut self` proves no other thread touches the
            // deque during the drain.
            while let Some(v) = unsafe { self.inner.pop() }.map(|j| j.0 as usize) {
                out.push(v);
            }
            out
        }
    }

    /// The real sleep/wake protocol, with the condvar wait factored out:
    /// [`would_sleep`](Self::would_sleep) performs `park`'s under-lock
    /// epoch recheck and reports the verdict instead of blocking, so the
    /// model checker can assert "a published wakeup is never lost"
    /// without ever putting a model thread to sleep.
    pub struct TestSleepGate {
        inner: SleepGate,
    }

    impl Default for TestSleepGate {
        fn default() -> Self {
            Self::new()
        }
    }

    impl TestSleepGate {
        pub fn new() -> Self {
            TestSleepGate {
                inner: SleepGate::new(),
            }
        }

        /// Publisher side: publish "new work exists".
        pub fn notify(&self) {
            self.inner.notify();
        }

        /// Sleeper side: register as a sleeper and take the epoch
        /// ticket that must still match for sleep to be admissible.
        pub fn prepare_park(&self) -> usize {
            self.inner.prepare_park()
        }

        /// Sleeper side: the rescan found work; deregister.
        pub fn cancel_park(&self) {
            self.inner.cancel_park();
        }

        /// Sleeper side: `park`'s go-to-sleep decision (the under-lock
        /// epoch recheck), without the wait. Deregisters the sleeper
        /// either way, like `park` does.
        pub fn would_sleep(&self, ticket: usize) -> bool {
            self.inner.sleep_decision(ticket)
        }
    }
}
