//! A dependency-counting parallel task executor.
//!
//! This is the stand-in for OpenMP 4.0's `task depend` construct used by
//! the paper's `PB-SYM-PD-SCHED`/`-REP` implementations: tasks become ready
//! when all their DAG predecessors have finished, and greedy workers always
//! grab the highest-priority ready task — i.e. the executor *is* a list
//! scheduler, so Graham's `T_P ≤ (T₁−T∞)/P + T∞` guarantee applies.
//!
//! Every ready task is one job of a single `rayon::scope` on the caller's
//! pool. Ready tasks wait in one priority heap; a job pops the best of
//! them (not necessarily the task whose release spawned it), runs it, and
//! pushes and spawns every successor it releases. Jobs and ready tasks
//! are one-to-one, so a pop never comes up empty and no job ever waits:
//! an idle worker is the pool's own business, and a worker that is
//! helping elsewhere is never pinned by the DAG.
//!
//! A panicking task releases none of its successors. The tasks already
//! ready still run, and the scope re-raises the panic on the caller.

use crate::dag::TaskDag;
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Totally ordered f64 key for the ready heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Ready tasks, highest priority first; ties go to the lower index.
type ReadyHeap = BinaryHeap<(OrdF64, Reverse<usize>)>;

/// What every job of one run shares.
struct Run<'a, F> {
    ready: Mutex<ReadyHeap>,
    in_deg: Vec<AtomicUsize>,
    dag: &'a TaskDag,
    priority: &'a [f64],
    task_fn: F,
}

impl<'a, F: Fn(usize) + Sync> Run<'a, F> {
    /// Spawn the job for one task that just became ready.
    fn spawn<'scope>(&'scope self, scope: &rayon::Scope<'scope>)
    where
        'a: 'scope,
    {
        scope.spawn(move |scope| self.run_best(scope));
    }

    /// Run the highest-priority ready task, then release its successors.
    fn run_best<'scope>(&'scope self, scope: &rayon::Scope<'scope>)
    where
        'a: 'scope,
    {
        let (_, Reverse(task)) = self
            .ready
            .lock()
            .pop()
            .expect("one job is spawned per ready task");
        (self.task_fn)(task);
        for &succ in self.dag.succs(task) {
            let succ = succ as usize;
            if self.in_deg[succ].fetch_sub(1, Ordering::AcqRel) == 1 {
                self.ready
                    .lock()
                    .push((OrdF64(self.priority[succ]), Reverse(succ)));
                self.spawn(scope);
            }
        }
    }
}

/// Execute every task of `dag` on the current rayon pool, respecting
/// dependencies; among ready tasks, higher `priority` starts first.
///
/// `task_fn` is called exactly once per task index, unless a task panics:
/// then its dependents never start, and the panic is re-thrown here once
/// the tasks already ready have finished. Run it inside
/// `ThreadPool::install` to choose the worker count.
///
/// # Panics
/// Panics if `priority.len() != dag.n()`, or (re-thrown) if a task
/// panicked.
pub fn run_dag<F>(dag: &TaskDag, priority: &[f64], task_fn: F)
where
    F: Fn(usize) + Sync,
{
    assert_eq!(priority.len(), dag.n(), "priority length mismatch");
    let n = dag.n();
    if n == 0 {
        return;
    }

    let in_deg: Vec<AtomicUsize> = (0..n)
        .map(|v| AtomicUsize::new(dag.preds(v).len()))
        .collect();
    let ready: ReadyHeap = (0..n)
        .filter(|&v| dag.preds(v).is_empty())
        .map(|v| (OrdF64(priority[v]), Reverse(v)))
        .collect();
    assert!(
        !ready.is_empty(),
        "DAG with tasks but no source vertices (cycle)"
    );
    let sources = ready.len();
    let run = Run {
        ready: Mutex::new(ready),
        in_deg,
        dag,
        priority,
        task_fn,
    };
    rayon::scope(|s| {
        for _ in 0..sources {
            run.spawn(s);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex as StdMutex;

    /// Run `op` on a pool of `threads` workers.
    fn on_pool<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(op)
    }

    /// Tick counter for ordering assertions.
    fn run_and_trace(dag: &TaskDag, threads: usize) -> (Vec<usize>, Vec<usize>) {
        let clock = AtomicUsize::new(0);
        let starts: Vec<AtomicUsize> = (0..dag.n()).map(|_| AtomicUsize::new(0)).collect();
        let ends: Vec<AtomicUsize> = (0..dag.n()).map(|_| AtomicUsize::new(0)).collect();
        on_pool(threads, || {
            run_dag(dag, dag.weights(), |v| {
                starts[v].store(clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
                std::thread::yield_now();
                ends[v].store(clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
            })
        });
        (
            starts.iter().map(|a| a.load(Ordering::SeqCst)).collect(),
            ends.iter().map(|a| a.load(Ordering::SeqCst)).collect(),
        )
    }

    #[test]
    fn runs_every_task_once() {
        let dag = TaskDag::from_edges(20, vec![1.0; 20], &[]);
        let count = AtomicUsize::new(0);
        let seen = StdMutex::new(vec![0u8; 20]);
        on_pool(4, || {
            run_dag(&dag, dag.weights(), |v| {
                count.fetch_add(1, Ordering::SeqCst);
                seen.lock().unwrap()[v] += 1;
            })
        });
        assert_eq!(count.load(Ordering::SeqCst), 20);
        assert!(seen.lock().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn respects_dependencies_under_concurrency() {
        // Two independent chains of length 4, threads = 4.
        let edges = vec![(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)];
        let dag = TaskDag::from_edges(8, vec![1.0; 8], &edges);
        for _ in 0..20 {
            let (starts, ends) = run_and_trace(&dag, 4);
            for &(u, v) in &edges {
                assert!(
                    ends[u] < starts[v],
                    "task {v} started (tick {}) before pred {u} finished (tick {})",
                    starts[v],
                    ends[u]
                );
            }
        }
    }

    #[test]
    fn diamond_order() {
        let dag = TaskDag::from_edges(4, vec![1.0; 4], &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let (starts, ends) = run_and_trace(&dag, 2);
        assert!(ends[0] < starts[1] && ends[0] < starts[2]);
        assert!(ends[1] < starts[3] && ends[2] < starts[3]);
    }

    #[test]
    fn single_thread_runs_in_priority_order() {
        let dag = TaskDag::from_edges(4, vec![1.0; 4], &[]);
        let priority = vec![1.0, 4.0, 2.0, 3.0];
        let order = StdMutex::new(Vec::new());
        on_pool(1, || {
            run_dag(&dag, &priority, |v| order.lock().unwrap().push(v))
        });
        assert_eq!(*order.lock().unwrap(), vec![1, 3, 2, 0]);
    }

    #[test]
    fn released_successor_waits_behind_an_older_better_task() {
        // 0 → 2, and 1 is ready from the start with a higher priority than
        // 2: on one worker 2 runs last, although 0's job released it.
        let dag = TaskDag::from_edges(3, vec![1.0; 3], &[(0, 2)]);
        let order = StdMutex::new(Vec::new());
        on_pool(1, || {
            run_dag(&dag, &[3.0, 2.0, 1.0], |v| order.lock().unwrap().push(v))
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn tasks_run_on_the_callers_pool() {
        let dag = TaskDag::from_edges(6, vec![1.0; 6], &[(0, 3), (1, 4), (3, 5)]);
        for threads in [1, 3] {
            let widths = StdMutex::new(Vec::new());
            on_pool(threads, || {
                run_dag(&dag, dag.weights(), |_| {
                    widths.lock().unwrap().push(rayon::current_num_threads())
                })
            });
            assert_eq!(*widths.lock().unwrap(), vec![threads; 6]);
        }
    }

    #[test]
    fn empty_dag_is_noop() {
        let dag = TaskDag::from_edges(0, vec![], &[]);
        on_pool(3, || run_dag(&dag, &[], |_| panic!("should not run")));
    }

    #[test]
    fn task_panic_propagates() {
        let dag = TaskDag::from_edges(8, vec![1.0; 8], &[]);
        let result = catch_unwind(AssertUnwindSafe(|| {
            on_pool(4, || {
                run_dag(&dag, dag.weights(), |v| {
                    if v == 3 {
                        panic!("boom in task 3");
                    }
                })
            });
        }));
        let payload = result.expect_err("panic should propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("boom"), "unexpected payload: {msg}");
    }

    #[test]
    fn panic_does_not_deadlock_with_blocked_tasks() {
        // Task 1 depends on 0; 0 panics; the run must still terminate.
        let dag = TaskDag::from_edges(2, vec![1.0; 2], &[(0, 1)]);
        let result = catch_unwind(AssertUnwindSafe(|| {
            on_pool(2, || {
                run_dag(&dag, dag.weights(), |v| {
                    if v == 0 {
                        panic!("first task fails");
                    }
                })
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn a_failed_task_starts_none_of_its_dependents() {
        // 0 → 1 → 2 and an independent 3; 0 panics.
        let dag = TaskDag::from_edges(4, vec![1.0; 4], &[(0, 1), (1, 2)]);
        let ran = StdMutex::new(Vec::new());
        let result = catch_unwind(AssertUnwindSafe(|| {
            on_pool(2, || {
                run_dag(&dag, dag.weights(), |v| {
                    if v == 0 {
                        panic!("first task fails");
                    }
                    ran.lock().unwrap().push(v);
                })
            });
        }));
        assert!(result.is_err());
        assert_eq!(*ran.lock().unwrap(), vec![3]);
    }

    #[test]
    fn many_threads_few_tasks() {
        let dag = TaskDag::from_edges(2, vec![1.0; 2], &[(0, 1)]);
        let count = AtomicUsize::new(0);
        on_pool(16, || {
            run_dag(&dag, dag.weights(), |_| {
                count.fetch_add(1, Ordering::SeqCst);
            })
        });
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn stress_random_dag() {
        // Layered random DAG, repeated runs to shake out races.
        let mut edges = Vec::new();
        let (layers, width) = (6, 8);
        let n = layers * width;
        for l in 0..layers - 1 {
            for a in 0..width {
                for b in 0..width {
                    if (a * 7 + b * 3 + l) % 5 == 0 {
                        edges.push((l * width + a, (l + 1) * width + b));
                    }
                }
            }
        }
        let dag = TaskDag::from_edges(n, vec![1.0; n], &edges);
        for _ in 0..10 {
            let (starts, ends) = run_and_trace(&dag, 4);
            for &(u, v) in &edges {
                assert!(ends[u] < starts[v]);
            }
        }
    }
}
