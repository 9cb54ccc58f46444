//! A deterministic in-tree work pool (zero external deps, per the
//! workspace policy).
//!
//! The simulation engine itself stays intentionally single-threaded —
//! determinism inside one run comes from the [`EventQueue`]'s FIFO
//! tie-break and the seeded [`SimRng`]. What *is* embarrassingly parallel
//! is the layer above: every `(experiment, seed)` pair is a pure function
//! of its config, so independent runs can fan out across cores as long as
//! the *reduction* stays ordered. [`par_map`] provides exactly that
//! shape: jobs execute on `min(jobs, threads)` workers claiming work via
//! an atomic index, and the result of input `i` lands in output slot `i`,
//! so every consumer — printed tables, `--json` rows, seed averages —
//! sees the same byte-identical order as a sequential run.
//!
//! Thread count resolution, in priority order:
//!
//! 1. a scoped programmatic override ([`with_thread_override`], used by
//!    the `--perf` baseline pass and the byte-identity tests). It belongs
//!    to the calling thread, and `par_map` hands it to its workers, so
//!    concurrent callers each run at their own count and nested pools
//!    inherit it,
//! 2. the `STELLAR_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! `STELLAR_THREADS=1` (or one available core) short-circuits to a plain
//! in-place loop — no threads are spawned, and by the ordered-reduction
//! guarantee the output bytes are identical either way.
//!
//! Determinism rules for jobs (see DESIGN.md §5, "Determinism under
//! parallelism"):
//!
//! * every job must derive all randomness from its own input (its own
//!   [`SimRng`] constructed from a seed carried by the item) — never from
//!   shared mutable state;
//! * jobs must not communicate; the only output is the return value;
//! * a panicking job does not poison its siblings: all jobs still run,
//!   and the panic of the *lowest-index* failing job is re-raised after
//!   the pool drains, so failure reporting is independent of scheduling.
//!
//! Per-job state travels in one per-thread *job context*: the worker-count
//! override and the [`ScopeKind`]s (telemetry, invariant checks) open on
//! the thread. `par_map` copies it onto each worker, so nested pools
//! inherit it, and runs every job — inline too — in a fresh scope of each
//! open kind, folded back into the caller in job order.
//!
//! The module also owns the per-thread *scheduled-event* counter that
//! [`EventQueue::schedule`] ticks. [`events_scheduled_here`] reads the
//! calling thread's count; `par_map` folds the events its workers
//! scheduled back into the caller's counter when the pool drains, so a
//! `(before, after)` snapshot pair around any call — including one that
//! internally fans out — yields an inclusive event count. The `--perf`
//! harness of the `reproduce` binary is built on this.
//!
//! [`EventQueue`]: crate::EventQueue
//! [`EventQueue::schedule`]: crate::EventQueue::schedule
//! [`SimRng`]: crate::SimRng

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::LocalKey;

thread_local! {
    /// Events scheduled by this thread (plus events folded in from child
    /// pools that this thread waited on).
    static EVENTS_SCHEDULED: Cell<u64> = const { Cell::new(0) };

    /// Deepest pending-event backlog any [`EventQueue`] on this thread
    /// reached (plus peaks folded in from child pools this thread waited
    /// on). Reset with [`take_queue_depth_peak`].
    ///
    /// [`EventQueue`]: crate::EventQueue
    static QUEUE_DEPTH_PEAK: Cell<u64> = const { Cell::new(0) };

    /// This thread's job context, copied onto its pools' workers.
    static CONTEXT: RefCell<JobContext> =
        const { RefCell::new(JobContext { threads: 0, open: Vec::new() }) };
}

/// What a pool's jobs inherit from the thread that starts it.
#[derive(Clone)]
struct JobContext {
    /// The worker-count override; 0 means "not set".
    threads: usize,
    /// The scope kinds used on this thread; pools pass on the open ones.
    open: Vec<&'static dyn Kind>,
}

/// Per-job recording state that [`par_map`] carries into its jobs.
pub trait Scope: Default + Send + 'static {
    /// Fold `child`, one job's scope, into `self` (in job order).
    fn merge(&mut self, child: Self);
}

/// The one kind of a [`Scope`] type: a per-thread stack of open scopes,
/// innermost last, and a destructor-free gate that is set while the stack
/// is not empty. Declare it as a `const` over two `const`-initialised
/// thread-locals, so the closed path inlines to one TLS read and a branch.
pub struct ScopeKind<T: 'static> {
    stack: LocalKey<RefCell<Vec<T>>>,
    gate: LocalKey<Cell<bool>>,
}

impl<T: Scope> ScopeKind<T> {
    /// A kind over its two thread-locals.
    pub const fn new(stack: LocalKey<RefCell<Vec<T>>>, gate: LocalKey<Cell<bool>>) -> Self {
        ScopeKind { stack, gate }
    }

    /// Whether a scope of this kind is open on this thread.
    #[inline]
    pub fn enabled(&'static self) -> bool {
        self.gate.with(Cell::get)
    }

    /// Apply `f` to this thread's innermost open scope; a no-op when none
    /// is open. `f` must not open or close a scope of this kind.
    #[inline]
    pub fn with_innermost(&'static self, f: impl FnOnce(&mut T)) {
        if self.enabled() {
            self.stack.with(|s| s.borrow_mut().last_mut().map(f));
        }
    }

    /// Run `f` in a fresh scope and return its result with the scope.
    /// Scopes nest, the innermost collecting, and close even if `f`
    /// panics; the pools `f` starts fold their jobs' scopes into it.
    pub fn capture<R>(&'static self, f: impl FnOnce() -> R) -> (R, T) {
        let kind: [&'static dyn Kind; 1] = [self];
        CONTEXT.with(|c| {
            let open = &mut c.borrow_mut().open;
            if !open.iter().any(|&k| (k as &dyn Any).is::<Self>()) {
                open.push(self);
            }
        });
        let mut scopes = Scopes::open(&kind);
        let out = f();
        let scope = scopes.close().pop().expect("one scope");
        (out, *scope.downcast().expect("a scope of this kind"))
    }
}

/// A [`ScopeKind`] as the job context lists it, with its scope type erased.
trait Kind: Any + Sync {
    fn is_open(&'static self) -> bool;
    fn open(&'static self);
    fn close(&'static self) -> Box<dyn Any + Send>;
    fn fold(&'static self, scope: Box<dyn Any + Send>);
}

impl<T: Scope> Kind for ScopeKind<T> {
    fn is_open(&'static self) -> bool {
        self.enabled()
    }

    fn open(&'static self) {
        self.stack.with(|s| s.borrow_mut().push(T::default()));
        self.gate.with(|g| g.set(true));
    }

    fn close(&'static self) -> Box<dyn Any + Send> {
        self.stack.with(|s| {
            let mut stack = s.borrow_mut();
            self.gate.with(|g| g.set(stack.len() > 1));
            Box::new(stack.pop().expect("an open scope"))
        })
    }

    fn fold(&'static self, scope: Box<dyn Any + Send>) {
        let child = *scope.downcast::<T>().expect("a scope of this kind");
        self.with_innermost(|t| t.merge(child));
    }
}

/// One open scope of each of `kinds`, closed by [`Scopes::close`] or, if
/// a panic unwinds first, on drop.
struct Scopes<'a>(&'a [&'static dyn Kind]);

impl<'a> Scopes<'a> {
    fn open(kinds: &'a [&'static dyn Kind]) -> Self {
        kinds.iter().for_each(|k| k.open());
        Scopes(kinds)
    }

    fn close(&mut self) -> Vec<Box<dyn Any + Send>> {
        let kinds = std::mem::take(&mut self.0);
        kinds.iter().map(|k| k.close()).collect()
    }
}

impl Drop for Scopes<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

/// Total simulation events scheduled on this thread, inclusive of any
/// [`par_map`] pools this thread has drained. Take a snapshot before and
/// after a run and subtract to attribute events to it.
pub fn events_scheduled_here() -> u64 {
    EVENTS_SCHEDULED.with(|c| c.get())
}

/// Tick the per-thread event counter (called by `EventQueue::schedule`).
pub(crate) fn record_scheduled_event() {
    EVENTS_SCHEDULED.with(|c| c.set(c.get() + 1));
}

fn add_events(n: u64) {
    EVENTS_SCHEDULED.with(|c| c.set(c.get() + n));
}

/// Raise this thread's queue-depth high-water mark to at least `depth`.
/// Called by `EventQueue::schedule` with the post-push backlog; callers
/// measuring a specific region use it to restore a stashed peak.
pub fn note_queue_depth(depth: u64) {
    QUEUE_DEPTH_PEAK.with(|c| {
        if depth > c.get() {
            c.set(depth);
        }
    });
}

/// Read *and reset* this thread's queue-depth high-water mark. To
/// attribute a peak to one region, take (and stash) the mark before it,
/// take again after it, then [`note_queue_depth`] the stashed value back
/// so enclosing measurements stay inclusive.
pub fn take_queue_depth_peak() -> u64 {
    QUEUE_DEPTH_PEAK.with(|c| c.replace(0))
}

/// Run `f` with the calling thread's worker count pinned to `threads`
/// (and that of every pool `f` starts, nested ones included), restoring
/// the previous override afterwards. Used by the `--perf` baseline pass
/// (`threads = 1`) and by tests asserting byte-identity across thread
/// counts.
pub fn with_thread_override<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    assert!(threads >= 1, "thread override must be at least 1");
    let prev = CONTEXT.with(|c| std::mem::replace(&mut c.borrow_mut().threads, threads));
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            CONTEXT.with(|c| c.borrow_mut().threads = self.0);
        }
    }
    let _restore = Restore(prev);
    f()
}

/// The configured worker count: the calling thread's programmatic
/// override if set, else `STELLAR_THREADS`, else
/// [`std::thread::available_parallelism`].
///
/// # Panics
/// Panics if `STELLAR_THREADS` is set but not a positive integer —
/// a silently ignored misconfiguration would be worse than a loud one.
pub fn configured_threads() -> usize {
    let over = CONTEXT.with(|c| c.borrow().threads);
    if over > 0 {
        return over;
    }
    if let Ok(raw) = std::env::var("STELLAR_THREADS") {
        match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => panic!("STELLAR_THREADS must be a positive integer, got {raw:?}"),
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` on up to [`configured_threads`] workers,
/// collecting the result of input `i` into output slot `i`.
///
/// Scheduling is work-stealing by atomic index, so wall-clock order is
/// arbitrary — but the returned `Vec` is always in input order, and jobs
/// may not share mutable state, so the *observable* result is identical
/// to `items.iter().map(f).collect()` at any thread count.
///
/// # Panics
/// If one or more jobs panic, every job still runs to completion (no
/// hang, no poisoned siblings) and the panic payload of the
/// lowest-index failing job is re-raised — the same job a sequential
/// run would have failed on first.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    let threads = configured_threads().min(n);
    let mut ctx = CONTEXT.with(|c| c.borrow().clone());
    ctx.open.retain(|k| k.is_open());
    // Jobs run in fresh scopes folded back in job order, inline too, so
    // per-job state (a bounded ring) is the same at every thread count.
    let fold = |scopes: Vec<Box<dyn Any + Send>>| {
        ctx.open.iter().zip(scopes).for_each(|(k, s)| k.fold(s));
    };

    if threads <= 1 {
        // In-place fast path: nothing spawned, counters tick on the
        // caller's thread directly.
        return items
            .iter()
            .map(|item| {
                let mut scopes = Scopes::open(&ctx.open);
                let r = f(item);
                fold(scopes.close());
                r
            })
            .collect();
    }

    type JobResult<R> = Result<(R, Vec<Box<dyn Any + Send>>), Box<dyn Any + Send>>;
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobResult<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let child_events = AtomicU64::new(0);
    let child_peak = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // A job's own pools inherit the caller's context.
                CONTEXT.with(|c| *c.borrow_mut() = ctx.clone());
                // Workers are fresh threads, so their counters start at 0
                // (the snapshots below are just defensive).
                let before = events_scheduled_here();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        let mut scopes = Scopes::open(&ctx.open);
                        let r = f(&items[i]);
                        (r, scopes.close())
                    }));
                    *slots[i].lock().expect("job slot lock") = Some(result);
                }
                // Fold this worker's events into the pool total; the
                // caller inherits them below so outer snapshots stay
                // inclusive. Queue-depth peaks fold as a max.
                let delta = events_scheduled_here() - before;
                child_events.fetch_add(delta, Ordering::Relaxed);
                child_peak.fetch_max(
                    QUEUE_DEPTH_PEAK.with(|c| c.get()),
                    Ordering::Relaxed,
                );
            });
        }
    });
    add_events(child_events.load(Ordering::Relaxed));
    note_queue_depth(child_peak.load(Ordering::Relaxed));

    let mut out = Vec::with_capacity(n);
    let mut first_panic: Option<(usize, Box<dyn Any + Send>)> = None;
    for (i, slot) in slots.into_iter().enumerate() {
        let result = slot
            .into_inner()
            .expect("job slot lock")
            .expect("every job index below n was claimed and ran");
        match result {
            Ok((r, scopes)) => {
                fold(scopes);
                out.push(r);
            }
            Err(payload) => {
                if first_panic.is_none() {
                    first_panic = Some((i, payload));
                }
            }
        }
    }
    if let Some((i, payload)) = first_panic {
        eprintln!("par_map: job {i}/{n} panicked; re-raising its panic");
        resume_unwind(payload);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn maps_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = with_thread_override(8, || par_map(&items, |&x| x * 2));
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_and_single_item() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn override_one_runs_inline() {
        // No threads spawned: jobs observe the caller's thread id.
        let caller = std::thread::current().id();
        let ids = with_thread_override(1, || {
            par_map(&[0u8; 4], |_| std::thread::current().id())
        });
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn all_jobs_run_exactly_once() {
        let count = AtomicU32::new(0);
        let items: Vec<u32> = (0..57).collect();
        let out = with_thread_override(4, || {
            par_map(&items, |&x| {
                count.fetch_add(1, Ordering::Relaxed);
                x
            })
        });
        assert_eq!(count.load(Ordering::Relaxed), 57);
        assert_eq!(out, items);
    }

    #[test]
    fn panic_propagates_lowest_index() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_thread_override(4, || {
                par_map(&[0u32, 1, 2, 3, 4, 5, 6, 7], |&x| {
                    if x == 6 {
                        panic!("boom-six");
                    }
                    if x == 2 {
                        panic!("boom-two");
                    }
                    x
                })
            })
        }));
        let payload = result.expect_err("must propagate the panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("panic payload is the literal");
        assert_eq!(msg, "boom-two", "lowest failing index wins");
    }

    #[test]
    fn events_fold_into_caller() {
        use crate::{EventQueue, SimDuration, SimTime};
        let before = events_scheduled_here();
        let items: Vec<u64> = (1..=8).collect();
        with_thread_override(4, || {
            par_map(&items, |&k| {
                let mut q = EventQueue::new();
                for i in 0..k {
                    q.schedule(SimTime::ZERO + SimDuration::from_nanos(i + 1), ());
                }
            })
        });
        let delta = events_scheduled_here() - before;
        assert_eq!(delta, (1..=8).sum::<u64>());
    }

    #[test]
    fn concurrent_overrides_stay_on_their_own_threads() {
        use std::sync::Barrier;
        let unset = configured_threads();
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            for threads in [1usize, 8] {
                let barrier = &barrier;
                s.spawn(move || {
                    let seen = with_thread_override(threads, || {
                        // Both overrides are held from here...
                        barrier.wait();
                        let seen = configured_threads();
                        // ...until both threads have read their count.
                        barrier.wait();
                        seen
                    });
                    assert_eq!(seen, threads, "another thread's override leaked in");
                    assert_eq!(configured_threads(), unset, "override left set");
                });
            }
        });
        assert_eq!(configured_threads(), unset, "override left set");
    }

    #[test]
    fn pool_workers_inherit_the_override() {
        let seen = with_thread_override(3, || par_map(&[0u8; 6], |_| configured_threads()));
        assert_eq!(seen, vec![3; 6]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_override_rejected() {
        with_thread_override(0, || ());
    }

    #[test]
    fn queue_depth_peaks_fold_into_caller() {
        use crate::{EventQueue, SimDuration, SimTime};
        // Stash whatever earlier tests on this thread left behind so the
        // measurement below is attributable to this pool alone.
        let stash = take_queue_depth_peak();
        let items: Vec<u64> = vec![3, 9, 5];
        with_thread_override(2, || {
            par_map(&items, |&k| {
                let mut q = EventQueue::new();
                for i in 0..k {
                    q.schedule(SimTime::ZERO + SimDuration::from_nanos(i), ());
                }
            })
        });
        let peak = take_queue_depth_peak();
        assert_eq!(peak, 9, "deepest backlog across all jobs");
        note_queue_depth(stash);
    }

    #[test]
    fn queue_depth_peak_take_resets() {
        let stash = take_queue_depth_peak();
        note_queue_depth(42);
        assert!(take_queue_depth_peak() >= 42);
        assert_eq!(take_queue_depth_peak(), 0, "take must reset the mark");
        note_queue_depth(stash);
    }
}
