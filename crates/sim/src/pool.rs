//! A persistent worker pool for the per-cycle fan-out.
//!
//! The cycle engine fans mutually independent units (network copies,
//! memory banks, PE shards) out up to three times *per simulated cycle*:
//! contiguous chunks, fixed index order, bit-identical results at any
//! thread count. Spawning scoped threads at that rate costs more than the
//! work being fanned out, so [`WorkerPool`] parks `threads - 1` OS threads
//! once at construction and hands them **epoch-stamped work descriptors**
//! through a mutex/condvar pair: dispatching a fan-out is two lock
//! acquisitions and a wake, not thread creation.
//!
//! # Safety
//!
//! Scoped threads cannot outlive one call, and a long-lived thread cannot
//! hold a short-lived `&mut [T]`, so persistence forces a narrow unsafe
//! core: the slice is passed as a type-erased `(pointer, len)` descriptor
//! and each worker rebuilds `&mut` references to *its chunk only*. The
//! invariants that make this sound are local to this module:
//!
//! * chunks are disjoint by construction (`[i * chunk, (i+1) * chunk)`),
//!   so no element is ever referenced by two threads;
//! * the caller blocks until every participating worker has finished its
//!   chunk, so the borrow of `items` strictly outlives all worker access
//!   (workers never touch the descriptor outside an epoch they joined);
//! * `T: Send` bounds the element transfer, `F: Sync` the shared closure;
//! * worker panics are caught, forwarded, and re-raised on the caller.

// The workspace denies `unsafe_code`; this module is the one place the
// cycle engine needs it, with the invariants documented above.
#![allow(unsafe_code)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::active::{ActiveSet, Walk};

/// A type-erased description of one fan-out: "apply `call` to elements
/// `start..end` of the slice at `data`". Stamped into [`State`] under the
/// lock; workers copy it out together with the epoch that published it.
#[derive(Clone, Copy)]
struct Task {
    /// Base pointer of the `&mut [T]` being processed.
    data: *mut (),
    /// Element count of the slice.
    len: usize,
    /// Pointer to the caller's `F` closure (alive until the call returns).
    ctx: *const (),
    /// Monomorphized trampoline that rebuilds `&mut T` + `&F` and runs
    /// one chunk.
    run_chunk: unsafe fn(*mut (), *const (), usize, usize),
    /// Elements per chunk.
    chunk: usize,
    /// Number of chunks (= participating threads, caller included).
    chunks: usize,
}

// SAFETY: the pointers describe a `&mut [T]` with `T: Send` and a `F:
// Sync` closure (enforced by `WorkerPool::run`'s bounds); disjoint chunk
// ranges and the completion barrier make the cross-thread access sound.
unsafe impl Send for Task {}

struct State {
    /// Incremented for every published task; workers use it to tell a new
    /// task from a spurious wakeup or an already-finished one.
    epoch: u64,
    task: Option<Task>,
    /// Worker chunks still outstanding for the current epoch.
    remaining: usize,
    /// Set when a worker chunk panicked this epoch.
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a task is published (or shutdown begins).
    work_ready: Condvar,
    /// Signalled when the last outstanding worker chunk completes.
    work_done: Condvar,
}

/// A pool of parked OS threads that repeatedly applies closures over
/// mutable slices — element `i` is always visited once, with its index,
/// with exclusive access — so the thread count cannot change any
/// result, only the wall-clock.
///
/// `WorkerPool::new(1)` (or a slice of length ≤ 1) runs inline on the
/// caller with zero synchronization: the sequential engine and the
/// parallel engine share one code path, which is what makes them
/// bit-identical.
pub struct WorkerPool {
    shared: Option<Arc<Shared>>,
    handles: Vec<JoinHandle<()>>,
    /// Fan-outs dispatched (inline or parallel) since construction.
    dispatches: AtomicU64,
    /// Chunks those fan-outs split into, summed — `chunks / dispatches`
    /// is the pool's mean dispatch occupancy.
    chunks_dispatched: AtomicU64,
    /// Chunk count of the most recent dispatch.
    last_chunks: AtomicU64,
}

/// Cumulative dispatch accounting for a [`WorkerPool`] — observability
/// counters only, never consulted by the pool itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolDispatchStats {
    /// Fan-outs dispatched since the pool was built.
    pub dispatches: u64,
    /// Total chunks across all dispatches (1 per inline run).
    pub chunks: u64,
    /// Chunk count of the most recent dispatch.
    pub last_chunks: u64,
}

impl PoolDispatchStats {
    /// Mean chunks per dispatch — how much of the pool each fan-out
    /// actually occupied (1.0 means everything ran inline).
    #[must_use]
    pub fn mean_occupancy(&self) -> f64 {
        if self.dispatches == 0 {
            0.0
        } else {
            self.chunks as f64 / self.dispatches as f64
        }
    }
}

impl WorkerPool {
    /// Creates a pool that fans work out over `threads` OS threads total:
    /// the calling thread plus `threads - 1` parked workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or a worker thread cannot be spawned.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "need at least the calling thread");
        let workers = threads - 1;
        if workers == 0 {
            return Self {
                shared: None,
                handles: Vec::new(),
                dispatches: AtomicU64::new(0),
                chunks_dispatched: AtomicU64::new(0),
                last_chunks: AtomicU64::new(0),
            };
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                task: None,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|wi| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ultra-pool-{wi}"))
                    .spawn(move || worker_loop(&shared, wi))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared: Some(shared),
            handles,
            dispatches: AtomicU64::new(0),
            chunks_dispatched: AtomicU64::new(0),
            last_chunks: AtomicU64::new(0),
        }
    }

    /// Total thread count this pool fans out over (workers + caller).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Cumulative dispatch accounting (relaxed counters — exact on any
    /// single-threaded reader once dispatches have completed).
    #[must_use]
    pub fn dispatch_stats(&self) -> PoolDispatchStats {
        PoolDispatchStats {
            dispatches: self.dispatches.load(Ordering::Relaxed),
            chunks: self.chunks_dispatched.load(Ordering::Relaxed),
            last_chunks: self.last_chunks.load(Ordering::Relaxed),
        }
    }

    /// Applies `f(index, &mut item)` to every element of `items`,
    /// splitting the slice into contiguous chunks across the pool.
    /// Blocks until every element has been processed.
    ///
    /// # Panics
    ///
    /// Re-raises the caller chunk's panic payload, or panics if a worker
    /// chunk panicked.
    pub fn run<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let n = items.len();
        let threads = self.threads().min(n);
        let chunk = n.div_ceil(threads.max(1));
        let chunks = if chunk == 0 { 0 } else { n.div_ceil(chunk) };
        self.count_dispatch(chunks);
        if chunks <= 1 || self.shared.is_none() {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        }
        let data: *mut () = items.as_mut_ptr().cast();
        let ctx: *const () = (&f as *const F).cast();
        // SAFETY: `data`/`ctx` describe the live `&mut [T]` and `F` for
        // the duration of the (blocking) dispatch; chunk ranges are
        // disjoint by construction.
        unsafe { self.dispatch_raw(data, n, ctx, run_chunk::<T, F>, chunk, chunks) }
    }

    /// Applies `f(index, &mut item)` to every member of `members` —
    /// fanned out, members visited through the set's summary, so clear
    /// elements cost nothing — and then, in ascending order on the calling
    /// thread, `then(index, &mut item)` to every member whose `f` returned
    /// `true`; a member for which `then` returns `false` is retired from
    /// the set. `f` is the independent part of a phase (a shard's datapath
    /// cycle, a bank's service cycle) and says whether it left anything
    /// for `then`, the ordered epilogue (merging deferred effects,
    /// draining replies).
    ///
    /// Two contracts keep every thread count the same computation. `f(j)`
    /// must not observe what `then(i)` does: when the fan-out collapses to
    /// the caller the pool runs `f(i); then(i)` back to back, while the
    /// element is still in cache, instead of all of `f` first. And `then`
    /// must be a no-op returning `true` on an element whose `f` returned
    /// `false`: when the fan-out really ran on other threads nobody
    /// recorded the verdicts, and `then` is applied to every member.
    ///
    /// The dispatch is **occupancy-adaptive**: one thread per `grain`
    /// members (from the set's count, capped at the pool size), so a cycle
    /// with a handful of members runs inline on the caller instead of
    /// paying worker wake-ups for empty chunks. Chunks are word-aligned.
    ///
    /// # Panics
    ///
    /// Panics if a walk meets a member at or beyond `items.len()`;
    /// re-raises chunk panics like [`WorkerPool::run`].
    pub fn run_sparse<T, F, G>(
        &self,
        items: &mut [T],
        members: &mut ActiveSet,
        grain: usize,
        f: F,
        mut then: G,
    ) where
        T: Send,
        F: Fn(usize, &mut T) -> bool + Sync,
        G: FnMut(usize, &mut T) -> bool,
    {
        let n = items.len();
        let words = n.div_ceil(64);
        let want = members
            .len()
            .div_ceil(grain.max(1))
            .min(self.threads())
            .min(words);
        let fan_out = want > 1 && self.shared.is_some();
        if fan_out {
            let chunk = words.div_ceil(want) * 64;
            let chunks = n.div_ceil(chunk);
            self.count_dispatch(chunks);
            let mc = SparseCtx {
                f: &f,
                members: &*members,
            };
            let data: *mut () = items.as_mut_ptr().cast();
            let ctx: *const () = (&mc as *const SparseCtx<'_, F>).cast();
            // SAFETY: as in `run` — `data` is the live slice, `ctx` the
            // live `SparseCtx` (closure + set borrows outlive the blocking
            // dispatch), chunks are disjoint.
            unsafe { self.dispatch_raw(data, n, ctx, run_chunk_sparse::<T, F>, chunk, chunks) }
        } else {
            self.count_dispatch(1);
        }
        let mut walk = Walk::default();
        while let Some(i) = walk.next(members) {
            if (fan_out || f(i, &mut items[i])) && !then(i, &mut items[i]) {
                members.remove(i);
            }
        }
    }

    fn count_dispatch(&self, chunks: usize) {
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        self.chunks_dispatched
            .fetch_add(chunks.max(1) as u64, Ordering::Relaxed);
        self.last_chunks
            .store(chunks.max(1) as u64, Ordering::Relaxed);
    }

    /// Publishes one type-erased fan-out, runs chunk 0 on the caller, and
    /// blocks until every worker chunk completes.
    ///
    /// # Safety
    ///
    /// `data`/`ctx` must satisfy `entry`'s contract for every chunk
    /// `[i * chunk, min((i+1) * chunk, len))`, `i < chunks`, and stay
    /// alive until this call returns (it blocks until all chunks finish).
    unsafe fn dispatch_raw(
        &self,
        data: *mut (),
        len: usize,
        ctx: *const (),
        entry: unsafe fn(*mut (), *const (), usize, usize),
        chunk: usize,
        chunks: usize,
    ) {
        let shared = self.shared.as_ref().expect("workers exist");
        {
            let mut st = shared.state.lock().expect("pool mutex");
            st.epoch += 1;
            st.task = Some(Task {
                data,
                len,
                ctx,
                run_chunk: entry,
                chunk,
                chunks,
            });
            st.remaining = chunks - 1;
            st.panicked = false;
            shared.work_ready.notify_all();
        }
        // The caller takes chunk 0 itself, through the same erased entry
        // point the workers use, so every element access shares the
        // provenance of the one `as_mut_ptr` in the public wrapper.
        // SAFETY: chunk 0 is `[0, chunk)`, disjoint from every worker
        // chunk; `data`/`ctx` outlive this call per our own contract.
        let caller = catch_unwind(AssertUnwindSafe(|| unsafe {
            entry(data, ctx, 0, chunk.min(len));
        }));
        let worker_panicked = {
            let mut st = shared.state.lock().expect("pool mutex");
            while st.remaining > 0 {
                st = shared.work_done.wait(st).expect("pool mutex");
            }
            st.task = None;
            st.panicked
        };
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        assert!(!worker_panicked, "a WorkerPool worker chunk panicked");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            let mut st = shared.state.lock().expect("pool mutex");
            st.shutdown = true;
            shared.work_ready.notify_all();
            drop(st);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish()
    }
}

/// Rebuilds the typed view of one chunk and processes it.
///
/// # Safety
///
/// `data` must point to a live `[T]` of at least `end` elements with no
/// other thread touching `start..end`, and `ctx` to a live `F`.
unsafe fn run_chunk<T, F>(data: *mut (), ctx: *const (), start: usize, end: usize)
where
    F: Fn(usize, &mut T),
{
    let base = data.cast::<T>();
    // SAFETY: caller contract — `ctx` is the caller's `F`, alive until
    // every chunk completes.
    let f = unsafe { &*ctx.cast::<F>() };
    for i in start..end {
        // SAFETY: caller contract — element `i` is inside the slice and
        // exclusively ours for this epoch.
        f(i, unsafe { &mut *base.add(i) });
    }
}

/// The erased context of a sparse fan-out: the caller's closure plus the
/// set it filters by.
struct SparseCtx<'a, F> {
    f: &'a F,
    members: &'a ActiveSet,
}

/// Rebuilds the typed view of one chunk and processes only the set's
/// members inside it.
///
/// # Safety
///
/// As [`run_chunk`], plus `ctx` must point to a live
/// [`SparseCtx`]`<'_, F>`.
unsafe fn run_chunk_sparse<T, F>(data: *mut (), ctx: *const (), start: usize, end: usize)
where
    F: Fn(usize, &mut T) -> bool,
{
    let base = data.cast::<T>();
    // SAFETY: caller contract — `ctx` is the caller's `SparseCtx`, alive
    // until every chunk completes.
    let mc = unsafe { &*ctx.cast::<SparseCtx<'_, F>>() };
    let mut walk = Walk::starting_at(start);
    while let Some(i) = walk.next(mc.members).filter(|&i| i < end) {
        // SAFETY: caller contract — `start <= i < end`, so element `i` is
        // inside the slice and exclusively ours for this epoch.
        let _ = (mc.f)(i, unsafe { &mut *base.add(i) });
    }
}

/// What each parked worker runs: wait for a new epoch, take chunk
/// `wi + 1` if the task has one for us, report completion, repeat.
fn worker_loop(shared: &Shared, wi: usize) {
    let mut seen = 0u64;
    loop {
        let task = {
            let mut st = shared.state.lock().expect("pool mutex");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    break st.task;
                }
                st = shared.work_ready.wait(st).expect("pool mutex");
            }
        };
        let Some(task) = task else { continue };
        let mine = wi + 1;
        if mine >= task.chunks {
            continue;
        }
        let start = mine * task.chunk;
        let end = (start + task.chunk).min(task.len);
        // SAFETY: the publishing `run` call holds `&mut [T]` across this
        // epoch and chunk `mine` is ours alone.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe {
            (task.run_chunk)(task.data, task.ctx, start, end);
        }));
        let mut st = shared.state.lock().expect("pool mutex");
        if result.is_err() {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.work_done.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visits_every_element_with_its_index() {
        for threads in [1, 2, 3, 4, 7] {
            let pool = WorkerPool::new(threads);
            assert_eq!(pool.threads(), threads);
            let mut v: Vec<usize> = vec![0; 23];
            pool.run(&mut v, |i, x| *x = i * 10);
            let expect: Vec<usize> = (0..23).map(|i| i * 10).collect();
            assert_eq!(v, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_slices_run_inline() {
        let pool = WorkerPool::new(4);
        let mut empty: Vec<u32> = Vec::new();
        pool.run(&mut empty, |_, _| unreachable!());
        let mut one = vec![5u32];
        pool.run(&mut one, |i, x| {
            assert_eq!(i, 0);
            *x += 1;
        });
        assert_eq!(one, vec![6]);
    }

    #[test]
    fn pool_is_reusable_across_many_dispatches() {
        let pool = WorkerPool::new(3);
        let mut v = vec![0u64; 17];
        for round in 0..200u64 {
            pool.run(&mut v, |i, x| *x += round + i as u64);
        }
        let sum_rounds: u64 = (0..200).sum();
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, sum_rounds + 200 * i as u64);
        }
    }

    #[test]
    fn more_threads_than_items_caps_at_items() {
        let pool = WorkerPool::new(16);
        let mut v = vec![1u64; 3];
        pool.run(&mut v, |i, x| *x = i as u64);
        assert_eq!(v, vec![0, 1, 2]);
    }

    #[test]
    fn borrowed_context_is_usable_from_workers() {
        let offsets: Vec<u64> = (0..10).collect();
        let pool = WorkerPool::new(4);
        let mut v = vec![0u64; 10];
        pool.run(&mut v, |i, x| *x = offsets[i] * 2);
        assert_eq!(v, (0..10).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn dispatch_stats_count_fanouts_and_chunks() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.dispatch_stats(), PoolDispatchStats::default());
        let mut v = vec![0u64; 16];
        pool.run(&mut v, |i, x| *x = i as u64);
        pool.run(&mut v, |i, x| *x += i as u64);
        let mut one = vec![1u64];
        pool.run(&mut one, |_, x| *x += 1);
        let stats = pool.dispatch_stats();
        assert_eq!(stats.dispatches, 3);
        // Two 4-chunk fan-outs plus one inline run.
        assert_eq!(stats.chunks, 9);
        assert_eq!(stats.last_chunks, 1);
        assert!((stats.mean_occupancy() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn run_sparse_matches_the_sequential_masked_loop() {
        type Pred = Box<dyn Fn(usize) -> bool>;
        // Members divisible by three ask for the epilogue.
        let work = |i: usize, x: &mut u64| {
            *x = x.wrapping_mul(31).wrapping_add(i as u64);
            i % 3 == 0
        };
        let patterns: Vec<(&str, Pred)> = vec![
            ("dense", Box::new(|_| true)),
            ("sparse", Box::new(|i| i % 97 == 0)),
            ("clustered", Box::new(|i| (300..340).contains(&i))),
            ("tail", Box::new(|i| i >= 450)),
        ];
        for (name, pred) in &patterns {
            for threads in [1usize, 2, 4, 8] {
                for grain in [1usize, 16, 256] {
                    let n = 457;
                    let mut members = ActiveSet::from_members(n, (0..n).filter(|&i| pred(i)));
                    let mut expect: Vec<u64> = (0..n as u64).collect();
                    for i in (0..n).filter(|&i| pred(i)) {
                        work(i, &mut expect[i]);
                    }
                    let pool = WorkerPool::new(threads);
                    let mut got: Vec<u64> = (0..n as u64).collect();
                    // The epilogue sees each asking member after its `f`,
                    // in ascending order, and retires the odd ones; on a
                    // member that did not ask it must be (and is) a no-op.
                    let mut seen = Vec::new();
                    pool.run_sparse(&mut got, &mut members, grain, work, |i, x| {
                        if i % 3 != 0 {
                            return true;
                        }
                        seen.push((i, *x));
                        i % 2 == 0
                    });
                    let label = format!("{name} threads={threads} grain={grain}");
                    assert_eq!(got, expect, "{label}");
                    let asked = |i: &usize| pred(*i) && i % 3 == 0;
                    let want_seen: Vec<_> = (0..n).filter(asked).map(|i| (i, expect[i])).collect();
                    assert_eq!(seen, want_seen, "{label}");
                    let kept: Vec<_> = (0..n)
                        .filter(|i| pred(*i) && !(asked(i) && i % 2 == 1))
                        .collect();
                    assert_eq!(members.iter().collect::<Vec<_>>(), kept, "{label}");
                }
            }
        }
    }

    #[test]
    fn run_sparse_empty_mask_touches_nothing() {
        let pool = WorkerPool::new(4);
        let mut v = vec![7u64; 100];
        pool.run_sparse(
            &mut v,
            &mut ActiveSet::new(100),
            1,
            |_, _| unreachable!(),
            |_, _| unreachable!(),
        );
        assert!(v.iter().all(|&x| x == 7));
        // An empty-set dispatch is still accounted (as one inline chunk).
        assert_eq!(pool.dispatch_stats().dispatches, 1);
        assert_eq!(pool.dispatch_stats().last_chunks, 1);
    }

    #[test]
    fn run_sparse_adapts_threads_to_occupancy() {
        let pool = WorkerPool::new(4);
        let mut v = vec![0u64; 256];
        let fill = |i: usize, x: &mut u64| {
            *x = i as u64 + 1;
            false
        };
        // 3 members with grain 64: one thread suffices — inline chunk.
        let mut few = ActiveSet::from_members(256, 0..3);
        pool.run_sparse(&mut v, &mut few, 64, fill, |_, _| true);
        assert_eq!(pool.dispatch_stats().last_chunks, 1);
        assert_eq!((v[0], v[1], v[2], v[3]), (1, 2, 3, 0));
        // A full set with grain 1 fans out across the pool.
        let mut full = ActiveSet::from_members(256, 0..256);
        pool.run_sparse(&mut v, &mut full, 1, fill, |_, _| true);
        assert_eq!(pool.dispatch_stats().last_chunks, 4);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 + 1));
    }

    #[test]
    fn worker_panic_is_reported() {
        let pool = WorkerPool::new(2);
        let mut v = vec![0u64; 8];
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&mut v, |i, _| assert!(i < 6, "boom"));
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        // The pool survives a panicked dispatch.
        pool.run(&mut v, |i, x| *x = i as u64);
        assert_eq!(v[7], 7);
    }
}
