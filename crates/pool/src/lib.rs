//! A bounded, work-stealing thread pool with a scoped, order-preserving
//! `parallel_map`.
//!
//! The workspace's hot paths — forest training, batch prediction, CPD+
//! cluster featurization, corpus preparation, the Scout Master sweeps —
//! are all embarrassingly parallel loops over independent items. Before
//! this crate existed, forest training spawned one OS thread *per tree*
//! (100 trees → 100 threads) and everything else ran sequentially. The
//! pool bounds concurrency at a fixed worker count and gives every loop
//! the same primitive, and its only one:
//!
//! ```
//! let pool = pool::Pool::new(4);
//! let squares = pool.parallel_map(&[1, 2, 3, 4], |_, &v| v * v);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```
//!
//! # Determinism contract
//!
//! `parallel_map(items, f)` returns `f(i, &items[i])` in input order, and
//! the scheduler never feeds any information about worker count, chunk
//! placement, or timing into `f`. As long as `f` itself is a pure
//! function of `(i, item)` — which in this workspace means any randomness
//! is drawn from a per-item RNG seeded from the item (see
//! `RandomForest::fit_weighted`'s per-tree seeds) — results are
//! **bit-identical** for every worker count, including the sequential
//! `Pool::new(1)`. Tests assert this across 1, 2, and 8 workers.
//!
//! # Why not rayon
//!
//! crates.io is unreachable in the build environment, so external crates
//! cannot be fetched; `rand` and `proptest` are already in-workspace
//! drop-ins for the same reason. This crate implements the
//! slice of rayon the workspace needs (a scoped, indexed, order-preserving
//! map over a bounded pool) in ~300 code lines with no dependencies
//! beyond the in-workspace `obs`. Its one `unsafe` block is the lifetime
//! erasure that lets workers run a closure borrowed from the caller's
//! frame (argued at [`Pool::parallel_map`]); batch kernels that want to
//! write into a shared output return their rows from the map instead.
//!
//! # Scheduling
//!
//! Each `parallel_map` call becomes a *group*: the item range is split
//! into chunks (≈4 chunks per thread, so faster workers can steal from
//! slower ones) that are dealt round-robin onto per-worker deques.
//! Workers pop their own deque from the front and steal from the backs of
//! other deques when idle. The calling thread is a full participant: it
//! executes chunks of its own group while waiting, so `Pool::new(n)`
//! provides `n`-way parallelism with `n - 1` spawned workers and
//! `Pool::new(1)` is a plain sequential loop on the caller. A
//! `parallel_map` issued *from inside* a pool task runs inline on the
//! already-parallel worker (no deadlock, no oversubscription).
//!
//! # Observability
//!
//! `pool.queue.depth` (gauge) tracks queued chunks, `pool.tasks` (counter)
//! counts completed items, and the `pool.parallel_map` span feeds a
//! wall-time histogram per call, all through the workspace `obs` crate
//! (zero cost while `obs` is disabled).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Environment variable overriding the global pool's thread count.
pub const THREADS_ENV: &str = "SCOUTS_POOL_THREADS";

thread_local! {
    /// Set while this thread is executing a pool chunk; nested
    /// `parallel_map` calls observe it and run inline.
    static IN_POOL_TASK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// One `parallel_map` call: the lifetime-erased item runner plus the
/// completion latch that keeps the borrow alive until every item ran.
struct Group {
    /// Runs item `i`. Lifetime-erased from the `parallel_map` stack
    /// frame; soundness argument at [`Pool::parallel_map`].
    run: Box<dyn Fn(usize) + Send + Sync>,
    /// Items not yet completed (counted down per chunk).
    remaining: AtomicUsize,
    /// Did any item panic?
    panicked: AtomicBool,
    done_mx: Mutex<bool>,
    done_cv: Condvar,
    /// Distinguishes groups so the caller only helps its own.
    id: u64,
    /// Trace context captured on the calling thread; entered by every
    /// worker running this group's chunks so per-item spans parent to
    /// the caller's open span no matter which thread executes them.
    ctx: Option<obs::TraceContext>,
}

impl Group {
    /// Execute `[start, end)` and count it down, exactly once, even on
    /// panic. After a panic, later items are skipped (but still counted)
    /// so the latch always releases.
    fn run_chunk(&self, start: usize, end: usize) {
        let _trace = self.ctx.map(obs::trace::TraceContext::enter);
        let result = catch_unwind(AssertUnwindSafe(|| {
            for i in start..end {
                if self.panicked.load(Ordering::Relaxed) {
                    break;
                }
                (self.run)(i);
            }
        }));
        if result.is_err() {
            self.panicked.store(true, Ordering::Relaxed);
        }
        obs::counter("pool.tasks").add((end - start) as u64);
        let n = end - start;
        if self.remaining.fetch_sub(n, Ordering::AcqRel) == n {
            let mut done = self.done_mx.lock().unwrap();
            *done = true;
            self.done_cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut done = self.done_mx.lock().unwrap();
        while !*done {
            done = self.done_cv.wait(done).unwrap();
        }
    }

    fn is_done(&self) -> bool {
        *self.done_mx.lock().unwrap()
    }
}

/// A contiguous slice of one group's items, the unit of scheduling and
/// stealing.
struct Chunk {
    group: Arc<Group>,
    start: usize,
    end: usize,
}

impl Chunk {
    fn execute(self) {
        let entered = IN_POOL_TASK.with(|f| f.replace(true));
        self.group.run_chunk(self.start, self.end);
        IN_POOL_TASK.with(|f| f.set(entered));
    }
}

/// State shared between the pool handle and its workers.
struct Shared {
    /// One deque per worker; owners pop the front, thieves pop the back.
    deques: Vec<Mutex<VecDeque<Chunk>>>,
    /// Queued (not yet claimed) chunks, for sleep/wake decisions.
    queued: AtomicUsize,
    /// Guards `shutdown`; workers sleep on `wake` when idle.
    sleep_mx: Mutex<bool>,
    wake: Condvar,
}

impl Shared {
    /// Claim a chunk: own deque front first, then steal from others'
    /// backs, scanning from `home + 1` so thieves spread out.
    fn claim(&self, home: usize) -> Option<Chunk> {
        let n = self.deques.len();
        for off in 0..n {
            let i = (home + off) % n;
            let mut dq = self.deques[i].lock().unwrap();
            let chunk = if off == 0 {
                dq.pop_front()
            } else {
                dq.pop_back()
            };
            if let Some(c) = chunk {
                let q = self.queued.fetch_sub(1, Ordering::AcqRel) - 1;
                obs::gauge("pool.queue.depth").set(q as f64);
                return Some(c);
            }
        }
        None
    }

    /// Claim a chunk belonging to `group_id` only (caller self-help: the
    /// calling thread must not start executing *other* groups, or an
    /// unrelated long task could pin an unrelated caller's latch open).
    fn claim_for_group(&self, group_id: u64) -> Option<Chunk> {
        for dq in &self.deques {
            let mut dq = dq.lock().unwrap();
            if let Some(pos) = dq.iter().rposition(|c| c.group.id == group_id) {
                let c = dq.remove(pos).unwrap();
                let q = self.queued.fetch_sub(1, Ordering::AcqRel) - 1;
                obs::gauge("pool.queue.depth").set(q as f64);
                return Some(c);
            }
        }
        None
    }

    fn push_chunks(&self, chunks: Vec<Chunk>, cursor: &AtomicUsize) {
        let n = chunks.len();
        let start = cursor.fetch_add(n, Ordering::Relaxed);
        // Count the chunks *before* any of them is claimable: a worker
        // that claims one the instant it lands decrements `queued`, and
        // must never find it at zero.
        let q = self.queued.fetch_add(n, Ordering::AcqRel) + n;
        obs::gauge("pool.queue.depth").set(q as f64);
        for (k, chunk) in chunks.into_iter().enumerate() {
            let dq = (start + k) % self.deques.len();
            self.deques[dq].lock().unwrap().push_back(chunk);
        }
        // Wake every sleeper: chunks were fanned across deques.
        let _guard = self.sleep_mx.lock().unwrap();
        self.wake.notify_all();
    }
}

fn worker_loop(shared: Arc<Shared>, home: usize) {
    IN_POOL_TASK.with(|f| f.set(true));
    loop {
        if let Some(chunk) = shared.claim(home) {
            chunk.execute();
            continue;
        }
        let guard = shared.sleep_mx.lock().unwrap();
        if *guard {
            return; // shutdown
        }
        if shared.queued.load(Ordering::Acquire) == 0 {
            // Timed wait only as a belt-and-braces against missed wakeups;
            // the queued check under `sleep_mx` prevents the classic race.
            let _ = shared
                .wake
                .wait_timeout(guard, Duration::from_millis(100))
                .unwrap();
        }
    }
}

/// A bounded work-stealing thread pool. See the crate docs for the
/// determinism contract.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    push_cursor: AtomicUsize,
    group_ids: AtomicUsize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl Pool {
    /// A pool providing `threads`-way parallelism (the calling thread
    /// participates, so `threads - 1` workers are spawned). `Pool::new(1)`
    /// spawns nothing and runs every `parallel_map` sequentially inline.
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let n_workers = threads - 1;
        let shared = Arc::new(Shared {
            deques: (0..n_workers.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            queued: AtomicUsize::new(0),
            sleep_mx: Mutex::new(false),
            wake: Condvar::new(),
        });
        let workers = (0..n_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("scouts-pool-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            workers,
            threads,
            push_cursor: AtomicUsize::new(0),
            group_ids: AtomicUsize::new(1),
        }
    }

    /// The process-wide pool: `SCOUTS_POOL_THREADS` if set, otherwise the
    /// machine's available parallelism.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(default_threads()))
    }

    /// The pool's total parallelism (including the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map `f` over `items` in parallel, returning results in input
    /// order. `f` must be a pure function of `(index, item)` for the
    /// crate-level determinism contract to hold; the pool itself
    /// guarantees it never exposes scheduling to `f`.
    ///
    /// Panics in `f` are propagated (after every in-flight item of the
    /// call has settled, so borrows never escape).
    ///
    /// # Soundness
    ///
    /// The item runner borrows `items`, `f`, and the result slots from
    /// this stack frame and is lifetime-erased to be storable on worker
    /// deques. Three facts keep that sound: (1) every queued chunk is
    /// claimed and executed exactly once — nothing cancels or drops
    /// queued chunks; (2) this frame does not return before the latch
    /// counts every item down, panic or not; (3) the erased closure
    /// captures only shared references, so a worker dropping its
    /// `Arc<Group>` late runs no user code.
    pub fn parallel_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let sequential = n <= 1 || self.threads == 1 || IN_POOL_TASK.with(|flag| flag.get());
        if sequential {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let _span = obs::span!("pool.parallel_map");
        obs::observe("pool.parallel_map.items", n as f64);

        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let run = {
            let slots = &slots;
            let f = &f;
            move |i: usize| {
                let r = f(i, &items[i]);
                *slots[i].lock().unwrap() = Some(r);
            }
        };
        // SAFETY: only the lifetime changes; the vtable and layout are the
        // same type's. The erased borrows (`items`, `f`, `slots`) outlive
        // every call of `run`: each chunk runs exactly once, this frame
        // blocks below until the latch has counted every item down (panic
        // or not), and a worker that drops its `Arc<Group>` later only
        // frees a closure of references, running no user code.
        #[allow(unsafe_code)]
        let run: Box<dyn Fn(usize) + Send + Sync> = unsafe {
            std::mem::transmute::<
                Box<dyn Fn(usize) + Send + Sync + '_>,
                Box<dyn Fn(usize) + Send + Sync + 'static>,
            >(Box::new(run))
        };
        let group = Arc::new(Group {
            run,
            remaining: AtomicUsize::new(n),
            panicked: AtomicBool::new(false),
            done_mx: Mutex::new(false),
            done_cv: Condvar::new(),
            id: self.group_ids.fetch_add(1, Ordering::Relaxed) as u64,
            ctx: obs::trace::capture(),
        });

        // ≈4 chunks per thread: coarse enough to amortize queue traffic,
        // fine enough that stealing balances uneven items.
        let chunk = n.div_ceil(self.threads * 4).max(1);
        let chunks: Vec<Chunk> = (0..n)
            .step_by(chunk)
            .map(|start| Chunk {
                group: Arc::clone(&group),
                start,
                end: (start + chunk).min(n),
            })
            .collect();
        self.shared.push_chunks(chunks, &self.push_cursor);

        // The caller works too — restricted to its own group so an
        // unrelated caller's latch can never be pinned open by us.
        while !group.is_done() {
            match self.shared.claim_for_group(group.id) {
                Some(chunk) => chunk.execute(),
                None => group.wait(),
            }
        }
        if group.panicked.load(Ordering::Relaxed) {
            panic!("pool task panicked");
        }
        slots
            .into_iter()
            .map(|m| m.into_inner().unwrap().expect("pool slot filled"))
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut shutdown = self.shared.sleep_mx.lock().unwrap();
            *shutdown = true;
            self.shared.wake.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Thread count for the global pool: `SCOUTS_POOL_THREADS` (clamped to
/// `1..=256`) or the machine's available parallelism.
fn default_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.clamp(1, 256);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            let items: Vec<usize> = (0..100).collect();
            let out = pool.parallel_map(&items, |i, &v| {
                assert_eq!(i, v);
                v * 2
            });
            assert_eq!(out, (0..100).map(|v| v * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn identical_across_worker_counts() {
        let items: Vec<u64> = (0..57).collect();
        let f = |_: usize, &v: &u64| v.wrapping_mul(0x9E37_79B9).rotate_left(7);
        let baseline = Pool::new(1).parallel_map(&items, f);
        for threads in [2, 4, 8] {
            assert_eq!(Pool::new(threads).parallel_map(&items, f), baseline);
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let pool = Pool::new(4);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.parallel_map(&empty, |_, &v| v).is_empty());
        assert_eq!(pool.parallel_map(&[41], |_, &v| v + 1), vec![42]);
    }

    #[test]
    fn nested_calls_run_inline() {
        let pool = Pool::new(4);
        let out = pool.parallel_map(&[10usize, 20, 30], |_, &v| {
            // Nested map on the same pool must not deadlock.
            let inner: Vec<usize> = (0..v).collect();
            pool.parallel_map(&inner, |_, &w| w).iter().sum::<usize>()
        });
        assert_eq!(out, vec![45, 190, 435]);
    }

    #[test]
    fn concurrent_groups_do_not_interfere() {
        let pool = Arc::new(Pool::new(4));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                let items: Vec<u64> = (0..200).map(|i| i + t * 1000).collect();
                let out = pool.parallel_map(&items, |_, &v| v + 1);
                assert_eq!(out, items.iter().map(|v| v + 1).collect::<Vec<_>>());
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn back_to_back_tiny_maps_never_underflow_the_queue_count() {
        // Many 2-item maps in a tight loop from several threads: workers
        // claim chunks the instant they land, so `queued` must already
        // count them (an underflow panics a worker in debug builds, and
        // the caller then waits forever on a chunk nobody runs — hence
        // the watchdog instead of a plain join).
        let pool = Arc::new(Pool::new(4));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for t in 0..4u64 {
            let pool = Arc::clone(&pool);
            let done_tx = done_tx.clone();
            std::thread::spawn(move || {
                for round in 0..20_000u64 {
                    let items = [t, round];
                    let out = pool.parallel_map(&items, |_, &v| v + 1);
                    assert_eq!(out, vec![t + 1, round + 1]);
                }
                done_tx.send(()).ok();
            });
        }
        for _ in 0..4 {
            done_rx
                .recv_timeout(Duration::from_secs(60))
                .expect("a caller hung or panicked: queue count underflowed");
        }
    }

    #[test]
    fn panics_propagate_without_hanging() {
        let pool = Pool::new(4);
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_map(&items, |_, &v| {
                if v == 33 {
                    panic!("boom");
                }
                v
            })
        }));
        assert!(result.is_err());
        // The pool is still usable afterwards.
        assert_eq!(pool.parallel_map(&[1, 2], |_, &v| v * 10), vec![10, 20]);
    }

    #[test]
    fn heavy_uneven_items_are_balanced() {
        // Items with wildly different costs; stealing must still return
        // everything in order.
        let pool = Pool::new(8);
        let items: Vec<u64> = (0..40)
            .map(|i| if i % 7 == 0 { 200_000 } else { 10 })
            .collect();
        let out = pool.parallel_map(&items, |i, &spins| {
            let mut acc = i as u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            acc
        });
        let seq = Pool::new(1).parallel_map(&items, |i, &spins| {
            let mut acc = i as u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            acc
        });
        assert_eq!(out, seq);
    }

    #[test]
    fn global_pool_is_shared_and_bounded() {
        let p1 = Pool::global();
        let p2 = Pool::global();
        assert!(std::ptr::eq(p1, p2));
        assert!(p1.threads() >= 1);
        let out = p1.parallel_map(&[5u32, 6, 7], |_, &v| v * v);
        assert_eq!(out, vec![25, 36, 49]);
    }
}
