//! The serving plane's one micro-batching queue.
//!
//! Handler threads [`submit`](Coalescer::submit) jobs and park on a
//! rendezvous channel; a single worker thread takes what is queued and
//! hands it to a handler closure. The policy, in one sentence: **a batch
//! is what queued while the previous one ran, capped at `batch_size`.**
//! An idle worker dispatches a lone job at once, so occupancy tracks load
//! by itself. There is no linger, because there is nothing for it to
//! buy: a batch has no fixed cost left to share — its monitoring plane
//! opens on the engine's kept index — so holding a job back costs it
//! more than any share is worth.
//!
//! It has one handler: the storm layer's Sev3 route coalescer
//! ([`crate::fleet::start_route_coalescer`]), where a batch shares one
//! fleet pass. Predicts run on their connection's thread and never
//! queue here (DESIGN.md §5d has the measurements). The queue's
//! contract:
//!
//! * the batch span is the fan-in point — it runs outside any single
//!   request's context but *links* every request it coalesced;
//! * a job whose deadline lapsed in the queue is answered
//!   [`PredictError::DeadlineExpired`] and never reaches the handler;
//! * shutdown drains, never drops: new submits are refused, the batch
//!   in flight finishes, and whatever is left in the queue is shed with
//!   [`PredictError::ShuttingDown`] under a `<span>.drain` span that
//!   links every shed request;
//! * a handler panic costs its own batch and nothing else: those jobs'
//!   callers see a closed reply channel, the worker takes the next batch.
//!
//! Metrics: the occupancy and queue-wait histograms named in [`Window`],
//! `serve.deadline.expired`, and two counters named after the batch span
//! — `<span>.drained` and `<span>.panicked` (a panic also raises a
//! `<span>.panic` flight alert). For the Sev3 queue that is
//! `storm.route.batch.*`.

use crate::PredictError;
use obs::TraceContext;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One queued request: the caller's `input` plus the envelope the
/// coalescer itself acts on.
pub(crate) struct Job<I, O> {
    pub input: I,
    /// Wall-clock deadline, checked when the job's batch starts.
    deadline: Option<Instant>,
    /// When the job was made, just ahead of its submit: the start of the
    /// wait its batch observes.
    queued_at: Instant,
    /// The originating request's trace context (span id = the request's
    /// root span), so the handler's per-item work lands in its trace.
    pub ctx: TraceContext,
    /// Where the answer goes. `sync_channel(1)` so the send never blocks.
    reply: SyncSender<Reply<O>>,
}

impl<I, O> Job<I, O> {
    /// A job carrying the calling thread's trace context, and the
    /// receiver its answer will arrive on.
    pub fn new(input: I, deadline: Option<Instant>) -> (Job<I, O>, Receiver<Reply<O>>) {
        let (reply, answer) = sync_channel(1);
        let ctx = obs::trace::capture().unwrap_or(TraceContext::NONE);
        (
            Job {
                input,
                deadline,
                queued_at: Instant::now(),
                ctx,
                reply,
            },
            answer,
        )
    }

    /// Answer the job. The receiver may already be gone (its connection
    /// died); that is not the worker's problem.
    pub fn answer(self, result: Reply<O>) {
        let _ = self.reply.try_send(result);
    }
}

pub(crate) type Reply<O> = Result<O, PredictError>;

/// A coalescer's names and its batch cap. The drain span and the
/// drain and panic counters are named after `span`.
pub(crate) struct Window {
    /// Worker thread name.
    pub thread: &'static str,
    /// Name of the per-batch span.
    pub span: &'static str,
    /// Name of the jobs-per-batch histogram.
    pub occupancy: &'static str,
    /// Name of the submit → batch-start histogram, in milliseconds: the
    /// service time of the batch ahead, ~0 when the worker was idle.
    pub queue_wait: &'static str,
    /// Maximum jobs per batch (`0` is treated as `1`).
    pub batch_size: usize,
}

struct Queue<J> {
    state: Mutex<QueueState<J>>,
    wake: Condvar,
}

struct QueueState<J> {
    jobs: VecDeque<J>,
    shutdown: bool,
}

impl<J> Queue<J> {
    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<J>> {
        // No code path panics while holding this lock.
        self.state.lock().expect("coalescer queue lock poisoned")
    }
}

/// The queue and its worker thread.
pub(crate) struct Coalescer<I, O> {
    queue: Arc<Queue<Job<I, O>>>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl<I: Send + 'static, O: Send + 'static> Coalescer<I, O> {
    /// Start the worker thread; `handler` receives every non-empty batch
    /// of live jobs and must answer each one.
    pub fn start(
        window: Window,
        mut handler: impl FnMut(Vec<Job<I, O>>) + Send + 'static,
    ) -> Coalescer<I, O> {
        let queue = Arc::new(Queue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
        });
        let worker_queue = Arc::clone(&queue);
        let worker = std::thread::Builder::new()
            .name(window.thread.into())
            .spawn(move || {
                while let Some(jobs) = collect_batch(&worker_queue, &window) {
                    run_batch(jobs, &window, &mut handler);
                }
                drain(&worker_queue, &window);
            })
            .expect("spawn coalescer thread");
        Coalescer {
            queue,
            worker: Some(worker),
        }
    }

    /// Enqueue a job. Returns the job back if the coalescer has shut
    /// down (the caller still holds the reply channel).
    pub fn submit(&self, job: Job<I, O>) -> Result<(), Job<I, O>> {
        let mut state = self.queue.lock();
        if state.shutdown {
            return Err(job);
        }
        state.jobs.push_back(job);
        drop(state);
        self.queue.wake.notify_one();
        Ok(())
    }
}

impl<I, O> Coalescer<I, O> {
    /// Signal shutdown without waiting for the worker (joined by
    /// [`Drop`]): see the module docs for what happens to queued jobs.
    pub fn begin_shutdown(&self) {
        self.queue.lock().shutdown = true;
        self.queue.wake.notify_all();
    }
}

impl<I, O> Drop for Coalescer<I, O> {
    fn drop(&mut self) {
        self.begin_shutdown();
        if let Some(worker) = self.worker.take() {
            worker.join().ok();
        }
    }
}

/// Block until the queue is non-empty, then take what is there, oldest
/// first, up to `batch_size`. Returns `None` once shutdown is signalled;
/// jobs still queued then are left for [`drain`].
fn collect_batch<J>(queue: &Queue<J>, window: &Window) -> Option<Vec<J>> {
    let mut state = queue.lock();
    while state.jobs.is_empty() && !state.shutdown {
        state = queue
            .wake
            .wait(state)
            .expect("coalescer queue lock poisoned");
    }
    if state.shutdown {
        return None;
    }
    let take = window.batch_size.max(1).min(state.jobs.len());
    Some(state.jobs.drain(..take).collect())
}

fn linked_span<I, O>(name: &'static str, jobs: &[Job<I, O>]) -> obs::SpanGuard {
    let mut span = obs::span!(name);
    for job in jobs.iter().filter(|j| j.ctx.trace_id != 0) {
        span.add_link(job.ctx);
    }
    span
}

fn run_batch<I, O>(
    jobs: Vec<Job<I, O>>,
    window: &Window,
    handler: &mut impl FnMut(Vec<Job<I, O>>),
) {
    let _span = linked_span(window.span, &jobs);
    obs::observe(window.occupancy, jobs.len() as f64);
    let now = Instant::now();
    for job in &jobs {
        let waited = now.duration_since(job.queued_at);
        obs::observe(window.queue_wait, waited.as_secs_f64() * 1e3);
    }

    // Answer expired jobs before doing any work on them.
    let (expired, live): (Vec<_>, Vec<_>) = jobs
        .into_iter()
        .partition(|j| j.deadline.is_some_and(|d| now >= d));
    if !expired.is_empty() {
        obs::counter("serve.deadline.expired").add(expired.len() as u64);
        obs::flight().alert(
            "deadline-miss",
            &format!("{} job(s) expired in queue", expired.len()),
        );
        for job in expired {
            job.answer(Err(PredictError::DeadlineExpired));
        }
    }
    // A handler panic (a Scout blowing up mid-predict) must not take the
    // worker with it: submits would keep succeeding and park forever. The
    // batch's jobs drop with the unwind, which their callers see as a
    // closed reply channel (`500 … dropped the request`).
    if !live.is_empty() && catch_unwind(AssertUnwindSafe(|| handler(live))).is_err() {
        obs::counter(&format!("{}.panicked", window.span)).inc();
        obs::flight().alert(
            &format!("{}.panic", window.span),
            &format!("{} handler panicked", window.span),
        );
    }
}

/// Shutdown: shed whatever is still queued. The drain span links every
/// abandoned request so no trace dead-ends without a recorded cause.
fn drain<I, O>(queue: &Queue<Job<I, O>>, window: &Window) {
    let drained: Vec<Job<I, O>> = queue.lock().jobs.drain(..).collect();
    if drained.is_empty() {
        return;
    }
    // Span names are `'static`; this runs at most once per coalescer.
    let name: &'static str = format!("{}.drain", window.span).leak();
    let _span = linked_span(name, &drained);
    obs::counter(&format!("{}.drained", window.span)).add(drained.len() as u64);
    for job in drained {
        job.answer(Err(PredictError::ShuttingDown));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    type Echo = Coalescer<u32, u32>;

    fn window(batch_size: usize) -> Window {
        Window {
            thread: "test-coalescer",
            span: "test.coalesce.batch",
            occupancy: "test.coalesce.occupancy",
            queue_wait: "test.coalesce.queue_wait_ms",
            batch_size,
        }
    }

    /// A coalescer that echoes each input back and reports every batch
    /// (as its inputs) on the returned channel. With a `gate`, the
    /// handler parks on it before answering, so the test decides what is
    /// queued behind the batch in flight.
    fn start(window: Window, gate: Option<Receiver<()>>) -> (Echo, Receiver<Vec<u32>>) {
        let (seen_tx, seen) = channel();
        let coalescer = Coalescer::start(window, move |jobs: Vec<Job<u32, u32>>| {
            let _ = seen_tx.send(jobs.iter().map(|j| j.input).collect());
            if let Some(gate) = &gate {
                let _ = gate.recv();
            }
            for job in jobs {
                let input = job.input;
                job.answer(Ok(input));
            }
        });
        (coalescer, seen)
    }

    fn gated(batch_size: usize) -> (Echo, Receiver<Vec<u32>>, SyncSender<()>) {
        let (gate_tx, gate_rx) = sync_channel(0);
        let (coalescer, seen) = start(window(batch_size), Some(gate_rx));
        (coalescer, seen, gate_tx)
    }

    fn submit(to: &Echo, input: u32, deadline: Option<Instant>) -> Receiver<Reply<u32>> {
        let (job, answer) = Job::new(input, deadline);
        assert!(to.submit(job).is_ok(), "coalescer refused job {input}");
        answer
    }

    const LONG: Duration = Duration::from_secs(30);

    #[test]
    fn an_idle_worker_runs_a_lone_job_at_once() {
        // Nothing else is coming: a worker that held the batch open for
        // company would never answer.
        let (coalescer, seen) = start(window(8), None);
        let answer = submit(&coalescer, 7, None);
        assert_eq!(answer.recv().unwrap(), Ok(7));
        assert_eq!(seen.recv().unwrap(), vec![7]);
    }

    #[test]
    fn jobs_queued_behind_a_running_batch_leave_as_one_batch() {
        let (coalescer, seen, gate) = gated(4);
        let first = submit(&coalescer, 0, None);
        assert_eq!(seen.recv().unwrap(), vec![0]);
        // The worker is parked inside the handler: these six queue up.
        let queued: Vec<_> = (1..=6).map(|i| submit(&coalescer, i, None)).collect();
        gate.send(()).unwrap();
        assert_eq!(first.recv().unwrap(), Ok(0));
        // What queued leaves oldest first, capped at the batch size.
        assert_eq!(seen.recv().unwrap(), vec![1, 2, 3, 4]);
        gate.send(()).unwrap();
        assert_eq!(seen.recv().unwrap(), vec![5, 6]);
        gate.send(()).unwrap();
        for (i, answer) in (1..=6).zip(queued) {
            assert_eq!(answer.recv().unwrap(), Ok(i));
            assert!(answer.recv().is_err(), "job {i} was answered twice");
        }
    }

    #[test]
    fn every_job_that_reaches_a_batch_observes_its_queue_wait_once() {
        obs::enable();
        // A histogram of its own: the count below is exact.
        let names = Window {
            queue_wait: "test.coalesce.waits.queue_wait_ms",
            ..window(4)
        };
        let (coalescer, _seen) = start(names, None);
        // One of the three is expired on arrival: it waited all the same.
        let answers = [
            submit(&coalescer, 1, None),
            submit(&coalescer, 2, Some(Instant::now())),
            submit(&coalescer, 3, None),
        ];
        // A batch observes its jobs' waits before it answers any of them.
        let replies = answers.map(|answer| answer.recv().expect("job answered"));
        assert_eq!(replies, [Ok(1), Err(PredictError::DeadlineExpired), Ok(3)]);
        let waits = obs::global()
            .metrics
            .histogram_summary("test.coalesce.waits.queue_wait_ms")
            .expect("queue-wait histogram");
        assert_eq!(waits.count, 3, "one observation per job");
        assert!(waits.min >= 0.0);
    }

    #[test]
    fn shutdown_sheds_every_queued_job_exactly_once() {
        let (coalescer, seen, gate) = gated(1);
        let first = submit(&coalescer, 0, None);
        assert_eq!(seen.recv().unwrap(), vec![0]);
        // The worker is parked inside the handler: these five stay queued.
        let queued: Vec<_> = (1..=5).map(|i| submit(&coalescer, i, None)).collect();
        coalescer.begin_shutdown();
        let (late, _late_answer) = Job::new(99, None);
        let returned = coalescer.submit(late).expect_err("submit after shutdown");
        assert_eq!(returned.input, 99);
        gate.send(()).unwrap();
        assert_eq!(first.recv().unwrap(), Ok(0));
        drop(coalescer); // joins the worker: the drain has run
        for answer in queued {
            assert_eq!(answer.recv().unwrap(), Err(PredictError::ShuttingDown));
            assert!(answer.recv().is_err(), "a shed job was answered twice");
        }
        assert!(seen.try_recv().is_err(), "a shed job reached the handler");
    }

    #[test]
    fn expired_jobs_never_reach_the_handler() {
        let (coalescer, seen, gate) = gated(4);
        let first = submit(&coalescer, 0, None);
        assert_eq!(seen.recv().unwrap(), vec![0]);
        // Queued behind the parked worker: one already past its
        // deadline, one with time to spare, one undeadlined.
        let stale = submit(&coalescer, 1, Some(Instant::now()));
        let fresh = submit(&coalescer, 2, Some(Instant::now() + LONG));
        let open = submit(&coalescer, 3, None);
        gate.send(()).unwrap();
        assert_eq!(first.recv().unwrap(), Ok(0));
        assert_eq!(seen.recv().unwrap(), vec![2, 3]);
        gate.send(()).unwrap();
        assert_eq!(stale.recv().unwrap(), Err(PredictError::DeadlineExpired));
        assert_eq!(fresh.recv().unwrap(), Ok(2));
        assert_eq!(open.recv().unwrap(), Ok(3));
    }

    #[test]
    fn a_panicking_batch_drops_its_jobs_and_the_worker_takes_the_next() {
        let coalescer: Echo = Coalescer::start(window(1), |jobs: Vec<Job<u32, u32>>| {
            for job in jobs {
                let input = job.input;
                assert_ne!(input, 1, "scout blew up");
                job.answer(Ok(input));
            }
        });
        let doomed = submit(&coalescer, 1, None);
        let next = submit(&coalescer, 2, None);
        assert!(doomed.recv().is_err(), "the panicked batch was answered");
        // Without containment the worker is dead and this parks forever.
        assert_eq!(next.recv_timeout(LONG).expect("worker wedged"), Ok(2));
    }
}
