//! Deterministic scoped work-pool scheduler.
//!
//! Every fan-out in the workspace — the Monte-Carlo simulation engine's
//! point-round jobs, the Table I design-space sweep,
//! the multi-standard compliance sweeps and the `fec-svc` decode daemon —
//! runs on the same [`WorkPool`] instead of carrying its own hand-rolled
//! `std::thread::scope` block.
//!
//! # Submission API
//!
//! A run is configured with the [`PoolRun`] builder returned by
//! [`WorkPool::run`] and finished with one of three terminal methods:
//!
//! * [`PoolRun::indexed_streamed`] — `count` independent tasks, results
//!   returned in **index order**, plus a completion-order callback on the
//!   calling thread for progress streaming;
//! * [`PoolRun::jobs`] — a *dynamic* job set: explicit [`Job`] values
//!   carrying an id, a [`Priority`] and an optional [`CancelToken`], with a
//!   completion handler that may submit follow-up jobs into the running
//!   pool;
//! * [`PoolRun::served`] — an *open* job set: jobs arrive from any thread
//!   through an [`Admission`] handle and each starts on the next free
//!   worker; the run ends once the handle is closed and every admitted job
//!   has been handed to the completion handler.
//!
//! All three share one coordinator: a `jobs` run is a served run whose
//! handle is closed before it starts, and an indexed run is a `jobs` run.
//!
//! Builder knob: [`PoolRun::observed`] injects a [`Clock`] and collects
//! [`PoolObs`] pool observability.
//!
//! # Determinism contract
//!
//! The pool executes tasks and merges results **by task id / index, never
//! by completion order**: the vector returned by
//! [`PoolRun::indexed_streamed`] is in index order for any worker count, so
//! a caller whose task `i` is a pure function of `i` gets bit-identical
//! output at 1, 2 or 64 workers.  Which worker executes which task is
//! dynamic (a shared ready-queue, so long tasks do not straggle a static
//! chunk), but that assignment is invisible in the merged result.
//!
//! Cancellation keeps the contract: a cancelled job is retired **at the
//! queue barrier** — it either runs to completion or is never started, so
//! every [`JobOutcome::Done`] value is still the pure function of its id and
//! the prefix of completed work is deterministic.  Only *which* jobs got cut
//! off depends on timing.
//!
//! # Continuation jobs
//!
//! The completion handler of [`PoolRun::jobs`] runs on the calling thread
//! (completion order) and may submit follow-up jobs through its
//! [`JobSink`].  The simulation engine uses this to keep early stopping
//! exact — each scheduling round of a point is a batch of jobs, one per
//! worker, and the next round is only submitted once the previous round's
//! merged counters pass the stopping rule — while jobs of *other* points
//! keep every worker busy in between.
//!
//! # Example
//!
//! ```
//! use fec_sched::WorkPool;
//!
//! let squares = WorkPool::new(4).run().indexed_streamed(8, |i| i * i, |_, _| {});
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use fec_obs::{Class, Clock, Registry, TimingStat};

/// Aggregated observability of one or more pool runs.
///
/// Collected by [`PoolRun::observed`] and folded into a metric [`Registry`]
/// with [`PoolObs::record_into`].  Task counts are deterministic for
/// callers honoring the pool's merge-by-id contract; per-worker totals,
/// the queue high-water mark and the cancelled count are execution-class
/// (schedule-dependent); wait/run spans are timing-class.
#[derive(Debug, Default)]
pub struct PoolObs {
    /// Total tasks submitted (initial or admitted, plus continuations),
    /// whether executed or retired by cancellation.
    pub tasks: u64,
    /// Continuation jobs submitted by completion handlers.
    pub continuations: u64,
    /// High-water mark of in-flight jobs (queued + running).
    pub queue_high_water: u64,
    /// Tasks completed per worker index.
    pub per_worker_tasks: Vec<u64>,
    /// Jobs retired without executing because their cancel token was set.
    /// Execution-class: when cancellation fires relative to the schedule is
    /// external to the pool.
    pub cancelled: u64,
    /// Span from job submission to execution start.
    pub wait: TimingStat,
    /// Span from execution start to completion.
    pub run: TimingStat,
}

impl PoolObs {
    /// An empty aggregate.
    pub fn new() -> Self {
        PoolObs::default()
    }

    /// Folds this aggregate into `reg` under `prefix` (e.g. `"pool"`):
    /// `<prefix>.tasks` / `.continuations` as `tasks`-class counters,
    /// `<prefix>.queue_depth_hw` / `.worker<i>.tasks` (and `.cancelled`,
    /// when any job was cancelled) as execution-class,
    /// `<prefix>.task_wait_ns` / `.task_run_ns` as timing spans.
    ///
    /// `tasks` is [`Class::Count`] when the caller's job set is a function
    /// of its input alone, and [`Class::Execution`] when it depends on the
    /// worker count (the simulation engine runs one job per worker).
    pub fn record_into(&self, reg: &mut Registry, prefix: &str, tasks: Class) {
        reg.incr(tasks, &format!("{prefix}.tasks"), self.tasks);
        reg.incr(
            tasks,
            &format!("{prefix}.continuations"),
            self.continuations,
        );
        reg.gauge_max(
            Class::Execution,
            &format!("{prefix}.queue_depth_hw"),
            self.queue_high_water,
        );
        for (w, &tasks) in self.per_worker_tasks.iter().enumerate() {
            reg.incr(
                Class::Execution,
                &format!("{prefix}.worker{w}.tasks"),
                tasks,
            );
        }
        if self.cancelled > 0 {
            reg.incr(
                Class::Execution,
                &format!("{prefix}.cancelled"),
                self.cancelled,
            );
        }
        reg.timing_stat(&format!("{prefix}.task_wait_ns"), &self.wait);
        reg.timing_stat(&format!("{prefix}.task_run_ns"), &self.run);
    }

    /// Adds the tally of one more run.
    fn absorb(&mut self, run: &PoolObs) {
        self.tasks += run.tasks;
        self.continuations += run.continuations;
        self.cancelled += run.cancelled;
        self.queue_high_water = self.queue_high_water.max(run.queue_high_water);
        if self.per_worker_tasks.len() < run.per_worker_tasks.len() {
            self.per_worker_tasks.resize(run.per_worker_tasks.len(), 0);
        }
        for (total, tasks) in self.per_worker_tasks.iter_mut().zip(&run.per_worker_tasks) {
            *total += tasks;
        }
        self.wait.merge(&run.wait);
        self.run.merge(&run.run);
    }
}

/// Scheduling priority of a [`Job`].  Within one pool run, ready jobs are
/// dispatched strictly by priority level and FIFO within a level; priority
/// affects *when* a job runs, never the merged result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Dispatched before all normal- and low-priority work.
    High,
    /// The default.
    #[default]
    Normal,
    /// Dispatched only when no higher-priority job is ready.
    Low,
}

impl Priority {
    /// Dense rank used to index the ready queues: `High` first.
    fn rank(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Stable lower-case name (`"high"` / `"normal"` / `"low"`), used by
    /// protocol layers that echo priorities as text.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// Shared cancellation flag for one [`Job`] or for every job it is attached
/// to.
///
/// Cloning yields another handle to the *same* flag.  Cancellation is
/// cooperative and takes effect at the pool's queue barrier: a job whose
/// token is set when a worker would pick it up is retired as
/// [`JobOutcome::Cancelled`] without executing; a job already running
/// completes normally.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Sets the flag; every clone of this token observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether [`cancel`] has been called on any clone.
    ///
    /// [`cancel`]: CancelToken::cancel
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// How a [`Job`] left the pool: executed to completion, or retired at the
/// queue barrier because its cancel token was set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome<T> {
    /// The job executed; here is its result.
    Done(T),
    /// The job was retired without executing.
    Cancelled,
}

impl<T> JobOutcome<T> {
    /// The result, if the job executed.
    pub fn done(self) -> Option<T> {
        match self {
            JobOutcome::Done(value) => Some(value),
            JobOutcome::Cancelled => None,
        }
    }

    /// Whether the job was retired without executing.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, JobOutcome::Cancelled)
    }
}

/// A unit of work for [`PoolRun::jobs`]: a caller-chosen id (used to merge
/// deterministically), a [`Priority`], an optional [`CancelToken`] and the
/// closure to execute on a worker.
pub struct Job<'env, T> {
    id: usize,
    priority: Priority,
    cancel: Option<CancelToken>,
    /// When the job entered the queue, by the observing run's clock.
    queued_ns: u64,
    work: Box<dyn FnOnce() -> T + Send + 'env>,
}

impl<'env, T> Job<'env, T> {
    /// Packages `work` under `id` at [`Priority::Normal`] with no cancel
    /// token.  Ids need not be unique or dense — they are opaque to the
    /// pool and only echoed back to the completion handler, which gives
    /// them meaning (e.g. `point * shards + job`).
    pub fn new(id: usize, work: impl FnOnce() -> T + Send + 'env) -> Self {
        Job {
            id,
            priority: Priority::Normal,
            cancel: None,
            queued_ns: 0,
            work: Box::new(work),
        }
    }

    /// The id this job was created with.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The job's scheduling priority.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Sets the scheduling priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Attaches a cancellation token (shared: cancelling any clone cancels
    /// this job).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

impl<T> std::fmt::Debug for Job<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("id", &self.id)
            .field("priority", &self.priority)
            .field("cancellable", &self.cancel.is_some())
            .finish()
    }
}

/// Submission handle passed to the [`PoolRun::jobs`] completion handler:
/// jobs submitted here enter the running pool's ready queue.
pub struct JobSink<'env, T> {
    buffered: Vec<Job<'env, T>>,
}

impl<'env, T> JobSink<'env, T> {
    /// Queues a follow-up job.  It becomes runnable as soon as the
    /// completion handler returns.
    pub fn submit(&mut self, job: Job<'env, T>) {
        self.buffered.push(job);
    }

    /// Queues a whole round of follow-up jobs; continuation schedulers that
    /// build rounds as batches (e.g. the adaptive Monte-Carlo engine) submit
    /// them in one call.  Equivalent to calling [`submit`] for each job in
    /// order.
    ///
    /// [`submit`]: JobSink::submit
    pub fn submit_all(&mut self, jobs: impl IntoIterator<Item = Job<'env, T>>) {
        self.buffered.extend(jobs);
    }
}

impl<T> std::fmt::Debug for JobSink<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSink")
            .field("buffered", &self.buffered.len())
            .finish()
    }
}

/// Ready jobs bucketed by [`Priority`]: strict priority dispatch, FIFO
/// within a level.
struct PendingQueues<'env, T> {
    ranks: [VecDeque<Job<'env, T>>; 3],
}

impl<'env, T> PendingQueues<'env, T> {
    fn new() -> Self {
        PendingQueues {
            ranks: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
        }
    }

    fn push(&mut self, job: Job<'env, T>) {
        self.ranks[job.priority.rank()].push_back(job);
    }

    fn pop(&mut self) -> Option<Job<'env, T>> {
        self.ranks.iter_mut().find_map(VecDeque::pop_front)
    }

    fn clear(&mut self) {
        for rank in &mut self.ranks {
            rank.clear();
        }
    }
}

/// What a worker reports for one job: the value with its `(wait_ns,
/// run_ns)` spans if it executed, `None` if it was retired, or the panic
/// payload.
type Finished<T> = Result<Option<(T, u64, u64)>, Box<dyn Any + Send>>;

/// The queue behind an [`Admission`] handle, shared by the submitting
/// threads and by the workers and coordinator of the run serving it.
struct Shared<'env, T> {
    state: Mutex<Queue<'env, T>>,
    /// Wakes idle workers (or an inline run): a job was queued, the handle
    /// closed or the run ended.
    ready: Condvar,
    /// Wakes the coordinator: a job finished or the handle closed.
    progress: Condvar,
}

struct Queue<'env, T> {
    pending: PendingQueues<'env, T>,
    /// Jobs that left a worker, in completion order, not yet handed to the
    /// completion handler.
    finished: VecDeque<(usize, Finished<T>)>,
    /// Jobs admitted and not yet handed to the completion handler.
    outstanding: usize,
    /// The serving run's high-water mark of `outstanding`.
    high_water: usize,
    /// No more admissions through the handle (continuations still join).
    closed: bool,
    /// The serving run has ended or is unwinding: idle workers exit.
    stopped: bool,
    /// The serving run's clock, when it is observed.
    clock: Option<&'env dyn Clock>,
}

impl<'env, T> Queue<'env, T> {
    fn enqueue(&mut self, mut job: Job<'env, T>) {
        job.queued_ns = self.clock.map_or(0, |clock| clock.now_ns());
        self.outstanding += 1;
        self.high_water = self.high_water.max(self.outstanding);
        self.pending.push(job);
    }
}

impl<'env, T> Shared<'env, T> {
    fn lock(&self) -> MutexGuard<'_, Queue<'env, T>> {
        self.state.lock().expect("job queue poisoned")
    }
}

/// The admission handle of a served run ([`PoolRun::served`]).
///
/// Jobs submitted here, from any thread and before or while a run serves
/// the handle, are queued with their [`Priority`] and start on the next
/// free worker.  Jobs admitted before the run starts are all queued before
/// its first dispatch.  Cloning yields another handle to the same queue.
pub struct Admission<'env, T> {
    shared: Arc<Shared<'env, T>>,
}

impl<'env, T> Admission<'env, T> {
    /// An open handle with an empty queue.
    pub fn new() -> Self {
        Admission {
            shared: Arc::new(Shared {
                state: Mutex::new(Queue {
                    pending: PendingQueues::new(),
                    finished: VecDeque::new(),
                    outstanding: 0,
                    high_water: 0,
                    closed: false,
                    stopped: false,
                    clock: None,
                }),
                ready: Condvar::new(),
                progress: Condvar::new(),
            }),
        }
    }

    /// Queues `job`, or hands it back if the handle is closed.
    pub fn submit(&self, job: Job<'env, T>) -> Result<(), Job<'env, T>> {
        let mut queue = self.shared.lock();
        if queue.closed {
            return Err(job);
        }
        queue.enqueue(job);
        drop(queue);
        self.shared.ready.notify_one();
        Ok(())
    }

    /// Closes the handle: later submissions are refused, and the run
    /// serving it ends once every admitted job has been handed to its
    /// completion handler.
    pub fn close(&self) {
        self.shared.lock().closed = true;
        self.shared.ready.notify_all();
        self.shared.progress.notify_all();
    }
}

impl<T> Default for Admission<'_, T> {
    fn default() -> Self {
        Admission::new()
    }
}

impl<T> Clone for Admission<'_, T> {
    fn clone(&self) -> Self {
        Admission {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> std::fmt::Debug for Admission<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Admission").finish_non_exhaustive()
    }
}

/// Ends a run on drop, also when the coordinator unwinds: idle workers
/// exit, so the scope join cannot deadlock, and the run's clock is
/// released.
struct RunGuard<'queue, 'env, T> {
    shared: &'queue Shared<'env, T>,
}

impl<T> Drop for RunGuard<'_, '_, T> {
    fn drop(&mut self) {
        if let Ok(mut queue) = self.shared.state.lock() {
            queue.stopped = true;
            queue.clock = None;
        }
        self.shared.ready.notify_all();
    }
}

/// Runs one popped job, or retires it if its token is set.
/// An executed job bumps `executed` and reports its `(wait_ns, run_ns)`
/// spans (zero unless the run is observed).
fn execute<T>(
    job: Job<'_, T>,
    clock: Option<&dyn Clock>,
    executed: &AtomicU64,
) -> Option<(T, u64, u64)> {
    if job.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
        return None;
    }
    let now = || clock.map_or(0, |clock| clock.now_ns());
    let start_ns = now();
    let value = (job.work)();
    let end_ns = now();
    executed.fetch_add(1, Ordering::Relaxed);
    Some((
        value,
        start_ns.saturating_sub(job.queued_ns),
        end_ns.saturating_sub(start_ns),
    ))
}

/// The single execution engine behind every [`PoolRun`] terminal method:
/// serves `admission` with `workers` scoped threads (or inline when
/// `workers == 1`) until the handle is closed and no job is outstanding.
/// Each job leaves through `on_complete` on the calling thread, in
/// completion order; the continuations it submits join the same queue.
/// Returns the run's tally.
///
/// Cancellation is checked when a job is popped: a retired job is reported
/// as [`JobOutcome::Cancelled`] without running; jobs already running
/// complete normally, so the cut is always at the queue barrier.  At one
/// worker the completion handler runs before the next pop.
fn run_core<'env, T, F>(
    workers: usize,
    clock: Option<&'env dyn Clock>,
    admission: &Admission<'env, T>,
    mut on_complete: F,
) -> PoolObs
where
    T: Send + 'env,
    F: FnMut(usize, JobOutcome<T>, &mut JobSink<'env, T>),
{
    let shared = &*admission.shared;
    {
        let mut queue = shared.lock();
        queue.stopped = false;
        queue.clock = clock;
        queue.high_water = queue.outstanding;
        if let Some(clock) = clock {
            let now = clock.now_ns();
            for job in queue.pending.ranks.iter_mut().flatten() {
                job.queued_ns = now;
            }
        }
    }
    let executed: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let mut tally = PoolObs::new();
    // Books one finished job, hands it to `on_complete` and queues its
    // continuations; the job stops counting as outstanding only then.
    let mut complete = |id: usize, result: Option<(T, u64, u64)>| {
        tally.tasks += 1;
        let outcome = match result {
            Some((value, wait_ns, run_ns)) => {
                tally.wait.record(wait_ns);
                tally.run.record(run_ns);
                JobOutcome::Done(value)
            }
            None => {
                tally.cancelled += 1;
                JobOutcome::Cancelled
            }
        };
        let mut sink = JobSink {
            buffered: Vec::new(),
        };
        on_complete(id, outcome, &mut sink);
        tally.continuations += sink.buffered.len() as u64;
        let submitted = !sink.buffered.is_empty();
        let mut queue = shared.lock();
        queue.outstanding -= 1;
        for job in sink.buffered {
            queue.enqueue(job);
        }
        drop(queue);
        if submitted {
            shared.ready.notify_all();
        }
    };

    if workers == 1 {
        let _end = RunGuard { shared };
        loop {
            let job = {
                let mut queue = shared.lock();
                loop {
                    if let Some(job) = queue.pending.pop() {
                        break Some(job);
                    }
                    if queue.closed && queue.outstanding == 0 {
                        break None;
                    }
                    queue = shared.ready.wait(queue).expect("job queue poisoned");
                }
            };
            let Some(job) = job else { break };
            let id = job.id;
            complete(id, execute(job, clock, &executed[0]));
        }
    } else {
        std::thread::scope(|scope| {
            // Dropped before the scope joins, also on unwind.
            let _end = RunGuard { shared };
            // Workers start with the first admission, so a served run that
            // waits for work holds no idle threads.
            {
                let mut queue = shared.lock();
                while queue.outstanding == 0 && !queue.closed {
                    queue = shared.ready.wait(queue).expect("job queue poisoned");
                }
                if queue.outstanding == 0 {
                    return;
                }
            }
            for executed in &executed {
                scope.spawn(move || loop {
                    let job = {
                        let mut queue = shared.lock();
                        loop {
                            if let Some(job) = queue.pending.pop() {
                                break Some(job);
                            }
                            if queue.stopped {
                                break None;
                            }
                            queue = shared.ready.wait(queue).expect("job queue poisoned");
                        }
                    };
                    let Some(job) = job else { return };
                    let id = job.id;
                    let finished = catch_unwind(AssertUnwindSafe(|| execute(job, clock, executed)));
                    shared.lock().finished.push_back((id, finished));
                    shared.progress.notify_one();
                });
            }
            loop {
                let (id, finished) = {
                    let mut queue = shared.lock();
                    loop {
                        if let Some(done) = queue.finished.pop_front() {
                            break done;
                        }
                        if queue.closed && queue.outstanding == 0 {
                            return;
                        }
                        queue = shared.progress.wait(queue).expect("job queue poisoned");
                    }
                };
                match finished {
                    Ok(result) => complete(id, result),
                    Err(payload) => {
                        // Drop the queued work, then unwind: `_end` sends
                        // the workers home once their current job ends.
                        shared.lock().pending.clear();
                        resume_unwind(payload)
                    }
                }
            }
        });
    }
    tally.queue_high_water = shared.lock().high_water as u64;
    tally.per_worker_tasks = executed.iter().map(|n| n.load(Ordering::Relaxed)).collect();
    tally
}

/// The most threads a pool run starts, and the largest worker count the
/// command-line parsers accept.  The pool's work is CPU-bound, so threads
/// beyond the cores add nothing, and 256 covers the largest common hosts.
pub const MAX_WORKERS: usize = 256;

/// A fixed-size scoped worker pool executing task sets with id-order
/// (deterministic) merging.  Configure a run with [`WorkPool::run`]; see
/// the module docs for the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkPool {
    workers: usize,
}

impl WorkPool {
    /// Creates a pool that will use `workers` threads per run; `0` means one
    /// per available core.  Construction is free — threads are scoped to
    /// each run.
    pub const fn new(workers: usize) -> Self {
        WorkPool { workers }
    }

    /// The number of threads a run over `tasks` concurrent tasks will use:
    /// the configured count (or one per core for `0`), clamped to the task
    /// count, so no thread is spawned just to find an empty queue, and to
    /// [`MAX_WORKERS`].
    pub fn effective_workers(&self, tasks: usize) -> usize {
        let requested = if self.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.workers
        };
        requested.clamp(1, tasks.clamp(1, MAX_WORKERS))
    }

    /// Starts configuring a run.  The returned [`PoolRun`] is consumed by
    /// one of its terminal methods ([`indexed_streamed`], [`jobs`],
    /// [`served`]).
    ///
    /// [`indexed_streamed`]: PoolRun::indexed_streamed
    /// [`jobs`]: PoolRun::jobs
    /// [`served`]: PoolRun::served
    pub fn run<'env>(&self) -> PoolRun<'env> {
        PoolRun {
            pool: *self,
            observed: None,
        }
    }
}

impl Default for WorkPool {
    /// One worker per available core.
    fn default() -> Self {
        WorkPool::new(0)
    }
}

/// Builder for one pool run, created by [`WorkPool::run`].
///
/// Chain [`observed`] as needed, then consume the builder with
/// [`indexed_streamed`], [`jobs`] or [`served`].
///
/// [`observed`]: PoolRun::observed
/// [`indexed_streamed`]: PoolRun::indexed_streamed
/// [`jobs`]: PoolRun::jobs
/// [`served`]: PoolRun::served
pub struct PoolRun<'env> {
    pool: WorkPool,
    observed: Option<(&'env dyn Clock, &'env mut PoolObs)>,
}

impl std::fmt::Debug for PoolRun<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolRun")
            .field("pool", &self.pool)
            .field("observed", &self.observed.is_some())
            .finish()
    }
}

impl<'env> PoolRun<'env> {
    /// Collects pool observability into `obs`, with wait/run spans measured
    /// by `clock`: task/continuation/cancellation totals, the in-flight
    /// high-water mark and per-worker completion counts.
    pub fn observed(mut self, clock: &'env dyn Clock, obs: &'env mut PoolObs) -> Self {
        self.observed = Some((clock, obs));
        self
    }

    /// Executes `count` independent tasks and returns their results in
    /// **index order** regardless of completion order or worker count,
    /// invoking `on_done` from the calling thread as each task finishes
    /// (**completion order**), so callers can stream progress while the set
    /// is still running.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the first failing task on the calling thread.
    pub fn indexed_streamed<T, F, C>(self, count: usize, task: F, mut on_done: C) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        C: FnMut(usize, &T),
    {
        if count == 0 {
            return Vec::new();
        }
        let mut slots: Vec<Option<T>> = Vec::new();
        slots.resize_with(count, || None);
        let task = &task;
        let initial: Vec<Job<'_, T>> = (0..count)
            .map(|index| Job::new(index, move || task(index)))
            .collect();
        self.jobs(initial, |index, outcome, _| {
            let JobOutcome::Done(value) = outcome else {
                unreachable!("indexed tasks carry no cancel token")
            };
            on_done(index, &value);
            slots[index] = Some(value);
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every task completes exactly once"))
            .collect()
    }

    /// Executes a *dynamic* job set: starts with `initial`, and after each
    /// job finishes (or is retired by cancellation) calls
    /// `on_complete(id, outcome, sink)` on the calling thread (completion
    /// order), which may submit follow-up jobs into the running pool.
    /// Returns once every job (initial and submitted) has been handed to
    /// `on_complete`.  This is a [`served`] run whose handle is closed
    /// before it starts, on at most `initial.len()` workers.
    ///
    /// Determinism is the caller's half of the contract: merge results by
    /// `id` (not arrival order) and derive follow-up jobs only from merged
    /// state, and the outcome is independent of the worker count.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the first failing job on the calling thread.
    ///
    /// [`served`]: PoolRun::served
    pub fn jobs<T, F>(self, initial: Vec<Job<'env, T>>, on_complete: F)
    where
        T: Send + 'env,
        F: FnMut(usize, JobOutcome<T>, &mut JobSink<'env, T>),
    {
        let workers = self.pool.effective_workers(initial.len());
        let admission = Admission::new();
        {
            let mut queue = admission.shared.lock();
            for job in initial {
                queue.enqueue(job);
            }
            queue.closed = true;
        }
        self.serve(workers, &admission, on_complete);
    }

    /// Serves an open job set: every job submitted to `admission` — before
    /// the run starts or from any thread while it runs — starts on the next
    /// free worker, by [`Priority`] and then in submission order, and is
    /// handed to `on_complete` on the calling thread when it finishes or is
    /// retired by cancellation.  The handler may submit follow-up jobs as in
    /// [`jobs`].  Returns once the handle is [closed](Admission::close) and
    /// no job is outstanding.
    ///
    /// The run uses the pool's full worker count and starts its threads
    /// with the first admission.  At one worker it executes jobs inline on
    /// the calling thread, each completion handled before the next pop.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the first failing job on the calling thread.
    ///
    /// [`jobs`]: PoolRun::jobs
    pub fn served<T, F>(self, admission: &Admission<'env, T>, on_complete: F)
    where
        T: Send + 'env,
        F: FnMut(usize, JobOutcome<T>, &mut JobSink<'env, T>),
    {
        let workers = self.pool.effective_workers(usize::MAX);
        self.serve(workers, admission, on_complete);
    }

    fn serve<T, F>(self, workers: usize, admission: &Admission<'env, T>, on_complete: F)
    where
        T: Send + 'env,
        F: FnMut(usize, JobOutcome<T>, &mut JobSink<'env, T>),
    {
        let (clock, obs) = self.observed.unzip();
        let tally = run_core(workers, clock, admission, on_complete);
        if let Some(obs) = obs {
            obs.absorb(&tally);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn results_arrive_in_index_order_for_any_worker_count() {
        for workers in [1, 2, 8] {
            let out = WorkPool::new(workers)
                .run()
                .indexed_streamed(17, |i| 3 * i + 1, |_, _| {});
            assert_eq!(out, (0..17).map(|i| 3 * i + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn out_of_order_completion_still_merges_in_index_order() {
        // Low indices sleep longest, so with 8 workers the completion order
        // is (almost surely) not the index order; the merged result must be
        // index-ordered regardless, and the completion callback must see
        // every index exactly once.  Scheduling jitter could still complete
        // a run in index order, so retry a few times until an out-of-order
        // run is observed — every attempt must merge correctly either way.
        let count = 8;
        let mut observed_out_of_order = false;
        for _ in 0..5 {
            let mut completion_order = Vec::new();
            let out = WorkPool::new(count).run().indexed_streamed(
                count,
                |i| {
                    std::thread::sleep(Duration::from_millis(10 * (count - i) as u64));
                    i * i
                },
                |i, &value| {
                    assert_eq!(value, i * i);
                    completion_order.push(i);
                },
            );
            assert_eq!(out, (0..count).map(|i| i * i).collect::<Vec<_>>());
            let mut seen = completion_order.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..count).collect::<Vec<_>>());
            if completion_order.windows(2).any(|w| w[0] > w[1]) {
                observed_out_of_order = true;
                break;
            }
        }
        assert!(
            observed_out_of_order,
            "staggered sleeps never completed out of order in 5 attempts"
        );
    }

    #[test]
    fn zero_tasks_run_nowhere() {
        let out: Vec<u32> =
            WorkPool::new(4)
                .run()
                .indexed_streamed(0, |_| unreachable!(), |_, _| {});
        assert!(out.is_empty());
    }

    #[test]
    fn effective_workers_clamps_to_tasks_and_resolves_per_core() {
        assert_eq!(WorkPool::new(64).effective_workers(7), 7);
        assert_eq!(WorkPool::new(3).effective_workers(100), 3);
        assert_eq!(WorkPool::new(5).effective_workers(0), 1);
        assert!(WorkPool::default().effective_workers(100) >= 1);
        assert_eq!(
            WorkPool::new(usize::MAX).effective_workers(usize::MAX),
            MAX_WORKERS
        );
    }

    #[test]
    fn continuation_jobs_run_until_the_handler_stops_submitting() {
        // Each of 4 job ids runs 3 "rounds"; the handler submits the next
        // round on completion of the previous one.  Every round increments
        // the id's counter, so the final counters prove each continuation
        // ran exactly once, at any worker count.
        for workers in [1, 2, 8] {
            let mut rounds = [0usize; 4];
            let initial = (0..4).map(|id| Job::new(id, move || id)).collect();
            WorkPool::new(workers)
                .run()
                .jobs(initial, |id, outcome, sink| {
                    assert_eq!(outcome, JobOutcome::Done(id));
                    rounds[id] += 1;
                    if rounds[id] < 3 {
                        sink.submit(Job::new(id, move || id));
                    }
                });
            assert_eq!(rounds, [3; 4], "workers = {workers}");
        }
    }

    #[test]
    fn job_ids_are_opaque_and_echoed_back() {
        let job = Job::new(42, || "x");
        assert_eq!(job.id(), 42);
        let mut seen = Vec::new();
        WorkPool::new(1).run().jobs(vec![job], |id, outcome, _| {
            seen.push((id, outcome.done().unwrap()));
        });
        assert_eq!(seen, vec![(42, "x")]);
    }

    #[test]
    fn jobs_may_borrow_the_environment() {
        let data = [1u64, 2, 3, 4];
        let total = AtomicUsize::new(0);
        let initial = data
            .iter()
            .enumerate()
            .map(|(i, value)| Job::new(i, move || *value))
            .collect();
        WorkPool::new(2).run().jobs(initial, |_, outcome, _| {
            total.fetch_add(outcome.done().unwrap() as usize, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn priorities_order_dispatch_at_one_worker() {
        // One worker drains the ready queue strictly by priority level and
        // FIFO within a level, regardless of submission order.
        let mut order = Vec::new();
        let initial = vec![
            Job::new(0, || ()).with_priority(Priority::Low),
            Job::new(1, || ()),
            Job::new(2, || ()).with_priority(Priority::High),
            Job::new(3, || ()).with_priority(Priority::High),
            Job::new(4, || ()).with_priority(Priority::Normal),
        ];
        WorkPool::new(1)
            .run()
            .jobs(initial, |id, _, _| order.push(id));
        assert_eq!(order, vec![2, 3, 1, 4, 0]);
    }

    #[test]
    fn cancelled_jobs_are_retired_without_running() {
        // Job 1 is cancelled before the run starts; its closure must never
        // execute, while job 0 completes normally.
        let ran = AtomicUsize::new(0);
        let token = CancelToken::new();
        token.cancel();
        let initial = vec![
            Job::new(0, || ran.fetch_add(1, Ordering::Relaxed)),
            Job::new(1, || ran.fetch_add(100, Ordering::Relaxed)).with_cancel(token),
        ];
        let mut seen = Vec::new();
        WorkPool::new(1).run().jobs(initial, |id, outcome, _| {
            seen.push((id, outcome.is_cancelled()));
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        assert_eq!(seen, vec![(0, false), (1, true)]);
    }

    #[test]
    fn run_level_cancel_cuts_at_the_queue_barrier() {
        // Every job carries the same token, cancelled by the handler after
        // the first completion: at one worker exactly the remaining three
        // jobs are retired, and the completed prefix is bit-identical to an
        // uncancelled run's.
        let token = CancelToken::new();
        let initial = (0..4)
            .map(|id| Job::new(id, move || id * id).with_cancel(token.clone()))
            .collect();
        let mut done = Vec::new();
        let mut cancelled = 0;
        WorkPool::new(1)
            .run()
            .jobs(initial, |id, outcome, _| match outcome {
                JobOutcome::Done(value) => {
                    assert_eq!(value, id * id);
                    done.push(id);
                    token.cancel();
                }
                JobOutcome::Cancelled => cancelled += 1,
            });
        assert_eq!(done, vec![0]);
        assert_eq!(cancelled, 3);
    }

    #[test]
    fn cancellation_keeps_completed_results_pure_at_any_worker_count() {
        // Cancelling mid-run changes *which* jobs complete, never *what* a
        // completed job returns: every Done value must still be the pure
        // function of its id, and every job is accounted for exactly once.
        // All jobs share one token, cancelled after the second completion.
        for workers in [1, 2, 4] {
            let token = CancelToken::new();
            let initial = (0..8)
                .map(|id| Job::new(id, move || id * 10).with_cancel(token.clone()))
                .collect();
            let mut done = 0usize;
            let mut cancelled = 0usize;
            WorkPool::new(workers)
                .run()
                .jobs(initial, |id, outcome, _| match outcome {
                    JobOutcome::Done(value) => {
                        assert_eq!(value, id * 10, "workers = {workers}");
                        done += 1;
                        if done == 2 {
                            token.cancel();
                        }
                    }
                    JobOutcome::Cancelled => cancelled += 1,
                });
            assert!(done >= 2, "workers = {workers}");
            assert_eq!(done + cancelled, 8, "workers = {workers}");
        }
    }

    #[test]
    fn served_run_starts_a_job_admitted_while_another_runs() {
        // Job A holds one of two workers until job B, admitted from this
        // thread only after A started, has run: B must start on the free
        // worker, not wait for A to finish.
        let timeout = Duration::from_secs(10);
        let admission = Admission::new();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (ran_tx, ran_rx) = std::sync::mpsc::channel();
        let a = Job::new(0, move || {
            started_tx.send(()).unwrap();
            ran_rx
                .recv_timeout(timeout)
                .expect("job B did not run while job A was running");
        });
        admission.submit(a).unwrap();
        let mut done = std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                let mut done = Vec::new();
                WorkPool::new(2)
                    .run()
                    .served(&admission, |id, outcome, _| done.push((id, outcome)));
                done
            });
            started_rx
                .recv_timeout(timeout)
                .expect("job A never started");
            admission
                .submit(Job::new(1, move || ran_tx.send(()).unwrap()))
                .unwrap();
            admission.close();
            server.join().unwrap()
        });
        done.sort_by_key(|&(id, _)| id);
        assert_eq!(done, [(0, JobOutcome::Done(())), (1, JobOutcome::Done(()))]);
    }

    #[test]
    fn served_run_at_one_worker_runs_inline_until_closed() {
        // Jobs admitted before the run are all queued before its first
        // dispatch, so priority orders them; a closed handle refuses new
        // jobs, but the handler's continuations still join the queue.
        let caller = std::thread::current().id();
        let on_caller = move || std::thread::current().id() == caller;
        let admission = Admission::new();
        admission
            .submit(Job::new(0, on_caller).with_priority(Priority::Low))
            .unwrap();
        admission
            .submit(Job::new(1, on_caller).with_priority(Priority::High))
            .unwrap();
        admission.close();
        assert!(admission.submit(Job::new(9, on_caller)).is_err());
        let mut order = Vec::new();
        WorkPool::new(1)
            .run()
            .served(&admission, |id, outcome, sink| {
                assert_eq!(outcome, JobOutcome::Done(true), "job {id} ran inline");
                order.push(id);
                if id == 1 {
                    sink.submit(Job::new(2, on_caller));
                }
            });
        assert_eq!(order, [1, 2, 0]);
    }

    #[test]
    fn served_run_on_a_closed_empty_handle_returns_at_once() {
        for workers in [1, 2] {
            let admission: Admission<'_, ()> = Admission::new();
            admission.close();
            WorkPool::new(workers)
                .run()
                .served(&admission, |_, _, _| unreachable!("no job was admitted"));
        }
    }

    #[test]
    fn observed_indexed_run_counts_every_task_once() {
        use fec_obs::ManualClock;
        for workers in [1, 2, 8] {
            let clock = ManualClock::new();
            let mut obs = PoolObs::new();
            let out = WorkPool::new(workers)
                .run()
                .observed(&clock, &mut obs)
                .indexed_streamed(10, |i| i + 1, |_, _| {});
            assert_eq!(out, (1..=10).collect::<Vec<_>>());
            assert_eq!(obs.tasks, 10, "workers = {workers}");
            assert_eq!(obs.continuations, 0);
            assert_eq!(obs.cancelled, 0);
            assert_eq!(obs.queue_high_water, 10);
            assert_eq!(
                obs.per_worker_tasks.iter().sum::<u64>(),
                10,
                "workers = {workers}"
            );
            assert_eq!(obs.run.count, 10);
        }
    }

    #[test]
    fn observed_jobs_count_continuations_and_keep_merge_contract() {
        use fec_obs::ManualClock;
        for workers in [1, 2, 8] {
            let clock = ManualClock::new();
            let mut obs = PoolObs::new();
            let mut rounds = [0usize; 4];
            let initial = (0..4).map(|id| Job::new(id, move || id)).collect();
            WorkPool::new(workers)
                .run()
                .observed(&clock, &mut obs)
                .jobs(initial, |id, outcome, sink| {
                    assert_eq!(outcome, JobOutcome::Done(id));
                    rounds[id] += 1;
                    if rounds[id] < 3 {
                        sink.submit(Job::new(id, move || id));
                    }
                });
            assert_eq!(rounds, [3; 4], "workers = {workers}");
            // 4 initial + 8 continuations, independent of the worker count:
            // the deterministic half of the observability contract.
            assert_eq!(obs.tasks, 12, "workers = {workers}");
            assert_eq!(obs.continuations, 8, "workers = {workers}");
            assert!(obs.queue_high_water >= 1);
            assert_eq!(obs.per_worker_tasks.iter().sum::<u64>(), 12);
        }
    }

    #[test]
    fn observed_cancellations_are_counted_and_recorded() {
        use fec_obs::ManualClock;
        let clock = ManualClock::new();
        let mut obs = PoolObs::new();
        let token = CancelToken::new();
        token.cancel();
        let initial = vec![
            Job::new(0, || 0usize),
            Job::new(1, || 1usize).with_cancel(token),
        ];
        WorkPool::new(1)
            .run()
            .observed(&clock, &mut obs)
            .jobs(initial, |_, _, _| {});
        assert_eq!(obs.tasks, 2);
        assert_eq!(obs.cancelled, 1);
        assert_eq!(obs.run.count, 1, "only the executed job has a run span");

        let mut reg = Registry::new();
        obs.record_into(&mut reg, "pool", Class::Count);
        assert_eq!(reg.counter("pool.cancelled"), Some(1));
    }

    #[test]
    fn observed_spans_use_the_injected_clock() {
        use fec_obs::{Class, ManualClock, MetricValue, Registry};
        let clock = ManualClock::new();
        let mut obs = PoolObs::new();
        let initial = vec![Job::new(0, || {
            // Runs on the single worker; the clock only moves when we say so.
            7usize
        })];
        WorkPool::new(1)
            .run()
            .observed(&clock, &mut obs)
            .jobs(initial, |_, _, _| {});
        assert_eq!(obs.run.count, 1);
        assert_eq!(obs.run.total_ns, 0, "manual clock never advanced");

        let mut reg = Registry::new();
        obs.record_into(&mut reg, "pool", Class::Count);
        assert_eq!(reg.counter("pool.tasks"), Some(1));
        assert!(matches!(
            reg.get("pool.queue_depth_hw").map(|m| (&m.value, m.class)),
            Some((MetricValue::Gauge(_), Class::Execution))
        ));
        assert!(reg.get("pool.task_run_ns").is_some());
        assert!(
            reg.get("pool.cancelled").is_none(),
            "cancelled metric only appears when a job was cancelled"
        );
    }

    #[test]
    #[should_panic(expected = "task 3 exploded")]
    fn task_panics_propagate_to_the_caller() {
        WorkPool::new(4).run().indexed_streamed(
            8,
            |i| {
                if i == 3 {
                    panic!("task 3 exploded");
                }
                i
            },
            |_, _| {},
        );
    }

    #[test]
    #[should_panic(expected = "job exploded")]
    fn job_panics_propagate_without_deadlocking_the_pool() {
        let initial = (0..8)
            .map(|id| {
                Job::new(id, move || {
                    if id == 5 {
                        panic!("job exploded");
                    }
                    id
                })
            })
            .collect();
        WorkPool::new(4).run().jobs(initial, |_, _, _| {});
    }
}
