//! The executor pool, task machinery, and the recovery scheduler.
//!
//! Each worker thread models one executor core of the paper's clusters; the
//! scale-out experiments sweep the pool size. Tasks are closures scheduled
//! one per partition. The driver loop in [`ExecutorPool::run_labeled`] is
//! sparklite's TaskScheduler: it classifies every failed attempt
//! ([`FailureCause`]), retries injected/transient failures within the
//! configured attempt budget, fails fast on deterministic application
//! errors, and — when speculation is enabled — re-launches straggling tasks
//! and commits whichever attempt finishes first (first-writer-wins), the
//! same contract a Spark driver gets from its cluster.

use crate::error::{FailureCause, FailureKind, Result, SparkliteError};
use crate::events::{current_stage, Event, EventBus, TaskCounters};
use crate::faults::{AppAbort, FaultInjector, InjectedFault};
use crossbeam::channel::{unbounded, RecvTimeoutError, Sender};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A re-executable task body. Tasks must be `Fn` (not `FnOnce`) so the
/// scheduler can retry a failed attempt or launch a speculative copy.
pub(crate) type TaskFn<R> = dyn Fn(&TaskContext) -> R + Send + Sync;

/// How often the driver wakes to look for straggling tasks when speculation
/// is enabled.
const SPECULATION_TICK: Duration = Duration::from_millis(5);
/// Never speculate a task younger than this, whatever the median says.
const SPECULATION_MIN_AGE: Duration = Duration::from_millis(10);

thread_local! {
    /// Set while a worker thread executes a task; used to run nested jobs
    /// inline (Spark jobs do not nest — see paper §5.6).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Depth of task bodies currently unwinding-protected on this thread;
    /// the process panic hook stays quiet while it is non-zero, because the
    /// scheduler catches and classifies those panics itself.
    static TASK_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// This executor thread's worker index; `None` on the driver (events
    /// attribute inline/nested execution to the driver lane).
    static WORKER_ID: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Installs (once, process-wide) a panic hook that suppresses the default
/// "thread panicked" stderr noise for panics raised *inside* task bodies —
/// application aborts and injected faults are normal control flow for the
/// recovery layer. Panics anywhere else keep the previous hook's behaviour.
fn install_task_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if TASK_DEPTH.with(|d| d.get()) == 0 {
                previous(info);
            }
        }));
    });
}

/// Number of fixed log2 latency buckets in a [`Histogram`].
pub const HIST_BUCKETS: usize = 24;

/// The bucket index for a microsecond latency: bucket `i` covers
/// `[2^i, 2^(i+1))` µs, bucket 0 also absorbs 0, and the last bucket is
/// open-ended (≥ ~8.4 s). Fixed buckets keep merging across processes a
/// plain element-wise add.
#[inline]
pub fn bucket_of(us: u64) -> usize {
    ((63 - (us | 1).leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// A fixed-bucket log2 latency histogram with lock-free recording; the
/// engine keeps one per tracked latency (task duration, block fetch,
/// queue wait) inside [`Metrics`].
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Histogram {
    #[inline]
    pub fn record(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> [u64; HIST_BUCKETS] {
        let mut out = [0u64; HIST_BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }
}

/// The `q`-quantile (0.0–1.0) of a bucketed histogram, reported as the
/// lower edge of the bucket holding that rank (0 for an empty histogram).
pub fn histogram_percentile(buckets: &[u64; HIST_BUCKETS], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return if i == 0 { 0 } else { 1u64 << i };
        }
    }
    1u64 << (HIST_BUCKETS - 1)
}

/// Engine-wide counters, derived from the scheduler's event stream by
/// [`MetricsListener`](crate::events::MetricsListener) — every value here
/// also lands on a per-stage/per-task record in the event log.
///
/// Every field except [`Metrics::cached_bytes`] is a monotonically
/// increasing counter; `cached_bytes` is a **gauge** that moves both ways.
/// Read a consistent view with [`Metrics::snapshot`].
#[derive(Default)]
pub struct Metrics {
    pub jobs: AtomicU64,
    pub stages: AtomicU64,
    pub tasks: AtomicU64,
    pub input_records: AtomicU64,
    pub input_bytes: AtomicU64,
    pub shuffle_records: AtomicU64,
    pub shuffle_bytes: AtomicU64,
    pub output_records: AtomicU64,
    /// Total wall time spent inside tasks, in microseconds — the
    /// "aggregated runtime over the cluster" of the paper's Fig. 14.
    pub task_busy_us: AtomicU64,
    /// Task attempts that ended in a failure (any [`FailureKind`]).
    pub failed_tasks: AtomicU64,
    /// Attempts re-launched after a retryable failure.
    pub retried_tasks: AtomicU64,
    /// Parent-stage tasks re-run to regenerate lost shuffle outputs
    /// (lineage-based recovery).
    pub recomputed_tasks: AtomicU64,
    /// Speculative copies launched for straggling tasks.
    pub speculated_tasks: AtomicU64,
    /// Speculative copies that finished before the original attempt.
    pub speculative_wins: AtomicU64,
    /// Faults injected by the chaos plan (kills, lost outputs, storage
    /// faults, straggler slowdowns, cached-read faults).
    pub injected_faults: AtomicU64,
    /// Optimizer rewrite-rule firings whose property contract held (one
    /// per applied rule per plan compilation).
    pub optimizer_rule_fires: AtomicU64,
    /// Persisted-partition reads served from the cache.
    pub cache_hits: AtomicU64,
    /// Persisted-partition reads that fell back to lineage recomputation
    /// (cold, evicted, or fault-injected).
    pub cache_misses: AtomicU64,
    /// Partitions evicted from the cache under byte-budget pressure.
    pub cache_evictions: AtomicU64,
    /// Executor workers that completed the registration handshake.
    pub executors_registered: AtomicU64,
    /// Executor workers declared dead (connection loss, heartbeat deadline,
    /// or failed block fetch).
    pub executors_lost: AtomicU64,
    /// Heartbeats received from live executors.
    pub heartbeats: AtomicU64,
    /// Shuffle blocks pushed to executor block stores.
    pub blocks_pushed: AtomicU64,
    /// Total bytes of shuffle blocks pushed to executors.
    pub block_bytes_pushed: AtomicU64,
    /// Shuffle blocks fetched back from executor block services.
    pub blocks_fetched: AtomicU64,
    /// Total bytes of shuffle blocks fetched from executors.
    pub block_bytes_fetched: AtomicU64,
    /// ColumnBatches processed by vectorized DataFrame pipeline segments.
    pub columnar_batches: AtomicU64,
    /// Rows emitted by vectorized DataFrame pipeline segments; divided by
    /// `columnar_batches`, the mean batch occupancy. Observation only: no
    /// physical decision reads it.
    pub columnar_rows: AtomicU64,
    /// Per-partition executions of fused (multi-operator, single-pass)
    /// columnar pipeline segments.
    pub fused_pipelines: AtomicU64,
    /// Rows folded into the vectorized GROUP BY kernel (post-filter).
    pub agg_rows_in: AtomicU64,
    /// Distinct groups the vectorized GROUP BY kernel emitted to the
    /// shuffle; `agg_rows_in / agg_groups_out` is the map-side
    /// pre-aggregation factor.
    pub agg_groups_out: AtomicU64,
    /// Executor-side events known to have been lost: gaps in a dead
    /// worker's forwarded sequence plus drops its bounded buffer reported.
    pub events_lost: AtomicU64,
    /// Bytes currently held by the partition cache. Unlike every counter
    /// above this is a **gauge**: it moves both ways as blocks are stored,
    /// evicted and unpersisted.
    pub cached_bytes: AtomicU64,
    /// Task attempt wall time, log2 µs buckets (from `TaskEnd.busy_us`).
    pub task_duration_hist: Histogram,
    /// Block-service serve latency (from `BlockFetch.dur_us`).
    pub block_fetch_hist: Histogram,
    /// Submit→start queueing delay (from `TaskEnd.queue_us`).
    pub queue_wait_hist: Histogram,
}

/// A point-in-time copy of [`Metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    pub jobs: u64,
    pub stages: u64,
    pub tasks: u64,
    pub input_records: u64,
    pub input_bytes: u64,
    pub shuffle_records: u64,
    pub shuffle_bytes: u64,
    pub output_records: u64,
    pub task_busy_us: u64,
    pub failed_tasks: u64,
    pub retried_tasks: u64,
    pub recomputed_tasks: u64,
    pub speculated_tasks: u64,
    pub speculative_wins: u64,
    pub injected_faults: u64,
    pub optimizer_rule_fires: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub executors_registered: u64,
    pub executors_lost: u64,
    pub heartbeats: u64,
    pub blocks_pushed: u64,
    pub block_bytes_pushed: u64,
    pub blocks_fetched: u64,
    pub block_bytes_fetched: u64,
    pub columnar_batches: u64,
    pub columnar_rows: u64,
    pub fused_pipelines: u64,
    pub agg_rows_in: u64,
    pub agg_groups_out: u64,
    pub events_lost: u64,
    pub cached_bytes: u64,
    pub task_duration_hist: [u64; HIST_BUCKETS],
    pub block_fetch_hist: [u64; HIST_BUCKETS],
    pub queue_wait_hist: [u64; HIST_BUCKETS],
}

impl Metrics {
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            jobs: self.jobs.load(Ordering::Relaxed),
            stages: self.stages.load(Ordering::Relaxed),
            tasks: self.tasks.load(Ordering::Relaxed),
            input_records: self.input_records.load(Ordering::Relaxed),
            input_bytes: self.input_bytes.load(Ordering::Relaxed),
            shuffle_records: self.shuffle_records.load(Ordering::Relaxed),
            shuffle_bytes: self.shuffle_bytes.load(Ordering::Relaxed),
            output_records: self.output_records.load(Ordering::Relaxed),
            task_busy_us: self.task_busy_us.load(Ordering::Relaxed),
            failed_tasks: self.failed_tasks.load(Ordering::Relaxed),
            retried_tasks: self.retried_tasks.load(Ordering::Relaxed),
            recomputed_tasks: self.recomputed_tasks.load(Ordering::Relaxed),
            speculated_tasks: self.speculated_tasks.load(Ordering::Relaxed),
            speculative_wins: self.speculative_wins.load(Ordering::Relaxed),
            injected_faults: self.injected_faults.load(Ordering::Relaxed),
            optimizer_rule_fires: self.optimizer_rule_fires.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            executors_registered: self.executors_registered.load(Ordering::Relaxed),
            executors_lost: self.executors_lost.load(Ordering::Relaxed),
            heartbeats: self.heartbeats.load(Ordering::Relaxed),
            blocks_pushed: self.blocks_pushed.load(Ordering::Relaxed),
            block_bytes_pushed: self.block_bytes_pushed.load(Ordering::Relaxed),
            blocks_fetched: self.blocks_fetched.load(Ordering::Relaxed),
            block_bytes_fetched: self.block_bytes_fetched.load(Ordering::Relaxed),
            columnar_batches: self.columnar_batches.load(Ordering::Relaxed),
            columnar_rows: self.columnar_rows.load(Ordering::Relaxed),
            fused_pipelines: self.fused_pipelines.load(Ordering::Relaxed),
            agg_rows_in: self.agg_rows_in.load(Ordering::Relaxed),
            agg_groups_out: self.agg_groups_out.load(Ordering::Relaxed),
            events_lost: self.events_lost.load(Ordering::Relaxed),
            cached_bytes: self.cached_bytes.load(Ordering::Relaxed),
            task_duration_hist: self.task_duration_hist.snapshot(),
            block_fetch_hist: self.block_fetch_hist.snapshot(),
            queue_wait_hist: self.queue_wait_hist.snapshot(),
        }
    }
}

/// Pretty-printer for shell `:metrics` and the bench harness: one counter
/// per line, gauge separated from the monotonic counters.
impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rows: &[(&str, u64)] = &[
            ("jobs", self.jobs),
            ("stages", self.stages),
            ("tasks", self.tasks),
            ("input_records", self.input_records),
            ("input_bytes", self.input_bytes),
            ("shuffle_records", self.shuffle_records),
            ("shuffle_bytes", self.shuffle_bytes),
            ("output_records", self.output_records),
            ("task_busy_us", self.task_busy_us),
            ("failed_tasks", self.failed_tasks),
            ("retried_tasks", self.retried_tasks),
            ("recomputed_tasks", self.recomputed_tasks),
            ("speculated_tasks", self.speculated_tasks),
            ("speculative_wins", self.speculative_wins),
            ("injected_faults", self.injected_faults),
            ("optimizer_rule_fires", self.optimizer_rule_fires),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("cache_evictions", self.cache_evictions),
            ("executors_registered", self.executors_registered),
            ("executors_lost", self.executors_lost),
            ("heartbeats", self.heartbeats),
            ("blocks_pushed", self.blocks_pushed),
            ("block_bytes_pushed", self.block_bytes_pushed),
            ("blocks_fetched", self.blocks_fetched),
            ("block_bytes_fetched", self.block_bytes_fetched),
            ("columnar_batches", self.columnar_batches),
            ("columnar_rows", self.columnar_rows),
            ("fused_pipelines", self.fused_pipelines),
            ("agg_rows_in", self.agg_rows_in),
            ("agg_groups_out", self.agg_groups_out),
            ("events_lost", self.events_lost),
        ];
        writeln!(f, "counters:")?;
        for (name, value) in rows {
            writeln!(f, "  {name:<18} {value}")?;
        }
        writeln!(f, "latency (µs):")?;
        let hists: &[(&str, &[u64; HIST_BUCKETS])] = &[
            ("task_duration", &self.task_duration_hist),
            ("block_fetch", &self.block_fetch_hist),
            ("queue_wait", &self.queue_wait_hist),
        ];
        for (name, hist) in hists {
            writeln!(
                f,
                "  {name:<18} p50={} p95={} p99={}",
                histogram_percentile(hist, 0.50),
                histogram_percentile(hist, 0.95),
                histogram_percentile(hist, 0.99),
            )?;
        }
        writeln!(f, "gauges:")?;
        write!(f, "  {:<18} {}", "cached_bytes", self.cached_bytes)
    }
}

/// Per-task scratch counters, reset for every attempt and snapshotted into
/// [`Event::TaskEnd`] when the attempt finishes. The global [`Metrics`]
/// totals are folded from these snapshots by the metrics listener, so the
/// per-task records and the engine-wide counters share one code path.
#[derive(Default)]
pub struct TaskMetrics {
    pub input_records: AtomicU64,
    pub input_bytes: AtomicU64,
    pub shuffle_records: AtomicU64,
    pub shuffle_bytes: AtomicU64,
    pub output_records: AtomicU64,
    /// Display-only (see [`TaskCounters::cache_hits`]).
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
}

impl TaskMetrics {
    pub fn snapshot(&self) -> TaskCounters {
        TaskCounters {
            input_records: self.input_records.load(Ordering::Relaxed),
            input_bytes: self.input_bytes.load(Ordering::Relaxed),
            shuffle_records: self.shuffle_records.load(Ordering::Relaxed),
            shuffle_bytes: self.shuffle_bytes.load(Ordering::Relaxed),
            output_records: self.output_records.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
        }
    }

    #[inline]
    pub fn bump(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// Per-task context handed to every partition computation.
pub struct TaskContext {
    /// The partition index this task computes.
    pub partition: usize,
    /// 0-based attempt number: 0 for the first launch, higher for retries
    /// and speculative copies. Deterministic partition computations ignore
    /// it; the fault injector keys its decisions on it.
    pub attempt: u32,
    /// The job id this task belongs to (see [`Metrics::jobs`]).
    pub stage: u64,
    /// Whether this attempt is a speculative copy of a straggler.
    pub speculative: bool,
    /// This attempt's scratch counters (shared with closures the task body
    /// spawns, hence the `Arc`).
    pub task_metrics: Arc<TaskMetrics>,
    /// The scheduler event bus, for shuffle/cache-layer emissions.
    pub(crate) events: Arc<EventBus>,
    /// The chaos injector, shared with the driver.
    pub injector: Arc<FaultInjector>,
}

/// Per-task recovery bookkeeping in the driver loop.
struct TaskSlot {
    /// Failed attempts so far, counted against the budget.
    failures: u32,
    /// Next unused attempt number (attempt 0 is launched up front).
    next_attempt: u32,
    /// The attempt number of the speculative copy, if one was launched.
    speculative_attempt: Option<u32>,
    /// When the most recent attempt was submitted (drives speculation).
    last_launch: Instant,
    /// First failure observed, surfaced if the budget runs out.
    first_cause: Option<FailureCause>,
}

/// A fixed pool of executor worker threads fed over a crossbeam channel.
pub struct ExecutorPool {
    sender: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    size: usize,
    events: Arc<EventBus>,
    injector: Arc<FaultInjector>,
}

impl ExecutorPool {
    pub fn new(size: usize, events: Arc<EventBus>, injector: Arc<FaultInjector>) -> Self {
        install_task_panic_hook();
        let size = size.max(1);
        let (sender, receiver) = unbounded::<Job>();
        let mut handles = Vec::with_capacity(size);
        for worker_id in 0..size {
            let rx = receiver.clone();
            let handle = std::thread::Builder::new()
                .name(format!("sparklite-exec-{worker_id}"))
                .spawn(move || {
                    IN_WORKER.with(|f| f.set(true));
                    WORKER_ID.with(|w| w.set(Some(worker_id as u64)));
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("spawning executor thread");
            handles.push(handle);
        }
        ExecutorPool { sender: Some(sender), handles, size, events, injector }
    }

    /// Number of executor worker threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Runs one task per entry of `tasks`, in parallel, and returns results
    /// in task order, retrying retryable failures per the fault plan.
    ///
    /// When called from inside a worker thread (a nested job), the tasks run
    /// inline on the calling thread instead, because parking a worker on a
    /// sub-job could exhaust the pool — the same reason Spark jobs do not
    /// nest.
    pub fn run<R, F>(&self, tasks: Vec<F>) -> Result<Vec<R>>
    where
        R: Send + 'static,
        F: Fn(&TaskContext) -> R + Send + Sync + 'static,
    {
        let labeled = tasks
            .into_iter()
            .enumerate()
            .map(|(partition, t)| (partition, Arc::new(t) as Arc<TaskFn<R>>))
            .collect();
        self.run_labeled(labeled)
    }

    /// [`ExecutorPool::run`] with explicit partition labels, so lineage
    /// recovery can re-run a *subset* of a stage's partitions while every
    /// task still sees its original partition index (sampling and sort
    /// reservoirs seed their RNGs from it).
    pub(crate) fn run_labeled<R: Send + 'static>(
        &self,
        tasks: Vec<(usize, Arc<TaskFn<R>>)>,
    ) -> Result<Vec<R>> {
        let job = self.events.next_job_id();
        self.events.emit(Event::JobStart {
            job,
            stage: current_stage(),
            num_tasks: tasks.len() as u64,
        });
        let out = self.run_job(job, tasks);
        if self.events.verbose() {
            self.events.emit(Event::JobEnd { job, ok: out.is_ok() });
        }
        out
    }

    /// The retry/speculation scheduler loop for one job's task wave.
    fn run_job<R: Send + 'static>(
        &self,
        job: u64,
        tasks: Vec<(usize, Arc<TaskFn<R>>)>,
    ) -> Result<Vec<R>> {
        let budget = self.injector.plan().max_task_failures.max(1);

        if IN_WORKER.with(|f| f.get()) {
            // Nested job: run inline, sequentially, with the same retry
            // classification (but no speculation — there is no parallelism
            // to speculate against).
            let mut out = Vec::with_capacity(tasks.len());
            for (partition, task) in &tasks {
                out.push(self.run_inline(job, budget, *partition, task)?);
            }
            return Ok(out);
        }

        let n = tasks.len();
        type Report<R> = (usize, u32, Duration, std::result::Result<R, FailureCause>);
        let (result_tx, result_rx) = unbounded::<Report<R>>();
        let sender = self.sender.as_ref().expect("pool is alive");
        let submit = |index: usize, attempt: u32, speculative: bool| {
            let (partition, task) = &tasks[index];
            let partition = *partition;
            let task = Arc::clone(task);
            let tx = result_tx.clone();
            let events = Arc::clone(&self.events);
            let injector = Arc::clone(&self.injector);
            let queued = Instant::now();
            let body: Job = Box::new(move || {
                let tc = TaskContext {
                    partition,
                    attempt,
                    stage: job,
                    speculative,
                    task_metrics: Arc::new(TaskMetrics::default()),
                    events,
                    injector,
                };
                let (elapsed, r) = run_caught(task.as_ref(), tc, queued);
                // The receiver may already have dropped after a failure;
                // that is fine.
                let _ = tx.send((index, attempt, elapsed, r));
            });
            sender.send(body).expect("executor pool is alive");
        };

        let mut slots: Vec<TaskSlot> = (0..n)
            .map(|_| TaskSlot {
                failures: 0,
                next_attempt: 1,
                speculative_attempt: None,
                last_launch: Instant::now(),
                first_cause: None,
            })
            .collect();
        for (index, slot) in slots.iter_mut().enumerate() {
            submit(index, 0, false);
            slot.last_launch = Instant::now();
        }

        let speculation = self.injector.plan().speculation;
        let quantile = self.injector.plan().speculation_quantile.clamp(0.0, 1.0);
        let multiplier = self.injector.plan().speculation_multiplier.max(1.0);
        let quorum = ((quantile * n as f64).ceil() as usize).clamp(1, n);
        let mut durations: Vec<Duration> = Vec::with_capacity(n);
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut filled = 0usize;

        while filled < n {
            // Fast path without speculation: block until the next report.
            // With speculation: wake periodically to look for stragglers.
            let report = if speculation {
                match result_rx.recv_timeout(SPECULATION_TICK) {
                    Ok(r) => Some(r),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => {
                        unreachable!("driver holds a sender; reports cannot disconnect")
                    }
                }
            } else {
                Some(result_rx.recv().expect("all tasks report"))
            };

            let Some((index, attempt, elapsed, outcome)) = report else {
                // Speculation tick: once the quorum of tasks has finished,
                // re-launch any task that has been running for more than
                // `multiplier ×` the median successful duration.
                if filled < quorum || durations.is_empty() {
                    continue;
                }
                let mut sorted = durations.clone();
                sorted.sort();
                let median = sorted[sorted.len() / 2];
                let threshold = median.mul_f64(multiplier).max(SPECULATION_MIN_AGE);
                for (i, slot) in slots.iter_mut().enumerate() {
                    if results[i].is_none()
                        && slot.speculative_attempt.is_none()
                        && slot.last_launch.elapsed() > threshold
                    {
                        let a = slot.next_attempt;
                        slot.next_attempt += 1;
                        slot.speculative_attempt = Some(a);
                        self.events.emit(Event::SpeculativeLaunch {
                            job,
                            partition: tasks[i].0 as u64,
                            attempt: a,
                        });
                        submit(i, a, true);
                    }
                }
                continue;
            };

            match outcome {
                Ok(r) => {
                    // First-writer-wins: a partition's slot is committed by
                    // whichever attempt reports success first; later copies
                    // are discarded.
                    if results[index].is_none() {
                        if slots[index].speculative_attempt == Some(attempt) {
                            self.events.emit(Event::SpeculativeWin {
                                job,
                                partition: tasks[index].0 as u64,
                            });
                        }
                        results[index] = Some(r);
                        filled += 1;
                        durations.push(elapsed);
                    }
                }
                Err(cause) => {
                    // failed_tasks is counted by the metrics listener from
                    // the worker-side TaskEnd event.
                    if results[index].is_some() {
                        // A losing speculative copy failed after the slot
                        // was already committed; nothing to recover.
                        continue;
                    }
                    if cause.kind == FailureKind::App {
                        // Deterministic application error: retrying would
                        // fail identically. Fail the job fast.
                        return Err(SparkliteError::TaskFailed(cause));
                    }
                    let slot = &mut slots[index];
                    slot.failures += 1;
                    if slot.first_cause.is_none() {
                        slot.first_cause = Some(cause);
                    }
                    if slot.failures >= budget {
                        let cause = slot.first_cause.take().expect("recorded above");
                        return Err(SparkliteError::TaskRetriesExhausted {
                            cause,
                            attempts: slot.failures,
                        });
                    }
                    let a = slot.next_attempt;
                    slot.next_attempt += 1;
                    slot.last_launch = Instant::now();
                    self.events.emit(Event::TaskResubmitted {
                        job,
                        partition: tasks[index].0 as u64,
                        next_attempt: a,
                    });
                    submit(index, a, false);
                }
            }
        }
        Ok(results.into_iter().map(|s| s.expect("every slot filled")).collect())
    }

    /// The inline (nested-job) variant of the retry loop.
    fn run_inline<R: Send + 'static>(
        &self,
        job: u64,
        budget: u32,
        partition: usize,
        task: &Arc<TaskFn<R>>,
    ) -> Result<R> {
        let mut failures = 0u32;
        let mut first_cause: Option<FailureCause> = None;
        loop {
            let tc = TaskContext {
                partition,
                attempt: failures,
                stage: job,
                speculative: false,
                task_metrics: Arc::new(TaskMetrics::default()),
                events: Arc::clone(&self.events),
                injector: Arc::clone(&self.injector),
            };
            match run_caught(task.as_ref(), tc, Instant::now()).1 {
                Ok(r) => return Ok(r),
                Err(cause) => {
                    if cause.kind == FailureKind::App {
                        return Err(SparkliteError::TaskFailed(cause));
                    }
                    failures += 1;
                    if first_cause.is_none() {
                        first_cause = Some(cause);
                    }
                    if failures >= budget {
                        let cause = first_cause.take().expect("recorded above");
                        return Err(SparkliteError::TaskRetriesExhausted {
                            cause,
                            attempts: failures,
                        });
                    }
                    self.events.emit(Event::TaskResubmitted {
                        job,
                        partition: partition as u64,
                        next_attempt: failures,
                    });
                }
            }
        }
    }
}

/// Executes one task attempt under a panic guard, classifies any failure,
/// and emits the attempt's `TaskStart`/`TaskEnd` events. `TaskEnd` (which
/// derives `task_busy_us`, `failed_tasks` and the per-task counter totals)
/// is emitted *before* the result is reported back, so the driver's
/// post-join metrics snapshot is always consistent with the event stream.
fn run_caught<R>(
    task: &TaskFn<R>,
    tc: TaskContext,
    queued: Instant,
) -> (Duration, std::result::Result<R, FailureCause>) {
    let events = Arc::clone(&tc.events);
    let worker = WORKER_ID.with(|w| w.get());
    let queue_us = queued.elapsed().as_micros() as u64;
    if events.verbose() {
        events.emit(Event::TaskStart {
            job: tc.stage,
            partition: tc.partition as u64,
            attempt: tc.attempt,
            speculative: tc.speculative,
            worker,
        });
    }
    let started = Instant::now();
    TASK_DEPTH.with(|d| d.set(d.get() + 1));
    let result = catch_unwind(AssertUnwindSafe(|| {
        tc.injector.on_task_start(&tc);
        task(&tc)
    }));
    TASK_DEPTH.with(|d| d.set(d.get() - 1));
    let elapsed = started.elapsed();
    let outcome = result.map_err(|payload| classify(payload, &tc));
    events.emit(Event::TaskEnd {
        job: tc.stage,
        partition: tc.partition as u64,
        attempt: tc.attempt,
        speculative: tc.speculative,
        worker,
        busy_us: elapsed.as_micros() as u64,
        queue_us,
        counters: tc.task_metrics.snapshot(),
        failure: outcome.as_ref().err().cloned(),
    });
    (elapsed, outcome)
}

/// Maps a caught panic payload to a [`FailureCause`]. Typed payloads
/// ([`AppAbort`], [`InjectedFault`]) carry their classification; anything
/// else is an unclassified panic, retried like Spark retries an executor
/// exception.
fn classify(payload: Box<dyn std::any::Any + Send>, tc: &TaskContext) -> FailureCause {
    let (kind, message) = if let Some(f) = payload.downcast_ref::<InjectedFault>() {
        (FailureKind::Injected, f.0.clone())
    } else if let Some(a) = payload.downcast_ref::<AppAbort>() {
        (FailureKind::App, a.0.clone())
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (FailureKind::Panic, (*s).to_string())
    } else if let Some(s) = payload.downcast_ref::<String>() {
        (FailureKind::Panic, s.clone())
    } else {
        (FailureKind::Panic, "task panicked".to_string())
    };
    FailureCause { kind, attempt: tc.attempt, task: tc.partition, stage: tc.stage, message }
}

impl Drop for ExecutorPool {
    fn drop(&mut self) {
        // Closing the channel lets every worker's recv() fail and exit.
        self.sender.take();
        let current = std::thread::current().id();
        for h in self.handles.drain(..) {
            // A worker can itself drop the last reference to the pool: a
            // task closure owning the context is dropped on the worker just
            // after its result is reported. Joining the current thread
            // would deadlock (EDEADLK), so that worker is detached instead
            // and exits on its own through the closed channel.
            if h.thread().id() == current {
                drop(h);
            } else {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conf::FaultPlan;

    fn pool_with(n: usize, plan: FaultPlan) -> (ExecutorPool, Arc<Metrics>) {
        let metrics = Arc::new(Metrics::default());
        let events = Arc::new(EventBus::new(Arc::clone(&metrics)));
        let injector = Arc::new(FaultInjector::new(plan, Arc::clone(&events)));
        (ExecutorPool::new(n, events, injector), metrics)
    }

    fn pool(n: usize) -> ExecutorPool {
        pool_with(n, FaultPlan::default()).0
    }

    #[test]
    fn runs_tasks_in_order() {
        let p = pool(4);
        let tasks: Vec<_> = (0..32).map(|i| move |_tc: &TaskContext| i * 2).collect();
        let out = p.run(tasks).unwrap();
        assert_eq!(out, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn actually_parallel() {
        // With 4 workers, 4 tasks that each wait for all 4 to start can only
        // finish if they run concurrently.
        use std::sync::Barrier;
        let p = pool(4);
        let barrier = Arc::new(Barrier::new(4));
        let tasks: Vec<_> = (0..4)
            .map(|_| {
                let b = Arc::clone(&barrier);
                move |_tc: &TaskContext| {
                    b.wait();
                    1usize
                }
            })
            .collect();
        assert_eq!(p.run(tasks).unwrap().iter().sum::<usize>(), 4);
    }

    #[test]
    fn panics_become_errors() {
        let p = pool(2);
        let tasks: Vec<_> = (0..3)
            .map(|i| {
                move |_tc: &TaskContext| {
                    if i == 1 {
                        panic!("boom in partition 1");
                    }
                    i
                }
            })
            .collect();
        let err = p.run(tasks).unwrap_err();
        match err {
            // An unclassified panic is retried to the default budget of 4,
            // then surfaced with its first cause.
            SparkliteError::TaskRetriesExhausted { cause, attempts } => {
                assert_eq!(cause.task, 1);
                assert_eq!(cause.kind, FailureKind::Panic);
                assert_eq!(attempts, 4);
                assert!(cause.message.contains("boom"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn app_errors_fail_fast_without_retry() {
        let (p, metrics) = pool_with(2, FaultPlan::default());
        let tasks: Vec<_> = (0..3)
            .map(|i| {
                move |_tc: &TaskContext| {
                    if i == 1 {
                        crate::rdd::task_bail("[FOAR0001] dynamic error: division by zero");
                    }
                    i
                }
            })
            .collect();
        let err = p.run(tasks).unwrap_err();
        match err {
            SparkliteError::TaskFailed(cause) => {
                assert_eq!(cause.kind, FailureKind::App);
                assert_eq!(cause.attempt, 0, "app errors must not be retried");
                assert!(cause.message.contains("FOAR0001"));
            }
            other => panic!("unexpected error {other:?}"),
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.failed_tasks, 1);
        assert_eq!(snap.retried_tasks, 0);
    }

    #[test]
    fn injected_failures_are_retried_to_success() {
        let (p, metrics) = pool_with(2, FaultPlan::default().with_task_failures(1.0));
        // Probability 1.0 with the default per-task cap of 1: every task's
        // first attempt is killed, every retry succeeds.
        let tasks: Vec<_> = (0..6).map(|i| move |_tc: &TaskContext| i * 10).collect();
        let out = p.run(tasks).unwrap();
        assert_eq!(out, (0..6).map(|i| i * 10).collect::<Vec<_>>());
        let snap = metrics.snapshot();
        assert_eq!(snap.failed_tasks, 6);
        assert_eq!(snap.retried_tasks, 6);
        assert_eq!(snap.injected_faults, 6);
    }

    #[test]
    fn exhausted_budget_is_a_typed_error() {
        let plan = FaultPlan::default()
            .with_task_failures(1.0)
            .with_max_injected_per_task(u32::MAX)
            .with_max_task_failures(3);
        let (p, metrics) = pool_with(2, plan);
        let err = p.run((0..2).map(|_| |_tc: &TaskContext| ()).collect::<Vec<_>>()).unwrap_err();
        match err {
            SparkliteError::TaskRetriesExhausted { cause, attempts } => {
                assert_eq!(cause.kind, FailureKind::Injected);
                assert_eq!(attempts, 3);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(metrics.snapshot().failed_tasks >= 3);
    }

    #[test]
    fn speculation_rescues_a_straggler() {
        let plan = FaultPlan::default().with_speculation(true);
        let (p, metrics) = pool_with(4, plan);
        // Partition 3's first attempt stalls; the speculative copy (a later
        // attempt) returns immediately and must win the slot.
        let tasks: Vec<_> = (0..4)
            .map(|i| {
                move |tc: &TaskContext| {
                    if i == 3 && tc.attempt == 0 {
                        std::thread::sleep(Duration::from_millis(400));
                    }
                    i * 2
                }
            })
            .collect();
        let out = p.run(tasks).unwrap();
        assert_eq!(out, vec![0, 2, 4, 6]);
        let snap = metrics.snapshot();
        assert_eq!(snap.speculated_tasks, 1);
        assert_eq!(snap.speculative_wins, 1);
    }

    #[test]
    fn nested_jobs_run_inline() {
        let (p, metrics) = pool_with(1, FaultPlan::default());
        let p = Arc::new(p);
        // A single worker: a blocking nested job would deadlock if it were
        // scheduled on the pool.
        let inner_pool = Arc::clone(&p);
        let out = p
            .run(vec![move |_tc: &TaskContext| {
                let inner: Vec<usize> =
                    inner_pool.run((0..3).map(|i| move |_tc: &TaskContext| i).collect()).unwrap();
                inner.iter().sum::<usize>()
            }])
            .unwrap();
        assert_eq!(out, vec![3]);
        assert_eq!(metrics.snapshot().jobs, 2);
    }

    #[test]
    fn nested_jobs_retry_inline() {
        let (p, metrics) = pool_with(1, FaultPlan::default().with_task_failures(1.0));
        let p = Arc::new(p);
        let inner_pool = Arc::clone(&p);
        let out = p
            .run(vec![move |_tc: &TaskContext| {
                let inner: Vec<usize> =
                    inner_pool.run((0..3).map(|i| move |_tc: &TaskContext| i).collect()).unwrap();
                inner.iter().sum::<usize>()
            }])
            .unwrap();
        assert_eq!(out, vec![3]);
        // Outer task + 3 inner tasks each survived one injected kill.
        assert_eq!(metrics.snapshot().retried_tasks, 4);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        let h = Histogram::default();
        for us in [1, 5, 5, 5, 1_000_000] {
            h.record(us);
        }
        let snap = h.snapshot();
        assert_eq!(snap.iter().sum::<u64>(), 5);
        assert_eq!(histogram_percentile(&snap, 0.50), 1 << 2);
        assert_eq!(histogram_percentile(&snap, 0.99), 1 << 19);
        assert_eq!(histogram_percentile(&[0; HIST_BUCKETS], 0.5), 0);
    }

    #[test]
    fn tasks_record_duration_and_queue_histograms() {
        let (p, metrics) = pool_with(2, FaultPlan::default());
        p.run((0..5).map(|_| |_tc: &TaskContext| ()).collect::<Vec<_>>()).unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.task_duration_hist.iter().sum::<u64>(), 5);
        assert_eq!(snap.queue_wait_hist.iter().sum::<u64>(), 5);
    }

    #[test]
    fn metrics_count_tasks() {
        let (p, metrics) = pool_with(2, FaultPlan::default());
        p.run((0..5).map(|_| |_tc: &TaskContext| ()).collect::<Vec<_>>()).unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.jobs, 1);
        assert_eq!(snap.tasks, 5);
    }
}
