//! The long-running "what-if" sweep service: a persistent worker pool plus
//! an in-process request registry, serving concurrent [`SweepRequest`]s.
//!
//! This is the crate's one sweep executor: the CLI's `run`, the TCP
//! [`Server`](crate::server::Server), the examples and the tests all submit
//! here, and `worker_loop` is the only code that runs a sweep job. One
//! [`Service`] owns:
//!
//! * **A persistent work-stealing pool** — a shared FIFO [`Injector`],
//!   per-worker Chase–Lev deques and sibling stealing, with workers that
//!   outlive any one request, parking on a condvar when the queue runs
//!   dry. Jobs from every live request flow through the one injector.
//! * **Fair interleaving** — each request keeps at most `threads` jobs in
//!   the pool at once (its *window*); completing a job refills the next
//!   pending one at the injector's tail. A long request therefore owns at
//!   most a window's worth of queue at any instant, and a short request
//!   submitted behind it starts within one job-completion, not after the
//!   long sweep drains — the head-of-line guarantee the concurrency tests
//!   pin down.
//! * **The cache fast path** — submissions are pre-scanned against the
//!   shared [`ResultCache`]; hits are written straight into their result
//!   slot and never touch the pool or the cost table. An all-hit request
//!   finalizes inline at submit. Misses append to a per-request WAL segment
//!   that commits into the index when the request completes, so every
//!   service over one cache directory stays mutually incremental.
//! * **A metadata plane** — every request gets an id and a
//!   [`SweepStatus`] lifecycle (queued → running(n/m) → done / failed /
//!   cancelled) queryable via [`Service::status`] / [`Service::list`],
//!   cancellable via [`Service::cancel`], awaitable via [`Service::wait`].
//!   Identical in-flight requests are deduplicated: the second submit
//!   returns the first's id instead of doubling the work.
//!
//! Results are bit-identical whatever the pool width or job order: jobs
//! write slot-indexed, write-once buffers laid out task-major/point-major/
//! seed-minor, and aggregation walks them in that order (see
//! [`crate::runner`]). The artifact is rendered once, server-side, with
//! [`SweepSuite::artifact_json`] and shipped as text verbatim.
//!
//! Failure is per request, never per pool: a panicking job, a panic while
//! aggregating or rendering, or a cache write/commit error ends its request
//! `Failed` with the cause, and the worker thread carries on.
//!
//! Memory ordering of finalization: each worker publishes its slot writes
//! with an `AcqRel` `fetch_sub` on the request's `remaining` counter; the
//! thread that observes the count hit zero acquires every decrement in the
//! release sequence, so all slot writes happen-before the finalizer's
//! `SlotBuffer::take_vec`. The submit-time cache-hit writes are ordered
//! before any worker runs via the injector push (release) → steal
//! (acquire) chain, inductively through refills.

use crate::cache::{self, CacheKey, CacheStats, CacheWriter, ResultCache};
use crate::cost::CostTable;
use crate::error::Error;
use crate::metrics::Metrics;
use crate::params::Params;
use crate::registry::Registry;
use crate::request::{SweepRequest, SweepResponse, SweepStatus, ValidatedSweep};
use crate::runner::{
    aggregate_results, expand_jobs, failure_message, panic_message, sort_jobs_lpt, Job, JobFailure,
    JobOrder, SlotBuffer, SweepResult, SweepSuite,
};
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use des::Simulation;
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// How a [`Service`] is provisioned.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// Pool worker threads (also each request's in-flight window).
    pub threads: usize,
    /// Attach the persistent result cache at this directory.
    pub cache_dir: Option<PathBuf>,
    /// Prior wall-clock measurements driving the LPT job order.
    pub cost_table: CostTable,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig::new()
    }
}

impl ServiceConfig {
    pub fn new() -> ServiceConfig {
        ServiceConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            cache_dir: None,
            cost_table: CostTable::new(),
        }
    }

    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    pub fn with_cost_table(mut self, table: CostTable) -> Self {
        self.cost_table = table;
        self
    }
}

/// What [`Service::submit`] hands back: the request's id and initial
/// status, plus submission-time observability the CLI prints.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct Submission {
    pub id: u64,
    pub status: SweepStatus,
    /// Lenient-mode axis warnings from validation, one line per scenario.
    pub warnings: Vec<String>,
    /// Total `(scenario, point, seed)` jobs (cache hits included).
    pub total_jobs: usize,
    /// Jobs served from the cache at submit, before the pool saw anything.
    pub cache_hits: usize,
    /// True when this submit matched an identical in-flight request and
    /// was coalesced onto its id instead of spawning duplicate work.
    pub deduped: bool,
}

/// Terminal (or not-yet-terminal) state of one request.
enum Terminal {
    Pending,
    Done {
        artifact: String,
        results: Vec<SweepResult>,
    },
    Failed {
        message: String,
    },
    Cancelled,
}

/// One submitted request's full execution state.
struct ActiveSweep {
    id: u64,
    /// Scenario names, resolved again via the service registry at run time.
    names: Vec<String>,
    /// Expanded parameter points, per task.
    points: Vec<Vec<Params>>,
    seeds: Vec<u64>,
    /// Write-once result slots (task-major, point-major, seed-minor).
    slots: SlotBuffer<Metrics>,
    /// Per-slot cache keys — `Some` exactly for the slots that missed.
    keys: Vec<Option<CacheKey>>,
    total_jobs: usize,
    cache_hits: usize,
    /// Cost-ordered jobs not yet handed to the injector (the part of the
    /// sweep beyond the in-flight window).
    pending: Mutex<VecDeque<Job>>,
    /// Pool jobs not yet completed or skipped. Hitting zero triggers
    /// finalization by whichever thread got there.
    remaining: AtomicUsize,
    /// Pool jobs that have begun executing (drives queued → running).
    started: AtomicUsize,
    cancelled: AtomicBool,
    failures: Mutex<Vec<JobFailure>>,
    /// This request's append-only WAL segment (all workers share it; a
    /// sweep is one commit unit, unlike the CLI's per-worker segments).
    writer: Mutex<Option<CacheWriter>>,
    state: Mutex<Terminal>,
    done_cond: Condvar,
    /// Canonical request text, for in-flight deduplication.
    dedup_key: String,
}

impl ActiveSweep {
    fn status(&self) -> SweepStatus {
        match &*self.state.lock().unwrap() {
            Terminal::Done { .. } => SweepStatus::Done,
            Terminal::Failed { message } => SweepStatus::Failed {
                message: message.clone(),
            },
            Terminal::Cancelled => SweepStatus::Cancelled,
            Terminal::Pending => {
                if self.started.load(Ordering::Relaxed) == 0 {
                    SweepStatus::Queued
                } else {
                    let remaining = self.remaining.load(Ordering::Relaxed);
                    SweepStatus::Running {
                        done: self.total_jobs - remaining,
                        total: self.total_jobs,
                    }
                }
            }
        }
    }

    fn response(&self, include_artifact: bool) -> SweepResponse {
        let state = self.state.lock().unwrap();
        let (status, artifact) = match &*state {
            Terminal::Done { artifact, .. } => (
                SweepStatus::Done,
                include_artifact.then(|| artifact.clone()),
            ),
            _ => {
                drop(state);
                (self.status(), None)
            }
        };
        SweepResponse {
            id: self.id,
            status,
            artifact,
        }
    }
}

/// One unit of pool work: which sweep, which job.
struct PoolJob {
    sweep: Arc<ActiveSweep>,
    job: Job,
}

struct Inner {
    registry: Registry,
    threads: usize,
    injector: Injector<PoolJob>,
    /// Worker parking. The mutex guards no data — it sequences the
    /// "check queue, then wait" window against "push, then notify".
    park: (Mutex<()>, Condvar),
    shutdown: AtomicBool,
    requests: Mutex<HashMap<u64, Arc<ActiveSweep>>>,
    /// Submission order of request ids (HashMap iteration is unordered).
    order: Mutex<Vec<u64>>,
    next_id: AtomicU64,
    cache: Option<Mutex<ResultCache>>,
    /// Prior costs from config — never mutated, the cold-start estimate.
    priors: CostTable,
    /// Costs measured by this service's own jobs; preferred over priors,
    /// so ordering gets smarter the longer the service runs (warm state).
    observed: Mutex<CostTable>,
    /// Canonical request text → in-flight request id.
    dedup: Mutex<HashMap<String, u64>>,
}

impl Inner {
    fn estimate(&self, scenario: &str, params: &Params) -> f64 {
        let key = CostTable::key(scenario, params);
        self.observed
            .lock()
            .unwrap()
            .mean_secs(&key)
            .unwrap_or_else(|| self.priors.estimate(scenario, params))
    }

    /// Push one job and wake a worker. Locking the park mutex (empty as it
    /// is) before notifying closes the lost-wakeup window against a worker
    /// that just found the queue dry and is about to wait.
    fn inject(&self, pool_job: PoolJob) {
        self.injector.push(pool_job);
        let _guard = self.park.0.lock().unwrap();
        self.park.1.notify_one();
    }
}

/// The long-running sweep service. See the module docs for the design.
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Provision the pool (threads spawn immediately and park) and open
    /// the cache, if configured.
    pub fn start(registry: Registry, config: ServiceConfig) -> Result<Service, Error> {
        let cache = match &config.cache_dir {
            Some(dir) => Some(Mutex::new(ResultCache::open(dir)?)),
            None => None,
        };
        let threads = config.threads.max(1);
        let inner = Arc::new(Inner {
            registry,
            threads,
            injector: Injector::new(),
            park: (Mutex::new(()), Condvar::new()),
            shutdown: AtomicBool::new(false),
            requests: Mutex::new(HashMap::new()),
            order: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            cache,
            priors: config.cost_table,
            observed: Mutex::new(CostTable::new()),
            dedup: Mutex::new(HashMap::new()),
        });

        let locals: Vec<Worker<PoolJob>> = (0..threads).map(|_| Worker::new_fifo()).collect();
        let stealers: Arc<Vec<Stealer<PoolJob>>> =
            Arc::new(locals.iter().map(Worker::stealer).collect());
        let workers = locals
            .into_iter()
            .map(|local| {
                let inner = Arc::clone(&inner);
                let stealers = Arc::clone(&stealers);
                std::thread::spawn(move || worker_loop(&inner, local, &stealers))
            })
            .collect();
        Ok(Service { inner, workers })
    }

    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    pub fn thread_count(&self) -> usize {
        self.inner.threads
    }

    /// Validate and enqueue one request; returns immediately with its id.
    /// Cache hits are resolved inline (an all-hit request comes back
    /// already `Done`); identical in-flight requests are coalesced.
    pub fn submit(&self, request: &SweepRequest) -> Result<Submission, Error> {
        let inner = &*self.inner;
        let validated = request.validate(&inner.registry)?;
        let dedup_key =
            serde_json::to_string(&request.to_value()).expect("value-tree rendering is infallible");

        // In-flight dedup: the map only ever holds non-terminal requests
        // (finalization removes the entry), so a match means live work we
        // can share rather than repeat. The lock is held from the check
        // until the new request is registered, so two racing identical
        // submits can never both miss.
        let mut dedup = inner.dedup.lock().unwrap();
        if let Some(&id) = dedup.get(&dedup_key) {
            let requests = inner.requests.lock().unwrap();
            let sweep = requests
                .get(&id)
                .expect("dedup entries are registered requests");
            return Ok(Submission {
                id,
                status: sweep.status(),
                warnings: validated.warnings,
                total_jobs: sweep.total_jobs,
                cache_hits: sweep.cache_hits,
                deduped: true,
            });
        }

        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let sweep = self.build_sweep(id, &validated, dedup_key)?;
        let all_hit = sweep.remaining.load(Ordering::Relaxed) == 0;
        inner
            .requests
            .lock()
            .unwrap()
            .insert(id, Arc::clone(&sweep));
        inner.order.lock().unwrap().push(id);
        if !all_hit {
            dedup.insert(sweep.dedup_key.clone(), id);
        }
        drop(dedup);

        if all_hit {
            // Every job was a cache hit: finalize inline, entirely on the
            // submit thread — the pool never hears about this request.
            finalize(inner, &sweep);
        }
        let status = sweep.status();
        if !all_hit {
            // Open the request's window: the first `threads` jobs go into
            // the shared FIFO; the rest follow one-per-completion.
            let window: Vec<Job> = {
                let mut pending = sweep.pending.lock().unwrap();
                (0..inner.threads.min(pending.len()))
                    .filter_map(|_| pending.pop_front())
                    .collect()
            };
            for job in window {
                inner.inject(PoolJob {
                    sweep: Arc::clone(&sweep),
                    job,
                });
            }
        }
        Ok(Submission {
            id,
            status,
            warnings: validated.warnings,
            total_jobs: sweep.total_jobs,
            cache_hits: sweep.cache_hits,
            deduped: false,
        })
    }

    /// Expand, pre-scan the cache, and cost-order one validated request.
    fn build_sweep(
        &self,
        id: u64,
        validated: &ValidatedSweep,
        dedup_key: String,
    ) -> Result<Arc<ActiveSweep>, Error> {
        let inner = &*self.inner;
        let names: Vec<String> = validated.tasks.iter().map(|(n, _)| n.clone()).collect();
        let points: Vec<Vec<Params>> = validated
            .tasks
            .iter()
            .map(|(name, grid)| {
                let scenario = inner
                    .registry
                    .get(name)
                    .expect("validated scenario vanished from the registry");
                grid.points(&scenario.default_params())
            })
            .collect();
        let mut jobs = expand_jobs(&points, validated.seeds.len());
        let n_jobs = jobs.len();
        let slots = SlotBuffer::new(n_jobs);
        let mut keys: Vec<Option<CacheKey>> = vec![None; n_jobs];

        // Cache pre-scan: hits land in their slots here on the submit
        // thread (no worker exists for this sweep yet) and never reach the
        // pool, the cost estimates, or the observed-cost table.
        let mut cache_hits = 0;
        if let Some(cache) = &inner.cache {
            let mut cache = cache.lock().unwrap();
            let mut misses = Vec::with_capacity(jobs.len());
            for job in jobs {
                let key = cache::job_key(
                    cache.salt(),
                    &names[job.task],
                    &points[job.task][job.point],
                    validated.seeds[job.seed_idx],
                );
                match cache.lookup(&key) {
                    // SAFETY: submit thread only, one visit per slot, and
                    // hit slots are never handed to the pool.
                    Some(metrics) => {
                        unsafe { slots.put(job.slot, metrics) };
                        cache_hits += 1;
                    }
                    None => {
                        keys[job.slot] = Some(key);
                        misses.push(job);
                    }
                }
            }
            jobs = misses;
        }

        if validated.order == JobOrder::Cost {
            let estimates: Vec<Vec<f64>> = names
                .iter()
                .zip(&points)
                .map(|(name, pts)| pts.iter().map(|p| inner.estimate(name, p)).collect())
                .collect();
            sort_jobs_lpt(&mut jobs, &estimates);
        }

        let writer = match (&inner.cache, jobs.is_empty()) {
            (Some(cache), false) => Some(cache.lock().unwrap().writer()?),
            _ => None,
        };

        Ok(Arc::new(ActiveSweep {
            id,
            names,
            points,
            seeds: validated.seeds.clone(),
            slots,
            keys,
            total_jobs: n_jobs,
            cache_hits,
            remaining: AtomicUsize::new(jobs.len()),
            started: AtomicUsize::new(0),
            pending: Mutex::new(jobs.into()),
            cancelled: AtomicBool::new(false),
            failures: Mutex::new(Vec::new()),
            writer: Mutex::new(writer),
            state: Mutex::new(Terminal::Pending),
            done_cond: Condvar::new(),
            dedup_key,
        }))
    }

    fn get(&self, id: u64) -> Result<Arc<ActiveSweep>, Error> {
        self.inner
            .requests
            .lock()
            .unwrap()
            .get(&id)
            .cloned()
            .ok_or(Error::UnknownRequest { id })
    }

    /// Current lifecycle of one request (no artifact — use `wait`).
    pub fn status(&self, id: u64) -> Result<SweepResponse, Error> {
        Ok(self.get(id)?.response(false))
    }

    /// Every request this service has seen, in submission order.
    pub fn list(&self) -> Vec<SweepResponse> {
        let requests = self.inner.requests.lock().unwrap();
        self.inner
            .order
            .lock()
            .unwrap()
            .iter()
            .filter_map(|id| requests.get(id))
            .map(|sweep| sweep.response(false))
            .collect()
    }

    /// Block until the request reaches a terminal state; `Done` responses
    /// carry the artifact text.
    pub fn wait(&self, id: u64) -> Result<SweepResponse, Error> {
        let sweep = self.get(id)?;
        let mut state = sweep.state.lock().unwrap();
        while matches!(*state, Terminal::Pending) {
            state = sweep.done_cond.wait(state).unwrap();
        }
        drop(state);
        Ok(sweep.response(true))
    }

    /// Cancel a request: pending jobs are dropped immediately, in-flight
    /// jobs are skipped as workers reach them. Terminal requests are
    /// unaffected (the current status comes back).
    pub fn cancel(&self, id: u64) -> Result<SweepResponse, Error> {
        let sweep = self.get(id)?;
        sweep.cancelled.store(true, Ordering::Release);
        let drained = {
            let mut pending = sweep.pending.lock().unwrap();
            let n = pending.len();
            pending.clear();
            n
        };
        if drained > 0 && sweep.remaining.fetch_sub(drained, Ordering::AcqRel) == drained {
            // The drain took the count to zero: no worker holds a job of
            // this sweep anymore, so finalization falls to us.
            finalize(&self.inner, &sweep);
        }
        Ok(sweep.response(false))
    }

    /// The aggregated per-scenario results of a `Done` request — what the
    /// CLI renders as summary tables. Errors on non-terminal, failed, or
    /// cancelled requests (their outcome is in `status`, not here).
    pub fn results(&self, id: u64) -> Result<Vec<SweepResult>, Error> {
        let sweep = self.get(id)?;
        let state = sweep.state.lock().unwrap();
        match &*state {
            Terminal::Done { results, .. } => Ok(results.clone()),
            Terminal::Cancelled => Err(Error::Cancelled { id }),
            Terminal::Failed { message } => Err(Error::RequestFailed {
                id,
                message: message.clone(),
            }),
            Terminal::Pending => Err(Error::RequestFailed {
                id,
                message: "request has no results yet (not terminal)".to_string(),
            }),
        }
    }

    /// Hit/miss/size counters of the shared cache, if one is attached.
    /// Counters accumulate across every request this service served.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache.as_ref().map(|c| c.lock().unwrap().stats())
    }

    /// Wall-clocks measured by this service's own jobs, keyed like the
    /// prior table — the `--costs-out` table. Cache hits never contribute:
    /// a hit costs microseconds, and folding it in would drag the LPT prior
    /// for that point shape toward zero.
    pub fn observed_costs(&self) -> CostTable {
        self.inner.observed.lock().unwrap().clone()
    }

    /// Stop accepting work and join the pool. In-flight and pending jobs
    /// are drained first (cancel requests beforehand for a fast exit).
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.inner.park.0.lock().unwrap();
            self.inner.park.1.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown_impl();
        }
    }
}

/// The persistent pool thread: the canonical crossbeam find-task loop
/// (local deque, then an injector batch, then sibling stealing), parking
/// on the service condvar when everything is dry.
fn worker_loop(inner: &Inner, local: Worker<PoolJob>, stealers: &[Stealer<PoolJob>]) {
    loop {
        let find_task = || {
            local.pop().or_else(|| {
                std::iter::repeat_with(|| {
                    inner
                        .injector
                        .steal_batch_and_pop(&local)
                        .or_else(|| stealers.iter().map(Stealer::steal).collect())
                })
                .find(|s: &Steal<PoolJob>| !s.is_retry())
                .and_then(Steal::success)
            })
        };
        match find_task() {
            Some(PoolJob { sweep, job }) => run_job(inner, &sweep, job),
            None => {
                let guard = inner.park.0.lock().unwrap();
                // Re-check under the lock: a pusher notifies holding it,
                // so work pushed since find_task can't slip past us.
                if !inner.injector.is_empty() {
                    continue;
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Park until a submit/refill wakes us.
                drop(inner.park.1.wait(guard).unwrap());
            }
        }
    }
}

/// Execute (or, when cancelled, skip) one job, refill the request's
/// window, and finalize if this was the sweep's last outstanding job.
fn run_job(inner: &Inner, sweep: &Arc<ActiveSweep>, job: Job) {
    if !sweep.cancelled.load(Ordering::Acquire) {
        sweep.started.fetch_add(1, Ordering::Relaxed);
        let scenario = inner
            .registry
            .get(&sweep.names[job.task])
            .expect("validated scenario vanished from the registry");
        let params = &sweep.points[job.task][job.point];
        let seed = sweep.seeds[job.seed_idx];
        let started = Instant::now();
        // A panicking scenario fails its request, never the pool.
        // AssertUnwindSafe is sound because a failed request discards all
        // of its results (no broken invariant is ever read).
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut sim = Simulation::new(seed);
            scenario.run(&mut sim, params)
        }));
        match outcome {
            Ok(metrics) => {
                let elapsed = started.elapsed().as_secs_f64();
                inner
                    .observed
                    .lock()
                    .unwrap()
                    .record(&CostTable::key(scenario.name(), params), elapsed);
                let writer = sweep.writer.lock().unwrap();
                if let Some(writer) = writer.as_ref() {
                    let key = sweep.keys[job.slot].expect("every pool job missed the cache");
                    if let Err(e) = writer.append(&key, scenario.name(), elapsed, &metrics) {
                        sweep.failures.lock().unwrap().push(JobFailure {
                            scenario: scenario.name().to_string(),
                            point: params.label(),
                            seed,
                            message: format!("cache write failed: {e}"),
                        });
                    }
                }
                drop(writer);
                // SAFETY: the deque delivered this job to exactly this
                // worker, `job.slot` is unique per job, and the AcqRel
                // fetch_sub below releases this write to the finalizer.
                unsafe { sweep.slots.put(job.slot, metrics) };
            }
            Err(payload) => sweep.failures.lock().unwrap().push(JobFailure {
                scenario: scenario.name().to_string(),
                point: params.label(),
                seed,
                message: panic_message(payload.as_ref()),
            }),
        }
    }

    // Refill the window: this request may put its next pending job at the
    // injector's tail — behind anything other requests queued meanwhile,
    // which is exactly the interleaving fairness we want.
    let next = sweep.pending.lock().unwrap().pop_front();
    if let Some(next_job) = next {
        inner.inject(PoolJob {
            sweep: Arc::clone(sweep),
            job: next_job,
        });
    }

    if sweep.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        finalize(inner, sweep);
    }
}

/// Turn a fully-drained sweep into its terminal state: aggregate and
/// render on success, report failures verbatim, commit the WAL segment.
/// Called exactly once per request — by the last decrementer of
/// `remaining` (a worker, the canceller, or the submit thread for all-hit
/// requests).
///
/// Every non-`Done` outcome leaves the WAL segment uncommitted: whatever
/// misses did complete stay on disk and are recovered at the next cache
/// open.
fn finalize(inner: &Inner, sweep: &ActiveSweep) {
    let failures = std::mem::take(&mut *sweep.failures.lock().unwrap());
    let terminal = if sweep.cancelled.load(Ordering::Acquire) {
        Terminal::Cancelled
    } else if !failures.is_empty() {
        Terminal::Failed {
            message: failure_message(failures),
        }
    } else {
        // Aggregation and rendering run on a pool (or submit) thread, so a
        // panic here — a NaN metric reaching the percentile sort, say —
        // must fail this request rather than kill the thread and leave the
        // request pending forever.
        let rendered = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: remaining hit zero and we are its observer — every
            // slot write (workers' puts via the AcqRel release sequence,
            // submit-time hit puts via the injector push/steal chain or,
            // for all-hit sweeps, program order) happens-before this drain.
            let slot_values = unsafe { sweep.slots.take_vec() };
            let names: Vec<&str> = sweep.names.iter().map(String::as_str).collect();
            let suite = SweepSuite {
                seeds: sweep.seeds.clone(),
                results: aggregate_results(&names, sweep.points.clone(), &sweep.seeds, slot_values),
            };
            (suite.artifact_json(), suite.results)
        }));
        match rendered {
            Err(payload) => Terminal::Failed {
                message: format!(
                    "aggregating results panicked: {}",
                    panic_message(payload.as_ref())
                ),
            },
            Ok((artifact, results)) => match (&inner.cache, sweep.writer.lock().unwrap().take()) {
                (Some(cache), Some(writer)) => match cache.lock().unwrap().commit(vec![writer]) {
                    Ok(()) => Terminal::Done { artifact, results },
                    // A cache that can't commit is a real failure (a warm
                    // CI run silently degrading to 0% hits must not pass),
                    // but it must fail the request, not the pool thread.
                    Err(e) => Terminal::Failed {
                        message: format!("sweep cache commit failed: {e}"),
                    },
                },
                _ => Terminal::Done { artifact, results },
            },
        }
    };

    // Leave the dedup map before publishing: a waiter woken below may
    // resubmit the same request at once, and it must start fresh work
    // rather than coalesce onto this finished one.
    inner.dedup.lock().unwrap().remove(&sweep.dedup_key);
    *sweep.state.lock().unwrap() = terminal;
    sweep.done_cond.notify_all();
}
