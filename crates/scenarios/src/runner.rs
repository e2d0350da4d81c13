//! The sweep job space: what a request expands to, and how finished jobs
//! fold back into results.
//!
//! A sweep is the cartesian product of each scenario's grid points
//! ([`SweepGrid`](crate::params::SweepGrid)) and a seed list. Expansion
//! numbers every `(scenario, point, seed)` job with a result slot in
//! task-major, point-major, seed-minor order; the
//! [`Service`](crate::service::Service) worker pool then runs the jobs in
//! whatever order its [`JobOrder`] and run queue produce.
//! Each job writes its [`Metrics`] into its own slot of a write-once
//! buffer, and aggregation walks the slots in order, so the merged
//! statistics — and the rendered artifact — never depend on which worker
//! ran what, or when.
//!
//! Jobs are pure functions of `(params, seed)`: each one builds its own
//! [`des::Simulation`], so a pool of any width is bit-identical to a
//! serial (`threads = 1`, [`JobOrder::Input`]) run, and a cached result is
//! indistinguishable from a live one.

use crate::metrics::{summarize, MetricSummary, Metrics};
use crate::params::Params;
use serde::Serialize;
use std::cell::UnsafeCell;
use std::fmt::Write;

/// All runs of one parameter point: the per-seed metrics plus aggregates.
#[derive(Debug, Clone, Serialize)]
pub struct PointResult {
    pub params: Params,
    /// `(seed, metrics)` in seed order — independent of worker scheduling.
    pub per_seed: Vec<(u64, Metrics)>,
    pub summary: Vec<(String, MetricSummary)>,
}

/// The outcome of sweeping one scenario.
#[derive(Debug, Clone, Serialize)]
pub struct SweepResult {
    pub scenario: String,
    pub seeds: Vec<u64>,
    pub points: Vec<PointResult>,
}

/// A whole-suite run (`scenarios run --all`), the JSON artifact schema.
/// Deliberately excludes run-environment details like the thread count:
/// the artifact is bit-identical for a given seed list however it was
/// parallelised, so two runs can be compared with `cmp`.
#[derive(Debug, Clone, Serialize)]
pub struct SweepSuite {
    pub seeds: Vec<u64>,
    pub results: Vec<SweepResult>,
}

impl SweepSuite {
    /// The canonical artifact rendering — exactly the bytes `scenarios run
    /// --json` writes. The what-if service ships this text verbatim over
    /// the wire (never a re-serialization on the client side), which is
    /// what makes server- and CLI-written artifacts byte-identical.
    pub fn artifact_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("value-tree rendering is infallible")
    }
}

/// How the service orders a request's jobs before injecting them into the
/// pool. Never observable in the results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobOrder {
    /// Longest-expected-first by [`CostTable`](crate::cost::CostTable)
    /// estimate (LPT scheduling); ties broken by input position so the
    /// order is fully deterministic.
    #[default]
    Cost,
    /// The natural input order: task-major, point-major, seed-minor.
    Input,
}

impl JobOrder {
    /// Parse a CLI spelling: `cost` or `input`.
    pub fn parse(s: &str) -> Result<JobOrder, String> {
        match s {
            "cost" => Ok(JobOrder::Cost),
            "input" => Ok(JobOrder::Input),
            other => Err(format!("unknown job order `{other}` (try cost|input)")),
        }
    }
}

/// One failed `(scenario, point, seed)` job.
#[derive(Debug, Clone)]
pub(crate) struct JobFailure {
    pub(crate) scenario: String,
    pub(crate) point: String,
    pub(crate) seed: u64,
    pub(crate) message: String,
}

/// A failed request's message: the count, then one line per failed job in
/// `(scenario, point, seed)` order however the pool interleaved them, so
/// the offending job can be replayed directly. The surviving results are
/// discarded — partial artifacts would silently skew aggregates.
pub(crate) fn failure_message(mut failures: Vec<JobFailure>) -> String {
    failures.sort_by(|a, b| (&a.scenario, &a.point, a.seed).cmp(&(&b.scenario, &b.point, b.seed)));
    let mut text = format!("{} sweep job(s) panicked:\n", failures.len());
    for j in &failures {
        let _ = writeln!(
            text,
            "  - scenario `{}` point `{}` seed {}: {}",
            j.scenario, j.point, j.seed, j.message
        );
    }
    text
}

/// Slot-indexed, write-once result storage shared by the worker pool.
///
/// Each job id owns exactly one slot, and the run queue hands each job to
/// exactly one worker, so writes are disjoint by construction. That
/// invariant is what lets results land without a mutex per slot — and
/// what keeps the output independent of who executed what.
pub(crate) struct SlotBuffer<T> {
    slots: Vec<UnsafeCell<Option<T>>>,
}

// SAFETY: the only shared-reference access to `slots` is `put` and
// `take_vec`, whose contracts give each slot one writer and order every
// write before the single drain; values written on one thread are taken on
// another, hence `T: Send`.
unsafe impl<T: Send> Sync for SlotBuffer<T> {}

impl<T> SlotBuffer<T> {
    pub(crate) fn new(n: usize) -> SlotBuffer<T> {
        SlotBuffer {
            slots: (0..n).map(|_| UnsafeCell::new(None)).collect(),
        }
    }

    /// # Safety
    /// At most one thread may ever call this per index, and every call
    /// must happen-before [`SlotBuffer::take_vec`] (an acquire of a release
    /// made after the write).
    pub(crate) unsafe fn put(&self, index: usize, value: T) {
        *self.slots[index].get() = Some(value);
    }

    /// Drain every slot through a shared reference: the buffer lives inside
    /// the request's `Arc`, which the pool's jobs still hold.
    ///
    /// # Safety
    /// Exactly one thread may call this, exactly once, and every
    /// [`SlotBuffer::put`] must happen-before it (the service guarantees
    /// this via the acquire side of its last-job `remaining` decrement: a
    /// worker's `AcqRel` `fetch_sub` to 1 synchronizes with every earlier
    /// release in the per-sweep release sequence, so all slot writes are
    /// visible to the finalizer).
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn take_vec(&self) -> Vec<Option<T>> {
        self.slots.iter().map(|c| (*c.get()).take()).collect()
    }
}

/// One `(task, point, seed)` unit of work; `slot` is its global result index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Job {
    pub(crate) slot: usize,
    pub(crate) task: usize,
    pub(crate) point: usize,
    pub(crate) seed_idx: usize,
}

/// Expand per-task point lists × seeds into jobs with consecutive global
/// slots in task-major, point-major, seed-minor order — the layout that
/// aggregation (and therefore the artifact) follows whatever the run order.
pub(crate) fn expand_jobs(points: &[Vec<Params>], n_seeds: usize) -> Vec<Job> {
    let mut jobs: Vec<Job> = Vec::new();
    for (task, task_points) in points.iter().enumerate() {
        for point in 0..task_points.len() {
            for seed_idx in 0..n_seeds {
                jobs.push(Job {
                    slot: jobs.len(),
                    task,
                    point,
                    seed_idx,
                });
            }
        }
    }
    jobs
}

/// Longest-expected-first (LPT) order, ties broken by slot so the order is
/// fully deterministic. `estimates[task][point]` is the expected seconds.
pub(crate) fn sort_jobs_lpt(jobs: &mut [Job], estimates: &[Vec<f64>]) {
    jobs.sort_by(|a, b| {
        estimates[b.task][b.point]
            .total_cmp(&estimates[a.task][a.point])
            .then(a.slot.cmp(&b.slot))
    });
}

/// Fold slot-ordered metrics back into per-scenario results: task, point,
/// seed — the injection/execution order never shows up here.
pub(crate) fn aggregate_results(
    names: &[&str],
    points: Vec<Vec<Params>>,
    seeds: &[u64],
    slot_values: Vec<Option<Metrics>>,
) -> Vec<SweepResult> {
    let mut slot_values = slot_values.into_iter();
    let mut results = Vec::with_capacity(names.len());
    for (name, task_points) in names.iter().zip(points) {
        let point_results = task_points
            .into_iter()
            .map(|params| {
                let per_seed: Vec<(u64, Metrics)> = seeds
                    .iter()
                    .map(|&seed| {
                        let m = slot_values
                            .next()
                            .flatten()
                            .expect("every non-failed job filled its slot");
                        (seed, m)
                    })
                    .collect();
                let summary =
                    summarize(&per_seed.iter().map(|(_, m)| m.clone()).collect::<Vec<_>>());
                PointResult {
                    params,
                    per_seed,
                    summary,
                }
            })
            .collect();
        results.push(SweepResult {
            scenario: name.to_string(),
            seeds: seeds.to_vec(),
            points: point_results,
        });
    }
    results
}

/// Best-effort text of a panic payload (panics carry `&str` or `String`
/// unless thrown with `panic_any`).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl SweepResult {
    /// Bit-exact equality of every per-(point, seed) metric — what the
    /// determinism property compares between serial and parallel runs.
    pub fn bits_eq(&self, other: &SweepResult) -> bool {
        self.scenario == other.scenario
            && self.seeds == other.seeds
            && self.points.len() == other.points.len()
            && self.points.iter().zip(&other.points).all(|(a, b)| {
                a.params == b.params
                    && a.per_seed.len() == b.per_seed.len()
                    && a.per_seed
                        .iter()
                        .zip(&b.per_seed)
                        .all(|((sa, ma), (sb, mb))| sa == sb && ma.bits_eq(mb))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostTable;
    use crate::registry::Registry;
    use crate::request::{SweepRequest, SweepStatus};
    use crate::service::{Service, ServiceConfig};
    use crate::Scenario;
    use des::Simulation;

    /// A scenario whose metrics encode (param, seed) so slot routing bugs
    /// would be visible immediately.
    struct Probe;

    impl Scenario for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn title(&self) -> &'static str {
            "routing probe"
        }
        fn default_params(&self) -> Params {
            Params::new().with("k", 1u64)
        }
        fn run(&self, sim: &mut Simulation, params: &Params) -> Metrics {
            let mut m = Metrics::new();
            m.push("k", params.f64("k", 0.0));
            m.push("seed", sim.seed() as f64);
            m.push("draw", sim.stream("probe").f64());
            m
        }
    }

    fn registry(scenario: impl Scenario + 'static) -> Registry {
        let mut registry = Registry::new();
        registry.register(Box::new(scenario));
        registry
    }

    /// Run one request to completion on a fresh service: its per-scenario
    /// results, or its failure message.
    fn sweep(
        registry: Registry,
        config: ServiceConfig,
        request: &SweepRequest,
    ) -> Result<Vec<SweepResult>, String> {
        let service = Service::start(registry, config).expect("service starts");
        let id = service.submit(request).expect("valid request").id;
        match service.wait(id).expect("known id").status {
            SweepStatus::Done => Ok(service.results(id).expect("done request has results")),
            SweepStatus::Failed { message } => Err(message),
            other => panic!("unexpected terminal status {other}"),
        }
    }

    fn threads(n: usize) -> ServiceConfig {
        ServiceConfig::new().with_threads(n)
    }

    /// The serial reference: one worker, natural job order.
    fn serial(registry: Registry, request: &SweepRequest) -> Vec<SweepResult> {
        let request = request.clone().with_order(JobOrder::Input);
        sweep(registry, threads(1), &request).expect("serial sweep succeeds")
    }

    fn bits_eq(a: &[SweepResult], b: &[SweepResult]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bits_eq(y))
    }

    #[test]
    fn slot_buffer_disjoint_writes_from_threads_then_take_vec() {
        // The SlotBuffer safety contract, reduced to its essentials so Miri
        // can interpret it directly (the full sweep tests are too heavy):
        // writers publish with a release fetch_sub, the last decrementer
        // acquires and drains through &self — exactly the service's
        // finalization protocol.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let buf = SlotBuffer::<usize>::new(16);
        let remaining = AtomicUsize::new(16);
        let drained = std::sync::Mutex::new(None);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let buf = &buf;
                let remaining = &remaining;
                let drained = &drained;
                scope.spawn(move || {
                    for i in (t..16).step_by(4) {
                        // SAFETY: index i is written only by thread t
                        // (i ≡ t mod 4); the AcqRel fetch_sub below
                        // releases the write, and the thread observing the
                        // count hit zero acquires every prior decrement.
                        unsafe { buf.put(i, i * 10) };
                        if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                            // SAFETY: last decrement — every put
                            // happens-before this take_vec.
                            *drained.lock().unwrap() = Some(unsafe { buf.take_vec() });
                        }
                    }
                });
            }
        });
        let got = drained.lock().unwrap().take().expect("one thread drained");
        for (i, v) in got.into_iter().enumerate() {
            assert_eq!(v, Some(i * 10));
        }
    }

    #[test]
    fn jobs_land_in_their_slots() {
        let request = SweepRequest::new()
            .scenario("probe")
            .axis("k", vec![10u64, 20, 30])
            .with_seeds(2);
        let result = sweep(registry(Probe), threads(3), &request).expect("sweep succeeds");
        let points = &result[0].points;
        assert_eq!(points.len(), 3);
        for (pi, point) in points.iter().enumerate() {
            assert_eq!(point.params.u64("k", 0), 10 * (pi as u64 + 1));
            assert_eq!(point.per_seed.len(), 2);
            for ((seed, m), expect) in point.per_seed.iter().zip([42u64, 43]) {
                assert_eq!(*seed, expect);
                assert_eq!(m.get("seed"), Some(expect as f64));
                assert_eq!(m.get("k"), Some(point.params.f64("k", 0.0)));
            }
        }
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let request = SweepRequest::new()
            .scenario("probe")
            .axis("k", vec![1u64, 2, 3, 4, 5])
            .with_seeds(3);
        let serial = serial(registry(Probe), &request);
        let parallel = sweep(registry(Probe), threads(4), &request).expect("sweep succeeds");
        assert!(bits_eq(&serial, &parallel));
    }

    #[test]
    fn job_order_cannot_influence_results() {
        let request = SweepRequest::new()
            .scenario("probe")
            .axis("k", vec![1u64, 2, 3, 4])
            .with_seeds(2);
        let mut prior = CostTable::new();
        // A deliberately *wrong* prior (claims k=1 is the longest job):
        // ordering may be misled, results must not be.
        prior.record("probe|k=1", 100.0);
        prior.record("probe|k=4", 0.001);
        let cost = sweep(registry(Probe), threads(3).with_cost_table(prior), &request)
            .expect("cost-ordered sweep succeeds");
        let input = sweep(
            registry(Probe),
            threads(3),
            &request.clone().with_order(JobOrder::Input),
        )
        .expect("input-ordered sweep succeeds");
        assert!(bits_eq(&cost, &input));
    }

    #[test]
    fn run_suite_matches_individual_runs() {
        struct Probe2;
        impl Scenario for Probe2 {
            fn name(&self) -> &'static str {
                "probe2"
            }
            fn title(&self) -> &'static str {
                "second probe"
            }
            fn default_params(&self) -> Params {
                Params::new().with("j", 5u64)
            }
            fn run(&self, sim: &mut Simulation, params: &Params) -> Metrics {
                let mut m = Metrics::new();
                m.push("j", params.f64("j", 0.0));
                m.push("draw", sim.stream("probe2").f64());
                m
            }
        }
        let both = || {
            let mut registry = registry(Probe);
            registry.register(Box::new(Probe2));
            registry
        };
        let suite_request = SweepRequest::new()
            .scenario("probe")
            .scenario("probe2")
            .axis("k", vec![1u64, 2])
            .lenient()
            .with_seeds(2);
        let suite = sweep(both(), threads(4), &suite_request).expect("suite succeeds");
        assert_eq!(suite.len(), 2);
        let solo1 = serial(
            both(),
            &SweepRequest::new()
                .scenario("probe")
                .axis("k", vec![1u64, 2])
                .with_seeds(2),
        );
        let solo2 = serial(
            both(),
            &SweepRequest::new().scenario("probe2").with_seeds(2),
        );
        assert!(
            suite[0].bits_eq(&solo1[0]),
            "suite result order is task order"
        );
        assert!(suite[1].bits_eq(&solo2[0]));
    }

    #[test]
    fn summaries_cover_all_seeds() {
        let request = SweepRequest::new().scenario("probe").with_seeds(4);
        let result = sweep(registry(Probe), threads(2), &request).expect("sweep succeeds");
        let (_, draw) = result[0].points[0]
            .summary
            .iter()
            .find(|(n, _)| n == "draw")
            .expect("draw metric");
        assert_eq!(draw.n, 4);
        assert!(draw.min >= 0.0 && draw.max < 1.0);
    }

    #[test]
    fn default_seed_sequence_starts_at_report_seed() {
        for (n, expect) in [(3, vec![42, 43, 44]), (1, vec![42])] {
            let request = SweepRequest::new().scenario("probe").with_seeds(n);
            let result = sweep(registry(Probe), threads(2), &request).expect("sweep succeeds");
            assert_eq!(result[0].seeds, expect);
            let ran: Vec<u64> = result[0].points[0]
                .per_seed
                .iter()
                .map(|(s, _)| *s)
                .collect();
            assert_eq!(ran, expect, "every seed ran, in seed order");
        }
    }

    #[test]
    fn observed_costs_accumulate_per_point_shape() {
        let service = Service::start(registry(Probe), threads(2)).expect("service starts");
        let request = SweepRequest::new()
            .scenario("probe")
            .axis("k", vec![1u64, 2])
            .with_seeds(3);
        let id = service.submit(&request).expect("valid request").id;
        service.wait(id).expect("known id");
        let observed = service.observed_costs();
        for key in ["probe|k=1", "probe|k=2"] {
            let mean = observed.mean_secs(key).expect("key measured");
            assert!(mean >= 0.0 && mean.is_finite(), "{key}: {mean}");
        }
    }

    /// A scenario that panics on one specific (point, seed) pair.
    struct Grenade;

    impl Scenario for Grenade {
        fn name(&self) -> &'static str {
            "grenade"
        }
        fn title(&self) -> &'static str {
            "panics on k=2, seed 43"
        }
        fn default_params(&self) -> Params {
            Params::new().with("k", 1u64)
        }
        fn run(&self, sim: &mut Simulation, params: &Params) -> Metrics {
            assert!(
                !(params.u64("k", 0) == 2 && sim.seed() == 43),
                "simulated scenario bug"
            );
            Metrics::new()
        }
    }

    #[test]
    fn panicking_job_reports_its_identity() {
        let request = SweepRequest::new()
            .scenario("grenade")
            .axis("k", vec![1u64, 2, 3])
            .with_seeds(2);
        for n in [1, 4] {
            let message =
                sweep(registry(Grenade), threads(n), &request).expect_err("k=2/seed=43 panics");
            assert!(
                message.starts_with("1 sweep job(s) panicked:"),
                "threads={n}: {message}"
            );
            assert!(
                message.contains("scenario `grenade` point `k=2` seed 43: simulated scenario bug"),
                "threads={n}: {message}"
            );
        }
    }

    #[test]
    fn surviving_jobs_do_not_mask_the_failure() {
        // Every other job completes; the one grenade must still fail the
        // sweep (partial artifacts would silently skew aggregates) and the
        // message must name exactly the failing job.
        let request = SweepRequest::new()
            .scenario("grenade")
            .axis("k", vec![2u64])
            .with_seeds(3);
        let message = sweep(registry(Grenade), threads(2), &request).expect_err("seed 43 panics");
        assert!(message.starts_with("1 sweep job(s) panicked:"), "{message}");
        assert!(message.contains("seed 43"), "{message}");
        assert!(
            !message.contains("seed 42") && !message.contains("seed 44"),
            "{message}"
        );
    }
}
