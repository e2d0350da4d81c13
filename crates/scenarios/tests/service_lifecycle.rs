//! In-process contract of the what-if sweep service: artifacts bit-identical
//! to a serial input-order run, warm re-submits served entirely from the
//! cache without touching the pool, identical in-flight requests coalesced
//! onto one id (and never onto a finished one), cancellation dropping
//! pending work promptly, failures — in a job or in aggregation — ending
//! the request rather than hanging it, and — the head-of-line guarantee —
//! a short request completing while a long one is still running on a
//! saturated pool, with jobs of concurrent requests run in FIFO
//! interleaving.

use scenarios::service::{Service, ServiceConfig};
use scenarios::{
    JobOrder, Metrics, ParamValue, Params, Registry, Scenario, SweepRequest, SweepResponse,
    SweepStatus,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Fresh per-test cache directory under cargo's integration-test tmpdir.
fn cache_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "service-cache-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A scenario that burns a configurable wall-clock per job — the knob the
/// interleaving and cancellation tests turn.
struct Sleepy {
    name: &'static str,
    millis: u64,
}

impl Scenario for Sleepy {
    fn name(&self) -> &'static str {
        self.name
    }
    fn title(&self) -> &'static str {
        "sleeps then reports"
    }
    fn default_params(&self) -> Params {
        Params::new().with("k", 1u64)
    }
    fn run(&self, sim: &mut des::Simulation, params: &Params) -> Metrics {
        std::thread::sleep(Duration::from_millis(self.millis));
        let mut m = Metrics::new();
        m.push("k", params.u64("k", 1) as f64);
        m.push("draw", sim.stream("draw").f64());
        m
    }
}

fn sleepy_registry() -> Registry {
    let mut registry = Registry::new();
    registry.register(Box::new(Sleepy {
        name: "slow",
        millis: 25,
    }));
    registry.register(Box::new(Sleepy {
        name: "fast",
        millis: 1,
    }));
    registry
}

#[test]
fn service_artifact_is_bit_identical_to_runner() {
    let request = SweepRequest::new()
        .scenario("tab03_idle_node")
        .scenario("fig07_latency")
        .axis(
            "reps",
            vec![ParamValue::parse("40"), ParamValue::parse("80")],
        )
        .lenient()
        .with_seeds(2);

    // The reference: one worker, natural job order.
    let direct = {
        let service = Service::start(Registry::standard(), ServiceConfig::new().with_threads(1))
            .expect("serial service starts");
        let id = service
            .submit(&request.clone().with_order(JobOrder::Input))
            .expect("serial submit succeeds")
            .id;
        let response = service.wait(id).expect("serial wait succeeds");
        assert!(matches!(response.status, SweepStatus::Done));
        response.artifact.expect("done response carries artifact")
    };

    // Service path: submit, wait, take the server-rendered artifact.
    let service = Service::start(Registry::standard(), ServiceConfig::new().with_threads(3))
        .expect("service starts");
    let submission = service.submit(&request).expect("submit succeeds");
    let response = service.wait(submission.id).expect("wait succeeds");
    assert!(matches!(response.status, SweepStatus::Done));
    let served = response.artifact.expect("done response carries artifact");

    assert_eq!(
        served, direct,
        "service artifact bytes diverged from the serial input-order run"
    );
}

#[test]
fn warm_resubmit_is_all_hits_and_finalizes_inline() {
    let dir = cache_dir("warm");
    let request = SweepRequest::new().scenario("fast").with_seeds(2);

    let cold_artifact = {
        let service = Service::start(
            sleepy_registry(),
            ServiceConfig::new().with_threads(2).with_cache_dir(&dir),
        )
        .expect("cold service starts");
        let submission = service.submit(&request).expect("cold submit");
        assert_eq!(submission.cache_hits, 0, "cold submit must miss");
        let response = service.wait(submission.id).expect("cold wait");
        assert!(matches!(response.status, SweepStatus::Done));
        response.artifact.expect("artifact")
    };

    // A fresh service over the same cache dir: the re-submit must be
    // answered entirely from the cache — Done before wait is ever called,
    // zero pool jobs, identical bytes.
    let service = Service::start(
        sleepy_registry(),
        ServiceConfig::new().with_threads(2).with_cache_dir(&dir),
    )
    .expect("warm service starts");
    let submission = service.submit(&request).expect("warm submit");
    assert_eq!(
        submission.cache_hits, submission.total_jobs,
        "warm submit must be 100% cache-served"
    );
    assert!(
        matches!(submission.status, SweepStatus::Done),
        "all-hit request must come back already terminal, got {}",
        submission.status
    );
    let stats = service.cache_stats().expect("cache attached");
    assert_eq!(stats.misses, 0, "warm service saw a miss");
    let response = service.wait(submission.id).expect("warm wait");
    assert_eq!(
        response.artifact.expect("artifact"),
        cold_artifact,
        "cache-served artifact bytes diverged from the live run"
    );
}

#[test]
fn identical_inflight_requests_coalesce_onto_one_id() {
    let service = Service::start(sleepy_registry(), ServiceConfig::new().with_threads(1))
        .expect("service starts");
    let request = SweepRequest::new()
        .scenario("slow")
        .axis(
            "k",
            vec![
                ParamValue::parse("1"),
                ParamValue::parse("2"),
                ParamValue::parse("3"),
            ],
        )
        .with_seeds(2);

    let first = service.submit(&request).expect("first submit");
    assert!(!first.deduped);
    let second = service.submit(&request).expect("second submit");
    assert!(second.deduped, "identical in-flight request must coalesce");
    assert_eq!(second.id, first.id);

    // A *different* request must not coalesce.
    let other = service
        .submit(&SweepRequest::new().scenario("fast"))
        .expect("different submit");
    assert_ne!(other.id, first.id);

    let done = service.wait(first.id).expect("wait");
    assert!(matches!(done.status, SweepStatus::Done));

    // Once terminal, the same request text is live again: a re-submit
    // gets a fresh id (and, with no cache attached, fresh work).
    let third = service.submit(&request).expect("post-terminal submit");
    assert!(!third.deduped, "terminal requests must not dedup");
    assert_ne!(third.id, first.id);
    service.wait(third.id).expect("wait third");
}

#[test]
fn cancel_drops_pending_work_promptly() {
    let service = Service::start(sleepy_registry(), ServiceConfig::new().with_threads(1))
        .expect("service starts");
    // 8 points × 2 seeds × 25ms on one thread ≈ 400ms if run to the end.
    let request = SweepRequest::new()
        .scenario("slow")
        .axis(
            "k",
            (1..=8).map(ParamValue::U64).collect::<Vec<ParamValue>>(),
        )
        .with_seeds(2);

    let submission = service.submit(&request).expect("submit");
    let cancelled = service.cancel(submission.id).expect("cancel");
    assert!(
        matches!(
            cancelled.status,
            SweepStatus::Cancelled | SweepStatus::Queued | SweepStatus::Running { .. }
        ),
        "unexpected post-cancel status {}",
        cancelled.status
    );
    let response = service.wait(submission.id).expect("wait");
    assert!(
        matches!(response.status, SweepStatus::Cancelled),
        "cancelled request must terminate as cancelled, got {}",
        response.status
    );
    assert!(
        response.artifact.is_none(),
        "cancelled sweep has no artifact"
    );
    assert!(
        service
            .list()
            .iter()
            .any(|r| r.id == submission.id && matches!(r.status, SweepStatus::Cancelled)),
        "list must show the cancelled request"
    );
}

/// The interleaving guarantee from the issue: with every worker busy on a
/// long sweep, a short request submitted behind it still completes while
/// the long one is running — the per-request window keeps the long sweep
/// from owning the queue.
#[test]
fn short_request_completes_while_long_request_still_runs() {
    let service = Service::start(sleepy_registry(), ServiceConfig::new().with_threads(2))
        .expect("service starts");

    // 20 points × 2 seeds × 25ms / 2 threads ≈ 500ms of long work.
    let long = service
        .submit(
            &SweepRequest::new()
                .scenario("slow")
                .axis(
                    "k",
                    (1..=20).map(ParamValue::U64).collect::<Vec<ParamValue>>(),
                )
                .with_seeds(2),
        )
        .expect("long submit");
    // Let the pool actually occupy both workers with long jobs.
    std::thread::sleep(Duration::from_millis(10));

    let short = service
        .submit(&SweepRequest::new().scenario("fast").with_seeds(2))
        .expect("short submit");
    let response = service.wait(short.id).expect("short wait");
    assert!(
        matches!(response.status, SweepStatus::Done),
        "short request failed: {}",
        response.status
    );

    let long_status = service.status(long.id).expect("long status");
    assert!(
        !long_status.status.is_terminal(),
        "long request already {} — the interleaving claim is untestable; \
         speed up the short request or lengthen the long one",
        long_status.status
    );
    service.cancel(long.id).expect("cancel long");
    service.wait(long.id).expect("drain long");
}

/// A scenario that waits for a shared gate to open, then appends its name
/// to a shared execution log.
struct Recording {
    name: &'static str,
    log: Arc<Mutex<Vec<&'static str>>>,
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl Scenario for Recording {
    fn name(&self) -> &'static str {
        self.name
    }
    fn title(&self) -> &'static str {
        "records its execution order"
    }
    fn run(&self, _sim: &mut des::Simulation, _params: &Params) -> Metrics {
        let (open, cond) = &*self.gate;
        let (_open, wait) = cond
            .wait_timeout_while(open.lock().unwrap(), Duration::from_secs(10), |open| !*open)
            .unwrap();
        assert!(!wait.timed_out(), "the test never opened the gate");
        self.log.lock().unwrap().push(self.name);
        let mut m = Metrics::new();
        m.push("ran", 1.0);
        m
    }
}

/// The FIFO contract, checked by order rather than timing: on one worker
/// each request keeps one job queued, and a completion refills at the run
/// queue's tail, so two requests alternate job by job.
#[test]
fn requests_interleave_job_by_job_on_one_worker() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let mut registry = Registry::new();
    for name in ["a", "b"] {
        registry.register(Box::new(Recording {
            name,
            log: Arc::clone(&log),
            gate: Arc::clone(&gate),
        }));
    }
    let service =
        Service::start(registry, ServiceConfig::new().with_threads(1)).expect("service starts");

    // A's first job holds the one worker at the gate (or waits in the
    // queue), so B is queued before any job of A completes.
    let a = service
        .submit(&SweepRequest::new().scenario("a").with_seeds(4))
        .expect("submit a");
    let b = service
        .submit(&SweepRequest::new().scenario("b").with_seeds(4))
        .expect("submit b");
    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();

    for id in [a.id, b.id] {
        let response = service.wait(id).expect("wait");
        assert!(
            matches!(response.status, SweepStatus::Done),
            "request {id} ended {}",
            response.status
        );
    }
    assert_eq!(
        *log.lock().unwrap(),
        ["a", "b", "a", "b", "a", "b", "a", "b"]
    );
    let listed: Vec<u64> = service.list().iter().map(|r| r.id).collect();
    assert_eq!(listed, [a.id, b.id], "list must follow submission order");
}

#[test]
fn unknown_request_id_is_a_structured_error() {
    let service = Service::start(sleepy_registry(), ServiceConfig::new().with_threads(1))
        .expect("service starts");
    let err = service.status(999).expect_err("unknown id must error");
    assert!(
        err.to_string().contains("999"),
        "error must name the offending id: {err}"
    );
    assert!(service.cancel(999).is_err());
    assert!(service.wait(999).is_err());
}

#[test]
fn failed_jobs_surface_in_the_terminal_status() {
    struct Panics;
    impl Scenario for Panics {
        fn name(&self) -> &'static str {
            "panics"
        }
        fn title(&self) -> &'static str {
            "always panics"
        }
        fn run(&self, _sim: &mut des::Simulation, _params: &Params) -> Metrics {
            panic!("scripted failure");
        }
    }
    let mut registry = Registry::new();
    registry.register(Box::new(Panics));
    let service =
        Service::start(registry, ServiceConfig::new().with_threads(2)).expect("service starts");
    let submission = service
        .submit(&SweepRequest::new().scenario("panics").with_seeds(2))
        .expect("submit");
    let response = service.wait(submission.id).expect("wait");
    match response.status {
        SweepStatus::Failed { message } => {
            assert!(
                message.contains("scripted failure"),
                "failure message must carry the panic payload: {message}"
            );
        }
        other => panic!("expected failed status, got {other}"),
    }
}

/// Poll `id` until it is terminal, failing the test — instead of hanging
/// it — if that takes longer than `limit`.
fn wait_within(service: &Service, id: u64, limit: Duration) -> SweepResponse {
    let deadline = Instant::now() + limit;
    loop {
        let response = service.status(id).expect("known id");
        if response.status.is_terminal() {
            return response;
        }
        assert!(
            Instant::now() < deadline,
            "request {id} still {} after {limit:?}",
            response.status
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A fig01 horizon too short to sample utilization yields NaN metrics,
/// which panic in the percentile sort while the request is aggregated —
/// after every job has finished, outside the per-job panic isolation. The
/// request must end `Failed` with the cause instead of staying `running`.
#[test]
fn nan_metric_request_fails_instead_of_hanging() {
    let service = Service::start(Registry::standard(), ServiceConfig::new().with_threads(2))
        .expect("service starts");
    let request = SweepRequest::new()
        .scenario("fig01_utilization")
        .with_seeds(2)
        .param("nodes", ParamValue::parse("1"))
        .param("horizon_days", ParamValue::parse("0.00001"));
    let id = service.submit(&request).expect("submit").id;
    match wait_within(&service, id, Duration::from_secs(10)).status {
        SweepStatus::Failed { message } => assert!(
            message.contains("aggregating results panicked") && message.contains("NaN"),
            "failure message must name the cause: {message}"
        ),
        other => panic!("expected failed status, got {other}"),
    }
}

/// The same aggregation panic on a one-worker pool: the request fails, and
/// the single worker that finalized it survives to run the next request.
#[test]
fn aggregation_panic_fails_the_request_and_keeps_the_worker() {
    struct NanProbe;
    impl Scenario for NanProbe {
        fn name(&self) -> &'static str {
            "nan_probe"
        }
        fn title(&self) -> &'static str {
            "reports a NaN metric"
        }
        fn run(&self, _sim: &mut des::Simulation, _params: &Params) -> Metrics {
            let mut m = Metrics::new();
            m.push("ratio", f64::NAN);
            m
        }
    }
    let mut registry = sleepy_registry();
    registry.register(Box::new(NanProbe));
    let service =
        Service::start(registry, ServiceConfig::new().with_threads(1)).expect("service starts");

    let bad = service
        .submit(&SweepRequest::new().scenario("nan_probe").with_seeds(2))
        .expect("submit");
    let response = wait_within(&service, bad.id, Duration::from_secs(10));
    assert!(
        matches!(response.status, SweepStatus::Failed { ref message } if message.contains("NaN")),
        "expected a NaN aggregation failure, got {}",
        response.status
    );

    let good = service
        .submit(&SweepRequest::new().scenario("fast").with_seeds(2))
        .expect("follow-up submit");
    let response = wait_within(&service, good.id, Duration::from_secs(10));
    assert!(
        matches!(response.status, SweepStatus::Done),
        "the only worker died with the failed request: {}",
        response.status
    );
}

/// `wait` returning means the request left the dedup map: an identical
/// submit sent right after must start fresh work, never coalesce onto the
/// finished request.
#[test]
fn resubmit_after_wait_is_never_deduped() {
    let service = Service::start(sleepy_registry(), ServiceConfig::new().with_threads(2))
        .expect("service starts");
    let request = SweepRequest::new().scenario("fast").with_seeds(1);
    for round in 0..200 {
        let first = service.submit(&request).expect("first submit");
        assert!(!first.deduped, "round {round}: nothing was in flight");
        service.wait(first.id).expect("wait first");
        let second = service.submit(&request).expect("second submit");
        assert!(
            !second.deduped,
            "round {round}: coalesced onto finished request {}",
            first.id
        );
        assert_ne!(second.id, first.id);
        service.wait(second.id).expect("wait second");
    }
}
