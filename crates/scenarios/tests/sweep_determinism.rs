//! Sweep determinism: the service's work-stealing pool (threads ∈ {2, 4,
//! 8}) must produce bit-identical per-(point, seed) metrics to a serial
//! run (threads = 1, input order), for arbitrary grids and job-length skew.
//! Worker threads only decide *when* a job runs; each job owns its own
//! `Simulation`, so *what* it computes is a pure function of `(params,
//! seed)`.

use proptest::prelude::*;
use scenarios::{
    CostTable, JobOrder, Registry, Scenario, Service, ServiceConfig, SweepRequest, SweepResult,
    SweepStatus,
};

/// Run one request to completion on a fresh service over `registry`.
fn sweep(registry: Registry, config: ServiceConfig, request: &SweepRequest) -> Vec<SweepResult> {
    let service = Service::start(registry, config).expect("service starts");
    let id = service.submit(request).expect("valid request").id;
    let response = service.wait(id).expect("known id");
    assert!(
        matches!(response.status, SweepStatus::Done),
        "sweep failed: {}",
        response.status
    );
    service.results(id).expect("done request has results")
}

/// The serial reference: one worker, natural job order.
fn serial(registry: Registry, request: &SweepRequest) -> Vec<SweepResult> {
    let request = request.clone().with_order(JobOrder::Input);
    sweep(registry, ServiceConfig::new().with_threads(1), &request)
}

fn threads(n: usize) -> ServiceConfig {
    ServiceConfig::new().with_threads(n)
}

fn bits_eq(a: &[SweepResult], b: &[SweepResult]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bits_eq(y))
}

fn registry_of(scenario: impl Scenario + 'static) -> Registry {
    let mut registry = Registry::new();
    registry.register(Box::new(scenario));
    registry
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial(
        reps_a in 1u64..8,
        reps_b in 8u64..16,
        n_seeds in 1usize..4,
        pool in 0usize..3,
    ) {
        // Seeds are fixed at REPORT_SEED.. by the request, so the grid is
        // what varies from case to case.
        let n = [2, 4, 8][pool];
        let request = SweepRequest::new()
            .scenario("fig09_cpu_sharing")
            .axis("reps", vec![reps_a, reps_b])
            .with_seeds(n_seeds);

        let serial = serial(Registry::standard(), &request);
        let parallel = sweep(Registry::standard(), threads(n), &request);
        prop_assert!(
            bits_eq(&serial, &parallel),
            "threads={n} diverged from serial"
        );
    }

    #[test]
    fn distinct_seeds_yield_distinct_noise(seed in 0u64..1_000_000) {
        // The noisy scenarios actually consume the seed: two different seeds
        // must not produce identical metrics (else CIs would be meaningless).
        // A property of the scenario alone, so no pool is involved.
        let registry = Registry::standard();
        let scenario = registry.get("fig09_cpu_sharing").expect("registered");
        let params = scenario.default_params();
        let a = scenario.run(&mut des::Simulation::new(seed), &params);
        let b = scenario.run(&mut des::Simulation::new(seed + 1), &params);
        prop_assert!(!a.bits_eq(&b));
    }
}

/// A scenario that leans on everything the calendar-queue engine promises
/// the pool: `Simulation: Send` (jobs run inside worker threads), exact
/// `events_pending` under cancellation, `run_until` deadline semantics, and
/// far-future (overflow-rung) timers that are renewed — i.e. cancelled and
/// rescheduled — on every tick.
#[test]
fn sweep_with_cancellation_heavy_scenario_is_deterministic() {
    use des::{EventId, SimTime, Simulation};
    use scenarios::{Metrics, Params};
    use std::sync::{Arc, Mutex};

    struct LeaseChurn;

    impl Scenario for LeaseChurn {
        fn name(&self) -> &'static str {
            "lease_churn_probe"
        }
        fn title(&self) -> &'static str {
            "cancellation-heavy pending-count probe"
        }
        fn default_params(&self) -> Params {
            Params::new().with("ticks", 200u64)
        }
        fn run(&self, sim: &mut Simulation, params: &Params) -> Metrics {
            let ticks = params.u64("ticks", 200);
            let expiries = Arc::new(Mutex::new(0u64));
            // A lease-expiry timer far in the future, renewed on every tick:
            // the cancel-reschedule churn the arena makes O(1).
            let timer: Arc<Mutex<Option<EventId>>> = Arc::new(Mutex::new(None));
            fn tick(
                sim: &mut Simulation,
                remaining: u64,
                timer: Arc<Mutex<Option<EventId>>>,
                expiries: Arc<Mutex<u64>>,
            ) {
                if let Some(old) = timer.lock().unwrap().take() {
                    assert!(sim.cancel(old), "renewed timer was still pending");
                }
                let e2 = Arc::clone(&expiries);
                let id = sim.schedule_after(SimTime::from_secs(3600), move |_| {
                    *e2.lock().unwrap() += 1;
                });
                *timer.lock().unwrap() = Some(id);
                if remaining > 0 {
                    let mut rng = sim.stream(&format!("tick{remaining}"));
                    let dt = SimTime::from_micros(1 + rng.u64_range(0..50));
                    let t2 = Arc::clone(&timer);
                    let e3 = Arc::clone(&expiries);
                    sim.schedule_after(dt, move |sim| tick(sim, remaining - 1, t2, e3));
                }
            }
            tick(sim, ticks, Arc::clone(&timer), Arc::clone(&expiries));
            sim.run_until(SimTime::from_secs(60));
            let pending = sim.events_pending();
            let mut m = Metrics::new();
            m.push("expiries", *expiries.lock().unwrap() as f64);
            m.push("pending_after_horizon", pending as f64);
            m.push("executed", sim.events_executed() as f64);
            m
        }
    }

    let request = SweepRequest::new()
        .scenario("lease_churn_probe")
        .with_seeds(3);
    let serial = serial(registry_of(LeaseChurn), &request);
    let parallel = sweep(registry_of(LeaseChurn), threads(4), &request);
    assert!(
        bits_eq(&serial, &parallel),
        "cancellation-heavy scenario diverged"
    );
    for (_, m) in &serial[0].points[0].per_seed {
        assert_eq!(
            m.get("expiries"),
            Some(0.0),
            "renewed lease timers must never fire"
        );
        assert_eq!(
            m.get("pending_after_horizon"),
            Some(1.0),
            "exactly the final renewed timer remains pending"
        );
    }
}

/// Work-stealing under heavy job-length skew: a sweep whose longest point
/// does ~400× the work of its shortest (the fig01-vs-everything-else shape
/// that motivates LPT ordering) must still be bit-identical to serial, both
/// with the cost-table order misled by wrong priors and with input order.
/// Stealing moves jobs between workers *while* their siblings execute long
/// traces — exactly the interleaving the lock-free deque must get right.
#[test]
fn work_stealing_is_bit_identical_under_job_length_skew() {
    use des::{SimTime, Simulation};
    use scenarios::{Metrics, Params};

    struct Skewed;

    impl Scenario for Skewed {
        fn name(&self) -> &'static str {
            "skewed_probe"
        }
        fn title(&self) -> &'static str {
            "job lengths spanning two orders of magnitude"
        }
        fn default_params(&self) -> Params {
            Params::new().with("events", 10u64)
        }
        fn run(&self, sim: &mut Simulation, params: &Params) -> Metrics {
            let events = params.u64("events", 10);
            // Real simulated work, proportional to the axis: every event
            // draws from a seed-derived stream, so the final digest is a
            // pure function of (params, seed) and any cross-job state leak
            // or slot-routing bug shows up as a bitwise mismatch.
            let acc = std::sync::Arc::new(std::sync::Mutex::new(0.0f64));
            for i in 0..events {
                let acc = std::sync::Arc::clone(&acc);
                let mut rng = sim.stream(&format!("e{i}"));
                let dt = SimTime::from_nanos(1 + rng.u64_range(0..1000));
                let draw = rng.f64();
                sim.schedule_after(dt, move |_| {
                    *acc.lock().unwrap() += draw;
                });
            }
            sim.run();
            let mut m = Metrics::new();
            m.push("sum", *acc.lock().unwrap());
            m.push("executed", sim.events_executed() as f64);
            m
        }
    }

    let request = SweepRequest::new()
        .scenario("skewed_probe")
        .axis("events", vec![2000u64, 5, 800, 1, 400, 50])
        .with_seeds(3);
    let serial = serial(registry_of(Skewed), &request);

    // Misleading priors: claim the shortest job is by far the longest, so
    // LPT starts the sweep in the worst possible order.
    let mut wrong_priors = CostTable::new();
    wrong_priors.record("skewed_probe|events=1", 1e6);
    wrong_priors.record("skewed_probe|events=2000", 1e-9);

    for n in [2, 4, 8] {
        let stolen = sweep(
            registry_of(Skewed),
            threads(n).with_cost_table(wrong_priors.clone()),
            &request,
        );
        assert!(
            bits_eq(&serial, &stolen),
            "threads={n} with misleading cost priors diverged"
        );
        let input_order = sweep(
            registry_of(Skewed),
            threads(n),
            &request.clone().with_order(JobOrder::Input),
        );
        assert!(
            bits_eq(&serial, &input_order),
            "threads={n} input order diverged"
        );
    }
}

/// The engine-level half of the property: an identical simulation driven on
/// two different worker threads produces the identical event trace.
#[test]
fn simulation_trace_is_thread_invariant() {
    use des::{SimTime, Simulation};
    use std::sync::{Arc, Mutex};

    fn trace_on_worker(seed: u64) -> Vec<(u64, u64)> {
        std::thread::spawn(move || {
            let mut sim = Simulation::new(seed);
            let log = Arc::new(Mutex::new(Vec::new()));
            for i in 0..50 {
                let log = Arc::clone(&log);
                let mut rng = sim.stream(&format!("gen{i}"));
                let at = SimTime::from_nanos(rng.u64_range(0..10_000));
                sim.schedule_at(at, move |sim| {
                    log.lock()
                        .unwrap()
                        .push((sim.now().as_nanos(), sim.events_executed()));
                });
            }
            sim.run();
            let v = log.lock().unwrap().clone();
            v
        })
        .join()
        .expect("worker")
    }

    assert_eq!(trace_on_worker(11), trace_on_worker(11));
    assert_ne!(trace_on_worker(11), trace_on_worker(12));
}
