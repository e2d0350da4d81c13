//! A traced replica of `cluster::simulate_trace_in`, built on public API
//! only, with a span around every call into a layer.
//!
//! The replica schedules the same events in the same order as the
//! original (arrival at t=0, sampler at the warm-up mark, completions
//! batched per scheduling pass), so the engine assigns the same sequence
//! numbers and the run is bit-identical to the untraced replay — which
//! [`outcome_bits_eq`] checks for every traced seed.

use crate::span::span;
use cluster::{Cluster, TraceOutcome, TraceProfile, UtilizationMonitor};
use des::{RngStream, SimTime, Simulation};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

struct State {
    cluster: Mutex<Cluster>,
    monitor: Mutex<UtilizationMonitor>,
    profile: TraceProfile,
    rng: Mutex<RngStream>,
    horizon: SimTime,
    submitted: AtomicUsize,
    completed: AtomicUsize,
    jobs_started: AtomicUsize,
}

/// What the replay reports beyond the [`TraceOutcome`].
pub struct ReplayCounts {
    pub jobs_started: usize,
}

fn schedule_and_register_completions(sim: &mut Simulation, st: &Arc<State>) {
    let now = sim.now();
    let (started, idle_periods) = {
        let mut cluster = st.cluster.lock().expect("replica state lock");
        let (started, idle_periods) = {
            let _s = span("sched.try_schedule");
            cluster.try_schedule(now)
        };
        st.jobs_started.fetch_add(started.len(), Ordering::Relaxed);
        let started: Vec<_> = started
            .into_iter()
            .map(|id| (id, cluster.job(id).expect("started job").actual_runtime))
            .collect();
        (started, idle_periods)
    };
    {
        let _s = span("monitor.record");
        let mut mon = st.monitor.lock().expect("replica state lock");
        for p in idle_periods {
            mon.record_exact_idle_period(p);
        }
    }
    let _s = span("des.schedule_batch");
    sim.schedule_batch(started.into_iter().map(|(id, runtime)| {
        let st2 = Arc::clone(st);
        let fire = move |sim: &mut Simulation| {
            let now = sim.now();
            {
                let _s = span("sched.finish");
                st2.cluster
                    .lock()
                    .expect("replica state lock")
                    .finish(id, now)
                    .expect("running job finishes");
            }
            st2.completed.fetch_add(1, Ordering::Relaxed);
            schedule_and_register_completions(sim, &st2);
        };
        (now + runtime, fire)
    }));
}

fn arrival(sim: &mut Simulation, st: Arc<State>) {
    let now = sim.now();
    if now >= st.horizon {
        return;
    }
    {
        let mut rng = st.rng.lock().expect("replica state lock");
        let (spec, runtime) = {
            let _s = span("tracegen.draw_job");
            st.profile.draw_job(&mut rng)
        };
        let _s = span("sched.submit");
        st.cluster
            .lock()
            .expect("replica state lock")
            .submit(spec, runtime, now);
        st.submitted.fetch_add(1, Ordering::Relaxed);
    }
    schedule_and_register_completions(sim, &st);

    let dt = {
        let mut rng = st.rng.lock().expect("replica state lock");
        let _s = span("tracegen.interarrival");
        SimTime::from_secs_f64(rng.exponential(st.profile.mean_interarrival_s))
    };
    let st2 = Arc::clone(&st);
    sim.schedule_after(dt.max(SimTime::from_nanos(1)), move |sim| arrival(sim, st2));
}

fn sampler(sim: &mut Simulation, st: Arc<State>) {
    let now = sim.now();
    if now > st.horizon {
        return;
    }
    let interval = st.monitor.lock().expect("replica state lock").interval();
    {
        let _s = span("monitor.sample");
        st.monitor
            .lock()
            .expect("replica state lock")
            .sample(&st.cluster.lock().expect("replica state lock"), now);
    }
    let st2 = Arc::clone(&st);
    sim.schedule_after(interval, move |sim| sampler(sim, st2));
}

/// Replay `profile` for `horizon` on a fresh `sim`, exactly as
/// `simulate_trace_in` does, with spans around every layer call.
pub fn replay(
    sim: &mut Simulation,
    profile: &TraceProfile,
    horizon: SimTime,
) -> (TraceOutcome, ReplayCounts) {
    assert_eq!(
        sim.now(),
        SimTime::ZERO,
        "replay expects a fresh simulation"
    );
    let st = Arc::new(State {
        cluster: Mutex::new(Cluster::homogeneous(profile.nodes, profile.node_capacity)),
        monitor: Mutex::new(UtilizationMonitor::two_minute()),
        profile: profile.clone(),
        rng: Mutex::new(sim.stream("trace")),
        horizon,
        submitted: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        jobs_started: AtomicUsize::new(0),
    });
    let st_a = Arc::clone(&st);
    sim.schedule_at(SimTime::ZERO, move |sim| arrival(sim, st_a));
    let st_s = Arc::clone(&st);
    let warmup = SimTime::from_hours(6).min(horizon / 10);
    sim.schedule_at(warmup, move |sim| sampler(sim, st_s));

    {
        let _s = span("des.run_until");
        sim.run_until(horizon);
    }

    let monitor = std::mem::replace(
        &mut *st.monitor.lock().expect("replica state lock"),
        UtilizationMonitor::two_minute(),
    );
    let report = {
        let _s = span("monitor.finish");
        monitor.finish()
    };
    let mean_core_utilization_pct = if report.idle_cpu_pct.is_empty() {
        f64::NAN
    } else {
        report
            .idle_cpu_pct
            .iter()
            .map(|(_, idle)| 100.0 - idle)
            .sum::<f64>()
            / report.idle_cpu_pct.len() as f64
    };
    let outcome = TraceOutcome {
        report,
        jobs_submitted: st.submitted.load(Ordering::Relaxed),
        jobs_completed: st.completed.load(Ordering::Relaxed),
        mean_core_utilization_pct,
    };
    let counts = ReplayCounts {
        jobs_started: st.jobs_started.load(Ordering::Relaxed),
    };
    (outcome, counts)
}

/// Bit-for-bit equality of two replay outcomes: every report vector, every
/// idle-period statistic and both job counts.
pub fn outcome_bits_eq(a: &TraceOutcome, b: &TraceOutcome) -> bool {
    let f = |x: f64, y: f64| x.to_bits() == y.to_bits();
    let stats = |x: &cluster::IdlePeriodStats, y: &cluster::IdlePeriodStats| {
        x.events == y.events
            && f(x.median_min, y.median_min)
            && f(x.mean_min, y.mean_min)
            && f(x.frac_below_10min, y.frac_below_10min)
    };
    let (ra, rb) = (&a.report, &b.report);
    a.jobs_submitted == b.jobs_submitted
        && a.jobs_completed == b.jobs_completed
        && f(a.mean_core_utilization_pct, b.mean_core_utilization_pct)
        && ra.idle_cpu_pct.len() == rb.idle_cpu_pct.len()
        && ra
            .idle_cpu_pct
            .iter()
            .zip(&rb.idle_cpu_pct)
            .all(|(x, y)| f(x.0, y.0) && f(x.1, y.1))
        && ra.memory_split_pct.len() == rb.memory_split_pct.len()
        && ra
            .memory_split_pct
            .iter()
            .zip(&rb.memory_split_pct)
            .all(|(x, y)| f(x.0, y.0) && f(x.1, y.1) && f(x.2, y.2) && f(x.3, y.3))
        && ra.idle_nodes == rb.idle_nodes
        && f(ra.median_idle_nodes, rb.median_idle_nodes)
        && stats(&ra.exact, &rb.exact)
        && stats(&ra.minimal_estimation, &rb.minimal_estimation)
        && stats(&ra.maximal_estimation, &rb.maximal_estimation)
}
