//! The traced run: the per-layer split, measured by timing calls into each
//! layer's public functions. The same profile runs for every workload; it
//! is what a `--trace 1` run reports.
//!
//! Simulated statistics are only ever checked for identity, never timed;
//! all timings are host wall time.

use crate::common::{
    background_request, deadline, done_artifact, matches_reference, median, median_secs, metric,
    percentile, record, short_request, suite_request, threads, Metric, SplitMix, WorkDir,
    THINK_MAX_MS,
};
use crate::replica;
use crate::span;
use crate::workloads::{cold_sweep, remote_sweep, start_server, stop_server};
use cluster::{simulate_trace_in, TraceProfile};
use des::{SimTime, Simulation};
use scenarios::wire::{read_frame, write_frame};
use scenarios::{
    job_key, summarize, Client, CostTable, Metrics, PointResult, Registry, ResultCache, Service,
    ServiceConfig, SweepResult, SweepStatus, SweepSuite,
};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Fig01 seeds traced per run, derived from the benchmark seed.
const TRACED_SEEDS: u64 = 2;
/// Repetitions of each micro-measurement (median reported).
const REPEATS: usize = 25;
/// Repetitions of measurements that fsync (median reported).
const DISK_REPEATS: usize = 5;
/// Length of the in-process short-behind-background loop.
const INPROC_SECONDS: f64 = 5.0;
const OP_DEADLINE: Duration = Duration::from_secs(120);

/// Committed per-job cost table the drift check reads (never written).
const COMMITTED_COSTS: &str = "ci/sweep_costs.json";

/// One job of the suite request, in input order.
struct SuiteJob {
    scenario: &'static str,
    params: scenarios::Params,
    seed: u64,
}

/// The suite request's jobs (task-major, point-major, seed-minor) and its
/// seed list.
fn suite_jobs(registry: &Registry) -> (Vec<SuiteJob>, Vec<u64>) {
    let validated = suite_request()
        .validate(registry)
        .expect("the suite request validates");
    let mut jobs = Vec::new();
    for (scenario, grid) in validated.resolve(registry) {
        for params in grid.points(&scenario.default_params()) {
            for &seed in &validated.seeds {
                jobs.push(SuiteJob {
                    scenario: scenario.name(),
                    params: params.clone(),
                    seed,
                });
            }
        }
    }
    (jobs, validated.seeds)
}

/// Serial baseline: every job of the suite request on a fresh
/// `Simulation`, one after another, on this thread. Returns the suite it
/// aggregates to and each job's wall seconds.
fn serial_suite(registry: &Registry, jobs: &[SuiteJob], seeds: &[u64]) -> (SweepSuite, Vec<f64>) {
    let mut secs = Vec::with_capacity(jobs.len());
    let mut results: Vec<SweepResult> = Vec::new();
    for chunk in jobs.chunks(seeds.len()) {
        let scenario = registry.get(chunk[0].scenario).expect("registered");
        let per_seed: Vec<(u64, Metrics)> = chunk
            .iter()
            .map(|job| {
                let t = Instant::now();
                let mut sim = Simulation::new(job.seed);
                let m = scenario.run(&mut sim, &job.params);
                secs.push(t.elapsed().as_secs_f64());
                (job.seed, m)
            })
            .collect();
        let summary = summarize(&per_seed.iter().map(|(_, m)| m.clone()).collect::<Vec<_>>());
        let point = PointResult {
            params: chunk[0].params.clone(),
            per_seed,
            summary,
        };
        match results.last_mut() {
            Some(r) if r.scenario == scenario.name() => r.points.push(point),
            _ => results.push(SweepResult {
                scenario: scenario.name().to_string(),
                seeds: seeds.to_vec(),
                points: vec![point],
            }),
        }
    }
    let suite = SweepSuite {
        seeds: seeds.to_vec(),
        results,
    };
    (suite, secs)
}

/// Fig01 trace replay: the traced replica against `simulate_trace_in`.
fn fig01_layers(seed: u64, out: &mut Vec<Metric>) {
    let registry = Registry::standard();
    let defaults = registry
        .get("fig01_utilization")
        .expect("registered")
        .default_params();
    let mut profile = TraceProfile::piz_daint();
    profile.nodes = defaults.usize("nodes", profile.nodes);
    let horizon = SimTime::from_secs_f64(defaults.f64("horizon_days", 14.0) * 86_400.0);

    span::drain();
    let (mut traced_s, mut plain_s, mut events, mut started) = (0.0, 0.0, 0u64, 0usize);
    for i in 0..TRACED_SEEDS {
        let s = seed.wrapping_add(i);
        let traced = || {
            let t = Instant::now();
            let mut sim = Simulation::new(s);
            let (outcome, counts) = replica::replay(&mut sim, &profile, horizon);
            (
                t.elapsed().as_secs_f64(),
                outcome,
                counts,
                sim.events_executed(),
            )
        };
        let plain = || {
            let t = Instant::now();
            let mut sim = Simulation::new(s);
            let outcome = simulate_trace_in(&mut sim, &profile, horizon);
            (t.elapsed().as_secs_f64(), outcome, sim.events_executed())
        };
        // Alternate which replay runs first, so neither always inherits
        // the warmer engine arena.
        let (a, b) = if i % 2 == 0 {
            let a = traced();
            (a, plain())
        } else {
            let b = plain();
            (traced(), b)
        };
        traced_s += a.0;
        plain_s += b.0;
        events += a.3;
        started += a.2.jobs_started;
        let same = replica::outcome_bits_eq(&a.1, &b.1) && a.3 == b.2;
        record(
            "traced fig01 replica",
            if same {
                Ok(())
            } else {
                Err(format!("seed {s}: replica differs from simulate_trace_in"))
            },
        );
    }
    let aggs = span::drain();
    let n = TRACED_SEEDS as f64;
    let per_job = |name: &str| span::total(&aggs, name);
    let run_until = per_job("des.run_until");
    let draw = per_job("tracegen.draw_job");
    let inter = per_job("tracegen.interarrival");
    let try_schedule = per_job("sched.try_schedule");
    let sample = per_job("monitor.sample");
    out.extend([
        metric("des.events", events as f64 / n, "count"),
        metric("des.self_s", run_until.self_s / n, "s"),
        metric(
            "des.schedule_batch_s",
            per_job("des.schedule_batch").total_s / n,
            "s",
        ),
        metric("tracegen.draw_calls", draw.count as f64 / n, "count"),
        metric("tracegen.draw_s", (draw.total_s + inter.total_s) / n, "s"),
        metric("sched.submit_s", per_job("sched.submit").total_s / n, "s"),
        metric(
            "sched.try_schedule_calls",
            try_schedule.count as f64 / n,
            "count",
        ),
        metric("sched.try_schedule_s", try_schedule.total_s / n, "s"),
        metric("sched.jobs_started", started as f64 / n, "count"),
        metric("sched.finish_s", per_job("sched.finish").total_s / n, "s"),
        metric("monitor.sample_calls", sample.count as f64 / n, "count"),
        metric("monitor.sample_s", sample.total_s / n, "s"),
        metric(
            "monitor.record_s",
            per_job("monitor.record").total_s / n,
            "s",
        ),
        metric(
            "monitor.finish_s",
            per_job("monitor.finish").total_s / n,
            "s",
        ),
        metric(
            "tracing.overhead_pct",
            (traced_s / plain_s - 1.0) * 100.0,
            "%",
        ),
    ]);
    write_span_table(seed, &aggs);
}

/// Keep the span table beside the run's scratch space for inspection.
fn write_span_table(seed: u64, aggs: &[(&'static str, &'static str, span::Agg)]) {
    let mut text = String::from("span\tparent\tcount\ttotal_s\tself_s\n");
    for (name, parent, a) in aggs {
        text.push_str(&format!(
            "{name}\t{parent}\t{}\t{:.9}\t{:.9}\n",
            a.count, a.total_s, a.self_s
        ));
    }
    let path = Path::new(crate::WORK_ROOT).join(format!("spans-fig01-seed{seed}.tsv"));
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("[perfbench] could not write {}: {e}", path.display());
    }
}

/// Cache layer, on the cache a cold sweep filled.
fn cache_layers(dir: &Path, jobs: &[SuiteJob], work: &WorkDir, out: &mut Vec<Metric>) {
    let mut cache = match ResultCache::open(dir) {
        Ok(cache) => cache,
        Err(e) => {
            record("cache open", Err(e.to_string()));
            return;
        }
    };
    let open_s = median_secs(REPEATS, || {
        let _ = black_box(ResultCache::open(dir));
    });
    let salt = cache.salt().to_string();
    let key_s = median_secs(REPEATS, || {
        for job in jobs {
            black_box(job_key(&salt, job.scenario, &job.params, job.seed));
        }
    });
    let keys: Vec<_> = jobs
        .iter()
        .map(|job| job_key(&salt, job.scenario, &job.params, job.seed))
        .collect();
    let lookup_s = median_secs(REPEATS, || {
        for key in &keys {
            black_box(cache.lookup(key));
        }
    });
    let stats = cache.stats();
    let hit_ratio = stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64;
    record(
        "cache lookups",
        if stats.misses == 0 {
            Ok(())
        } else {
            Err(format!("{} misses on a filled cache", stats.misses))
        },
    );

    let hits: Vec<_> = keys
        .iter()
        .zip(jobs)
        .filter_map(|(key, job)| Some((*key, job.scenario, cache.lookup(key)?)))
        .collect();
    let (mut append, mut commit, mut index_bytes) = (Vec::new(), Vec::new(), 0u64);
    for _ in 0..DISK_REPEATS {
        let fresh = work.fresh("cache-append");
        let result = (|| -> Result<(), scenarios::Error> {
            let mut cache = ResultCache::open(&fresh)?;
            let writer = cache.writer()?;
            let t = Instant::now();
            for (key, scenario, metrics) in &hits {
                writer.append(key, scenario, 1.0, metrics)?;
            }
            append.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            cache.commit(vec![writer])?;
            commit.push(t.elapsed().as_secs_f64());
            index_bytes = cache.stats().bytes_on_disk;
            Ok(())
        })();
        record("cache append and commit", result.map_err(|e| e.to_string()));
        let _ = std::fs::remove_dir_all(&fresh);
    }
    out.extend([
        metric("cache.open_s", open_s, "s"),
        metric("cache.entries", cache.len() as f64, "count"),
        metric("cache.key_s", key_s, "s"),
        metric("cache.lookup_s", lookup_s, "s"),
        metric("cache.hit_ratio", hit_ratio, "ratio"),
        metric("cache.append_s", median(&append), "s"),
        metric("cache.commit_s", median(&commit), "s"),
        metric("cache.index_bytes", index_bytes as f64, "bytes"),
    ]);
}

/// Service lifecycle on the filled cache: start, the all-hit submit
/// (which keys, looks up, aggregates and renders inline) and shutdown.
fn service_layers(dir: &Path, cold_artifact: &str, out: &mut Vec<Metric>) {
    let request = suite_request();
    let (mut start, mut submit, mut shutdown) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let registry = Registry::standard();
        let config = ServiceConfig::new()
            .with_threads(threads())
            .with_cache_dir(dir);
        let result = deadline(
            "service lifecycle",
            OP_DEADLINE,
            || -> Result<(), String> {
                let t = Instant::now();
                let service = Service::start(registry, config).map_err(|e| e.to_string())?;
                start.push(t.elapsed().as_secs_f64());
                let t = Instant::now();
                let submission = service.submit(&request).map_err(|e| e.to_string())?;
                submit.push(t.elapsed().as_secs_f64());
                let response = service.wait(submission.id).map_err(|e| e.to_string())?;
                let t = Instant::now();
                service.shutdown();
                shutdown.push(t.elapsed().as_secs_f64());
                if done_artifact(response)? == cold_artifact {
                    Ok(())
                } else {
                    Err("warm artifact differs from the cold artifact".into())
                }
            },
        );
        record("service lifecycle", result);
    }
    out.extend([
        metric("service.start_s", median(&start), "s"),
        metric("service.submit_s", median(&submit), "s"),
        metric("service.shutdown_s", median(&shutdown), "s"),
    ]);
}

/// The short request behind a background fig01 sweep, in process (no
/// TCP): submit→wait milliseconds.
fn short_inproc(seed: u64) -> Vec<f64> {
    let service = match Service::start(
        Registry::standard(),
        ServiceConfig::new().with_threads(threads()),
    ) {
        Ok(service) => service,
        Err(e) => {
            record("in-process service", Err(e.to_string()));
            return Vec::new();
        }
    };
    let stop = AtomicBool::new(false);
    let current = AtomicU64::new(0);
    let samples = std::thread::scope(|scope| {
        let background = scope.spawn(|| -> Result<(), String> {
            let request = background_request();
            while !stop.load(Ordering::SeqCst) {
                let id = service.submit(&request).map_err(|e| e.to_string())?.id;
                current.store(id, Ordering::SeqCst);
                if stop.load(Ordering::SeqCst) {
                    service.cancel(id).map_err(|e| e.to_string())?;
                }
                let response = deadline("background sweep", OP_DEADLINE, || service.wait(id))
                    .map_err(|e| e.to_string())?;
                match response.status {
                    SweepStatus::Cancelled => break,
                    _ => {
                        let artifact = done_artifact(response)?;
                        if !matches_reference("background", &artifact) {
                            return Err("artifact differs from reference `background`".into());
                        }
                    }
                }
            }
            Ok(())
        });
        deadline("background start", OP_DEADLINE, || {
            while current.load(Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let mut rng = SplitMix::new(seed ^ 0x5157_0000);
        let request = short_request();
        let (mut samples, mut deduped) = (Vec::new(), 0usize);
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < INPROC_SECONDS {
            std::thread::sleep(Duration::from_secs_f64(rng.unit() * THINK_MAX_MS / 1e3));
            let result = deadline("in-process short request", OP_DEADLINE, || {
                let t = Instant::now();
                let submission = service.submit(&request).map_err(|e| e.to_string())?;
                let response = service.wait(submission.id).map_err(|e| e.to_string())?;
                let ms = t.elapsed().as_secs_f64() * 1e3;
                if matches_reference("short", &done_artifact(response)?) {
                    Ok((ms, submission.deduped))
                } else {
                    Err("artifact differs from reference `short`".to_string())
                }
            });
            let ok = result.as_ref().map(|_| ()).map_err(Clone::clone);
            if record("in-process short request", ok) {
                // A submit coalesced onto the previous request ran no job.
                match result.expect("checked above") {
                    (_, true) => deduped += 1,
                    (ms, false) => samples.push(ms),
                }
            }
        }
        stop.store(true, Ordering::SeqCst);
        let cancelled = service.cancel(current.load(Ordering::SeqCst));
        record(
            "cancel background",
            cancelled.map(|_| ()).map_err(|e| e.to_string()),
        );
        let joined = background
            .join()
            .unwrap_or_else(|_| Err("background thread panicked".into()));
        record("in-process background loop", joined);
        println!(
            "[perfbench] in-process short requests: {} samples, {deduped} coalesced",
            samples.len()
        );
        samples
    });
    service.shutdown();
    samples
}

/// Wire framing and verb round trips on an idle loopback server.
fn wire_layers(artifact: &str, out: &mut Vec<Metric>) {
    let endpoint = match start_server() {
        Ok(endpoint) => endpoint,
        Err(why) => {
            record("server start", Err(why));
            return;
        }
    };
    let (mut ping, mut submit) = (Vec::new(), Vec::new());
    let result = deadline("wire verbs", OP_DEADLINE, || -> Result<(), String> {
        let mut client = Client::connect(endpoint.addr).map_err(|e| e.to_string())?;
        for _ in 0..10 {
            let t = Instant::now();
            client.ping().map_err(|e| e.to_string())?;
            ping.push(t.elapsed().as_secs_f64() * 1e3);
        }
        for _ in 0..10 {
            let t = Instant::now();
            let receipt = client.submit(&short_request()).map_err(|e| e.to_string())?;
            submit.push(t.elapsed().as_secs_f64() * 1e3);
            let artifact = done_artifact(client.wait(receipt.id).map_err(|e| e.to_string())?)?;
            if !matches_reference("short", &artifact) {
                return Err("artifact differs from reference `short`".into());
            }
        }
        // A full submit + wait, checked, on the same connection.
        remote_sweep(&mut client, &short_request(), "short").map(|_| ())
    });
    record("wire verbs", result);
    record("server shutdown", stop_server(endpoint));

    let (mut write_us, mut read_us) = (Vec::new(), Vec::new());
    let frames = deadline("wire frames", OP_DEADLINE, || -> Result<(), String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let mut tx = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let (mut rx, _) = listener.accept().map_err(|e| e.to_string())?;
        // Request/reply, as a verb exchange is: the artifact frame one way,
        // a small reply frame back.
        for _ in 0..10 {
            let t = Instant::now();
            write_frame(&mut tx, artifact).map_err(|e| e.to_string())?;
            write_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let frame = read_frame(&mut rx).map_err(|e| e.to_string())?;
            read_us.push(t.elapsed().as_secs_f64() * 1e6);
            if frame.as_deref() != Some(artifact) {
                return Err("frame came back different".into());
            }
            write_frame(&mut rx, "{\"ok\": true}").map_err(|e| e.to_string())?;
            read_frame(&mut tx).map_err(|e| e.to_string())?;
        }
        Ok(())
    });
    record("wire frames", frames);
    out.extend([
        metric("wire.ping_ms", median(&ping), "ms"),
        metric("wire.submit_ms", median(&submit), "ms"),
        metric("wire.frame_write_us", median(&write_us), "us"),
        metric("wire.frame_read_us", median(&read_us), "us"),
    ]);
}

/// Largest ratio between the committed per-job cost table and the serial
/// per-job times measured now, over keys where either side is at least a
/// millisecond (below that, both are timer noise).
fn cost_drift(measured: &CostTable) -> f64 {
    let committed = match CostTable::load(Path::new(COMMITTED_COSTS)) {
        Ok(table) => table,
        Err(e) => {
            record("committed cost table", Err(e.to_string()));
            return f64::NAN;
        }
    };
    let mut worst: Option<(f64, String)> = None;
    for (key, was) in committed.iter() {
        let Some(now) = measured.mean_secs(key) else {
            continue;
        };
        if was.max(now) < 1e-3 {
            continue;
        }
        let ratio = (was / now).max(now / was);
        if worst.as_ref().is_none_or(|(w, _)| ratio > *w) {
            worst = Some((ratio, key.to_string()));
        }
    }
    match worst {
        Some((ratio, key)) => {
            println!("[perfbench] largest cost drift: {key} ({ratio:.2}x)");
            ratio
        }
        None => {
            record(
                "committed cost table",
                Err("no key in common with the suite".into()),
            );
            f64::NAN
        }
    }
}

/// Run the whole per-layer profile; returns the per-layer metrics.
pub fn profile(seed: u64, work: &WorkDir) -> Vec<Metric> {
    let registry = Registry::standard();
    let (jobs, seeds) = suite_jobs(&registry);
    let mut out = Vec::new();

    // The same cold sweep `cold_suite` times, for the pool metrics; it
    // also fills the cache the cache and service layers read. Running it
    // first lets the serial baseline start on a process whose heap is as
    // warm as the pool's.
    let mut cold = Vec::new();
    let mut filled = work.fresh("cold");
    for _ in 0..3 {
        let dir = work.fresh("cold");
        if let Some(done) = cold_sweep(&dir) {
            cold.push(done.secs);
        }
        let _ = std::fs::remove_dir_all(std::mem::replace(&mut filled, dir));
    }
    let cold_s = median(&cold);

    // Serial baseline: it also warms this thread's engine arena for the
    // fig01 replays that follow.
    let (suite, job_secs) = serial_suite(&registry, &jobs, &seeds);
    let artifact = suite.artifact_json();
    record(
        "serial suite",
        if matches_reference("suite", &artifact) {
            Ok(())
        } else {
            Err("serial artifact differs from reference `suite`".into())
        },
    );
    let serial_s: f64 = job_secs.iter().sum();
    let mut measured = CostTable::new();
    for (job, secs) in jobs.iter().zip(&job_secs) {
        measured.record(&CostTable::key(job.scenario, &job.params), *secs);
    }
    let job_mean = |name: &str| {
        measured
            .iter()
            .filter(|(k, _)| k.split('|').next() == Some(name))
            .map(|(_, s)| s)
            .sum::<f64>()
    };
    let named = ["fig01_utilization", "fig07_latency", "fig11_memory_sharing"];
    let rest: f64 = registry
        .names()
        .into_iter()
        .filter(|n| !named.contains(n))
        .map(job_mean)
        .sum();
    for name in named {
        out.push(metric(format!("job.{name}_s"), job_mean(name), "s"));
    }
    out.push(metric("job.rest_s", rest, "s"));

    let per_point: Vec<Vec<Metrics>> = suite
        .results
        .iter()
        .flat_map(|r| &r.points)
        .map(|p| p.per_seed.iter().map(|(_, m)| m.clone()).collect())
        .collect();
    let summarize_s = median_secs(REPEATS, || {
        for runs in &per_point {
            black_box(summarize(runs));
        }
    });
    let render_s = median_secs(REPEATS, || {
        black_box(suite.artifact_json());
    });
    out.extend([
        metric("aggregate.summarize_s", summarize_s, "s"),
        metric("render.artifact_s", render_s, "s"),
        metric("render.artifact_bytes", artifact.len() as f64, "bytes"),
    ]);

    fig01_layers(seed, &mut out);

    out.extend([
        metric(
            "pool.busy_ratio",
            serial_s / (threads() as f64 * cold_s),
            "ratio",
        ),
        metric("pool.speedup_vs_serial", serial_s / cold_s, "ratio"),
    ]);

    cache_layers(&filled, &jobs, work, &mut out);
    service_layers(&filled, &artifact, &mut out);
    let inproc = short_inproc(seed);
    out.push(metric(
        "service.short_inproc_p50_ms",
        percentile(&inproc, 0.5),
        "ms",
    ));
    wire_layers(&artifact, &mut out);
    out.push(metric("costs.drift_ratio", cost_drift(&measured), "ratio"));
    out
}
