//! The three end-to-end workloads, measured with tracing off.
//!
//! Every workload reports the same three end-to-end metrics in its result
//! line, so any workload can be compared against its parent: `op_iqm_ms`
//! (the interquartile mean of the workload's op latency), `jobs_per_s` and
//! `setup_s`. Each also prints its ledger under the workload's own names
//! (`cold_suite_s`, `warm_p50_ms`, `short_p90_ms`, ...), with
//! `failed_frac` and `peak_rss_mb`. The p90s and peak RSS are printed but
//! not part of the result: between identical runs on a shared host they
//! swing by more than a regression bound can absorb (the p90 with the
//! host's steal time, the RSS between two allocator layouts of the
//! short-lived pool threads some 25% apart).

use crate::common::{
    background_request, deadline, done_artifact, interquartile_mean, matches_reference, median,
    metric, peak_rss_mb, percentile, pin_to_one_cpu, record, short_request, suite_request, threads,
    Metric, SplitMix, WorkDir, THINK_MAX_MS,
};
use scenarios::{Client, Registry, Server, Service, ServiceConfig, SweepRequest, SweepStatus};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many times each workload sets up; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
const SWEEP_DEADLINE: Duration = Duration::from_secs(120);
const SHORT_DEADLINE: Duration = Duration::from_secs(30);
const WARM_DEADLINE: Duration = Duration::from_secs(10);

/// What one in-process request returned.
pub struct SweepOut {
    pub secs: f64,
    pub total_jobs: usize,
    pub cache_hits: usize,
    pub artifact: String,
}

/// `scenarios run` minus the process spawn: start a service (threads =
/// nproc, optional cache), submit, wait, shut down. All of it is timed.
pub fn in_process_sweep(
    cache_dir: Option<&Path>,
    request: &SweepRequest,
) -> Result<SweepOut, String> {
    let t = Instant::now();
    let mut config = ServiceConfig::new().with_threads(threads());
    if let Some(dir) = cache_dir {
        config = config.with_cache_dir(dir);
    }
    let service = Service::start(Registry::standard(), config).map_err(|e| e.to_string())?;
    let submission = service.submit(request).map_err(|e| e.to_string())?;
    let response = service.wait(submission.id).map_err(|e| e.to_string())?;
    service.shutdown();
    let secs = t.elapsed().as_secs_f64();
    Ok(SweepOut {
        secs,
        total_jobs: submission.total_jobs,
        cache_hits: submission.cache_hits,
        artifact: done_artifact(response)?,
    })
}

/// One cold sweep of the suite request into a fresh, empty cache at
/// `dir`, checked against the reference. Returns its wall seconds.
pub fn cold_sweep(dir: &Path) -> Option<SweepOut> {
    let out = deadline("cold suite sweep", SWEEP_DEADLINE, || {
        in_process_sweep(Some(dir), &suite_request())
    });
    let checked = out.and_then(|out| {
        if out.cache_hits != 0 {
            Err(format!("{} cache hits in a cold sweep", out.cache_hits))
        } else if !matches_reference("suite", &out.artifact) {
            Err("artifact differs from reference `suite`".into())
        } else {
            Ok(out)
        }
    });
    match checked {
        Ok(out) => record("cold suite sweep", Ok(())).then_some(out),
        Err(why) => {
            record("cold suite sweep", Err(why));
            None
        }
    }
}

fn summary(
    ledger: &mut Vec<Metric>,
    setup: &[f64],
    ops_ms: &[f64],
    jobs_per_s: f64,
) -> Vec<Metric> {
    let (attempted, failed) = crate::common::counts();
    ledger.push(metric("op_iqm_ms", interquartile_mean(ops_ms), "ms"));
    ledger.push(metric("setup_s", median(setup), "s"));
    ledger.push(metric(
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "fraction",
    ));
    ledger.push(metric("peak_rss_mb", peak_rss_mb(), "MB"));
    vec![
        metric("op_iqm_ms", interquartile_mean(ops_ms), "ms"),
        metric("jobs_per_s", jobs_per_s, "1/s"),
        metric("setup_s", median(setup), "s"),
    ]
}

/// Throughput of a closed loop with one client: the jobs of one op over
/// the op's interquartile-mean time. A total over the whole window would
/// be a plain mean, which a few ops stalled by the host drag around.
fn closed_loop_jobs_per_s(jobs_per_op: usize, ops_ms: &[f64]) -> f64 {
    jobs_per_op as f64 / (interquartile_mean(ops_ms) / 1e3)
}

/// `cold_suite`: the suite request into a fresh, empty cache per op.
/// Set-up is one checked sweep (repeated), which also warms the process.
pub fn cold_suite(work: &WorkDir, seconds: f64) -> (Vec<Metric>, Vec<Metric>) {
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let dir = work.fresh("cold-setup");
        let t = Instant::now();
        cold_sweep(&dir);
        setup.push(t.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(&dir);
    }
    let mut ops_ms = Vec::new();
    let mut jobs_per_op = 0usize;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let dir = work.fresh("cold");
        if let Some(out) = cold_sweep(&dir) {
            ops_ms.push(out.secs * 1e3);
            jobs_per_op = out.total_jobs;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let mut ledger = vec![
        metric("cold_suite_s", median(&ops_ms) / 1e3, "s"),
        metric("cold_suite_p90_s", percentile(&ops_ms, 0.9) / 1e3, "s"),
        metric("cold_suite_ops", ops_ms.len() as f64, "count"),
    ];
    let jobs_per_s = closed_loop_jobs_per_s(jobs_per_op, &ops_ms);
    let metrics = summary(&mut ledger, &setup, &ops_ms, jobs_per_s);
    (ledger, metrics)
}

/// `warm_suite`: the same request served entirely from a cache set-up
/// pre-fills. One op is `Service::start` on that cache, submit, wait and
/// shutdown — a fresh service per op, so no `Done` artifact accumulates.
pub fn warm_suite(work: &WorkDir, seconds: f64) -> (Vec<Metric>, Vec<Metric>) {
    let mut setup = Vec::new();
    let mut filled: Option<(PathBuf, String)> = None;
    for _ in 0..SETUP_REPEATS {
        let dir = work.fresh("warm-cache");
        let t = Instant::now();
        let out = cold_sweep(&dir);
        setup.push(t.elapsed().as_secs_f64());
        if let Some((old, _)) = filled.take() {
            let _ = std::fs::remove_dir_all(old);
        }
        filled = out.map(|out| (dir, out.artifact));
    }
    let Some((dir, cold_artifact)) = filled else {
        return (Vec::new(), Vec::new());
    };

    // Every job of a warm op is a hit, which the service answers inline:
    // its pool threads start and stop without running anything. On one
    // CPU those starts and stops are plain context switches; spread over
    // two vCPUs of a shared host each one waits for the host to wake the
    // other vCPU, which made op times swing by up to 45% between runs.
    // Set-up, above, still fills the cache on every CPU.
    let pinned = pin_to_one_cpu();
    let request = suite_request();
    let mut ops_ms = Vec::new();
    let mut jobs_per_op = 0usize;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let out = deadline("warm suite op", WARM_DEADLINE, || {
            in_process_sweep(Some(&dir), &request)
        });
        let checked = out.and_then(|out| {
            if out.cache_hits != out.total_jobs {
                Err(format!(
                    "{} of {} jobs from cache",
                    out.cache_hits, out.total_jobs
                ))
            } else if out.artifact != cold_artifact {
                Err("warm artifact differs from the cold artifact".into())
            } else {
                Ok(out)
            }
        });
        let ok = checked.as_ref().map(|_| ()).map_err(Clone::clone);
        if record("warm suite op", ok) {
            let out = checked.expect("checked above");
            ops_ms.push(out.secs * 1e3);
            jobs_per_op = out.total_jobs;
        }
    }
    let mut ledger = vec![
        metric("warm_p50_ms", percentile(&ops_ms, 0.5), "ms"),
        metric("warm_p90_ms", percentile(&ops_ms, 0.9), "ms"),
        metric("warm_ops", ops_ms.len() as f64, "count"),
        metric("warm_pinned", f64::from(u8::from(pinned)), "bool"),
    ];
    let jobs_per_s = closed_loop_jobs_per_s(jobs_per_op, &ops_ms);
    let metrics = summary(&mut ledger, &setup, &ops_ms, jobs_per_s);
    (ledger, metrics)
}

/// An in-process `Server` on loopback (threads = nproc, no cache) and the
/// thread running its accept loop.
pub struct Endpoint {
    pub addr: SocketAddr,
    handle: JoinHandle<Result<(), scenarios::Error>>,
}

pub fn start_server() -> Result<Endpoint, String> {
    let service = Service::start(
        Registry::standard(),
        ServiceConfig::new().with_threads(threads()),
    )
    .map_err(|e| e.to_string())?;
    let server = Server::bind(service, "127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = std::thread::spawn(move || server.run());
    Ok(Endpoint { addr, handle })
}

/// Shut the server down and join it. `Server::run` joins every connection
/// thread, so the caller must have dropped every other `Client` first: one
/// idle open connection would block the join forever.
pub fn stop_server(endpoint: Endpoint) -> Result<(), String> {
    deadline("server shutdown", SWEEP_DEADLINE, || {
        Client::connect(endpoint.addr)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| e.to_string())?;
        match endpoint.handle.join() {
            Ok(result) => result.map_err(|e| e.to_string()),
            Err(_) => Err("server thread panicked".into()),
        }
    })
}

/// One checked remote request.
pub struct RemoteOut {
    /// Submit→done milliseconds.
    pub ms: f64,
    /// The service coalesced the submit onto an identical earlier request
    /// (which can already have finished), so none of its jobs ran.
    pub deduped: bool,
}

/// Submit + wait of one request over `client`, checked against the
/// reference `name`.
pub fn remote_sweep(
    client: &mut Client,
    request: &SweepRequest,
    name: &'static str,
) -> Result<RemoteOut, String> {
    let t = Instant::now();
    let receipt = client.submit(request).map_err(|e| e.to_string())?;
    let response = client.wait(receipt.id).map_err(|e| e.to_string())?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let artifact = done_artifact(response)?;
    if !matches_reference(name, &artifact) {
        return Err(format!("artifact differs from reference `{name}`"));
    }
    Ok(RemoteOut {
        ms,
        deduped: receipt.deduped,
    })
}

fn short_op(client: &mut Client) -> Option<RemoteOut> {
    let out = deadline("short request", SHORT_DEADLINE, || {
        remote_sweep(client, &short_request(), "short")
    });
    let ok = out.as_ref().map(|_| ()).map_err(Clone::clone);
    record("short request", ok).then(|| out.expect("checked above"))
}

/// Background sweeps completed.
#[derive(Default)]
struct Background {
    sweeps: usize,
    /// Submits coalesced onto the previous, just-finished sweep.
    deduped: usize,
}

/// Keep one background fig01 sweep running on its own connection until
/// `stop`; the sweep in flight at `stop` is cancelled. The id and job
/// count of every submit go into `submitted`, so that the jobs finished by
/// any moment, in whole and in partial sweeps, can be read off one `list`.
fn background_loop(
    addr: SocketAddr,
    stop: &AtomicBool,
    current: &AtomicU64,
    submitted: &Mutex<BTreeMap<u64, usize>>,
) -> Result<Background, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let request = background_request();
    let mut done = Background::default();
    while !stop.load(Ordering::SeqCst) {
        let receipt = client.submit(&request).map_err(|e| e.to_string())?;
        submitted
            .lock()
            .expect("submitted sweeps")
            .insert(receipt.id, receipt.total_jobs);
        current.store(receipt.id, Ordering::SeqCst);
        if stop.load(Ordering::SeqCst) {
            client.cancel(receipt.id).map_err(|e| e.to_string())?;
        }
        let response = deadline("background sweep", SWEEP_DEADLINE, || {
            client.wait(receipt.id)
        })
        .map_err(|e| e.to_string())?;
        if response.status == SweepStatus::Cancelled {
            break;
        }
        let artifact = done_artifact(response)?;
        let ok = if matches_reference("background", &artifact) {
            Ok(())
        } else {
            Err("artifact differs from reference `background`".into())
        };
        if record("background sweep", ok) {
            // A coalesced submit shares the finished sweep's id and ran no
            // jobs of its own.
            if receipt.deduped {
                done.deduped += 1;
            } else {
                done.sweeps += 1;
            }
        }
    }
    Ok(done)
}

/// `service_mixed`: one connection keeps a background fig01 sweep running
/// while a second runs a closed loop of short requests with seeded
/// think-time jitter, all over TCP to an in-process server.
pub fn service_mixed(seed: u64, seconds: f64) -> (Vec<Metric>, Vec<Metric>) {
    let mut setup = Vec::new();
    let mut live: Option<(Endpoint, Client)> = None;
    for i in 0..SETUP_REPEATS {
        let t = Instant::now();
        let started = start_server().and_then(|endpoint| {
            let client = Client::connect(endpoint.addr).map_err(|e| e.to_string());
            match client {
                Ok(client) => Ok((endpoint, client)),
                Err(e) => {
                    let _ = stop_server(endpoint);
                    Err(e)
                }
            }
        });
        let (endpoint, mut client) = match started {
            Ok(pair) => pair,
            Err(why) => {
                record("service set-up", Err(why));
                return (Vec::new(), Vec::new());
            }
        };
        short_op(&mut client);
        let ping = deadline("ping", SHORT_DEADLINE, || client.ping()).map_err(|e| e.to_string());
        record("ping", ping);
        setup.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUP_REPEATS {
            drop(client);
            record("server shutdown", stop_server(endpoint));
        } else {
            live = Some((endpoint, client));
        }
    }
    let (endpoint, mut client) = live.expect("last set-up is kept");

    let stop = Arc::new(AtomicBool::new(false));
    let current = Arc::new(AtomicU64::new(0));
    let submitted = Arc::new(Mutex::new(BTreeMap::new()));
    let background = {
        let (stop, current, submitted, addr) = (
            Arc::clone(&stop),
            Arc::clone(&current),
            Arc::clone(&submitted),
            endpoint.addr,
        );
        std::thread::spawn(move || background_loop(addr, &stop, &current, &submitted))
    };
    deadline("background start", SHORT_DEADLINE, || {
        while current.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    });

    let mut rng = SplitMix::new(seed);
    let (mut ops_ms, mut short_deduped) = (Vec::new(), 0usize);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        std::thread::sleep(Duration::from_secs_f64(rng.unit() * THINK_MAX_MS / 1e3));
        match short_op(&mut client) {
            // Coalesced onto the previous short request: no job ran, so
            // it is no sample of the short path.
            Some(out) if out.deduped => short_deduped += 1,
            Some(out) => ops_ms.push(out.ms),
            None => {}
        }
    }

    // Background throughput over the same window: one snapshot of every
    // request's progress at its end, so no sweep boundary rounds it.
    stop.store(true, Ordering::SeqCst);
    let listed = deadline("list", SHORT_DEADLINE, || client.list());
    let window_s = start.elapsed().as_secs_f64();
    let id = current.load(Ordering::SeqCst);
    let cancelled = deadline("cancel background", SHORT_DEADLINE, || client.cancel(id));
    record(
        "cancel background",
        cancelled.map(|_| ()).map_err(|e| e.to_string()),
    );
    let background = background
        .join()
        .unwrap_or_else(|_| Err("background thread panicked".into()))
        .unwrap_or_else(|why| {
            record("background loop", Err(why));
            Background::default()
        });
    drop(client);
    record("server shutdown", stop_server(endpoint));

    // The background thread has ended, so `submitted` holds every sweep
    // that can appear in the snapshot.
    let submitted = submitted.lock().expect("submitted sweeps");
    let background_jobs: usize = match listed {
        Ok(listed) => listed
            .iter()
            .filter_map(|r| match (submitted.get(&r.id), &r.status) {
                (Some(total), SweepStatus::Done) => Some(*total),
                (Some(_), SweepStatus::Running { done, .. }) => Some(*done),
                _ => None,
            })
            .sum(),
        Err(e) => {
            record("list", Err(e.to_string()));
            0
        }
    };
    let jobs_per_s = background_jobs as f64 / window_s;
    let mut ledger = vec![
        metric("short_p50_ms", percentile(&ops_ms, 0.5), "ms"),
        metric("short_p90_ms", percentile(&ops_ms, 0.9), "ms"),
        metric("short_samples", ops_ms.len() as f64, "count"),
        metric("short_deduped", short_deduped as f64, "count"),
        metric("background_jobs_per_s", jobs_per_s, "1/s"),
        metric("background_sweeps", background.sweeps as f64, "count"),
        metric("background_deduped", background.deduped as f64, "count"),
    ];
    let metrics = summary(&mut ledger, &setup, &ops_ms, jobs_per_s);
    (ledger, metrics)
}
