//! Scheduler hot-path throughput: indexed `Cluster` vs the frozen scan
//! oracle (`cluster::reference::RefCluster`), driven like-for-like through
//! one arrival/completion event loop. Requires `--features oracle`:
//!
//! ```text
//! cargo bench -p cluster --features oracle
//! ```
//!
//! Measurement protocol matches `BENCH_event_loop`: criterion smoke cases
//! keep `--test` runs honest, the measured pass takes the median of three
//! full replays for every committed metric (the scan oracle gets a single
//! replay on non-headline streams — see the measured-pass comment), and the
//! JSON this bench writes
//! (`target/figures/BENCH_cluster_sched.json`, override with
//! `BENCH_CLUSTER_SCHED_JSON`) is the *authoritative* throughput record —
//! the committed repo-root `BENCH_cluster_sched.json` is a snapshot of it
//! and CI's `perf-gate` job compares a fresh run against
//! `ci/perf_baseline.json`. Before any timing, every workload is replayed
//! once on both implementations and the full started-job sequences must
//! hash identically: the speedup column is only meaningful because the two
//! schedulers provably make the same decisions.
//!
//! The utilization sampler gets the same treatment: `fig01_replay` replays
//! the 1,800-node Piz Daint profile (the `fig01_utilization` workload) and
//! samples it every two simulated minutes; the incremental
//! `UtilizationMonitor` and the frozen scan sampler
//! (`cluster::reference::RefMonitor`) first sample one replay in lockstep
//! and must report identical bits, then each is timed over its `sample`
//! calls alone (`monitor_1800_samples_per_sec`).

use cluster::reference::{report_bits, RefCluster, RefMonitor};
use cluster::{Cluster, JobId, JobSpec, NodeResources, TraceProfile, UtilizationMonitor};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use des::{RngStream, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// One synthetic submission: arrival time, spec, trace-side actual runtime.
struct Arrival {
    at: SimTime,
    spec: JobSpec,
    actual: SimTime,
    /// Backfill/cancel-heavy stream only: cancel the job submitted this many
    /// arrivals earlier (if it is still waiting) when this job arrives.
    cancel_back: Option<usize>,
}

/// Loaded-but-stable exclusive+shared mix: small jobs dominate (keeping many
/// placement decisions per second), occasional wide jobs block the head and
/// force the backfill path. The interarrival time is derived from the mean
/// node-seconds the mix actually demands so offered load is ~75% of nominal
/// capacity at every cluster size: high enough that the queue stays occupied
/// and backfill fires constantly, low enough that queue depth stays bounded.
/// (An oversubscribed stream is useless as a benchmark: the pending queue —
/// and with it per-event cost — grows without bound on *both*
/// implementations, measuring queue depth rather than scheduler work.)
fn workload(nodes: usize, jobs: usize, seed: u64, cancel_heavy: bool) -> Vec<Arrival> {
    let mut rng = RngStream::from_seed(seed);
    let wide_lo = (nodes as u64 / 16).max(2);
    let wide_hi = (nodes as u64 / 8).max(4);
    // Means of the distributions drawn below; actual runtime is walltime ×
    // U(0.3, 1.0), i.e. 0.65 × mean walltime. Wide-job demand scales with
    // the cluster, so it must be part of the load accounting.
    let wide_node_secs = (wide_lo + wide_hi) as f64 / 2.0 * (0.65 * 5_500.0);
    let small_node_secs = (19.0 / 7.0) * (0.65 * 1_260.0);
    let node_secs_per_job = 0.02 * wide_node_secs + 0.98 * small_node_secs;
    let mean_interarrival_s = node_secs_per_job / (nodes as f64 * 0.75);
    let mut now = 0.0f64;
    (0..jobs)
        .map(|i| {
            now += rng.exponential(mean_interarrival_s);
            let wide = rng.chance(0.02);
            let n = if wide {
                rng.u64_range(wide_lo..wide_hi + 1) as u32
            } else {
                [1u64, 1, 1, 2, 2, 4, 8][rng.u64_range(0..7) as usize] as u32
            };
            let walltime_s = if wide {
                rng.u64_range(3_000..8_000)
            } else {
                rng.u64_range(120..2_400)
            };
            let actual_s = (walltime_s as f64 * (0.3 + 0.7 * rng.f64())) as u64;
            let shared = !wide && rng.chance(0.15);
            let per_node = if shared {
                NodeResources {
                    cores: 9,
                    memory_mb: 16 * 1024,
                    gpus: 0,
                }
            } else {
                NodeResources::daint_mc()
            };
            let spec = if shared {
                JobSpec::shared(n, per_node, SimTime::from_secs(walltime_s), "bench")
            } else {
                JobSpec::exclusive(n, per_node, SimTime::from_secs(walltime_s), "bench")
            };
            Arrival {
                at: SimTime::from_secs(now as u64),
                spec,
                actual: SimTime::from_secs(actual_s.max(1)),
                cancel_back: (cancel_heavy && i % 3 == 0 && i >= 16).then_some(13),
            }
        })
        .collect()
}

/// The scheduler surface the replay driver needs; implemented by both the
/// indexed production cluster and the scan oracle so one driver times both.
trait Sched {
    fn submit(&mut self, spec: JobSpec, actual: SimTime, now: SimTime) -> JobId;
    fn try_schedule(&mut self, now: SimTime) -> (Vec<JobId>, Vec<SimTime>);
    fn finish(&mut self, id: JobId, now: SimTime);
    fn cancel(&mut self, id: JobId, now: SimTime) -> bool;
    fn actual_runtime(&self, id: JobId) -> SimTime;
}

impl Sched for Cluster {
    fn submit(&mut self, spec: JobSpec, actual: SimTime, now: SimTime) -> JobId {
        Cluster::submit(self, spec, actual, now)
    }
    fn try_schedule(&mut self, now: SimTime) -> (Vec<JobId>, Vec<SimTime>) {
        Cluster::try_schedule(self, now)
    }
    fn finish(&mut self, id: JobId, now: SimTime) {
        Cluster::finish(self, id, now).expect("driver only finishes running jobs");
    }
    fn cancel(&mut self, id: JobId, now: SimTime) -> bool {
        Cluster::cancel(self, id, now).is_ok()
    }
    fn actual_runtime(&self, id: JobId) -> SimTime {
        self.job(id).expect("exists").actual_runtime
    }
}

impl Sched for RefCluster {
    fn submit(&mut self, spec: JobSpec, actual: SimTime, now: SimTime) -> JobId {
        RefCluster::submit(self, spec, actual, now)
    }
    fn try_schedule(&mut self, now: SimTime) -> (Vec<JobId>, Vec<SimTime>) {
        RefCluster::try_schedule(self, now)
    }
    fn finish(&mut self, id: JobId, now: SimTime) {
        RefCluster::finish(self, id, now).expect("driver only finishes running jobs");
    }
    fn cancel(&mut self, id: JobId, now: SimTime) -> bool {
        RefCluster::cancel(self, id, now).is_ok()
    }
    fn actual_runtime(&self, id: JobId) -> SimTime {
        self.job(id).expect("exists").actual_runtime
    }
}

/// Replay the whole stream through arrivals/completions/cancellations and
/// return an order-sensitive FNV hash of every `(event index, started job)`
/// pair — the bit-identity witness compared across implementations. The
/// driver keeps its own completion heap so the replay cost is the
/// *scheduler's*, not an O(running) `next_completion` scan per event.
fn replay<S: Sched>(cluster: &mut S, stream: &[Arrival]) -> u64 {
    let mut completions: BinaryHeap<Reverse<(SimTime, JobId)>> = BinaryHeap::new();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut started_events = 0u64;
    let fold = |h: &mut u64, v: u64| {
        *h ^= v;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    let mut on_started =
        |started: Vec<JobId>,
         now: SimTime,
         cluster: &S,
         completions: &mut BinaryHeap<Reverse<(SimTime, JobId)>>| {
            for id in started {
                started_events += 1;
                fold(&mut hash, started_events);
                fold(&mut hash, id.0);
                fold(&mut hash, now.as_nanos());
                completions.push(Reverse((now + cluster.actual_runtime(id), id)));
            }
        };
    let mut submitted: Vec<JobId> = Vec::with_capacity(stream.len());
    let mut live: Vec<bool> = Vec::with_capacity(stream.len());
    for arrival in stream {
        // Drain completions that precede this arrival.
        while let Some(&Reverse((t, id))) = completions.peek() {
            if t > arrival.at {
                break;
            }
            completions.pop();
            if !live[id.0 as usize - 1] {
                continue; // cancelled while running; nodes already released
            }
            cluster.finish(id, t);
            live[id.0 as usize - 1] = false;
            let (started, _) = cluster.try_schedule(t);
            on_started(started, t, cluster, &mut completions);
        }
        if let Some(back) = arrival.cancel_back {
            let victim = submitted[submitted.len() - back];
            if live[victim.0 as usize - 1] && cluster.cancel(victim, arrival.at) {
                live[victim.0 as usize - 1] = false;
                let (started, _) = cluster.try_schedule(arrival.at);
                on_started(started, arrival.at, cluster, &mut completions);
            }
        }
        let id = cluster.submit(arrival.spec.clone(), arrival.actual, arrival.at);
        debug_assert_eq!(id.0 as usize, submitted.len() + 1);
        submitted.push(id);
        live.push(true);
        let (started, _) = cluster.try_schedule(arrival.at);
        on_started(started, arrival.at, cluster, &mut completions);
    }
    // Drain the tail so every run does the same total work.
    while let Some(Reverse((t, id))) = completions.pop() {
        if !live[id.0 as usize - 1] {
            continue;
        }
        cluster.finish(id, t);
        live[id.0 as usize - 1] = false;
        let (started, _) = cluster.try_schedule(t);
        on_started(started, t, cluster, &mut completions);
    }
    fold(&mut hash, started_events);
    hash
}

fn indexed_cluster(nodes: usize) -> Cluster {
    Cluster::homogeneous(nodes, NodeResources::daint_mc())
}

fn scan_cluster(nodes: usize) -> RefCluster {
    RefCluster::homogeneous(nodes, NodeResources::daint_mc())
}

/// Run `n` full replays, returning the decision hash (asserted identical
/// across runs — the replay is deterministic) and the median jobs/sec.
/// Every timed run doubles as an equivalence sample: callers compare the
/// returned hashes across implementations, so no replay is ever spent on
/// verification alone. Per-run progress goes to stderr (a full scan replay
/// on 8k nodes takes minutes; silence would be indistinguishable from a
/// hang).
fn timed_replays<S: Sched>(
    n: usize,
    mut make: impl FnMut() -> S,
    stream: &[Arrival],
    label: &str,
) -> (u64, f64) {
    let mut rates: Vec<f64> = Vec::with_capacity(n);
    let mut hash: Option<u64> = None;
    for i in 0..n {
        let mut c = make();
        let t0 = Instant::now();
        let h = black_box(replay(&mut c, stream));
        let secs = t0.elapsed().as_secs_f64();
        eprintln!("[cluster_sched] {label} run {}/{n}: {secs:.1}s", i + 1);
        match hash {
            None => hash = Some(h),
            Some(prev) => assert_eq!(prev, h, "{label}: replay is not deterministic"),
        }
        rates.push(stream.len() as f64 / secs);
    }
    rates.sort_by(|a, b| a.total_cmp(b));
    (hash.expect("n >= 1"), rates[rates.len() / 2])
}

/// What the fig01 replay feeds a utilization sampler.
trait Sampler {
    fn sample(&mut self, cluster: &Cluster, now: SimTime);
    fn record_exact_idle_period(&mut self, period: SimTime);
}

impl Sampler for UtilizationMonitor {
    fn sample(&mut self, cluster: &Cluster, now: SimTime) {
        UtilizationMonitor::sample(self, cluster, now)
    }
    fn record_exact_idle_period(&mut self, period: SimTime) {
        UtilizationMonitor::record_exact_idle_period(self, period)
    }
}

impl Sampler for RefMonitor {
    fn sample(&mut self, cluster: &Cluster, now: SimTime) {
        RefMonitor::sample(self, cluster.nodes(), now)
    }
    fn record_exact_idle_period(&mut self, period: SimTime) {
        RefMonitor::record_exact_idle_period(self, period)
    }
}

/// Two samplers fed the same replay, for the bit-identity check.
impl<A: Sampler, B: Sampler> Sampler for (A, B) {
    fn sample(&mut self, cluster: &Cluster, now: SimTime) {
        self.0.sample(cluster, now);
        self.1.sample(cluster, now);
    }
    fn record_exact_idle_period(&mut self, period: SimTime) {
        self.0.record_exact_idle_period(period);
        self.1.record_exact_idle_period(period);
    }
}

/// Accumulates the wall time spent inside the wrapped `sample` calls only.
struct Timed<S> {
    inner: S,
    samples: usize,
    secs: f64,
}

impl<S: Sampler> Sampler for Timed<S> {
    fn sample(&mut self, cluster: &Cluster, now: SimTime) {
        let t0 = Instant::now();
        self.inner.sample(cluster, now);
        self.secs += t0.elapsed().as_secs_f64();
        self.samples += 1;
    }
    fn record_exact_idle_period(&mut self, period: SimTime) {
        self.inner.record_exact_idle_period(period)
    }
}

/// Replay `hours` of the Piz Daint profile on its 1,800 nodes the way
/// `cluster::simulate_trace` does, without the DES engine: Poisson
/// arrivals, completions at the actual runtime, and a sample every two
/// simulated minutes after the same warm-up window.
fn fig01_replay(hours: u64, seed: u64, sampler: &mut impl Sampler) {
    let profile = TraceProfile::piz_daint();
    let mut rng = RngStream::from_seed(seed);
    let mut cluster = Cluster::homogeneous(profile.nodes, profile.node_capacity);
    let horizon = SimTime::from_hours(hours);
    let interval = SimTime::from_mins(2);
    let mut completions: BinaryHeap<Reverse<(SimTime, JobId)>> = BinaryHeap::new();
    let mut next_arrival = SimTime::ZERO;
    let mut next_sample = SimTime::from_hours(6).min(horizon / 10);
    loop {
        let next_completion = completions.peek().map_or(SimTime::MAX, |r| r.0 .0);
        let now = next_arrival.min(next_completion).min(next_sample);
        if now > horizon {
            return;
        }
        if now == next_sample {
            sampler.sample(&cluster, now);
            next_sample += interval;
            continue;
        }
        if now == next_completion {
            let Reverse((_, id)) = completions.pop().expect("peeked");
            cluster.finish(id, now).expect("running job finishes");
        } else {
            let (spec, runtime) = profile.draw_job(&mut rng);
            cluster.submit(spec, runtime, now);
            let dt = SimTime::from_secs_f64(rng.exponential(profile.mean_interarrival_s));
            next_arrival = now + dt.max(SimTime::from_nanos(1));
        }
        let (started, idle_periods) = cluster.try_schedule(now);
        for p in idle_periods {
            sampler.record_exact_idle_period(p);
        }
        for id in started {
            let runtime = cluster.job(id).expect("started job").actual_runtime;
            completions.push(Reverse((now + runtime, id)));
        }
    }
}

/// Sample one replay with both samplers in lockstep; their reports must
/// be bit-identical.
fn assert_sampler_matches_scan(hours: u64, seed: u64) {
    let mut both = (UtilizationMonitor::two_minute(), RefMonitor::two_minute());
    fig01_replay(hours, seed, &mut both);
    let (incremental, scan) = (both.0.finish(), both.1.finish());
    assert!(
        !incremental.idle_nodes.is_empty(),
        "the replay took no samples"
    );
    assert_eq!(
        report_bits(&incremental),
        report_bits(&scan),
        "incremental sampler diverged from the scan sampler"
    );
}

/// Median samples/sec over `n` replays, timing the `sample` calls only.
fn timed_samples<S: Sampler>(
    n: usize,
    mut make: impl FnMut() -> S,
    hours: u64,
    label: &str,
) -> f64 {
    let mut rates: Vec<f64> = (0..n)
        .map(|i| {
            let mut timed = Timed {
                inner: make(),
                samples: 0,
                secs: 0.0,
            };
            fig01_replay(hours, 29, &mut timed);
            eprintln!(
                "[cluster_sched] {label} run {}/{n}: {} samples in {:.3}s",
                i + 1,
                timed.samples,
                timed.secs
            );
            timed.samples as f64 / timed.secs
        })
        .collect();
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[rates.len() / 2]
}

fn bench_cluster_sched(c: &mut Criterion) {
    // Smoke cases: small enough for `cargo bench -- --test`, and the
    // bit-identity witness runs on every invocation, smoke or measured.
    let smoke = workload(256, 2_000, 3, false);
    let smoke_cancel = workload(256, 2_000, 5, true);
    for (name, stream) in [("steady", &smoke), ("cancel_backfill", &smoke_cancel)] {
        let indexed = replay(&mut indexed_cluster(256), stream);
        let scan = replay(&mut scan_cluster(256), stream);
        assert_eq!(
            indexed, scan,
            "indexed scheduler diverged from the scan oracle on the {name} smoke stream"
        );
    }
    let mut g = c.benchmark_group("cluster_sched");
    g.bench_function("replay_256n_2k_indexed", |b| {
        b.iter(|| black_box(replay(&mut indexed_cluster(256), &smoke)));
    });
    g.bench_function("replay_256n_2k_scan", |b| {
        b.iter(|| black_box(replay(&mut scan_cluster(256), &smoke)));
    });
    g.bench_function("replay_256n_2k_cancel_backfill_indexed", |b| {
        b.iter(|| black_box(replay(&mut indexed_cluster(256), &smoke_cancel)));
    });
    assert_sampler_matches_scan(12, 31);
    g.bench_function("monitor_1800n_12h", |b| {
        b.iter(|| {
            let mut m = UtilizationMonitor::two_minute();
            fig01_replay(12, 31, &mut m);
            black_box(m.finish())
        });
    });
    g.finish();

    if std::env::args().any(|a| a == "--test") {
        return;
    }

    // Measured pass: 100k-job streams on 1k and 8k nodes, plus the
    // cancel/backfill-heavy stream. The headline pair (indexed vs scan on
    // the 8k stream) is median-of-3 on both sides; the 1k and cancel
    // streams verify decision-identity against a single scan replay (the
    // scan side of those streams is a correctness witness, not a committed
    // metric, and a full scan replay costs tens of seconds).
    let jobs = 100_000u64;
    let stream_1k = workload(1_000, jobs as usize, 17, false);
    let stream_8k = workload(8_000, jobs as usize, 19, false);
    let stream_8k_cancel = workload(8_000, jobs as usize, 23, true);

    let (h_idx_1k, idx_1k) = timed_replays(3, || indexed_cluster(1_000), &stream_1k, "1k idx");
    let (h_scan_1k, _) = timed_replays(1, || scan_cluster(1_000), &stream_1k, "1k scan");
    assert_eq!(h_idx_1k, h_scan_1k, "divergence on the 1k stream");

    let (h_idx_8k, idx_8k) = timed_replays(3, || indexed_cluster(8_000), &stream_8k, "8k idx");
    let (h_scan_8k, scan_8k) = timed_replays(3, || scan_cluster(8_000), &stream_8k, "8k scan");
    assert_eq!(h_idx_8k, h_scan_8k, "divergence on the 8k stream");

    let (h_idx_8kc, idx_8k_cancel) = timed_replays(
        3,
        || indexed_cluster(8_000),
        &stream_8k_cancel,
        "8k cancel idx",
    );
    let (h_scan_8kc, _) = timed_replays(
        1,
        || scan_cluster(8_000),
        &stream_8k_cancel,
        "8k cancel scan",
    );
    assert_eq!(h_idx_8kc, h_scan_8kc, "divergence on the 8k cancel stream");

    // The sampler over fig01's 14-day horizon: 9,901 samples per replay.
    assert_sampler_matches_scan(14 * 24, 29);
    let mon = timed_samples(3, UtilizationMonitor::two_minute, 14 * 24, "monitor");
    let mon_scan = timed_samples(3, RefMonitor::two_minute, 14 * 24, "monitor scan");

    let speedup = idx_8k / scan_8k;
    println!("cluster_sched/1k_100k:        {idx_1k:.0} jobs/s (indexed, median of 3)");
    println!("cluster_sched/8k_100k:        {idx_8k:.0} jobs/s (indexed, median of 3)");
    println!("cluster_sched/8k_cancel:      {idx_8k_cancel:.0} jobs/s (indexed, median of 3)");
    println!("cluster_sched/8k_100k_scan:   {scan_8k:.0} jobs/s (scan oracle)");
    println!("cluster_sched/speedup_8k:     {speedup:.1}x");
    println!("cluster_sched/monitor_1800:   {mon:.0} samples/s (incremental, median of 3)");
    println!("cluster_sched/monitor_scan:   {mon_scan:.0} samples/s (scan oracle, median of 3)");

    let json = format!(
        "{{\n  \"sched_1k_100k_jobs_per_sec\": {idx_1k:.0},\n  \
         \"sched_8k_100k_jobs_per_sec\": {idx_8k:.0},\n  \
         \"sched_8k_cancel_backfill_jobs_per_sec\": {idx_8k_cancel:.0},\n  \
         \"sched_8k_100k_scan_jobs_per_sec\": {scan_8k:.0},\n  \
         \"sched_8k_speedup_vs_scan\": {speedup:.2},\n  \
         \"monitor_1800_samples_per_sec\": {mon:.0},\n  \
         \"monitor_1800_scan_samples_per_sec\": {mon_scan:.0}\n}}\n"
    );
    let path = std::env::var("BENCH_CLUSTER_SCHED_JSON").unwrap_or_else(|_| {
        format!(
            "{}/../../target/figures/BENCH_cluster_sched.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });
    if let Some(dir) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, json) {
        Ok(()) => println!("[json] {path}"),
        Err(e) => eprintln!("[json] failed to write {path}: {e}"),
    }
}

criterion_group!(benches, bench_cluster_sched);
criterion_main!(benches);
