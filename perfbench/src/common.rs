//! Shared plumbing: the requests every workload sends, the reference
//! digests they are checked against, op deadlines, failure accounting,
//! statistics and the result line.

use crate::sha256::hex_digest;
use scenarios::{SweepRequest, SweepResponse, SweepStatus};
use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Seeds of the suite request (`REPORT_SEED, REPORT_SEED+1`), as in the
/// ROADMAP's `run --all --seeds 2` measurement.
pub const SUITE_SEEDS: usize = 2;
/// Background fig01 sweep of `service_mixed`: a shortened horizon keeps
/// each job a few hundred ms (well over 10x a fig07 job) while
/// `nodes=1800` keeps the monitor's O(nodes) share as in `cold_suite`.
pub const BACKGROUND_HORIZON_DAYS: f64 = 2.5;
pub const BACKGROUND_SEEDS: usize = 48;
/// Upper end of the uniform think time between a client's short requests.
pub const THINK_MAX_MS: f64 = 10.0;

/// `scenarios run --all --seeds 2`.
pub fn suite_request() -> SweepRequest {
    SweepRequest::new().every_scenario().with_seeds(SUITE_SEEDS)
}

/// The short request of the CI `service-smoke` job.
pub fn short_request() -> SweepRequest {
    SweepRequest::new()
        .scenario("fig07_latency")
        .scenario("tab03_idle_node")
        .with_seeds(2)
}

pub fn background_request() -> SweepRequest {
    SweepRequest::new()
        .scenario("fig01_utilization")
        .param("horizon_days", BACKGROUND_HORIZON_DAYS)
        .with_seeds(BACKGROUND_SEEDS)
}

/// Pool size of every service the benchmark starts: one thread per core
/// the process may use when it starts (`pin_to_one_cpu` does not shrink
/// it).
pub fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Restrict the calling thread, and every thread it starts from now on, to
/// the first CPU it may use. Returns whether that worked.
pub fn pin_to_one_cpu() -> bool {
    threads();
    #[cfg(target_os = "linux")]
    {
        // glibc's `cpu_set_t`: 1024 bits.
        const WORDS: usize = 16;
        unsafe extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        let mut mask = [0u64; WORDS];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer; pid 0 is
        // the calling thread.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            return false;
        }
        let Some(word) = mask.iter().position(|&w| w != 0) else {
            return false;
        };
        let mut one = [0u64; WORDS];
        one[word] = 1 << mask[word].trailing_zeros();
        // SAFETY: as above, and `one` names a CPU the thread may already use.
        unsafe { sched_setaffinity(0, size, one.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    false
}

// ---------------------------------------------------------------------------
// Reference artifacts

/// Name of each checked request in `reference.json`.
pub const REFERENCE_REQUESTS: [&str; 3] = ["suite", "short", "background"];

pub fn reference_request(name: &str) -> SweepRequest {
    match name {
        "suite" => suite_request(),
        "short" => short_request(),
        "background" => background_request(),
        other => panic!("no reference request named {other}"),
    }
}

/// The committed `(sha256, bytes)` of each reference artifact.
pub fn reference(name: &str) -> &'static (String, u64) {
    static REFS: OnceLock<BTreeMap<String, (String, u64)>> = OnceLock::new();
    let refs = REFS.get_or_init(|| {
        let text = include_str!("../reference.json");
        let Ok(Value::Map(entries)) = serde_json::from_str(text) else {
            panic!("reference.json is not a JSON object");
        };
        entries
            .into_iter()
            .map(|(name, v)| {
                let Value::Map(fields) = v else {
                    panic!("reference.json: `{name}` is not an object");
                };
                let get = |k: &str| fields.iter().find(|(f, _)| f == k).map(|(_, v)| v.clone());
                let (Some(Value::Str(sha)), Some(Value::U64(bytes))) =
                    (get("sha256"), get("bytes"))
                else {
                    panic!("reference.json: `{name}` needs `sha256` and `bytes`");
                };
                (name, (sha, bytes))
            })
            .collect()
    });
    refs.get(name)
        .unwrap_or_else(|| panic!("reference.json has no entry `{name}`"))
}

/// True when `artifact` is the committed reference artifact `name`.
pub fn matches_reference(name: &str, artifact: &str) -> bool {
    let (sha, bytes) = reference(name);
    artifact.len() as u64 == *bytes && hex_digest(artifact.as_bytes()) == *sha
}

/// The artifact of a `Done` response, or why there is none.
pub fn done_artifact(response: SweepResponse) -> Result<String, String> {
    match (response.status, response.artifact) {
        (SweepStatus::Done, Some(artifact)) => Ok(artifact),
        (SweepStatus::Done, None) => Err("done response carries no artifact".into()),
        (status, _) => Err(format!("request ended {status:?}")),
    }
}

// ---------------------------------------------------------------------------
// Failure accounting and deadlines

static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
static FAILED: AtomicU64 = AtomicU64::new(0);

/// Count one checked op; a failure is reported on stderr.
pub fn record(what: &str, outcome: Result<(), String>) -> bool {
    ATTEMPTED.fetch_add(1, Ordering::SeqCst);
    match outcome {
        Ok(()) => true,
        Err(why) => {
            FAILED.fetch_add(1, Ordering::SeqCst);
            eprintln!("[perfbench] FAILED {what}: {why}");
            false
        }
    }
}

pub fn counts() -> (u64, u64) {
    (
        ATTEMPTED.load(Ordering::SeqCst),
        FAILED.load(Ordering::SeqCst),
    )
}

/// Ops currently in flight, with their deadlines.
static ARMED: Mutex<Vec<(u64, Instant, &'static str)>> = Mutex::new(Vec::new());
static NEXT_ARM: AtomicU64 = AtomicU64::new(0);

/// Run `f` under a deadline. Nothing can interrupt a blocked
/// `Service::wait` or `Client::wait`, so an op that overruns is failed by
/// the watchdog, which ends the run with a failing result instead of
/// letting it hang.
pub fn deadline<T>(what: &'static str, limit: Duration, f: impl FnOnce() -> T) -> T {
    let id = NEXT_ARM.fetch_add(1, Ordering::Relaxed);
    ARMED
        .lock()
        .expect("deadline table")
        .push((id, Instant::now() + limit, what));
    let out = f();
    ARMED
        .lock()
        .expect("deadline table")
        .retain(|(i, _, _)| *i != id);
    out
}

/// Start the watchdog: it fails the run when any armed op overruns its
/// deadline or the whole run exceeds `run_limit`.
pub fn start_watchdog(run_limit: Duration, work: PathBuf) {
    let run_deadline = Instant::now() + run_limit;
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(25));
        let now = Instant::now();
        let overrun = ARMED
            .lock()
            .expect("deadline table")
            .iter()
            .find(|(_, at, _)| *at <= now)
            .map(|(_, _, what)| *what)
            .or((now >= run_deadline).then_some("the whole run"));
        if let Some(what) = overrun {
            record(what, Err("deadline exceeded".into()));
            let _ = std::fs::remove_dir_all(&work);
            print_result(&[], &[]);
            std::process::exit(1);
        }
    });
}

// ---------------------------------------------------------------------------
// Statistics

/// Linear-interpolated percentile `q` in [0, 1] of `values`; NaN (which
/// fails the run) when there are none.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Interquartile mean: the mean of the middle half of `values`. Like the
/// median it ignores the slowest quarter; unlike the median it averages
/// half the samples instead of reading one, so it varies less between runs
/// when the samples are widely spread. NaN when there are none.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quarter = v.len() / 4;
    let middle = &v[quarter..v.len() - quarter];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Median wall seconds of `n` runs of `f`.
pub fn median_secs(n: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// SplitMix64: the benchmark's own seeded generator for think times.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Peak resident set size of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------------
// Scratch directories

/// A per-run scratch directory under the checkout, removed on drop.
pub struct WorkDir {
    root: PathBuf,
    next: AtomicU64,
}

impl WorkDir {
    pub fn new(root: PathBuf) -> WorkDir {
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create the benchmark work directory");
        WorkDir {
            root,
            next: AtomicU64::new(0),
        }
    }

    /// A fresh, not yet existing path inside the work directory.
    pub fn fresh(&self, what: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("{what}-{n}"))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

// ---------------------------------------------------------------------------
// Output

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Print the human-readable `ledger` lines, then the one-line JSON result
/// (the last line of stdout). Returns whether the run was correct.
pub fn print_result(ledger: &[Metric], metrics: &[Metric]) -> bool {
    if counts().0 == 0 {
        record("the run", Err("no op was attempted".into()));
    }
    let (attempted, failed) = counts();
    for m in ledger {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("[perfbench] FAILED: a metric is not finite");
    }
    let correct = failed == 0 && attempted > 0 && finite;
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.value.is_finite())
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted,
        body.join(", ")
    );
    correct
}
